"""Command-line behavior: exit codes, report shapes, determinism."""

import json
import pathlib
import time

import pytest

from latticegas import cli, configs, excitations, sublattices
from latticegas.cli import run
from latticegas.configs import PeriodicConfiguration
from latticegas.families import (
    build_bcc,
    build_cubic,
    build_d4_family,
    build_fcc,
    build_layered_2l2,
    build_layered_d5,
    build_layered_d6_rhombic,
    build_layered_d6_tri,
    build_phi9,
    build_phi10,
)
from latticegas.reporting import config_payload
from latticegas.sublattices import r3_formula
from test_configs import _supercell_without_one
from test_hygiene import cli_wrapped


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run_capture(capsys, argv)
    return code, json.loads(out)


# The recorded stdout and exit code of each command of the benchmark's
# command set, and the input files those commands read, as the benchmark
# writes them: a build file holds the stdout of its build command.
BENCH_EXPECTED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "cli.json"
BENCH_FILES = {
    "hcp.json": ("build", "pc build --d2 5 --family d5 --seq 01"),
    "tri.json": ("build", "pc build --d2 6 --family d6tri --seq 021"),
    "fcc2.json": ("build", "pc build --d2 8 --family fcc --l 2"),
    "phi10.json": ("build", "pc build --d2 10 --family phi10 --l 0"),
    "l3.json": ("build", "pc build --d2 18 --family 2l2 --l 3 --seq 01"),
    "ins5.json": ("text", "[[0, 2, 1]]\n"),
    "ins6.json": ("text", '{"sites": [[-1, -1, -1], [-1, 0, 2]]}\n'),
}


@pytest.fixture
def bench_set(tmp_path, monkeypatch):
    """The recorded outcome (exit code, stdout bytes) of each command of the
    benchmark's set, with its input files in the working directory."""
    expected = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))
    for name, (kind, text) in BENCH_FILES.items():
        (tmp_path / name).write_text(expected[text]["stdout"] if kind == "build" else text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return {line: (rec["exit"], rec["stdout"].encode("utf-8")) for line, rec in expected.items()}


def run_bytes(capsys, line):
    code = run(line.split())
    return code, capsys.readouterr().out.encode("utf-8")


def test_the_bench_command_set_prints_its_recorded_bytes(bench_set, capsys):
    assert len(bench_set) == 37
    assert [line for line, recorded in bench_set.items() if run_bytes(capsys, line) != recorded] == []


# A command of the benchmark's set that calls each name the benchmark patches
# on latticegas.cli to trace it (perfbench's CLI_WRAPPED). No command calls
# is_perfect: pc check checks the hard-core rule once, then reads the density
# identity.
TRACED_COMMANDS = {
    "load_config_file": "pc check --d2 5 --in hcp.json",
    "load_site_file": "exc report --d2 5 --pc hcp.json --insert ins5.json",
    "verify_forces": "forces verify --d2 2",
    "is_perfect": None,
    "pc_census": "pc census --d2 5",
    "excitation_report": "exc report --d2 6 --pc tri.json --insert ins6.json",
    "window_census": "exc window-census --layers 1 --radius 12",
    "classify_classes": "sublat enumerate --ell 5",
    "fcc_census": "sublat enumerate --ell 7 --fcc",
    "table_densities": "table densities",
}


def test_each_traced_name_is_called_through_the_cli_attribute(bench_set, monkeypatch, capsys):
    assert TRACED_COMMANDS.keys() == cli_wrapped().keys()
    for name, line in TRACED_COMMANDS.items():
        real, calls = getattr(cli, name), []
        with monkeypatch.context() as m:
            m.setattr(cli, name, lambda *a, **k: calls.append(a) or real(*a, **k))
            if line is None:
                for every in bench_set:
                    run_bytes(capsys, every)
            else:
                assert run_bytes(capsys, line) == bench_set[line]
        assert len(calls) == (line is not None), name


def test_pc_check_checks_the_hard_core_rule_once(bench_set, monkeypatch, capsys):
    checks = []

    def counted(pc, d2, real=configs.is_admissible_config):
        checks.append(d2)
        return real(pc, d2)

    monkeypatch.setattr(configs, "is_admissible_config", counted)
    monkeypatch.setattr(cli, "is_admissible_config", counted)
    lines = [line for line in bench_set if line.startswith("pc check")]
    for line in lines:
        assert run_bytes(capsys, line) == bench_set[line]
    assert len(lines) == 4 and checks == [int(line.split()[3]) for line in lines]


def parse_outcome(parser, argv, capsys):
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize("group", cli._GROUPS)
def test_the_parser_of_one_group_prints_what_the_full_parser_prints(group, capsys):
    recorded = json.loads(BENCH_EXPECTED.read_text(encoding="utf-8"))
    actions = sorted({line.split()[1] for line in recorded if line.split()[0] == group})
    argvs = [[group], [group, "-h"], [group, "nope"],
             *([group, action, *rest] for action in actions for rest in (["-h"], ["--nope"]))]
    for argv in argvs:
        assert parse_outcome(cli._build_parser(group), argv, capsys) == \
            parse_outcome(cli._build_parser(), argv, capsys), argv
    # and it holds no subcommand of another group
    other = next(line.split()[:2] for line in recorded if line.split()[0] != group)
    assert parse_outcome(cli._build_parser(group), [*other, "-h"], capsys)[0] == 2


def test_forces_verify_reports_unit_maximum(capsys):
    code, body = run_json(capsys, ["forces", "verify", "--d2", "5"])
    assert code == 0
    assert body["results"]["fstar"] == "1/1"
    assert body["results"]["config_count"] == 82
    assert body["results"]["signatures"] == [[0], [1, 2], [2, 2, 2]]


def test_census_matches_known_count(capsys):
    code, body = run_json(capsys, ["pc", "census", "--d2", "10"])
    assert code == 0
    assert body["results"]["census"] == 208


def test_r3_brute_example(capsys):
    code, body = run_json(capsys, ["sublat", "r3", "--ell", "7", "--brute"])
    assert code == 0
    assert body["results"]["r3"] == 54
    code, body = run_json(capsys, ["sublat", "r3", "--ell", "7"])
    assert body["results"]["r3"] == 54


def test_build_check_round_trip(tmp_path, capsys):
    code, out, _ = run_capture(
        capsys, ["pc", "build", "--d2", "5", "--family", "d5", "--seq", "01"]
    )
    assert code == 0
    cfg = tmp_path / "pc.json"
    cfg.write_text(out, encoding="utf-8")
    code, body = run_json(capsys, ["pc", "check", "--d2", "5", "--in", str(cfg)])
    assert code == 0
    assert body["results"] == {
        "admissible": True,
        "perfect": True,
        "density": "1/9",
        "shift_count": 18,
    }


def test_check_fails_with_exit_one_on_imperfect_input(tmp_path, capsys):
    cfg = tmp_path / "thin.json"
    cfg.write_text(
        json.dumps({"basis": [[4, 0, 0], [0, 4, 0], [0, 0, 4]], "offsets": [[0, 0, 0]], "d2": 2}),
        encoding="utf-8",
    )
    code, body = run_json(capsys, ["pc", "check", "--d2", "2", "--in", str(cfg)])
    assert code == 1
    assert body["results"]["perfect"] is False
    assert body["results"]["admissible"] is True


def test_check_reports_an_inadmissible_input_with_exit_one(tmp_path, capsys):
    cfg = tmp_path / "crowded.json"
    cfg.write_text(
        json.dumps(
            {"basis": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "offsets": [[0, 0, 0], [1, 0, 0]], "d2": 2}
        ),
        encoding="utf-8",
    )
    code, body = run_json(capsys, ["pc", "check", "--d2", "2", "--in", str(cfg)])
    assert code == 1
    assert body["results"] == {
        "admissible": False,
        "perfect": False,
        "density": "1/4",
        "shift_count": 4,
    }


def test_check_answers_a_huge_cell_with_exit_one(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    side = 10**6
    cfg.write_text(
        json.dumps(
            {"basis": [[side, 0, 0], [0, side, 0], [0, 0, side]], "offsets": [[0, 0, 0]], "d2": 2}
        ),
        encoding="utf-8",
    )
    code, body = run_json(capsys, ["pc", "check", "--d2", "2", "--in", str(cfg)])
    assert code == 1
    assert body["results"]["admissible"] is True
    assert body["results"]["perfect"] is False


def test_window_census_on_an_imperfect_background_exits_one(tmp_path, capsys):
    holed = _supercell_without_one(build_layered_d5(0, "01"), 5)
    cfg = tmp_path / "holed.json"
    cfg.write_text(json.dumps(config_payload(holed)), encoding="utf-8")
    code, body = run_json(
        capsys, ["exc", "window-census", "--pc", str(cfg), "--layers", "2", "--radius", "6"]
    )
    assert code == 1
    assert body["results"]["all_terminal_iia"] is False


def test_usage_errors_exit_two(capsys):
    assert run(["forces", "verify"]) == 2
    capsys.readouterr()
    assert run(["forces", "verify", "--d2", "11"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    assert run(["pc", "build", "--d2", "5", "--family", "d5"]) == 2
    capsys.readouterr()
    assert run(["pc", "check", "--d2", "5", "--in", "/no/such/file.json"]) == 2
    capsys.readouterr()


def test_table_densities_rows(capsys):
    code, body = run_json(capsys, ["table", "densities"])
    assert code == 0
    rows = body["results"]["rows"]
    assert [9, 120, "1/20"] in rows
    assert [4, "ℵ₀", "1/8"] in rows
    assert [18, "ℵ₀", "1/54"] in rows


@pytest.mark.parametrize("lmax", [0, 1, 2, 3])
def test_table_densities_appends_rows_only_up_to_lmax(capsys, lmax):
    code, body = run_json(capsys, ["table", "densities", "--lmax", str(lmax)])
    assert code == 0
    assert ([18, "ℵ₀", "1/54"] in body["results"]["rows"]) == (lmax >= 3)


def test_table_densities_refuses_a_negative_lmax(capsys):
    code, out, err = run_capture(capsys, ["table", "densities", "--lmax", "-1"])
    assert (code, out) == (2, "")
    assert "--lmax" in err


@pytest.mark.parametrize("ell", ["0", "-3"])
@pytest.mark.parametrize("method", [[], ["--brute"]])
def test_r3_refuses_a_nonpositive_ell(capsys, ell, method):
    code, out, err = run_capture(capsys, ["sublat", "r3", "--ell", ell, *method])
    assert (code, out) == (2, "")
    assert "--ell" in err


def test_r3_brute_refuses_an_ell_above_the_limit(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "r3_brute", lambda n: calls.append(n) or 0)
    code, out, err = run_capture(capsys, ["sublat", "r3", "--ell", "2001", "--brute"])
    assert (code, out, calls) == (2, "", [])
    assert "--ell" in err and "2000" in err
    code, _ = run_json(capsys, ["sublat", "r3", "--ell", "2000", "--brute"])
    assert (code, calls) == (0, [2000 * 2000])
    code, body = run_json(capsys, ["sublat", "r3", "--ell", "2001"])
    assert (code, body["results"]["r3"]) == (0, r3_formula(2001))


def _refuse(*args):
    raise AssertionError("the refused work ran")


_occupied_in_box = PeriodicConfiguration.occupied_in_box


def _refuse_window_lookups(pc, lo, hi):
    """occupied_in_box for the background's admissibility check, which asks
    about the cube around one of its own offsets; any other box is window
    work."""
    r = (hi[0] - lo[0]) // 2
    around = [(tuple(c - r for c in o), tuple(c + r for c in o)) for o in pc.offsets]
    return _occupied_in_box(pc, lo, hi) if (tuple(lo), tuple(hi)) in around else _refuse()


def bounded(argv, limit, module, name, stand_in=None, accepted=None, refusal=_refuse, id=None):
    """A bounded argument: the argv with {} for its value, its limit, the work
    it bounds (module, name), replaced by refusal while a value above the
    limit is refused, and by stand_in (None: the work itself, which is fast
    there) while the largest value accepted (None: the limit) runs."""
    return pytest.param(argv, limit, module, name, stand_in, accepted, refusal, id=id)


# The window census bounds its window's sites, not the radius: any radius
# above the site limit gives a window above it at 3 layers, while squared
# radius 10 gives 73 sites and a census of 0.1 s.
BOUNDED_ARGUMENTS = [
    bounded(["sublat", "r3", "--ell", "{}", "--brute"], cli.R3_BRUTE_MAX_ELL,
            cli, "r3_brute", lambda n: 0, id="r3-brute"),
    bounded(["sublat", "r3", "--ell", "{}"], cli.FACTORIZE_MAX_ELL,
            sublattices, "factorize", id="r3"),
    bounded(["sublat", "enumerate", "--ell", "{}", "--fcc"], cli.FACTORIZE_MAX_ELL,
            sublattices, "factorize", id="enumerate-fcc"),
    bounded(["sublat", "enumerate", "--ell", "{}"], cli.ENUMERATE_MAX_ELL,
            sublattices, "_cubic_keys", lambda l: set(), id="enumerate"),
    bounded(["sublat", "classes", "--ell", "{}"], cli.ENUMERATE_MAX_ELL,
            sublattices, "_cubic_keys", lambda l: set(), id="classes"),
    bounded(["table", "densities", "--lmax", "{}"], cli.DENSITIES_MAX_LMAX,
            sublattices, "factorize", id="densities"),
    bounded(["exc", "window-census", "--layers", "3", "--radius", "{}"], excitations.WINDOW_SITES_MAX,
            PeriodicConfiguration, "occupied_in_box", accepted=10, refusal=_refuse_window_lookups,
            id="window-census"),
]


@pytest.mark.parametrize("argv, limit, module, name, stand_in, accepted, refusal", BOUNDED_ARGUMENTS)
def test_an_argument_above_its_limit_is_refused_before_any_work(
    capsys, monkeypatch, argv, limit, module, name, stand_in, accepted, refusal
):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, refusal)
    for value in (limit + 1, 10**30):
        start = time.monotonic()
        code, out, err = run_capture(capsys, [a.format(value) for a in argv])
        assert time.monotonic() - start < 1
        assert (code, out) == (2, "")
        assert str(limit) in err
    monkeypatch.setattr(module, name, stand_in or real)
    code, out, _ = run_capture(capsys, [a.format(limit if accepted is None else accepted) for a in argv])
    assert code == 0 and out


@pytest.mark.parametrize("action", ["enumerate", "classes"])
def test_sublattice_commands_refuse_ell_zero(capsys, action):
    code, out, _ = run_capture(capsys, ["sublat", action, "--ell", "0"])
    assert (code, out) == (2, "")


def test_exc_pipeline(tmp_path, capsys):
    code, out, _ = run_capture(
        capsys, ["pc", "build", "--d2", "5", "--family", "d5", "--seq", "01"]
    )
    cfg = tmp_path / "pc.json"
    cfg.write_text(out, encoding="utf-8")

    code, body = run_json(
        capsys, ["exc", "classify", "--d2", "5", "--pc", str(cfg), "--site", "0,2,1"]
    )
    assert code == 0 and body["results"]["type"] == "IIa"

    ins = tmp_path / "ins.json"
    ins.write_text(json.dumps({"sites": [[0, 2, 1]]}), encoding="utf-8")
    code, body = run_json(
        capsys, ["exc", "report", "--d2", "5", "--pc", str(cfg), "--insert", str(ins)]
    )
    assert code == 0
    assert body["results"]["energy"] == 2
    assert body["results"]["type"] == "IIa"
    assert all(pair[1] == "2/3" for pair in body["results"]["excesses"])

    code, body = run_json(capsys, ["exc", "iia-density", "--pc", str(cfg)])
    assert code == 0
    assert body["results"] == {"count": 2, "density": "1/9"}


def test_window_census_default_background(capsys):
    code, body = run_json(
        capsys, ["exc", "window-census", "--d2", "5", "--layers", "2", "--radius", "6"]
    )
    assert code == 0
    assert body["results"]["all_terminal_iia"] is True
    assert len(body["results"]["survivors"]) == 6


def test_sublat_enumerate_csv(capsys):
    code, out, _ = run_capture(capsys, ["sublat", "enumerate", "--ell", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b11,b12,b13,b21,b22,b23,b31,b32,b33,class_id,stabilizer_order"
    assert len(lines) == 6
    assert all(len(line.split(",")) == 11 for line in lines[1:])


def test_sublat_classes_reports_the_flag(capsys):
    code, body = run_json(capsys, ["sublat", "classes", "--ell", "9"])
    assert code == 0
    assert body["results"]["mismatched_sizes"] == [12]
    assert body["results"]["oracle_histogram"] == {"1": 1, "4": 1, "12": 1}


def test_sublat_classes_classifies_once(capsys, monkeypatch):
    calls = []
    cubic_keys = sublattices._cubic_keys
    monkeypatch.setattr(sublattices, "_cubic_keys", lambda l: calls.append(l) or cubic_keys(l))
    code, _, _ = run_capture(capsys, ["sublat", "classes", "--ell", "45"])
    assert code == 0
    assert calls == [45]


def test_sublat_quaternion(capsys):
    code, body = run_json(capsys, ["sublat", "quaternion", "1,1,0,0"])
    assert code == 0
    assert body["results"]["norm_sq"] == 2
    assert body["results"]["sublattice_basis"] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert run(["sublat", "quaternion", "0,0,0,0"]) == 2
    capsys.readouterr()


def test_fcc_join(capsys):
    code, body = run_json(capsys, ["sublat", "enumerate", "--ell", "2", "--fcc"])
    assert code == 0
    assert body["results"]["pcs_total"] == 16


def test_json_output_is_byte_identical(capsys):
    _, out1, _ = run_capture(capsys, ["pc", "census", "--d2", "9"])
    _, out2, _ = run_capture(capsys, ["pc", "census", "--d2", "9"])
    assert out1 == out2


def test_threads_hint_does_not_change_results(capsys):
    _, out1, _ = run_capture(capsys, ["forces", "verify", "--d2", "3"])
    _, out2, _ = run_capture(capsys, ["forces", "verify", "--d2", "3", "--threads", "8"])
    body1, body2 = json.loads(out1), json.loads(out2)
    assert body1["results"] == body2["results"]


def test_no_json_renders_text(capsys):
    code, out, _ = run_capture(capsys, ["forces", "verify", "--d2", "5", "--no-json"])
    assert code == 0
    assert "fstar = 1/1" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_progress_goes_to_stderr_only(capsys):
    _, out, err = run_capture(capsys, ["pc", "census", "--d2", "9"])
    assert "enumerating" in err
    json.loads(out)


def test_slide_subcommand(capsys):
    code, body = run_json(capsys, ["pc", "slide", "--l", "2", "--n", "9"])
    assert code == 0
    assert body["results"] == {"removed": 4, "bound": 8, "within_bound": True}
    start = time.monotonic()
    code, body = run_json(capsys, ["pc", "slide", "--l", str(10**6), "--n", str(10**6 + 1)])
    assert time.monotonic() - start < 1
    assert code == 0
    assert body["results"] == {"removed": 10**12, "bound": 2 * 10**12, "within_bound": True}


def _build_hcp(capsys):
    code, out, _ = run_capture(
        capsys, ["pc", "build", "--d2", "5", "--family", "d5", "--seq", "01"]
    )
    assert code == 0
    return json.loads(out)


def test_check_rejects_a_fractional_basis_entry(tmp_path, capsys):
    envelope = _build_hcp(capsys)
    assert envelope["results"]["basis"][2] == [0, 0, 6]
    envelope["results"]["basis"][2][2] = 6.9
    cfg = tmp_path / "hcp.json"
    cfg.write_text(json.dumps(envelope), encoding="utf-8")
    code, out, err = run_capture(capsys, ["pc", "check", "--d2", "5", "--in", str(cfg)])
    assert code == 2
    assert out == ""
    assert "6.9" in err


def test_report_rejects_a_fractional_insertion_site(tmp_path, capsys):
    cfg = tmp_path / "hcp.json"
    cfg.write_text(json.dumps(_build_hcp(capsys)), encoding="utf-8")
    ins = tmp_path / "ins.json"
    ins.write_text(json.dumps([[0.5, 2, 1]]), encoding="utf-8")
    code, out, err = run_capture(
        capsys, ["exc", "report", "--d2", "5", "--pc", str(cfg), "--insert", str(ins)]
    )
    assert code == 2
    assert out == ""
    assert "0.5" in err


def test_window_census_needs_a_layer(capsys):
    code, out, _ = run_capture(capsys, ["exc", "window-census", "--layers", "0"])
    assert code == 2
    assert out == ""


def test_window_census_refuses_a_negative_radius(capsys):
    code, out, err = run_capture(capsys, ["exc", "window-census", "--radius", "-5"])
    assert (code, out) == (2, "")
    assert "radius" in err


def test_window_census_refuses_a_window_above_the_limit(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a refused window census must not search")

    monkeypatch.setattr(excitations, "independent_sets", no_search)
    with pytest.raises(AssertionError, match="must not search"):  # the guard sees a search
        run_capture(capsys, ["exc", "window-census", "--layers", "2", "--radius", "6"])
    code, out, err = run_capture(capsys, ["exc", "window-census", "--layers", "3", "--radius", "17"])
    assert (code, out) == (2, "")
    assert "more than 200000 states" in err


def test_build_refuses_a_threshold_the_family_does_not_have(capsys):
    code, out, err = run_capture(capsys, ["pc", "build", "--d2", "4", "--family", "fcc", "--l", "1"])
    assert code == 2
    assert out == ""
    assert "d2=2" in err
    code, _, _ = run_capture(capsys, ["pc", "build", "--d2", "2", "--family", "fcc", "--l", "1"])
    assert code == 0


# Each family of pc build: its options with a valid value, the --d2 to build
# at, and the library builder call the options stand for. --i has a default,
# so it is never missing; phi9's default --i 0 means axis 1.
FAMILY_BUILDS = [
    pytest.param("cubic", {"--l": "2"}, 4, lambda: build_cubic(2), id="cubic"),
    pytest.param("fcc", {"--l": "2"}, 8, lambda: build_fcc(2), id="fcc"),
    pytest.param("bcc", {"--l": "4"}, 12, lambda: build_bcc(4), id="bcc"),
    pytest.param("d4", {}, 4, build_d4_family, id="d4"),
    pytest.param("d5", {"--i": "2", "--seq": "012"}, 5, lambda: build_layered_d5(2, "012"), id="d5"),
    pytest.param("d6tri", {"--i": "1", "--seq": "021"}, 6, lambda: build_layered_d6_tri(1, "021"),
                 id="d6tri"),
    pytest.param("d6rh", {"--i": "3", "--seq": "0102"}, 6,
                 lambda: build_layered_d6_rhombic(3, "0102"), id="d6rh"),
    pytest.param("phi9", {"--i": "0", "--l": "1"}, 9, lambda: build_phi9(1, 1), id="phi9"),
    pytest.param("phi10", {"--i": "3", "--l": "1"}, 10, lambda: build_phi10(3, 1), id="phi10"),
    pytest.param("2l2", {"--l": "2", "--i": "1", "--seq": "012"}, 8,
                 lambda: build_layered_2l2(2, 1, "012"), id="2l2"),
]


@pytest.mark.parametrize("family, options, d2, build", FAMILY_BUILDS)
def test_pc_build_family_table(capsys, family, options, d2, build):
    head = ["pc", "build", "--d2", str(d2), "--family", family]
    code, body = run_json(capsys, head + [a for item in options.items() for a in item])
    assert code == 0
    assert body["results"] == config_payload(build(), d2)
    for missing in set(options) - {"--i"}:
        rest = [a for opt, value in options.items() if opt != missing for a in (opt, value)]
        code, out, err = run_capture(capsys, head + rest)
        assert (code, out) == (2, "")
        assert f"needs {missing}" in err


# Each option combination a command refuses with exit 2 and no output: the
# argv and a fragment of the message. pc build refuses every option its
# family does not take (an --i only when it is not the default 0).
FOREIGN_OPTIONS = {"--l": "1", "--seq": "01", "--i": "1"}
REFUSED_OPTIONS = [
    pytest.param(["sublat", "enumerate", "--ell", "7", "--fcc", "--format", "csv"], "--fcc",
                 id="enumerate-fcc-csv"),
    *(
        pytest.param(
            ["pc", "build", "--d2", str(d2), "--family", family,
             *(a for item in options.items() for a in item), opt, value],
            f"does not take {opt}", id=f"build-{family}{opt}")
        for family, options, d2, _ in (p.values for p in FAMILY_BUILDS)
        for opt, value in FOREIGN_OPTIONS.items() if opt not in options
    ),
]


@pytest.mark.parametrize("argv, message", REFUSED_OPTIONS)
def test_an_option_the_command_does_not_take_is_refused(capsys, argv, message):
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err
    if argv[:2] == ["pc", "build"] and argv[-2] == "--i":
        code, out, _ = run_capture(capsys, argv[:-1] + ["0"])
        assert code == 0 and out
