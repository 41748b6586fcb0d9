"""Workload processes of the latticegas benchmark.

run.py starts this file once per workload, in a process of its own:

    python perfbench/workloads.py --workload cells --seed 7 --seconds 30 --mode plain

Workloads (closed loop, one client, one thread):

  cli     fresh `python -m latticegas ...` processes over a fixed list of
          commands; stdout and exit code must match the seed's bytes.
  search  verify_forces for the nine thresholds (cache cleared before each
          call) and two window censuses over the hcp background.
  cells   a seeded mix of excitation reports, contour-bound checks,
          supercell perfection checks, censuses and sublattice classes.

Modes: `setup` only sets up and reports the time it took; `plain` runs
whole passes for about --seconds; `traced` alternates untraced and traced
passes, so tracing overhead can be read off; `probe` runs one traced pass.
The last line of stdout is one JSON object.
"""

import time

SETUP_T0 = time.perf_counter()  # set-up time includes the package import

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = HERE / "expected"
WORK = ROOT / ".bench_build" / "perfbench"

THRESHOLDS = (2, 3, 4, 5, 6, 8, 9, 10, 12)
# Thresholds whose ball patterns are also counted by enumerate_ball_acs, the
# third copy of the search kernel. With these 13 calls a pass, the
# nearest-rank p50 and p90 fall inside one call's samples instead of on
# the step between two calls of different cost.
ENUMERATED = (6, 8)
WINDOWS = ((2, 10), (3, 8))  # (layers, radius_sq) of the two window censuses
ELLS = (45, 105, 225)  # sublattice norms of the cells workload
CENSUS = {9: 120, 10: 208}
HCP_CENSUS = 72
# cli passes per run, at least: each op's median then has four samples, and
# the three ops of the typical pass beyond its p90 twelve between them
MIN_CLI_PASSES = 4
OP_TIMEOUT_S = 60

# One background per threshold for the excitation reports: builder, args.
BACKGROUNDS = {
    2: ("build_fcc", (1,)),
    3: ("build_bcc", (2,)),
    4: ("build_d4_family", ()),
    5: ("build_layered_d5", (0, "01")),
    6: ("build_layered_d6_tri", (0, "021")),
    8: ("build_fcc", (2,)),
    9: ("build_phi9", (1, 0)),
    10: ("build_phi10", (0, 0)),
    12: ("build_bcc", (4,)),
}
# Supercells for the perfection checks: name -> (threshold, builder, args).
SUPERCELLS = {
    "hcp-01": (5, "build_layered_d5", (0, "01")),
    "tri-021": (6, "build_layered_d6_tri", (0, "021")),
    "fcc-2": (8, "build_fcc", (2,)),
    "phi10-0-0": (10, "build_phi10", (0, 0)),
}
# The cheapest supercell loses one seeded offset: admissible, not perfect.
# is_perfect stops at the first deficient site, so a cheap base keeps the
# seed's effect on the run time small.
HOLE_BASE = "hcp-01"

# Per size: excitation reports per threshold (d2=6, the slowest background,
# gets more, so that p90 lies inside its reports rather than on the step
# down to the next background) and the supercell factor.
CELLS_SIZE = {"full": ({6: 360}, 205, 4), "min": ({}, 3, 2)}

# The cli command list. Build outputs are fed back into other commands
# through CLI_FILES; all commands exit 0.
CLI_COMMANDS = [
    "forces verify --d2 2",
    "forces verify --d2 5 --no-json",
    "forces verify --d2 10",
    "forces verify --d2 12",
    "pc build --d2 5 --family d5 --seq 01",
    "pc build --d2 6 --family d6tri --seq 021",
    "pc build --d2 8 --family fcc --l 2",
    "pc build --d2 10 --family phi10 --l 0",
    "pc build --d2 18 --family 2l2 --l 3 --seq 01",
    "pc build --d2 9 --family phi9 --l 1 --no-json",
    "pc build --d2 4 --family d4",
    "pc check --d2 5 --in hcp.json",
    "pc check --d2 6 --in tri.json",
    "pc check --d2 8 --in fcc2.json --no-json",
    "pc check --d2 10 --in phi10.json",
    "pc census --d2 9",
    "pc census --d2 10",
    "pc census --d2 5",
    "pc slide --l 2 --n 9",
    "table densities",
    "exc classify --d2 5 --pc hcp.json --site 0,2,1",
    "exc classify --d2 5 --pc hcp.json --site 1,1,1",
    "exc report --d2 5 --pc hcp.json --insert ins5.json",
    "exc report --d2 6 --pc tri.json --insert ins6.json",
    "exc iia-density --pc hcp.json",
    "exc iia-density --pc l3.json --no-json",
    "exc window-census",
    "exc window-census --layers 1 --radius 12",
    "sublat enumerate --ell 3 --format csv",
    "sublat enumerate --ell 9 --format csv",
    "sublat enumerate --ell 5",
    "sublat enumerate --ell 7 --fcc",
    "sublat classes --ell 9",
    "sublat classes --ell 15 --no-json",
    "sublat r3 --ell 5 --brute",
    "sublat quaternion 1,1,0,0",
    "sublat quaternion 1,2,3,4 --no-json",
]
CLI_MIN = 5  # commands in a minimal-size run
# Input files of the cli workload: the stdout of a build command, or literal text.
CLI_FILES = {
    "hcp.json": ("build", "pc build --d2 5 --family d5 --seq 01"),
    "tri.json": ("build", "pc build --d2 6 --family d6tri --seq 021"),
    "fcc2.json": ("build", "pc build --d2 8 --family fcc --l 2"),
    "phi10.json": ("build", "pc build --d2 10 --family phi10 --l 0"),
    "l3.json": ("build", "pc build --d2 18 --family 2l2 --l 3 --seq 01"),
    "ins5.json": ("text", "[[0, 2, 1]]\n"),
    "ins6.json": ("text", '{"sites": [[-1, -1, -1], [-1, 0, 2]]}\n'),
}
# Names in latticegas.cli whose calls get a span of their own during the
# in-process cli pass, so cli.run's self time can be derived.
CLI_WRAPPED = {
    "load_config_file": "reporting.load",
    "load_site_file": "reporting.load",
    "verify_forces": "forces.verify_forces",
    "is_perfect": "configs.is_perfect",
    "pc_census": "families.pc_census",
    "excitation_report": "excitations.excitation_report",
    "window_census": "excitations.window_census",
    "classify_classes": "sublattices.classify_classes",
    "fcc_census": "sublattices.fcc_census",
    "table_densities": "reporting.table_densities",
}


def child_env() -> dict:
    """Environment of every process the benchmark starts: the checkout's
    src first on the path, and numeric libraries held to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_latticegas():
    """Import the package from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import latticegas

    if not Path(latticegas.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"latticegas came from {latticegas.__file__}, not from {SRC}")
    return latticegas


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- speed calibration -------------------------------------------------------------
#
# The machine the benchmark runs on is shared: its speed drifts by tens of
# percent over seconds to minutes, and a whole 30 s run can fall into a slow
# stretch. Every reported time is therefore rescaled to a reference speed:
# between ops the benchmark times a fixed piece of interpreted work (the
# calibration loop), and multiplies each time by CAL_REF_S over the median
# loop time of the same pass. Times so rescaled are seconds on a machine on
# which one calibration loop takes CAL_REF_S; the raw times are printed on
# the readable lines of run.py.

CAL_REF_S = 0.5e-3  # calibration loop time at the reference speed
CAL_SHARE = 0.03  # share of a pass's time spent in the calibration loop
SETUP_CAL_S = 0.15  # calibration time after each set-up


def calibration_loop() -> int:
    """Fixed interpreted work of the kind the program does: small tuples,
    integer arithmetic, set and dict updates."""
    seen = set()
    hist: dict = {}
    for i in range(1500):
        t = (i % 17, i % 13, i % 11)
        seen.add(t)
        s = (t[0] * t[0] + t[1] * t[1] + t[2] * t[2]) % 29
        hist[s] = hist.get(s, 0) + 1
    return len(seen) + len(hist)


class Speed:
    """Calibration samples of one stretch of a run (one pass, one set-up).

    tick() runs the calibration loop for about CAL_SHARE of the time spent
    since its last run, so the samples cover the stretch in proportion to
    time; scale() turns a time measured in the stretch into reference
    seconds."""

    def __init__(self) -> None:
        self.samples: list = []
        self.owed = 0.0
        self.mark = time.perf_counter()

    def sample(self) -> float:
        t0 = time.perf_counter()
        calibration_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def tick(self) -> None:
        self.owed += CAL_SHARE * (time.perf_counter() - self.mark)
        while self.owed > 0:
            self.owed -= self.sample()
        self.mark = time.perf_counter()

    def scale(self) -> float:
        if not self.samples:
            self.sample()
        return CAL_REF_S / statistics.median(self.samples)


class Mismatch(Exception):
    """An op's output differs from the expected one."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# --- tracing ---------------------------------------------------------------------


class Tracer:
    """Times calls; while recording, also keeps one span per call in memory.

    A span is [name, start, end, parent index, op id, attrs]. Spans nest
    when a wrapped call runs inside another one; all spans of one op share
    its op id.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.scales: dict = {}  # pass number -> Speed.scale() of that pass
        self.recording = False
        self.op = None
        self.last = 0.0  # duration of the latest outermost call, in seconds
        self._stack: list = []

    def call(self, name, attrs, fn, *args, **kwargs):
        record = self.recording
        if record:
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, attrs]
            self._stack.append(len(self.spans))
            self.spans.append(span)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.last = t1 - t0
            if record:
                span[1], span[2] = t0, t1
                self._stack.pop()

    def wrap(self, name, fn):
        return lambda *args, **kwargs: self.call(name, None, fn, *args, **kwargs)

    def self_times(self) -> dict:
        """Per span name: count, total and self time (total minus child spans), in ms."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, attrs in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
            agg = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            agg["count"] += 1
            agg["total_ms"] += (t1 - t0) * 1e3
            agg["self_ms"] += (t1 - t0 - child[i]) * 1e3
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "attrs")
        body = {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "scales": self.scales,
            "self_time": self.self_times(),
        }
        path.write_text(json.dumps(body) + "\n", encoding="utf-8")


class Op:
    """One timed call into the program plus the check of its output."""

    __slots__ = ("name", "attrs", "call", "check", "before")

    def __init__(self, name, call, check, attrs=None, before=None):
        self.name, self.call, self.check, self.attrs, self.before = name, call, check, attrs, before


def run_pass(ops, tracer: Tracer, pass_no, errors: list) -> dict:
    """Run each op once, in order. Only the program's calls are timed; the
    calibration loop runs between ops, and "scale" turns the pass's raw
    times into reference seconds."""
    latencies = []
    failed = 0
    speed = Speed()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op = f"{pass_no}:{i}"
        tracer.last = 0.0
        try:
            if op.before is not None:
                op.before()
            op.check(tracer.call(op.name, op.attrs, op.call))
        except Exception as exc:  # a raising or wrong op is counted, and the run goes on
            failed += 1
            if len(errors) < 5:
                errors.append(f"{op.name} {op.attrs}: {type(exc).__name__}: {exc}"[:500])
        latencies.append(tracer.last)
        speed.tick()
    clock_s = time.perf_counter() - t0
    tracer.scales[str(pass_no)] = scale = speed.scale()
    return {
        "clock_s": clock_s,
        "scale": scale,
        "op_s": latencies,
        "failed": failed,
        "traced": tracer.recording,
    }


def run_loop(ops, tracer: Tracer, seconds: float, mode: str, min_ops: int) -> tuple:
    """Whole passes until the next one would end after `seconds`.

    A plain run also goes on until it holds `min_ops` op latencies; a
    traced run alternates untraced and traced passes, at least one of each.
    """
    passes: list = []
    errors: list = []
    start = time.perf_counter()
    while True:
        n = len(passes)
        tracer.recording = mode == "probe" or (mode == "traced" and n % 2 == 1)
        passes.append(run_pass(ops, tracer, n, errors))
        if mode == "probe":
            break
        elapsed = time.perf_counter() - start
        if mode == "plain" and sum(len(p["op_s"]) for p in passes) < min_ops:
            continue
        if mode == "traced" and n < 1:
            continue
        if elapsed + elapsed / len(passes) > seconds:
            break
    tracer.recording = False
    return passes, errors


def spans_by_pass(tracer: Tracer, name: str) -> dict:
    """Spans of one name, grouped by pass number: pass -> [(reference seconds, attrs)]."""
    out: dict = {}
    for sname, t0, t1, parent, op, attrs in tracer.spans:
        if sname == name:
            pass_no = op.split(":")[0]
            out.setdefault(pass_no, []).append(((t1 - t0) * tracer.scales[pass_no], attrs or {}))
    return out


def per_pass_median(groups: dict, fn) -> float:
    return statistics.median(fn(items) for items in groups.values())


# --- cli ---------------------------------------------------------------------------


class CliWorkload:
    def __init__(self, seed: int, size: str, corrupt: bool) -> None:
        expected = load_json(EXPECTED / "cli.json")
        self.commands = []
        for line in CLI_COMMANDS[:CLI_MIN] if size == "min" else CLI_COMMANDS:
            exp = expected[line]
            self.commands.append((line.split(), exp["exit"], exp["stdout"].encode("utf-8")))
        if corrupt:
            argv, code, out = self.commands[0]
            self.commands[0] = (argv, code, b"#" + out[1:])
        WORK.mkdir(parents=True, exist_ok=True)
        for fname, (kind, src) in CLI_FILES.items():
            text = expected[src]["stdout"] if kind == "build" else src
            (WORK / fname).write_text(text, encoding="utf-8")
        os.chdir(WORK)
        self.env = child_env()
        # one untimed invocation: compiles bytecode and fills the OS file cache
        subprocess.run([sys.executable, "-m", "latticegas", "sublat", "quaternion", "1,1,0,0"],
                       env=self.env, capture_output=True, check=True, timeout=OP_TIMEOUT_S)
        order = list(self.commands)
        random.Random(f"cli:{seed}").shuffle(order)  # the seed picks the order of the commands
        self.ops = []
        for argv, code, stdout in order:
            def check(proc, code=code, stdout=stdout):
                expect(proc.returncode == code, f"exit {proc.returncode}, expected {code}")
                expect(proc.stdout == stdout, "stdout differs from the seed's output")
            self.ops.append(Op("cli.process", lambda argv=argv: self._exec(argv), check,
                               {"argv": " ".join(argv)}))

    def _exec(self, argv):
        return subprocess.run([sys.executable, "-m", "latticegas", *argv], env=self.env,
                              capture_output=True, timeout=OP_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def layer_probe(self, tracer: Tracer, errors: list) -> tuple:
        """Process start and import probes, then cli.run in process, traced."""
        speed = Speed()
        start_ms = []
        for _ in range(10):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True,
                           timeout=OP_TIMEOUT_S)
            start_ms.append((time.perf_counter() - t0) * 1e3)
            speed.tick()
        import_ms, numpy_ms = [], []
        for _ in range(5):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import latticegas"],
                                  env=self.env, capture_output=True, text=True, check=True,
                                  timeout=OP_TIMEOUT_S)
            cumulative = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e3
            import_ms.append(cumulative["latticegas"])
            numpy_ms.append(cumulative.get("numpy", 0.0))
            speed.tick()
        probe_scale = speed.scale()

        import_latticegas()
        import latticegas.cli as cli
        import latticegas.forces as forces
        import latticegas.reporting as reporting

        def run_captured(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            return code, out.getvalue().encode("utf-8")

        stdout_sizes = []

        def check(result, code, stdout):
            stdout_sizes.append(len(result[1]))
            expect(result == (code, stdout), "in-process output differs from the seed's")

        ops = [Op("cli.run", lambda argv=argv: run_captured(argv),
                  lambda r, code=code, stdout=stdout: check(r, code, stdout),
                  {"argv": " ".join(argv)}, before=getattr(forces.verify_forces, "cache_clear", None))
               for argv, code, stdout in self.commands]
        saved = {attr: getattr(cli, attr) for attr in CLI_WRAPPED if hasattr(cli, attr)}
        to_json = reporting.ReportEnvelope.to_json
        for attr, fn in saved.items():
            setattr(cli, attr, tracer.wrap(CLI_WRAPPED[attr], fn))
        reporting.ReportEnvelope.to_json = lambda env: tracer.call("reporting.to_json", None, to_json, env)
        tracer.recording = True
        try:
            inproc = run_pass(ops, tracer, "inproc", errors)
        finally:
            tracer.recording = False
            reporting.ReportEnvelope.to_json = to_json
            for attr, fn in saved.items():
                setattr(cli, attr, fn)
        run_ms = [t * 1e3 * inproc["scale"] for t in inproc["op_s"]]

        def total_ms(name):
            return 1e3 * sum(t for items in spans_by_pass(tracer, name).values() for t, a in items)

        layers = {
            "process.start_ms": statistics.median(start_ms) * probe_scale,
            "import.ms": statistics.median(import_ms) * probe_scale,
            "import.numpy_ms": statistics.median(numpy_ms) * probe_scale,
            "cli.run_ms.p50": percentile(run_ms, 0.5),
            "cli.run_ms.sum": sum(run_ms),
            "reporting.to_json_ms.sum": total_ms("reporting.to_json"),
            "reporting.load_ms.sum": total_ms("reporting.load"),
            "reporting.stdout_bytes": sum(stdout_sizes),
        }
        return layers, len(ops), inproc["failed"]

    def layers(self, tracer: Tracer) -> dict:
        return {}  # the cli layers come from layer_probe


# --- search --------------------------------------------------------------------------


class SearchWorkload:
    def __init__(self, seed: int, size: str, corrupt: bool) -> None:
        lg = import_latticegas()
        golden = load_json(GOLDEN / "force_extremes.json")
        golden_sigs = load_json(GOLDEN / "signatures_234.json")
        expected = load_json(EXPECTED / "search.json")
        self.background = lg.build_layered_d5(0, "01")
        # exact work counts; every pass checks the program against them
        self.nodes = sum(golden[str(d2)]["config_count"] for d2 in THRESHOLDS)
        windows = [expected["window"][f"{l},{r}"] for l, r in WINDOWS]
        self.window_sets = sum(w["sets_scanned"] for w in windows)
        self.window_survivors = sum(len(w["survivors"]) for w in windows)
        self.ops = []
        for d2 in THRESHOLDS:
            gold, exp = golden[str(d2)], expected["verify"][str(d2)]
            expect(exp["signatures"] == golden_sigs.get(str(d2), exp["signatures"]),
                   f"recorded signatures of d2={d2} disagree with the golden file")

            def check(rep, gold=gold, exp=exp):
                expect(rep.config_count == gold["config_count"], f"config_count {rep.config_count}")
                expect(frac(rep.fstar) == gold["fstar"], f"fstar {rep.fstar}")
                expect(frac(rep.second_max) == gold["second_max"], f"second_max {rep.second_max}")
                expect(rep.max_occupancy == gold["max_occupancy"], f"max_occupancy {rep.max_occupancy}")
                expect([list(s) for s in rep.signatures] == exp["signatures"], "signatures differ")

            clear = getattr(lg.verify_forces, "cache_clear", None)
            self.ops.append(Op("forces.verify_forces", lambda d2=d2: lg.verify_forces(d2),
                               check, {"d2": d2}, before=clear))
            if d2 in ENUMERATED:
                self.ops.append(Op(
                    "forces.enumerate_ball_acs", lambda d2=d2: lg.enumerate_ball_acs(d2),
                    lambda n, want=gold["config_count"]: expect(n == want, f"{n} patterns, expected {want}"),
                    {"d2": d2}))
        for layers, radius_sq in WINDOWS:
            exp = dict(expected["window"][f"{layers},{radius_sq}"])
            if corrupt and layers == WINDOWS[0][0]:
                exp["sets_scanned"] += 1

            def check(census, exp=exp):
                expect(census.window_sites == exp["window_sites"], f"window_sites {census.window_sites}")
                expect(census.sets_scanned == exp["sets_scanned"], f"sets_scanned {census.sets_scanned}")
                survivors = [[list(s) for s in group] for group in census.low_energy_terminal]
                expect(survivors == exp["survivors"], "survivors differ")
                expect(census.all_terminal_iia is True, "all_terminal_iia is not true")

            self.ops.append(Op(
                "excitations.window_census",
                lambda layers=layers, radius_sq=radius_sq: lg.window_census(self.background, 5, layers, radius_sq),
                check, {"layers": layers, "radius_sq": radius_sq}))
        random.Random(f"search:{seed}").shuffle(self.ops)  # the seed picks the order of the calls

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layers(self, tracer: Tracer) -> dict:
        out = {}
        verify = spans_by_pass(tracer, "forces.verify_forces")
        for d2 in THRESHOLDS:
            out[f"forces.verify_ms.d2_{d2}"] = per_pass_median(
                verify, lambda items, d2=d2: 1e3 * sum(t for t, a in items if a["d2"] == d2))
        out["forces.enumerate_ms.sum"] = per_pass_median(
            spans_by_pass(tracer, "forces.enumerate_ball_acs"), lambda items: 1e3 * sum(t for t, a in items))
        out["forces.nodes"] = self.nodes
        out["forces.nodes_per_s"] = self.nodes / per_pass_median(
            verify, lambda items: sum(t for t, a in items))
        window = spans_by_pass(tracer, "excitations.window_census")
        for layers, radius_sq in WINDOWS:
            out[f"excitations.window_ms.l{layers}_r{radius_sq}"] = per_pass_median(
                window, lambda items, key=(layers, radius_sq): 1e3 * sum(
                    t for t, a in items if (a["layers"], a["radius_sq"]) == key))
        out["excitations.window_sets"] = self.window_sets
        out["excitations.window_sets_per_s"] = self.window_sets / per_pass_median(
            window, lambda items: sum(t for t, a in items))
        out["excitations.window_yield"] = self.window_survivors / self.window_sets
        return out


# --- cells ---------------------------------------------------------------------------


def _admissible(sites, d2: int) -> bool:
    return all(
        sum((a - b) ** 2 for a, b in zip(sites[i], sites[j])) >= d2
        for i in range(len(sites)) for j in range(i + 1, len(sites))
    )


def _supercell(pc, k: int) -> tuple:
    """Basis rows and offsets of the k x k x k supercell of pc."""
    b = pc.basis
    rows = [[k * c for c in row] for row in b]
    offsets = [
        tuple(o[t] + i * b[0][t] + j * b[1][t] + m * b[2][t] for t in range(3))
        for o in pc.offsets for i in range(k) for j in range(k) for m in range(k)
    ]
    return rows, offsets


class CellsWorkload:
    def __init__(self, seed: int, size: str, corrupt: bool) -> None:
        lg = import_latticegas()
        expected = load_json(EXPECTED / "cells.json")
        rng = random.Random(f"cells:{seed}")
        report_counts, default_reports, k = CELLS_SIZE[size]
        for d2 in THRESHOLDS:
            lg.verify_forces(d2)  # warm the force-search cache
        self.ops: list = []

        def build(builder, args):
            return getattr(lg, builder)(*args)

        def vacant_site(pc):
            while True:
                s = tuple(rng.randint(-3, 3) for _ in range(3))
                if not pc.contains(s):
                    return s

        def check_report(rep, n):
            expect(rep.background_perfect is True, "background not perfect")
            expect(rep.inserted_count == n, f"inserted {rep.inserted_count}, expected {n}")
            expect(rep.energy == len(rep.repelled) - n, "energy is not |repelled| - |inserted|")
            expect(sum(rep.excesses.values(), Fraction(0)) == rep.energy, "sum of excesses != energy")
            expect(all(e >= 0 for e in rep.excesses.values()), "negative excess")

        def check_holds(result):
            expect(result[0] is True, f"contour bound fails, slack {result[1]}")

        for d2 in THRESHOLDS:
            pc = build(*BACKGROUNDS[d2])
            for _ in range(report_counts.get(d2, default_reports)):
                n = rng.randint(1, 3)
                while True:
                    sites = list({vacant_site(pc) for _ in range(n)})
                    if len(sites) == n and _admissible(sites, d2):
                        break
                self.ops.append(Op(
                    "excitations.excitation_report",
                    lambda pc=pc, d2=d2, sites=sites: lg.excitation_report(pc, lg.make_insertion(pc, d2, sites), d2),
                    lambda rep, n=n: check_report(rep, n), {"d2": d2, "n": n}))
            single = [vacant_site(pc)]
            for kind, call in (
                ("gamma1", lambda pc=pc, d2=d2: lg.peierls_check(pc, removal=lg.gamma1(pc, d2))),
                ("gamma2", lambda pc=pc, d2=d2: lg.peierls_check(pc, removal=lg.gamma2(pc, d2))),
                ("insert1", lambda pc=pc, d2=d2, s=single: lg.peierls_check(pc, lg.make_insertion(pc, d2, s), d2)),
            ):
                self.ops.append(Op("excitations.peierls_check", call, check_holds,
                                   {"d2": d2, "kind": kind}))

        loaded: dict = {}
        cases = []
        for name, (d2, builder, args) in SUPERCELLS.items():
            base = build(builder, args)
            rows, offsets = _supercell(base, k)
            stats = expected["supercells"][name]
            det = stats["det"] * k ** 3
            cases.append((name, d2, rows, offsets, det, True, stats["shift_count"]))
            if name == HOLE_BASE:
                holed = list(offsets)
                holed.pop(rng.randrange(len(holed)))
                cases.append((name + "-hole", d2, rows, holed, det, False, det))
        for name, d2, rows, offsets, det, perfect, shifts in cases:
            def load(name=name, rows=rows, offsets=offsets, d2=d2):
                loaded.pop(name, None)
                loaded[name] = pc = lg.make_config(rows, offsets, d2)
                return pc

            dens = Fraction(len(offsets), det)
            attrs = {"config": name, "d2": d2, "sites": det}
            self.ops += [
                Op("configs.make_config", load,
                   lambda pc, det=det: expect(pc.det == det, f"det {pc.det}, expected {det}"), attrs),
                Op("configs.is_perfect", lambda name=name, d2=d2: lg.is_perfect(loaded[name], d2),
                   lambda r, perfect=perfect: expect(r is perfect, f"is_perfect {r}"), attrs),
                Op("configs.density", lambda name=name: lg.density(loaded[name]),
                   lambda r, dens=dens: expect(r == dens, f"density {r}, expected {dens}"), attrs),
                Op("configs.shift_count", lambda name=name: lg.shift_count(loaded[name]),
                   lambda r, shifts=shifts: expect(r == shifts, f"shift_count {r}, expected {shifts}"), attrs),
            ]

        census = dict(CENSUS)
        if corrupt:
            census[9] += 1
        for d2, count in census.items():
            self.ops.append(Op("families.pc_census", lambda d2=d2: lg.pc_census(d2),
                               lambda r, count=count: expect(r == count, f"census {r}"), {"d2": d2}))
        self.ops.append(Op("families.hcp_census", lg.hcp_census,
                           lambda r: expect(r == HCP_CENSUS, f"hcp census {r}")))

        for ell in ELLS:
            exp = expected["sublattices"][str(ell)]

            def check_classes(classes, exp=exp):
                got = [[c.size, c.stabilizer_order, [list(r) for r in c.representative],
                        list(c.parameters) if c.parameters else None] for c in classes]
                expect(got == exp["classes"], "classes differ")
                members = [[list(r) for r in m] for c in classes for m in c.members]
                expect(sha256(members) == exp["members_sha256"], "class members differ")

            def check_compare(cmp, exp=exp):
                got = {"oracle": {str(s): n for s, n in sorted(cmp.oracle.items())},
                       "predicted": {str(s): n for s, n in sorted(cmp.predicted.items())},
                       "mismatched_sizes": list(cmp.mismatched_sizes)}
                expect(got == exp["compare"], f"class counts differ: {got}")

            def check_fcc(r, exp=exp):
                got = [r.fcc_sublattices, r.pcs_total, r.flagged_layered_continuum]
                expect(got == exp["fcc_census"], f"fcc census {got}")

            attrs = {"ell": ell}
            self.ops += [
                Op("sublattices.classify_classes", lambda ell=ell: lg.classify_classes(ell), check_classes, attrs),
                Op("sublattices.compare_class_counts", lambda ell=ell: lg.compare_class_counts(ell),
                   check_compare, attrs),
                Op("sublattices.fcc_census", lambda ell=ell: lg.fcc_census(ell), check_fcc, attrs),
            ]

        # exact work counts, from the inputs
        self.sphere_points = sum(len(lg.quadruples(ell)) for ell in ELLS)
        census_seeds = [lg.build_phi9(i, l) for i in (1, 2, 3) for l in (0, 1)]
        census_seeds += [lg.build_phi10(i, l) for i in range(4) for l in (0, 1)]
        self.census_images = 48 * sum(lg.shift_count(s) for s in census_seeds) + sum(
            lg.build_layered_d5(i, w).det for i in range(4) for w in ("01", "02"))
        self.census_found = sum(CENSUS.values()) + HCP_CENSUS

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layers(self, tracer: Tracer) -> dict:
        def ms(name, pred=lambda a: True):
            return per_pass_median(spans_by_pass(tracer, name),
                                   lambda items: 1e3 * sum(t for t, a in items if pred(a)))

        reports = [t * 1e3 for items in spans_by_pass(tracer, "excitations.excitation_report").values()
                   for t, a in items]
        perfect = spans_by_pass(tracer, "configs.is_perfect")
        sites = per_pass_median(perfect, lambda items: sum(a["sites"] for t, a in items))
        out = {
            "excitations.report_ms.p50": percentile(reports, 0.5),
            "excitations.report_ms.p90": percentile(reports, 0.9),
            "excitations.report_ms.sum": ms("excitations.excitation_report"),
            "excitations.peierls_ms.sum": ms("excitations.peierls_check"),
            "configs.load_ms.sum": ms("configs.make_config"),
            "configs.perfect_ms.sum": ms("configs.is_perfect"),
            "configs.perfect_sites": sites,
            "configs.perfect_sites_per_s": sites / (ms("configs.is_perfect") / 1e3),
            "configs.shift_count_ms.sum": ms("configs.shift_count"),
            "families.census_ms.d2_9": ms("families.pc_census", lambda a: a["d2"] == 9),
            "families.census_ms.d2_10": ms("families.pc_census", lambda a: a["d2"] == 10),
            "families.hcp_census_ms": ms("families.hcp_census"),
            "families.census_images": self.census_images,
            "families.census_yield": self.census_found / self.census_images,
            "sublattices.fcc_census_ms.sum": ms("sublattices.fcc_census"),
            "sublattices.sphere_points": self.sphere_points,
        }
        for ell in ELLS:
            out[f"sublattices.classes_ms.ell_{ell}"] = ms(
                "sublattices.classify_classes", lambda a, ell=ell: a["ell"] == ell)
        return out


def sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


WORKLOADS = {"cli": CliWorkload, "search": SearchWorkload, "cells": CellsWorkload}


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--mode", choices=["setup", "plain", "traced", "probe"], default="plain")
    ap.add_argument("--size", choices=sorted(CELLS_SIZE), default="full")
    ap.add_argument("--corrupt", action="store_true",
                    help="alter one expected output, to show that the checks catch it")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.size, args.corrupt)
    setup_raw_s = time.perf_counter() - SETUP_T0
    speed = Speed()
    while time.perf_counter() - speed.mark < SETUP_CAL_S:
        speed.sample()
    result = {"workload": args.workload, "setup_s": setup_raw_s * speed.scale(), "setup_raw_s": setup_raw_s,
              "env": environment()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = Tracer()
    WORK.mkdir(parents=True, exist_ok=True)
    if args.mode == "probe" and args.workload == "cli":
        passes, errors = [], []  # the cli layers come from layer_probe alone
    else:
        min_ops = MIN_CLI_PASSES * len(workload.ops) if args.workload == "cli" and args.size == "full" else 0
        passes, errors = run_loop(workload.ops, tracer, args.seconds, args.mode, min_ops)
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [[t * p["scale"] for t in p["op_s"]] for p in passes if not p["traced"]]
    raw = [p["op_s"] for p in passes if not p["traced"]]
    # one typical pass over the op list: each op at its median over the passes
    typical = [statistics.median(ts) for ts in zip(*untraced)]
    result.update({
        "passes": len(passes),
        "scales": [p["scale"] for p in passes],
        "wall_s": sum(typical) if typical else None,
        "wall_raw_s": sum(statistics.median(ts) for ts in zip(*raw)) if raw else None,
        "op_ms.p50": percentile(typical, 0.5) * 1e3 if typical else None,
        "op_ms.p90": percentile(typical, 0.9) * 1e3 if typical else None,
        "peak_rss_mb": workload.peak_rss_mb(),
    })
    if args.mode in ("traced", "probe"):
        layers = workload.layers(tracer) if passes else {}
        if args.mode == "traced":
            untraced = statistics.median(p["clock_s"] * p["scale"] for p in passes if not p["traced"])
            traced = statistics.median(p["clock_s"] * p["scale"] for p in passes if p["traced"])
            layers["trace.overhead_frac"] = traced / untraced - 1
        if args.workload == "cli":
            more, n, n_failed = workload.layer_probe(tracer, errors)
            layers.update(more)
            attempted += n
            failed += n_failed
        result["layers"] = layers
        result["self_time"] = tracer.self_times()
        tracer.dump(WORK / f"trace-{args.workload}.json")
    result.update({"attempted": attempted, "failed": failed, "errors": errors})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
