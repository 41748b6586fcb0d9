"""The mutant table of tests/mutants.py: every fragment is still in its
file, and the script catches a mutant and reports a stale fragment. The
whole table runs as a script (python3 tests/mutants.py)."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_fragment_is_in_its_file_exactly_once(mutant):
    assert mutants.matches(mutant)


def test_the_script_catches_a_mutant_and_reports_a_stale_fragment():
    cheap = next(m for m in mutants.MUTANTS if m.name == "threshold-type-unchecked")
    assert mutants.run(cheap) == "caught"
    assert mutants.run(cheap._replace(fragment=cheap.fragment + "  # no longer in the file")) == "stale"


def test_a_mutant_caught_under_some_seeds_only_is_flaky(monkeypatch):
    # each seed's run is a separate pytest process, in seed order
    cheap = next(m for m in mutants.MUTANTS if m.name == "threshold-type-unchecked")
    seeds = []

    def pytest_run(argv, **kwargs):
        seeds.append([a for a in argv if a.startswith("--hypothesis-seed")])
        return mutants.subprocess.CompletedProcess(argv, 1 if len(seeds) == 2 else 0, "", "")

    monkeypatch.setattr(mutants.subprocess, "run", pytest_run)
    assert mutants.run(cheap, seeds=range(3)) == "flaky"
    assert seeds == [["--hypothesis-seed=0"], ["--hypothesis-seed=1"], ["--hypothesis-seed=2"]]
    seeds.clear()
    assert mutants.run(cheap) == "survived" and seeds == [[]]
    with pytest.raises(SystemExit) as refused:
        mutants.main(["--seeds", "0"])
    assert refused.value.code == 2
