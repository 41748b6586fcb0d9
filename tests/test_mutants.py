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
