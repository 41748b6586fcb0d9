"""Force tables and the exhaustive ball search."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegas.forces import (
    BALL_RADIUS_SQ,
    FORCE_TABLES,
    SUPPORTED_D2,
    UnsupportedThresholdError,
    enumerate_ball_acs,
    force_table,
    normalization_constant,
    peierls_gap,
    verify_forces,
)
from latticegas import forces, lattice
from latticegas.lattice import ball_sites, conflict_masks, fold_independent_sets, is_admissible, sq_dist
from oracles import brute_ball, conflict_masks_pairwise, force_extremes, total_force
from reference_data import (
    EXPECTED_SIGNATURES,
    FORCE_VALUES,
    NORMALIZATION,
    golden,
)


def test_supported_set():
    assert SUPPORTED_D2 == (2, 3, 4, 5, 6, 8, 9, 10, 12)
    assert set(BALL_RADIUS_SQ) == set(SUPPORTED_D2)


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_force_values_match_reference(d2):
    ft = force_table(d2)
    expected = FORCE_VALUES[d2]
    for q in range(ft.ball_radius_sq):
        assert Fraction(ft.weights[q], ft.den) == expected.get(q, Fraction(0)), (d2, q)


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_integer_weights_scale_the_literal_table(d2):
    ft, table = force_table(d2), FORCE_TABLES[d2]
    assert ft.den == math.lcm(*(f.denominator for f in table.values()))
    assert len(ft.weights) == ft.ball_radius_sq == max(table) + 1
    for q in range(ft.ball_radius_sq):
        assert Fraction(ft.weights[q], ft.den) == table[q], (d2, q)


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_each_table_is_keyed_below_a_radius_within_the_hard_core_distance(d2):
    """BALL_RADIUS_SQ is each table's length, which holds only if its keys are
    0 .. len - 1 in order; and ball_radius_sq <= d2, so a site that a weight
    reaches from an inserted site is one that the inserted site repels, the
    premise of the excess bookkeeping in excitation_report."""
    table = FORCE_TABLES[d2]
    assert list(table) == list(range(len(table))) == list(range(BALL_RADIUS_SQ[d2]))
    assert force_table(d2).ball_radius_sq <= d2


def test_unsupported_thresholds_raise():
    for d2 in (0, 1, 7, 11, 13, 50):
        with pytest.raises(UnsupportedThresholdError):
            force_table(d2)


@pytest.mark.parametrize("d2", [5.0, Fraction(5), True, "5"], ids=repr)
@pytest.mark.parametrize("function", [force_table, normalization_constant, verify_forces, enumerate_ball_acs],
                         ids=lambda f: f.__name__)
def test_a_threshold_that_is_not_exactly_an_int_is_refused(function, d2):
    # 5.0 and Fraction(5) equal 5, and True equals 1: none may find the
    # cached entry of the int it equals, nor be cached itself
    expected = function(5)
    entries = getattr(function, "cache_info", None)
    before = entries and entries().currsize
    with pytest.raises(UnsupportedThresholdError, match="no repelling-force table"):
        function(d2)
    assert (entries and entries().currsize) == before
    assert function(5) == expected


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_normalization_constants(d2):
    assert normalization_constant(d2) == NORMALIZATION[d2]


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_search_matches_golden(d2):
    from latticegas.reporting import frac_str

    g = golden("force_extremes.json")[str(d2)]
    r = verify_forces(d2)
    assert r.config_count == g["config_count"]
    assert frac_str(r.fstar) == g["fstar"]
    assert frac_str(r.second_max) == g["second_max"]
    assert r.max_occupancy == g["max_occupancy"]


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_search_matches_independent_oracle(d2):
    count, fstar, second, occ, sigs = force_extremes(d2)
    r = verify_forces(d2)
    assert (count, fstar, second, occ, sigs) == (
        r.config_count,
        r.fstar,
        r.second_max,
        r.max_occupancy,
        r.signatures,
    )


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_each_ball_holds_its_sites_and_their_pairwise_conflicts(d2):
    sites, conflict = forces._ball(force_table(d2))[:2]
    assert list(sites) == brute_ball(BALL_RADIUS_SQ[d2])
    assert conflict == conflict_masks_pairwise(list(sites), d2)


def test_a_cleared_search_reproduces_the_golden_extremes():
    from latticegas.reporting import frac_str

    for d2 in SUPPORTED_D2:
        verify_forces.cache_clear()
        r = verify_forces(d2)
        g = golden("force_extremes.json")[str(d2)]
        assert (r.config_count, frac_str(r.fstar), frac_str(r.second_max), r.max_occupancy) == (
            g["config_count"], g["fstar"], g["second_max"], g["max_occupancy"])


def test_each_ball_is_built_once_and_searched_on_every_cleared_call(monkeypatch):
    # building a ball folds each shell once for its base; each cleared call
    # folds the whole ball, and the gap, cached apart, hides no search
    builds, folds = [], []

    def counted(kernel, log):
        def run(conflict_or_sites, *args):
            log.append((len(conflict_or_sites), *map(list, args[1:])))
            return kernel(conflict_or_sites, *args)
        return run

    monkeypatch.setattr(forces, "conflict_masks", counted(conflict_masks, builds))
    monkeypatch.setattr(forces, "fold_independent_sets", counted(fold_independent_sets, folds))
    forces._ball.cache_clear()
    for d2 in SUPPORTED_D2:
        for _ in range(2):
            verify_forces.cache_clear()
            verify_forces(d2)
        enumerate_ball_acs(d2)
    assert builds == [(len(ball_sites(BALL_RADIUS_SQ[d2])),) for d2 in SUPPORTED_D2]
    expected = []
    for d2 in SUPPORTED_D2:
        dists = [sq_dist(s, (0, 0, 0)) for s in ball_sites(BALL_RADIUS_SQ[d2])]
        n = len(dists)
        expected += [(n, [i for i in range(n) if dists[i] == q]) for q in range(BALL_RADIUS_SQ[d2])]
        expected += [(n, list(range(n)))] * 2
    assert folds == expected
    assert forces._ball.cache_info().currsize == forces._ball.cache_info().maxsize == len(SUPPORTED_D2)
    # with both caches cleared the gap searches once; a cached gap searches
    # nothing, and a cleared verify_forces still searches again
    folds.clear()
    peierls_gap.cache_clear()
    for d2 in SUPPORTED_D2:
        verify_forces.cache_clear()
        assert peierls_gap(d2) == 1 - verify_forces(d2).second_max
        verify_forces.cache_clear()
        assert peierls_gap(d2) is peierls_gap(d2)
        verify_forces(d2)
    assert folds == [(n, list(range(n))) for d2 in SUPPORTED_D2 for n in [len(ball_sites(BALL_RADIUS_SQ[d2]))] * 2]


def test_the_ball_search_obeys_the_state_budget(monkeypatch):
    # d2 = 8 folds 3,761 states, so a budget of 1,000 refuses it
    verify_forces.cache_clear()
    monkeypatch.setattr(lattice, "COUNT_STATES_MAX", 1000)
    with pytest.raises(ValueError, match="more than 1000 states"):
        verify_forces(8)


@pytest.mark.parametrize("d2", sorted(EXPECTED_SIGNATURES))
def test_signatures_match_reference_lists(d2):
    assert set(verify_forces(d2).signatures) == EXPECTED_SIGNATURES[d2]


def test_signatures_234_match_golden():
    stored = golden("signatures_234.json")
    for d2 in (2, 3, 4):
        assert [list(s) for s in verify_forces(d2).signatures] == stored[str(d2)]


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_fstar_is_one_and_gap_positive(d2):
    r = verify_forces(d2)
    assert r.fstar == 1
    assert r.second_max < 1
    assert peierls_gap(d2) == 1 - r.second_max > 0


def test_gap_d2_2_is_one_sixth():
    # five unit neighbors realize the runner-up total
    assert peierls_gap(2) == Fraction(1, 6)


def test_enumerate_count_agrees_with_search():
    for d2 in (2, 3, 5):
        seen = []
        count = enumerate_ball_acs(d2, seen.append)
        assert count == verify_forces(d2).config_count == len(seen)
        assert seen[0] == ()
        assert all(is_admissible(pattern, d2) for pattern in seen)


@pytest.mark.parametrize("d2", SUPPORTED_D2)
def test_counting_the_patterns_agrees_with_the_search(d2):
    assert enumerate_ball_acs(d2) == verify_forces(d2).config_count


@settings(max_examples=40)
@given(d2=st.sampled_from(SUPPORTED_D2), data=st.data())
def test_no_admissible_pattern_beats_one(d2, data):
    # fstar = 1 means every admissible ball pattern has total force <= 1
    sites = ball_sites(BALL_RADIUS_SQ[d2])
    chosen: list = []
    for _ in range(data.draw(st.integers(0, 6))):
        options = [
            s for s in sites
            if s not in chosen and is_admissible(chosen + [s], d2)
        ]
        if not options:
            break
        chosen.append(data.draw(st.sampled_from(options)))
    assert total_force(d2, chosen) <= 1


def test_total_force_of_center_is_one():
    for d2 in SUPPORTED_D2:
        assert total_force(d2, [(0, 0, 0)]) == 1
