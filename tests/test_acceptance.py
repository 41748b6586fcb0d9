"""Acceptance gate: one test per published claim, exact equality throughout.

Each test prints nothing on success; `pytest -v` gives the one pass/fail
line per criterion. Runtime ceilings are asserted where the claim carries
one. Criterion 3 asserts the published per-ball occupancy table verbatim;
the exhaustive search disagrees with it at d2=6 (8 versus the stated 7),
so that single test is expected to fail. The discrepancy is real, not a
tool defect: an 8-point witness pattern is checked right here, by a
separate test that passes.
"""

import random
import time
from fractions import Fraction

from latticegas.configs import density, is_perfect
from latticegas.excitations import excitation_report, gamma1, gamma2, iia_census, make_insertion, peierls_check
from latticegas.families import (
    build_layered_d5,
    build_phi9,
    build_phi10,
    hcp_census,
    pc_census,
    sliding_witness,
)
from latticegas.forces import SUPPORTED_D2, verify_forces
from latticegas.lattice import ball_sites, is_admissible
from latticegas.sublattices import (
    class_size_histogram,
    classify_classes,
    compare_class_counts,
    fcc_census,
    r3_brute,
    r3_formula,
)
import oracles
from reference_data import (
    CENSUS,
    CLASS_HISTOGRAMS,
    CONSTRUCTORS,
    EXPECTED_SIGNATURES,
    MISMATCH_LS,
    NORMALIZATION,
    STABILIZER_ORDERS,
    STATED_MAX_OCCUPANCY,
)
from test_sublattices import ACCOUNTING_COEFF


def test_criterion_01_ball_cardinalities():
    assert len(ball_sites(2)) == 7
    assert len(ball_sites(3)) == 19
    assert len(ball_sites(4)) == 27
    assert len(ball_sites(6)) == 57
    assert len(ball_sites(7)) == 81


def test_criterion_02_unit_maximum_for_all_nine_thresholds():
    start = time.monotonic()
    for d2 in SUPPORTED_D2:
        assert verify_forces(d2).fstar == Fraction(1), d2
    assert time.monotonic() - start < 300


def test_criterion_03_stated_occupancy_table():
    computed = {d2: verify_forces(d2).max_occupancy for d2 in SUPPORTED_D2}
    assert computed == STATED_MAX_OCCUPANCY


# an admissible 8-point pattern in the d2 = 6 ball, where the table says 7
CRITERION_03_WITNESS = [
    (-2, -1, 0), (-1, 0, -2), (-1, 1, 1), (0, -2, 1),
    (0, 2, -1), (1, -1, -1), (1, 0, 2), (2, 1, 0),
]


def test_criterion_03_witness_pattern():
    assert oracles.pairwise_admissible(CRITERION_03_WITNESS, 6)
    assert set(CRITERION_03_WITNESS) <= set(oracles.brute_ball(6))
    assert len(set(CRITERION_03_WITNESS)) == verify_forces(6).max_occupancy == 8


def test_criterion_04_normalization_and_reciprocal_density():
    assert sorted(NORMALIZATION.values()) == [2, 4, 8, 9, 12, 16, 20, 26, 32]
    for d2, entries in CONSTRUCTORS.items():
        for label, build in entries:
            assert density(build()) == Fraction(1, NORMALIZATION[d2]), (d2, label)


def test_criterion_05_signature_sets_element_wise():
    counts = {5: 3, 6: 8, 8: 6, 9: 8, 10: 15, 12: 9}
    for d2, expected in EXPECTED_SIGNATURES.items():
        got = set(verify_forces(d2).signatures)
        assert got == expected, d2
        assert len(got) == counts[d2], d2


def test_criterion_06_perfection_of_every_constructor():
    start = time.monotonic()
    for d2, entries in CONSTRUCTORS.items():
        for label, build in entries:
            assert is_perfect(build(), d2), (d2, label)
    assert time.monotonic() - start < 60


def test_criterion_07_censuses_and_cell_volumes():
    assert {d2: pc_census(d2) for d2 in CENSUS} == CENSUS
    assert build_phi9(1, 0).det == 20
    assert build_phi10(0, 0).det == 26
    assert hcp_census() == 72


def test_criterion_08_sliding_cost_stays_quadratic():
    start = time.monotonic()
    for l in (1, 2, 3):
        for n in range(1, 101):
            assert sliding_witness(l, n) <= 2 * l * l, (l, n)
    assert time.monotonic() - start < 10


def test_criterion_09_excitation_energy_accounting():
    hcp = build_layered_d5(0, "01")
    rep = excitation_report(hcp, make_insertion(hcp, 5, [(0, 2, 1)]), 5)
    assert rep.energy == 2
    assert set(rep.excesses.values()) == {Fraction(2, 3)}
    assert iia_census(hcp) == (2, Fraction(1, 9))
    assert iia_census(build_layered_d5(0, "012")) == (0, Fraction(0))

    backgrounds = {d2: entries[0][1]() for d2, entries in CONSTRUCTORS.items()}
    rng = random.Random(987654321)
    done = 0
    while done < 1000:
        d2 = SUPPORTED_D2[rng.randrange(len(SUPPORTED_D2))]
        pc = backgrounds[d2]
        cand = [
            (rng.randrange(-8, 9), rng.randrange(-8, 9), rng.randrange(-8, 9))
            for _ in range(rng.randrange(1, 4))
        ]
        vacant = [s for s in cand if not pc.contains(s)]
        try:
            ins = make_insertion(pc, d2, vacant)
        except ValueError:
            continue
        if not ins.sites:
            continue
        rep = excitation_report(pc, ins, d2)
        assert rep.energy == len(rep.repelled) - len(ins.sites)
        assert sum(rep.excesses.values()) == rep.energy
        done += 1


def test_criterion_10_defect_size_bound_on_samples():
    for d2 in (2, 3, 5, 8, 9, 10, 12):
        pc = CONSTRUCTORS[d2][0][1]()
        samples = [
            ("remove-one", None, gamma1(pc, d2)),
            ("remove-two", None, gamma2(pc, d2)),
        ]
        vacant = next(
            s for s in ball_sites(9)
            if not pc.contains(s) and is_admissible([s], d2)
        )
        try:
            samples.append(("insert-one", make_insertion(pc, d2, [vacant]), None))
        except ValueError:
            pass
        for label, insertion, removal in samples:
            ok, slack = peierls_check(pc, insertion, d2, removal)
            assert ok and slack >= 0, (d2, label)


def test_criterion_11_sublattice_classification():
    start = time.monotonic()
    for l in range(1, 26):
        assert r3_formula(l) == r3_brute(l * l), l
    for l, expected in CLASS_HISTOGRAMS.items():
        assert class_size_histogram(l) == expected, l
    seen_stabilizers = set()
    for l in CLASS_HISTOGRAMS:
        hist = class_size_histogram(l)
        total = sum(ACCOUNTING_COEFF[size] * count for size, count in hist.items())
        assert total == r3_formula(l), l
        for cl in classify_classes(l):
            seen_stabilizers.add(cl.stabilizer_order)
    assert seen_stabilizers == STABILIZER_ORDERS
    for l in range(1, 22):
        cmp = compare_class_counts(l)
        assert bool(cmp.mismatched_sizes) == (l in MISMATCH_LS), l
    assert 9 in MISMATCH_LS
    assert time.monotonic() - start < 120


def test_criterion_12_cross_module_consistency():
    assert fcc_census(1).pcs_total == 2 == pc_census(2)
    assert fcc_census(2).pcs_total == 16 == pc_census(8)
