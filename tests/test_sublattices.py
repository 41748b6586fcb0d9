"""Cubic sublattices: quaternion parametrization, counting formulas,
symmetry classes, and the close-packed doubling."""

import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticegas import sublattices
from latticegas.families import pc_census
from latticegas.sublattices import (
    Quaternion,
    classify_classes,
    class_size_histogram,
    compare_class_counts,
    enumerate_cubic_sublattices,
    euler_rodrigues,
    fcc_census,
    predicted_class_bases,
    quadruples,
    r3_brute,
    r3_formula,
    s2,
    s2_hat,
    s2_tilde,
)
from latticegas.lattice import hnf, oh_elements, rotation_elements
from latticegas.sublattices import _cubic_keys, _key, _orbit
from oracles import (
    classify_by_hnf,
    conjugate,
    cubic_sublattices_by_hnf,
    det3,
    fcc_count_by_hnf,
    fcc_from_cubic,
    is_cubic_basis,
    orthogonal_triples,
    quaternion_product,
    quaternions_of_norm,
    r3_naive,
)
from reference_data import CLASS_HISTOGRAMS, MISMATCH_LS, STABILIZER_ORDERS

quat_component = st.integers(-6, 6)


@given(a=quat_component, b=quat_component, c=quat_component, d=quat_component)
def test_rotation_rows_are_orthogonal_with_norm_squared(a, b, c, d):
    if a == b == c == d == 0:
        return
    q = Quaternion(a, b, c, d)
    rows = euler_rodrigues(q)
    n = q.norm_sq
    for i in range(3):
        assert sum(x * x for x in rows[i]) == n * n
        for j in range(i + 1, 3):
            assert sum(rows[i][k] * rows[j][k] for k in range(3)) == 0
    assert det3(list(rows)) == n ** 3


@given(
    a=quat_component, b=quat_component, c=quat_component, d=quat_component,
    e=quat_component, f=quat_component, g=quat_component, h=quat_component,
)
def test_quaternion_norm_is_multiplicative(a, b, c, d, e, f, g, h):
    if (a == b == c == d == 0) or (e == f == g == h == 0):
        return
    p, q = Quaternion(a, b, c, d), Quaternion(e, f, g, h)
    assert quaternion_product(p, q).norm_sq == p.norm_sq * q.norm_sq


@given(
    a=quat_component, b=quat_component, c=quat_component, d=quat_component,
    e=quat_component, f=quat_component, g=quat_component, h=quat_component,
)
def test_rotation_matrix_is_multiplicative(a, b, c, d, e, f, g, h):
    if (a == b == c == d == 0) or (e == f == g == h == 0):
        return
    p, q = Quaternion(a, b, c, d), Quaternion(e, f, g, h)
    mp, mq = euler_rodrigues(p), euler_rodrigues(q)
    product_matrix = tuple(
        tuple(sum(mp[i][k] * mq[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )
    assert euler_rodrigues(quaternion_product(p, q)) == product_matrix


HALVING_UNITS = (Quaternion(1, 1, 0, 0), Quaternion(1, 0, 1, 0), Quaternion(1, 0, 0, 1))


def test_left_factors_of_norm_one_and_two_only_permute_and_negate_rows():
    units = (Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1))
    for u in (*units, *HALVING_UNITS):
        # ER(u)/N(u) is a signed permutation matrix
        m, n = euler_rodrigues(u), u.norm_sq
        assert all(x % n == 0 for row in m for x in row)
        assert all(sum(abs(x) for x in line) == n for line in (*m, *zip(*m)))


def test_even_norms_are_left_divisible_by_a_halving_unit():
    for coords in product(range(-4, 5), repeat=4):
        if not any(coords) or sum(x * x for x in coords) % 2:
            continue
        z = Quaternion(*coords)
        u, q = next(
            (u, q)
            for u in HALVING_UNITS
            for q in [quaternion_product(conjugate(u), z)]
            if q.a % 2 == q.b % 2 == q.c % 2 == q.d % 2 == 0
        )
        assert quaternion_product(u, Quaternion(q.a // 2, q.b // 2, q.c // 2, q.d // 2)) == z, coords


def test_odd_primitive_norms_share_no_factor_with_the_rotation_entries():
    for coords in product(range(-4, 5), repeat=4):
        if math.gcd(*coords) != 1:
            continue
        z = Quaternion(*coords)
        if z.norm_sq % 2:
            assert math.gcd(z.norm_sq, *(x for row in euler_rodrigues(z) for x in row)) == 1, coords


def test_conjugation_gives_the_norm():
    q = Quaternion(2, -1, 3, 0)
    prod = quaternion_product(q, conjugate(q))
    assert (prod.a, prod.b, prod.c, prod.d) == (q.norm_sq, 0, 0, 0)


def test_quadruples_count_matches_r3():
    for l in (1, 2, 3, 5, 9):
        assert len(quadruples(l)) == r3_brute(l * l)


def test_r3_brute_matches_naive_oracle():
    for n in (1, 2, 4, 9, 25, 49, 81, 100):
        assert r3_brute(n) == r3_naive(n)


def test_r3_formula_matches_brute():
    for l in range(1, 26):
        assert r3_formula(l) == r3_brute(l * l), l


def test_class_count_helpers():
    assert s2(5) == 2
    assert s2_hat(7) == 2
    assert s2_tilde(11) == 2
    assert s2(3) == 0


def test_cubic_basis_predicate():
    assert is_cubic_basis(((3, 0, 0), (0, 3, 0), (0, 0, 3)))
    assert is_cubic_basis(((2, 2, 1), (-2, 1, 2), (1, -2, 2)))
    assert not is_cubic_basis(((1, 0, 0), (0, 1, 0), (0, 0, 2)))


def test_fcc_from_cubic_doubles_the_cell():
    m = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    doubled = hnf(list(fcc_from_cubic(m)))
    assert det3(list(doubled)) == 2 * det3(list(m))


def test_enumeration_counts():
    assert len(enumerate_cubic_sublattices(1)) == 1
    assert len(enumerate_cubic_sublattices(3)) == 5
    assert len(enumerate_cubic_sublattices(5)) == 7
    assert len(enumerate_cubic_sublattices(7)) == 9


def test_class_structure_at_the_sample_norms():
    for l, expected in CLASS_HISTOGRAMS.items():
        assert class_size_histogram(l) == expected, l
    seen = set()
    for l in CLASS_HISTOGRAMS:
        for cl in classify_classes(l):
            seen.add(cl.stabilizer_order)
            assert cl.size * cl.stabilizer_order == 48
    assert seen == STABILIZER_ORDERS


def test_parameters_annotated_on_predicted_classes():
    by_size = {cl.size: cl for cl in classify_classes(5)}
    assert by_size[6].parameters == (2, 1, 1)
    by_size = {cl.size: cl for cl in classify_classes(7)}
    assert by_size[8].parameters == (3, 1, 1)
    by_size = {cl.size: cl for cl in classify_classes(11)}
    assert by_size[12].parameters == (3, 1, 1)


def test_predicted_bases_solve_their_equations():
    rotations = rotation_elements()
    for l in (3, 5, 7, 9, 10, 11, 13, 34, 50, 225):
        for size, params, basis in predicted_class_bases(l):
            assert size in (4, 6, 8, 12)
            assert abs(det3(list(basis))) == l ** 3
            assert is_cubic_basis(tuple(tuple(r) for r in basis))
            assert len(_orbit(_key(basis), rotations)) == size, (l, params)


# per-class new-solution counts: the axis class owns 6 quadruples, each
# further class size brings a fixed block of fresh ones
ACCOUNTING_COEFF = {1: 6, 4: 24, 6: 24, 8: 48, 12: 72}


def test_solution_accounting_identity():
    for l in (3, 5, 7, 9, 11):
        hist = class_size_histogram(l)
        total = sum(ACCOUNTING_COEFF[size] * count for size, count in hist.items())
        assert total == r3_formula(l), l


def test_every_quadruple_extends_to_an_orthogonal_triple():
    for l in (1, 2, 3, 5, 7, 9):
        assert set().union(*_cubic_keys(l)) == set(quadruples(l))


def test_orthogonal_triples_match_the_full_sphere_scan():
    for l in (*range(1, 61), 64, 96, 105, 128):
        assert _cubic_keys(l) == {_key(t) for t in orthogonal_triples(l)}, l


def test_rotations_give_the_orbits_of_all_point_symmetries():
    rotations, full = rotation_elements(), oh_elements()
    for l in range(1, 41):
        for key in _cubic_keys(l):
            assert _orbit(key, rotations) == _orbit(key, full), (l, key)


def test_enumeration_and_fcc_census_match_the_hnf_oracles():
    for l in range(1, 61):
        assert enumerate_cubic_sublattices(l) == cubic_sublattices_by_hnf(l), l
        assert fcc_census(l).fcc_sublattices == fcc_count_by_hnf(l), l


def test_fcc_census_counts_the_enumerated_cubic_sublattices(monkeypatch):
    for l in (*range(1, 301), 1155, 2310):
        assert fcc_census(l).fcc_sublattices == len(_cubic_keys(l)), l

    def refuse(l):
        raise AssertionError("fcc_census enumerated")

    monkeypatch.setattr(sublattices, "_cubic_keys", refuse)
    # 10^6 = 2^6 5^6: 1 + 6 (5^6 - 1) / 4 sublattices
    assert fcc_census(10**6) == sublattices.FccCensus(10**6, 23437, 23437 * 2 * 10**18, False)


def test_classes_match_the_hnf_oracle():
    for l in range(1, 41):
        assert classify_classes(l) == classify_by_hnf(l), l


def test_hnf_runs_once_per_returned_basis(monkeypatch):
    lattices = len(enumerate_cubic_sublattices(45))
    calls = []

    def counting_hnf(generators, real=sublattices.hnf):
        calls.append(generators)
        return real(generators)

    monkeypatch.setattr(sublattices, "hnf", counting_hnf)
    for run, expected in (
        (lambda: classify_classes(45), lattices),
        (lambda: enumerate_cubic_sublattices(45), lattices),
        (lambda: fcc_census(45), 0),
    ):
        calls.clear()
        run()
        assert len(calls) == expected


def test_formula_vs_oracle_mismatch_set():
    for l in range(1, 22):
        cmp = compare_class_counts(l)
        assert bool(cmp.mismatched_sizes) == (l in MISMATCH_LS), l
        assert cmp.oracle == class_size_histogram(l)


def test_quaternions_of_norm():
    for l in (1, 2, 3, 4, 5):
        qs = quaternions_of_norm(l)
        assert qs and all(q.norm_sq == l for q in qs)


def test_fcc_census_joins_the_pc_census():
    assert fcc_census(1).pcs_total == 2 == pc_census(2)
    assert fcc_census(2).pcs_total == 16 == pc_census(8)
    assert fcc_census(4).pcs_total == 128
    flagged = fcc_census(3)
    assert flagged.flagged_layered_continuum
    assert flagged.pcs_total is None
    assert flagged.fcc_sublattices == 5
