"""Geometry primitives: balls, distances, the cube symmetry group."""

from functools import reduce
from itertools import combinations
from operator import or_

from hypothesis import given
from hypothesis import strategies as st

from latticegas.lattice import (
    ORIGIN,
    SignedPermutation,
    ball_sites,
    conflict_masks,
    count_independent_sets,
    independent_sets,
    is_admissible,
    oh_elements,
    rotation_elements,
    sq_dist,
)
from oracles import brute_ball, pairwise_admissible
from reference_data import BALL_COUNTS

sites_st = st.tuples(
    st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)
)


def test_ball_cardinalities():
    for rsq, expected in BALL_COUNTS.items():
        assert len(ball_sites(rsq)) == expected


def test_ball_matches_cube_scan():
    for rsq in (1, 2, 3, 4, 5, 6, 7, 9, 12):
        assert sorted(ball_sites(rsq)) == brute_ball(rsq)


@given(center=sites_st, rsq=st.integers(1, 9))
def test_ball_translation_equivariant(center, rsq):
    shifted = sorted(ball_sites(rsq, center))
    assert shifted == sorted(
        (s[0] + center[0], s[1] + center[1], s[2] + center[2])
        for s in ball_sites(rsq)
    )


@given(a=sites_st, b=sites_st)
def test_sq_dist_symmetric_nonnegative(a, b):
    assert sq_dist(a, b) == sq_dist(b, a) >= 0
    assert (sq_dist(a, b) == 0) == (a == b)


def test_group_orders():
    assert len(oh_elements()) == 48
    assert len(rotation_elements()) == 24
    assert len({g for g in oh_elements()}) == 48


@given(a=sites_st, b=sites_st, idx=st.integers(0, 47))
def test_group_preserves_distance(a, b, idx):
    g = oh_elements()[idx]
    assert sq_dist(g.apply(a), g.apply(b)) == sq_dist(a, b)


def test_group_closed_under_composition():
    elements = oh_elements()
    table = set(elements)
    probe = ball_sites(6)
    for g in elements[:8]:
        for h in elements[:8]:
            image = tuple(h.apply(g.apply(s)) for s in probe)
            assert any(
                image == tuple(k.apply(s) for s in probe) for k in table
            )


@given(
    pts=st.lists(sites_st, min_size=0, max_size=6, unique=True),
    d2=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12]),
)
def test_is_admissible_matches_pairwise_oracle(pts, d2):
    assert is_admissible(pts, d2) == pairwise_admissible(list(pts), d2)


def test_origin_is_origin():
    assert ORIGIN == (0, 0, 0)
    assert ORIGIN in ball_sites(1)


# small random point sets and thresholds for the kernel tests
point_sets_st = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    max_size=12, unique=True,
)


@given(pts=point_sets_st, d2=st.integers(1, 12), data=st.data())
def test_independent_sets_matches_filtered_combinations(pts, d2, data):
    n = len(pts)
    weight = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    cover = data.draw(st.lists(st.integers(0, 2 ** 16 - 1), min_size=n, max_size=n))
    seen = []
    independent_sets(
        conflict_masks(pts, d2), weight, cover,
        lambda chosen, total, covered: seen.append((tuple(chosen), total, covered)),
    )
    # lexicographic order of the index tuples is the depth-first visiting order
    expected = sorted(
        c for r in range(n + 1) for c in combinations(range(n), r)
        if pairwise_admissible([pts[i] for i in c], d2)
    )
    assert [c for c, _, _ in seen] == expected
    for c, total, covered in seen:
        assert total == sum(weight[i] for i in c)
        assert covered == reduce(or_, (cover[i] for i in c), 0)


@given(pts=point_sets_st, d2=st.integers(1, 12))
def test_count_independent_sets_matches_the_sets_visited(pts, d2):
    conflict = conflict_masks(pts, d2)
    zeros = [0] * len(pts)
    seen = []
    independent_sets(conflict, zeros, zeros, lambda chosen, total, covered: seen.append(1))
    assert count_independent_sets(conflict) == len(seen)


@given(pts=point_sets_st, d2=st.integers(1, 12), limit=st.integers(-40, 60), data=st.data())
def test_the_ceiling_visits_exactly_the_sets_its_bound_admits(pts, d2, limit, data):
    n = len(pts)
    weight = data.draw(st.lists(st.integers(-20, 30), min_size=n, max_size=n))
    seen = []
    independent_sets(
        conflict_masks(pts, d2), weight, [0] * n,
        lambda chosen, total, covered: seen.append((tuple(chosen), total)),
        limit=limit,
    )

    def bound(c):
        return sum(weight[i] for i in c) + sum(min(0, w) for w in weight[c[-1] + 1:])

    expected = [()] + sorted(
        c for r in range(1, n + 1) for c in combinations(range(n), r)
        if pairwise_admissible([pts[i] for i in c], d2) and bound(c) <= limit
    )
    assert [c for c, _ in seen] == expected
    assert all(total == sum(weight[i] for i in c) for c, total in seen)
