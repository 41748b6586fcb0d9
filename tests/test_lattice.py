"""Geometry primitives: balls, distances, the cube symmetry group, and the
Record base of the package's value types."""

import dataclasses
import math
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latticegas.configs import PeriodicConfiguration
from latticegas import lattice
from latticegas.excitations import ExcitationReport
from latticegas.lattice import (
    ORIGIN,
    SMALL_INPUT,
    Record,
    SignedPermutation,
    ball_sites,
    conflict_masks,
    count_independent_sets,
    fold_independent_sets,
    half_ball,
    independent_sets,
    is_admissible,
    most_independent,
    oh_elements,
    outgrows_ball,
    rotation_elements,
    sq_dist,
)
from latticegas.sublattices import Quaternion
from oracles import (
    ExcitationReportTwin,
    PeriodicConfigurationTwin,
    QuaternionTwin,
    brute_ball,
    conflict_masks_pairwise,
    covering_by_subfolds,
    pairwise_admissible,
)
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
    shifted = [(s[0] + center[0], s[1] + center[1], s[2] + center[2]) for s in ball_sites(rsq)]
    assert shifted == brute_ball(rsq, center)


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


@st.composite
def spaced_site_lists(draw):
    """Up to 90 sites of a grid spaced so that distinct grid sites are at
    least sqrt(d2) apart, in drawn order, then maybe some of them moved by
    one step or repeated: lists on both sides of the crossover, admissible
    or not, at d2 from -1 to 20."""
    d2 = draw(st.integers(-1, 20))
    step = math.isqrt(max(d2 - 1, 0)) + 1
    grid = draw(st.permutations(range(216)))[:draw(st.integers(0, 90))]
    pts = [(step * (g // 36), step * (g // 6 % 6), step * (g % 6)) for g in grid]
    for i in draw(st.lists(st.integers(0, 89), max_size=2)):
        if pts:
            x = pts[i % len(pts)]
            pts.append(draw(st.sampled_from([x, (x[0] + 1, x[1], x[2]), (x[0], x[1] - 1, x[2] + 1)])))
    return pts, d2


@given(spaced_site_lists())
def test_admissibility_of_many_sites_matches_the_pairwise_oracle(case):
    pts, d2 = case
    assert is_admissible(pts, d2) == pairwise_admissible(pts, d2)


def test_admissibility_above_the_crossover_compares_no_pair(monkeypatch):
    grid = [(3 * i, 3 * j, 3 * k) for i in range(5) for j in range(5) for k in range(5)]
    assert outgrows_ball(len(grid), 9, 4) and not outgrows_ball(SMALL_INPUT, 1, 10**6)

    def compared(a, b):
        raise AssertionError("a pair was compared")

    monkeypatch.setattr(lattice, "sq_dist", compared)
    assert is_admissible(grid, 9)
    assert not is_admissible(grid + [(1, 1, 1)], 9)
    assert not is_admissible(grid + [grid[17]], 9)
    assert is_admissible(grid + [(1, 1, 1)], 2)


def test_the_half_ball_is_one_of_each_pair_of_nonzero_ball_sites():
    for d2 in range(-1, 30):
        assert ball_sites(d2) is ball_sites(d2)  # built once per bound
        assert list(ball_sites(d2)) == brute_ball(max(d2, 0))
        assert list(half_ball(d2)) == [b for b in brute_ball(max(d2, 0)) if b > ORIGIN]


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
    cover = data.draw(st.lists(st.integers(0, 2 ** 16 - 1), min_size=n, max_size=n))
    seen = []
    independent_sets(
        conflict_masks(pts, d2), cover, lambda chosen, covered: seen.append((tuple(chosen), covered))
    )
    # lexicographic order of the index tuples is the depth-first visiting order
    expected = sorted(
        c for r in range(n + 1) for c in combinations(range(n), r)
        if pairwise_admissible([pts[i] for i in c], d2)
    )
    assert [c for c, _ in seen] == expected
    for c, covered in seen:
        assert covered == reduce(or_, (cover[i] for i in c), 0)


@given(
    pts=st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
        max_size=40, unique=True,
    ),
    d2=st.integers(-1, 20),
)
def test_conflict_masks_match_the_pairwise_comparison(pts, d2):
    assert conflict_masks(pts, d2) == conflict_masks_pairwise(pts, d2)


@given(pts=point_sets_st, d2=st.integers(1, 12))
def test_count_independent_sets_matches_the_sets_visited(pts, d2):
    conflict = conflict_masks(pts, d2)
    seen = []
    independent_sets(conflict, [0] * len(pts), lambda chosen, covered: seen.append(1))
    assert count_independent_sets(conflict) == len(seen)


@given(pts=point_sets_st, d2=st.integers(1, 12), data=st.data())
def test_the_fold_matches_the_sets_visited(pts, d2, data):
    conflict = conflict_masks(pts, d2)
    unit = data.draw(st.lists(st.integers(0, 40), min_size=len(pts), max_size=len(pts)))
    sums = []
    independent_sets(
        conflict, [0] * len(pts), lambda chosen, covered: sums.append(sum(unit[i] for i in chosen))
    )
    ways, sigs = fold_independent_sets(conflict, unit)
    assert ways == len(sums)
    assert {s for s in range(sigs.bit_length()) if sigs >> s & 1} == set(sums)


def test_the_kernels_count_the_one_set_of_no_indices():
    # the initial state is then the empty one, filed in the empty state's slot
    assert count_independent_sets([]) == 1
    assert fold_independent_sets([], []) == (1, 1)
    assert count_independent_sets([0]) == 2
    assert fold_independent_sets([0], [3]) == (2, 0b1001)


def test_count_independent_sets_is_bounded_and_does_not_recurse(monkeypatch):
    # index i conflicts with i + k only: each of the k pairs is empty, its
    # first or its second index, and the count expands about 2^k states
    def pairs(k):
        return [1 << (i + k) if i < k else 1 << (i - k) for i in range(2 * k)]

    def fold(conflict):  # its signatures are the set sizes 0 .. max size
        return fold_independent_sets(conflict, [1] * len(conflict))

    assert count_independent_sets(pairs(12)) == 3 ** 12
    assert fold(pairs(12)) == (3 ** 12, (1 << 13) - 1)
    assert count_independent_sets([0] * 2000) == 2 ** 2000  # 2,000 levels deep
    assert fold([0] * 2000) == (2 ** 2000, (1 << 2001) - 1)
    monkeypatch.setattr(lattice, "COUNT_STATES_MAX", 1000)
    assert count_independent_sets(pairs(8)) == fold(pairs(8))[0] == 3 ** 8
    for kernel in (count_independent_sets, fold):
        with pytest.raises(ValueError, match="more than 1000 states"):
            kernel(pairs(12))


@given(pts=point_sets_st, d2=st.integers(1, 12), limit=st.integers(-2, 6), data=st.data())
def test_the_search_visits_exactly_the_sets_its_marginal_bound_admits(pts, d2, limit, data):
    # the kernel's test, written out from its docstring with K_p found by
    # trying every independent set
    n = len(pts)
    conflict = conflict_masks(pts, d2)
    cover = data.draw(st.lists(st.integers(0, 2 ** 8 - 1), min_size=n, max_size=n))
    seen = []
    independent_sets(
        conflict, cover, lambda chosen, covered: seen.append((tuple(chosen), covered)), limit=limit
    )

    def admissible(c):
        return pairwise_admissible([pts[i] for i in c], d2)

    def covers(c):
        return reduce(or_, (cover[i] for i in c), 0)

    independent = sorted(c for r in range(n + 1) for c in combinations(range(n), r) if admissible(c))
    most = {p: max(sum(cover[i] >> p & 1 for i in c) for c in independent)
            for p in range(8) if covers(range(n)) >> p & 1}
    assert {p: k for p, (_, k) in lattice._covering(conflict, cover).items()} == most
    den = math.lcm(*most.values())

    def marginal(x, y):  # D m_x(y)
        return sum(den // k for p, k in most.items() if (cover[y] & ~covers(x)) >> p & 1) - den

    def test(c):  # the marginal test for entering c from its prefix
        x, i = c[:-1], c[-1]
        avail = [y for y in range(i + 1, n) if admissible(x + (y,))]
        return (
            den * (covers(x).bit_count() - len(x)) + marginal(x, i)
            + sum(min(0, marginal(x, y)) for y in avail) <= den * limit
        )

    passed = {(): True}
    for c in independent[1:]:  # each after its prefixes
        passed[c] = passed[c[:-1]] and test(c)
    expected = [c for c in independent if passed[c]]
    assert [c for c, _ in seen] == expected
    assert all(covered == covers(c) for c, covered in seen)
    # every set of excess <= limit is visited
    assert {c for c in independent if covers(c).bit_count() - len(c) <= limit} <= set(expected)


@given(pts=point_sets_st, d2=st.integers(1, 12), data=st.data())
def test_k_p_matches_one_fold_per_particle(pts, d2, data):
    # given the sites, particles whose repellers sit alike share one fold
    conflict = conflict_masks(pts, d2)
    cover = data.draw(st.lists(st.integers(0, 2 ** 8 - 1), min_size=len(pts), max_size=len(pts)))
    expected = covering_by_subfolds(conflict, cover)
    assert lattice._covering(conflict, cover, pts) == expected == lattice._covering(conflict, cover)


@pytest.mark.parametrize("axis", range(3))
def test_k_p_tells_apart_patterns_that_differ_along_any_axis(axis):
    # particle 0 is repelled by a close pair of sites, particle 1 by a far
    # one; the pairs lie alike on the other two axes
    step = tuple(int(t == axis) for t in range(3))
    sites = [(0, 0, 0), step, (9, 9, 9), tuple(9 + 3 * s for s in step)]
    conflict = conflict_masks(sites, 2)
    assert lattice._covering(conflict, [1, 1, 2, 2], sites) == {0: (0b0011, 1), 1: (0b1100, 2)}


def test_most_independent_is_the_largest_independent_subset_of_every_small_graph():
    # vertex v of a graph on 5 vertices is index 2v + 1; the even indices
    # lie outside ks and conflict with every other index
    pairs = list(combinations(range(5), 2))
    ks = [2 * v + 1 for v in range(5)]
    outside = sum(1 << k for k in range(0, 11, 2))
    for edges in range(1 << len(pairs)):
        conflict = [((1 << 11) - 1) ^ (1 << k) if k % 2 == 0 else outside for k in range(11)]
        for e, (u, v) in enumerate(pairs):
            if edges >> e & 1:
                conflict[ks[u]] |= 1 << ks[v]
                conflict[ks[v]] |= 1 << ks[u]
        largest = max(len(c) for r in range(6) for c in combinations(range(5), r)
                      if not any(edges >> pairs.index(pair) & 1 for pair in combinations(c, 2)))
        assert most_independent(conflict, ks) == largest


def test_a_k_p_fold_past_its_budget_raises(monkeypatch):
    # one particle repelled by 16 indices in 8 conflicting pairs: K_p = 8,
    # and the fold keeps each pair's two choices apart, about 2^8 states
    conflict = [1 << (i + 8) if i < 8 else 1 << (i - 8) for i in range(16)]
    assert lattice._covering(conflict, [1] * 16) == {0: ((1 << 16) - 1, 8)}
    monkeypatch.setattr(lattice, "COUNT_STATES_MAX", 100)
    with pytest.raises(ValueError, match="more than 100 states"):
        lattice._covering(conflict, [1] * 16)


small_st = st.integers(-1, 1)
few_sites_st = st.lists(st.tuples(small_st, small_st, small_st), max_size=2).map(tuple)

# each record, its frozen-dataclass twin, and a strategy per field, in field
# order; the domains are small so that equal values are drawn often
RECORDS = {
    "Quaternion": (Quaternion, QuaternionTwin, {f: small_st for f in "abcd"}),
    "PeriodicConfiguration": (
        PeriodicConfiguration,
        PeriodicConfigurationTwin,
        {
            "basis": st.sampled_from([((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((2, 0, 0), (0, 1, 0), (0, 0, 1))]),
            "offsets": few_sites_st,
            "context_d2": st.none() | st.integers(1, 2),
        },
    ),
    "ExcitationReport": (
        ExcitationReport,
        ExcitationReportTwin,
        {
            "inserted_count": st.integers(0, 1),
            "repelled": few_sites_st,
            "energy": st.integers(0, 1),
            "excesses": st.dictionaries(
                st.tuples(small_st, small_st, small_st), st.fractions(0, 1, max_denominator=2), max_size=1
            ),
            "type": st.sampled_from([None, "I", "IIa"]),
            "background_perfect": st.booleans(),
        },
    ),
}


def _raised(call):
    """The exception call() raises, or None."""
    try:
        call()
    except Exception as exc:  # the record and its twin must fail alike, however they fail
        return exc
    return None


@pytest.mark.parametrize("name", sorted(RECORDS))
@given(data=st.data())
def test_record_behaves_as_its_frozen_dataclass_twin(name, data):
    record, twin, strategies = RECORDS[name]
    fields = list(strategies)
    x, y = (data.draw(st.fixed_dictionaries(strategies)) for _ in range(2))
    for values in (x, y):
        refused = _raised(lambda: twin(**values))
        if refused is not None:  # __post_init__ rejects the zero quaternion
            with pytest.raises(type(refused)):
                record(**values)
            return
    xs, ys = [x[f] for f in fields], [y[f] for f in fields]
    r1, r2, t1, t2 = record(*xs), record(*ys), twin(*xs), twin(*ys)

    assert repr(r1) == repr(t1)
    assert (r1 == r2, r1 != r2) == (t1 == t2, t1 != t2)
    assert hash(r1) == hash(t1)
    if r1 == r2:
        assert hash(r1) == hash(r2)
    assert (r1 == t1, t1 == r1, r1.__eq__(x), r1 == tuple(xs)) == (False, False, NotImplemented, False)

    # positional, keyword and omitted-default forms build the same value
    k = data.draw(st.integers(0, len(fields)))
    mixed = record(*[x[f] for f in fields[:k]], **{f: x[f] for f in fields[k:]})
    assert (mixed == r1, repr(mixed)) == (True, repr(r1))
    required = {f.name: x[f.name] for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING}
    assert repr(record(**required)) == repr(twin(**required))

    for attr in [*fields, "unknown"]:
        for act in (lambda o: setattr(o, attr, 0), lambda o: delattr(o, attr)):
            got, want = _raised(lambda: act(r1)), _raised(lambda: act(t1))
            assert isinstance(got, AttributeError) and isinstance(want, AttributeError)
            assert str(got) == str(want)
    assert repr(r1) == repr(t1)

    bad_calls = [
        ((), {f: x[f] for f in fields[1:]}),  # the first field missing
        ((*xs, 0), {}),  # one field too many
        ((), {**x, "unknown": 0}),  # a field the record lacks
        ((x[fields[0]],), x),  # the first field twice
    ]
    for args, kwargs in bad_calls:
        assert isinstance(_raised(lambda: twin(*args, **kwargs)), TypeError)
        assert isinstance(_raised(lambda: record(*args, **kwargs)), TypeError)


def test_record_refuses_to_leave_out_a_field_it_lacks():
    with pytest.raises(TypeError):
        class Misnamed(Record, uncompared=("excess",)):
            excesses: dict
