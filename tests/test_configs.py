"""Periodic configurations: HNF canonical form, density, perfection."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticegas import configs, families
from latticegas.configs import (
    PeriodicConfiguration,
    canonicalize,
    density,
    is_admissible_config,
    is_perfect,
    is_saturated,
    make_config,
    shift_count,
)
from latticegas.excitations import RemovalSet, excitation_report, gamma1, make_insertion, peierls_check
from latticegas.families import build_bcc, build_cubic, build_fcc, build_layered_d5
from latticegas.forces import SUPPORTED_D2
from latticegas.lattice import ball_sites, hnf, oh_elements
from oracles import (
    admissible_by_scan,
    box_admissible,
    box_side,
    brute_ball,
    canonical_by_differences,
    canonical_key,
    configs_equal,
    det3,
    naive_density,
    perfect_by_density,
    perfect_by_scan,
    reduce_by_rows,
    saturated_by_scan,
)
from reference_data import CONSTRUCTORS

entry = st.integers(-9, 9)
row = st.tuples(entry, entry, entry)


@st.composite
def nonsingular_rows(draw):
    rows = [draw(row) for _ in range(3)]
    if det3(rows) == 0:
        # nudge into general position along the diagonal
        rows = [
            (rows[0][0] + 1, rows[0][1], rows[0][2]),
            (rows[1][0], rows[1][1] + 2, rows[1][2]),
            (rows[2][0], rows[2][1], rows[2][2] + 3),
        ]
    if det3(rows) == 0:
        rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return rows


def adjugate3(m):
    """Adjugate: m @ adjugate3(m) == det3(m) * identity."""
    c = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for i in range(3):
        for j in range(3):
            a = [k for k in range(3) if k != i]
            b = [k for k in range(3) if k != j]
            minor = m[a[0]][b[0]] * m[a[1]][b[1]] - m[a[0]][b[1]] * m[a[1]][b[0]]
            c[j][i] = (-1) ** (i + j) * minor  # transposed cofactor
    return c


def _in_lattice(site, basis) -> bool:
    # integer coordinates in the basis iff the adjugate image is divisible by det
    d = det3(basis)
    adj = adjugate3(basis)
    for col in range(3):
        c = sum(site[r] * adj[r][col] for r in range(3))
        if c % d:
            return False
    return True


@given(rows=nonsingular_rows())
def test_hnf_is_canonical_form_of_the_same_lattice(rows):
    h = hnf(rows)
    assert h[1][0] == h[2][0] == h[2][1] == 0
    assert h[0][0] > 0 and h[1][1] > 0 and h[2][2] > 0
    assert 0 <= h[0][1] < h[1][1] and 0 <= h[0][2] < h[2][2] and 0 <= h[1][2] < h[2][2]
    assert det3(h) == abs(det3(rows))
    for r in rows:
        assert _in_lattice(r, h)
    for r in h:
        assert _in_lattice(r, rows)
    assert hnf(h) == h


def test_hnf_rejects_rank_deficient_generators():
    with pytest.raises(ValueError):
        hnf([(1, 0, 0), (2, 0, 0), (3, 0, 0)])


def _minor_gcd(rows) -> int:
    """The gcd of the 3x3 minors of the rows: the index in Z^3 of the lattice
    they span, and 0 when they span less than rank 3."""
    return math.gcd(*(det3(m) for m in combinations(rows, 3)))


@st.composite
def generator_lists(draw):
    """One to six generators, as canonicalize (four) and
    sublattices._cubic_keys (six) pass them: zero rows, rows drawn again and
    rows drawn again negated among them, in any order."""
    rows = [draw(row) for _ in range(draw(st.integers(1, 6)))]
    again = st.tuples(st.sampled_from(rows), st.sampled_from((1, -1))).map(lambda t: tuple(t[1] * x for x in t[0]))
    extra = st.lists(st.one_of(st.just((0, 0, 0)), again), max_size=6 - len(rows))
    return draw(st.permutations(rows + draw(extra)))


@given(rows=generator_lists())
@example(rows=[(1, 1, 0), (1, -1, 0), (0, 1, 1), (1, 0, 1)])
@example(rows=[(3, 0, 0), (0, 3, 0), (0, 0, 3), (-3, 0, 0), (0, 0, 0), (0, 3, 0)])
@example(rows=[(1, 0, 0), (2, 0, 0), (0, 0, 0), (0, 1, 0), (-1, 0, 0), (0, 2, 0)])
def test_hnf_of_one_to_six_generators_spans_their_lattice(rows):
    """Membership both ways: every generator lies in the lattice of the HNF
    rows (their adjugate), and every HNF row in the generators' lattice,
    since adding it leaves the gcd of the 3x3 minors, the index, unchanged.
    The HNF's determinant is that index, hnf is idempotent, and generators
    of rank below 3 are refused."""
    index = _minor_gcd(rows)
    if index == 0:
        with pytest.raises(ValueError, match="rank-3"):
            hnf(rows)
        return
    h = hnf(rows)
    assert h[1][0] == h[2][0] == h[2][1] == 0
    assert h[0][0] > 0 and h[1][1] > 0 and h[2][2] > 0
    assert 0 <= h[0][1] < h[1][1] and 0 <= h[0][2] < h[2][2] and 0 <= h[1][2] < h[2][2]
    assert det3(h) == index
    assert all(_in_lattice(r, h) for r in rows)
    assert all(_minor_gcd(list(rows) + [r]) == index for r in h)
    assert hnf(h) == h


def test_make_config_reduces_and_dedupes_offsets():
    pc = make_config(
        [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(0, 0, 0), (2, 2, 2), (4, 0, 0)],
    )
    assert pc.offsets == ((0, 0, 0),)
    assert pc.det == 8


def test_make_config_validates_hard_core_rule():
    with pytest.raises(ValueError):
        make_config([(2, 0, 0), (0, 2, 0), (0, 0, 2)], [(0, 0, 0), (1, 0, 0)], context_d2=4)


# Each context make_config refuses. Before the check, True and False were
# stored as given, 5.0 and Fraction(5) were checked as 5 and stored, and "5"
# raised a TypeError from the hard-core check. The cell obeys d2 = 5, so
# only the type can refuse it.
INEXACT_CONTEXTS = [
    pytest.param(True, id="bool-true"),
    pytest.param(False, id="bool-false"),
    pytest.param(5.0, id="float"),
    pytest.param(Fraction(5), id="fraction"),
    pytest.param("5", id="string"),
    pytest.param([5], id="list"),
]


@pytest.mark.parametrize("context", INEXACT_CONTEXTS)
def test_a_context_that_is_not_exactly_an_int_is_refused(context):
    with pytest.raises(ValueError) as info:
        make_config([(3, 0, 0), (0, 3, 0), (0, 0, 3)], [(0, 0, 0)], context)
    assert str(info.value) == f"context d2 {context!r} is not an integer"
    assert make_config([(3, 0, 0), (0, 3, 0), (0, 0, 3)], [(0, 0, 0)], 5).context_d2 == 5


# Each constructor that takes coordinates, with x as one coordinate, and the
# name its error gives the entry. Every case was accepted, truncated or stored
# as given, before coordinates went through operator.index.
EXACT_ENTRY_POINTS = [
    pytest.param(lambda x: hnf([(x, 0, 0), (0, 1, 0), (0, 0, 1)]), "generator", id="hnf"),
    pytest.param(lambda x: make_config([(2, 0, 0), (0, 2, 0), (0, 0, 2)], [(x, 0, 0)]), "offset",
                 id="make_config"),
    pytest.param(lambda x: make_insertion(build_cubic(2), 1, [(x, 0, 0)]), "insertion site",
                 id="make_insertion"),
    pytest.param(lambda x: RemovalSet(build_cubic(1), 1, ((x, 0, 0),)), "removal site",
                 id="RemovalSet"),
]


@pytest.mark.parametrize("x", [1.0, 2.7, Fraction(1), Fraction(5, 2), True], ids=repr)
@pytest.mark.parametrize("construct, what", EXACT_ENTRY_POINTS)
def test_a_non_integer_coordinate_is_refused_by_name(construct, what, x):
    with pytest.raises(ValueError) as info:
        construct(x)
    assert str(info.value) == f"{what} {(x, 0, 0)!r} is not a triple of integers"


def test_redundant_cell_canonicalizes_away():
    fcc = build_fcc(1)
    fat = make_config(
        [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
        [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
        context_d2=2,
    )
    assert fat.det == 8 and len(fat.offsets) == 4
    slim = canonicalize(fat)
    assert slim.det == 2 and len(slim.offsets) == 1
    assert configs_equal(slim, fcc)
    assert canonicalize(slim) == slim


def test_shift_count_equals_cell_volume():
    for pc in (build_fcc(1), build_bcc(2), build_layered_d5(0, "01")):
        assert shift_count(pc) == canonicalize(pc).det


@pytest.mark.parametrize(
    "build, d2",
    [
        (lambda: build_fcc(1), 2),
        (lambda: build_bcc(2), 3),
        (lambda: build_layered_d5(0, "01"), 5),
        (lambda: build_fcc(2), 8),
    ],
)
def test_density_and_admissibility_match_oracles(build, d2):
    pc = build()
    assert density(pc) == naive_density(pc)
    assert is_admissible_config(pc, d2)
    assert box_admissible(pc, d2)


@st.composite
def hnf_bases(draw):
    """An HNF basis drawn directly: positive pivots up to 9, and each entry
    above a pivot anywhere in [0, pivot)."""
    a, d, f = (draw(st.integers(1, 9)) for _ in range(3))
    return (
        (a, draw(st.integers(0, d - 1)), draw(st.integers(0, f - 1))),
        (0, d, draw(st.integers(0, f - 1))),
        (0, 0, f),
    )


@given(st.one_of(hnf_bases(), nonsingular_rows().map(hnf)), st.tuples(*[st.integers(-60, 60)] * 3))
# every quotient negative and nonzero, so each off-diagonal entry counts
@example(((2, 1, 3), (0, 3, 2), (0, 0, 5)), (-3, -8, -1))
def test_the_closed_form_residue_matches_the_row_by_row_reduction(basis, site):
    residue = configs._reduce_site(site, basis)
    assert residue == reduce_by_rows(site, basis)
    assert all(0 <= residue[i] < basis[i][i] for i in range(3))


def test_membership_after_reduction():
    pc = build_fcc(1)
    assert pc.contains((0, 0, 0))
    assert pc.contains((1, 1, 0))
    assert pc.contains((13, -7, 0))
    assert not pc.contains((1, 0, 0))


@st.composite
def boxed_configs(draw):
    """A configuration whose HNF basis has a nonzero entry above the
    diagonal, with 1-4 offsets, and a box that may reach below zero or be
    empty (lo > hi in some coordinate)."""
    pc = make_config(draw(nonsingular_rows()), draw(st.lists(row, min_size=1, max_size=4)))
    assume(any(pc.basis[0][1:]) or pc.basis[1][2])
    lo = draw(st.tuples(*[st.integers(-7, 3)] * 3))
    hi = tuple(c + draw(st.integers(-2, 6)) for c in lo)
    return pc, lo, hi


@given(boxed_configs(), st.tuples(*[st.integers(-5, 5)] * 3), st.integers(0, 14))
@example((build_layered_d5(0, "01"), (-4, -4, -4), (4, 4, 4)), (0, 0, 0), 5)
@example(
    (make_config([(2, 1, 3), (0, 3, 2), (0, 0, 5)], [(0, 0, 0)]), (-3, -3, 1), (3, 3, 0)),
    (0, 0, 0),
    0,
)
def test_box_and_ball_queries_match_the_cube_scan(boxed, center, radius_sq):
    pc, lo, hi = boxed
    assert sorted(pc.occupied_in_box(lo, hi)) == [
        s for s in product(*(range(lo[t], hi[t] + 1) for t in range(3))) if pc.contains(s)
    ]
    assert pc.occupied_near(center, radius_sq) == [
        s for s in brute_ball(radius_sq, center) if pc.contains(s)
    ]


def test_perfection_basics():
    z3 = build_cubic(1)
    assert is_perfect(z3, 1)
    assert is_perfect(build_fcc(1), 2)
    assert is_perfect(build_bcc(2), 3)
    # admissible at the lower threshold but too thin to be perfect there
    assert not is_perfect(build_bcc(2), 2)


def test_perfection_undefined_below_the_packing_distance():
    # the question only makes sense for admissible configurations
    with pytest.raises(ValueError):
        is_perfect(build_cubic(1), 2)
    with pytest.raises(ValueError):
        is_perfect(build_fcc(1), 3)


@pytest.mark.parametrize("d2", [1.0, Fraction(1), True, 2.0], ids=repr)
def test_perfection_at_a_threshold_that_is_not_exactly_an_int_is_refused(d2):
    # 1.0, Fraction(1) and True equal 1, where the force is the occupation
    # indicator; none is taken as 1, on a cell whose context is trusted
    # (fcc-1 at 2) or on one that is checked (Z^3)
    for pc in (build_fcc(1), build_cubic(1)):
        with pytest.raises(ValueError, match="no repelling-force table"):
            is_perfect(pc, d2)


def test_sparse_config_is_not_perfect():
    thin = make_config([(4, 0, 0), (0, 4, 0), (0, 0, 4)], [(0, 0, 0)], context_d2=2)
    assert not is_perfect(thin, 2)
    assert not is_saturated(thin, 2)


@st.composite
def admissible_configs(draw):
    """A threshold, a small HNF lattice with every side at least sqrt(d2) and
    no shorter vector, and up to five more offsets, each kept only if the
    configuration stays admissible."""
    d2 = draw(st.sampled_from((1,) + SUPPORTED_D2))
    lo = math.isqrt(d2 - 1) + 1
    a, b, c = (draw(st.integers(lo, lo + 3)) for _ in range(3))
    basis = [
        (a, draw(st.integers(0, b - 1)), draw(st.integers(0, c - 1))),
        (0, b, draw(st.integers(0, c - 1))),
        (0, 0, c),
    ]
    assume(is_admissible_config(make_config(basis, [(0, 0, 0)]), d2))
    cell_site = st.tuples(st.integers(0, a - 1), st.integers(0, b - 1), st.integers(0, c - 1))
    offsets = [(0, 0, 0)]
    for o in draw(st.lists(cell_site, max_size=5)):
        if is_admissible_config(make_config(basis, offsets + [o]), d2):
            offsets.append(o)
    return make_config(basis, offsets), d2


@given(
    d2=st.sampled_from((0, 1) + SUPPORTED_D2),
    sides=st.tuples(*(st.integers(1, 8) for _ in range(3))),
    shear=st.tuples(*(st.integers(0, 7) for _ in range(3))),
    offsets=st.lists(st.tuples(*(st.integers(0, 7) for _ in range(3))), min_size=1, max_size=6),
)
# one close pair and one offset far from both
@example(d2=2, sides=(4, 4, 4), shear=(0, 0, 0), offsets=[(0, 0, 0), (1, 0, 0), (2, 2, 2)])
def test_admissibility_matches_the_ball_scan(d2, sides, shear, offsets):
    a, b, c = sides
    pc = make_config([(a, shear[0], shear[1]), (0, b, shear[2]), (0, 0, c)], offsets)
    assert is_admissible_config(pc, d2) == admissible_by_scan(pc, d2)


@given(case=admissible_configs())
def test_perfection_matches_the_per_site_scan(case):
    pc, d2 = case
    assert is_perfect(pc, d2) == perfect_by_scan(pc, d2)


@given(case=admissible_configs())
def test_saturation_matches_the_per_site_scan(case):
    pc, d2 = case
    assert is_saturated(pc, d2) == saturated_by_scan(pc, d2)


def _supercell(pc, k):
    """Basis rows and offsets of the k x k x k supercell of pc, the first
    offset of pc first."""
    shifts = [
        tuple(sum(c[i] * pc.basis[i][t] for i in range(3)) for t in range(3))
        for c in product(range(k), repeat=3)
    ]
    offsets = [(o[0] + s[0], o[1] + s[1], o[2] + s[2]) for o in pc.offsets for s in shifts]
    return [[k * x for x in r] for r in pc.basis], offsets


def _supercell_without_one(pc, d2):
    """The 2x2x2 supercell of pc with its first offset removed."""
    rows, offsets = _supercell(pc, 2)
    return make_config(rows, offsets[1:], d2)


@pytest.mark.parametrize(
    "d2, build",
    [(d2, build) for d2, entries in CONSTRUCTORS.items() for _, build in entries],
    ids=[f"{d2}-{label}" for d2, entries in CONSTRUCTORS.items() for label, _ in entries],
)
def test_perfection_matches_the_scan_on_every_constructor(d2, build):
    pc = build()
    assert is_perfect(pc, d2) and perfect_by_scan(pc, d2)
    holed = _supercell_without_one(pc, d2)
    assert len(holed.offsets) == 8 * len(pc.offsets) - 1
    assert not is_perfect(holed, d2) and not perfect_by_scan(holed, d2)


@pytest.mark.parametrize("build", [lambda: build_fcc(2), lambda: build_layered_d5(0, "01"), lambda: build_bcc(4)],
                         ids=["fcc-2", "hcp-01", "bcc-4"])
def test_perfection_matches_the_scan_whatever_the_context(build):
    """A constructor's cell, whose context_d2 is its threshold (None for
    bcc), and the same cell built with no context, at every threshold: the
    trusted check and the checked one agree with the scan where the cell
    obeys the threshold, and both raise where it does not."""
    pc = build()
    bare = make_config(pc.basis, pc.offsets)
    for d2 in (1,) + SUPPORTED_D2:
        if admissible_by_scan(bare, d2):
            want = perfect_by_scan(bare, d2)
            assert is_perfect(bare, d2) == want and is_perfect(pc, d2) == want, d2
            continue
        for cell in (pc, bare):
            with pytest.raises(ValueError, match="perfection undefined"):
                is_perfect(cell, d2)


@pytest.mark.parametrize(
    "d2, build",
    [(d2, build) for d2, entries in CONSTRUCTORS.items() for _, build in entries],
    ids=[f"{d2}-{label}" for d2, entries in CONSTRUCTORS.items() for label, _ in entries],
)
def test_the_integer_density_identity_matches_the_fraction_oracle(d2, build):
    """_perfect_density and is_perfect against the identity in Fractions on
    the constructor's cell, its 2x2x2 supercell and that supercell less its
    first offset, all three at the cell's context, at every threshold up to
    that context. Each obeys the hard-core rule there, so is_perfect reads
    the identity; the cell is perfect at its own threshold only."""
    pc = build()
    rows, offsets = _supercell(pc, 2)
    cells = [pc, make_config(rows, offsets, pc.context_d2), make_config(rows, offsets[1:], pc.context_d2)]
    thresholds = [t for t in (1,) + SUPPORTED_D2 if t <= pc.context_d2]
    for t in thresholds:
        for cell in cells:
            want = perfect_by_density(cell, t)
            assert configs._perfect_density(cell, t) is want and is_perfect(cell, t) is want, (t, cell)
    assert [t for t in thresholds if perfect_by_density(pc, t)] == [d2]
    assert [perfect_by_density(cell, d2) for cell in cells] == [True, True, False]


def test_the_integer_density_identity_of_z3_at_one_matches_the_fraction_oracle():
    """Z^3 at d2 = 1, where the identity is len(offsets) == det: the cell and
    its 2x2x2 supercell are perfect, the supercell less one offset is not,
    with the context 1 trusted or with none. A threshold equal to 1 that is
    not exactly an int is refused by both the library and the oracle."""
    z3 = build_cubic(1)
    rows, offsets = _supercell(z3, 2)
    for context in (1, None):
        cells = [make_config(z3.basis, z3.offsets, context), make_config(rows, offsets, context),
                 make_config(rows, offsets[1:], context)]
        got = [(configs._perfect_density(cell, 1), is_perfect(cell, 1)) for cell in cells]
        assert got == [(perfect_by_density(cell, 1),) * 2 for cell in cells] == [(True, True)] * 2 + [(False, False)]
    for d2 in (1.0, Fraction(1), True):
        for decide in (configs._perfect_density, is_perfect, perfect_by_density):
            with pytest.raises(ValueError, match="no repelling-force table"):
                decide(z3, d2)


@pytest.mark.parametrize(
    "d2, build",
    [(d2, build) for d2, entries in CONSTRUCTORS.items() for _, build in entries],
    ids=[f"{d2}-{label}" for d2, entries in CONSTRUCTORS.items() for label, _ in entries],
)
def test_saturation_matches_the_scan_on_every_constructor(d2, build):
    pc = build()
    assert is_saturated(pc, d2) == saturated_by_scan(pc, d2)
    holed = _supercell_without_one(pc, d2)
    assert is_saturated(holed, d2) == saturated_by_scan(holed, d2)


def test_saturation_of_a_huge_cell_does_not_scan_it():
    # 10^18 cell sites, one reached residue per site of the d2 = 2 ball
    pc = make_config([(10**6, 0, 0), (0, 10**6, 0), (0, 0, 10**6)], [(0, 0, 0)])
    assert pc.reached(2) == {pc.reduce(s) for s in ball_sites(2)}
    assert is_saturated(pc, 2) is False


def test_perfection_of_a_huge_cell_does_not_scan_it():
    # 10^18 cell sites: only the density identity can answer this
    pc = make_config([(10**6, 0, 0), (0, 10**6, 0), (0, 0, 10**6)], [(0, 0, 0)])
    assert is_perfect(pc, 2) is False


def _occupied_by_scan(pc, center, radius_sq):
    """The occupied sites of the cube-scanned ball, sorted; occupancy is the
    residue's membership in the offsets tuple, not in the set."""
    return [s for s in brute_ball(radius_sq, center) if pc.reduce(s) in pc.offsets]


def _check_both_paths(pc, d2, paths):
    """is_admissible_config, which has one path, and occupied_near against
    the scans, with occupied_near's crossover left to decide (None) or
    forced to either path."""
    want = admissible_by_scan(pc, d2)
    probes = [(pc.offsets[0], d2), ((3, -2, 5), d2), ((1, 1, 0), 2 * d2 + 1)]
    for forced in paths:
        with pytest.MonkeyPatch.context() as mp:
            if forced is not None:
                mp.setattr(configs, "outgrows_ball", lambda *args, forced=forced: forced)
            assert is_admissible_config(pc, d2) == want
            for center, radius_sq in probes:
                assert pc.occupied_near(center, radius_sq) == _occupied_by_scan(pc, center, radius_sq)
    return want


@pytest.mark.parametrize(
    "d2, build",
    [(d2, build) for d2, entries in CONSTRUCTORS.items() for _, build in entries],
    ids=[f"{d2}-{label}" for d2, entries in CONSTRUCTORS.items() for label, _ in entries],
)
def test_both_neighbourhood_paths_match_the_scans_on_every_supercell(d2, build):
    """Each constructor's cell and its 2x2x2 and 4x4x4 supercells, each also
    with its first offset removed and with an offset planted at squared
    distance 1 from it. is_admissible_config is checked on every cell, and
    occupied_near with its crossover left to decide; on the smaller cells
    occupied_near is also run on both of its paths forced."""
    pc = build()
    for k in (1, 2, 4):
        rows, offsets = _supercell(pc, k)
        first = offsets[0]
        planted = (first[0] + 1, first[1], first[2])
        variants = [(offsets, True), (offsets + [planted], False)]
        if len(offsets) > 1:
            variants.append((offsets[1:], True))
        for offs, admissible in variants:
            cell = make_config(rows, offs)
            paths = (None,) if k == 4 else (None, False, True)
            assert _check_both_paths(cell, d2, paths) is admissible
            if k == 1 and box_side(cell) <= 12:  # a pairwise walk of a 2-period box
                assert box_admissible(cell, d2) is admissible


@st.composite
def large_cells(draw):
    """An admissible configuration (admissible_configs), its 2x2x2 or 3x3x3
    supercell (up to 162 offsets), and maybe its first offset removed or one
    offset planted at a drawn site near the cell: cells on both sides of
    occupied_near's crossover, admissible or not."""
    pc, d2 = draw(admissible_configs())
    rows, offsets = _supercell(pc, draw(st.sampled_from((2, 3))))
    change = draw(st.sampled_from(("none", "hole", "plant")))
    if change == "hole" and len(offsets) > 1:
        offsets = offsets[1:]
    elif change == "plant":
        offsets.append(draw(st.tuples(*[st.integers(-3, 12)] * 3)))
    return make_config(rows, offsets), d2


@settings(max_examples=40)
@given(large_cells(), st.tuples(*[st.integers(-6, 6)] * 3), st.integers(0, 14))
def test_admissibility_and_lookups_of_large_cells_match_the_scans(case, center, radius_sq):
    pc, d2 = case
    assert is_admissible_config(pc, d2) == admissible_by_scan(pc, d2)
    assert pc.occupied_near(center, radius_sq) == _occupied_by_scan(pc, center, radius_sq)


@st.composite
def hnf_configs(draw):
    """A configuration on an HNF basis drawn directly, with 1-4 offsets. Half
    the bases are skewed as phi10's and hcp's are: a = d = 1, f up to 30 and
    b12 != 0; the others have each diagonal entry in 1..6. The entries above
    the diagonal are reduced under their column's pivot, as hnf leaves them."""
    if draw(st.booleans()):
        a, d, f = 1, 1, draw(st.integers(2, 30))
        b12 = draw(st.integers(1, f - 1))
    else:
        a, d, f = (draw(st.integers(1, 6)) for _ in range(3))
        b12 = draw(st.integers(0, f - 1))
    basis = ((a, draw(st.integers(0, d - 1)), draw(st.integers(0, f - 1))), (0, d, b12), (0, 0, f))
    pc = make_config(basis, draw(st.lists(st.tuples(entry, entry, entry), min_size=1, max_size=4)))
    assert pc.basis == basis
    return pc


@settings(max_examples=200)
@given(hnf_configs(), st.tuples(entry, entry, entry), st.integers(0, 20))
@example(make_config([(1, 0, 23), (0, 1, 17), (0, 0, 26)], [(0, 0, 0)]), (4, -3, 9), 10)
def test_both_lookup_paths_match_the_scan_on_drawn_hnf_bases(pc, center, radius_sq):
    """occupied_near, on its column walk and on its ball lookup forced,
    against the cube scan: the same sites in the same order."""
    want = _occupied_by_scan(pc, center, radius_sq)
    for forced in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(configs, "outgrows_ball", lambda *args, forced=forced: forced)
            assert pc.occupied_near(center, radius_sq) == want


def _counted_reductions(monkeypatch) -> list:
    """The sites configs._reduce_site is called on from now on."""
    reductions = []
    real = configs._reduce_site

    def counted(site, basis):
        reductions.append(site)
        return real(site, basis)

    monkeypatch.setattr(configs, "_reduce_site", counted)
    return reductions


def test_admissibility_of_a_large_cell_reduces_each_offset_once_per_half_ball_site(monkeypatch):
    """The 3,456-offset hcp supercell: at most n * |ball| / 2 reductions,
    and no neighbour lookup."""
    rows, offsets = _supercell(build_layered_d5(0, "01"), 12)
    pc = make_config(rows, offsets)

    def looked_up(*args):
        raise AssertionError("a neighbour lookup ran")

    reductions = _counted_reductions(monkeypatch)
    monkeypatch.setattr(PeriodicConfiguration, "occupied_near", looked_up)
    assert len(pc.offsets) == 3456
    assert is_admissible_config(pc, 5)
    assert len(reductions) <= len(pc.offsets) * len(ball_sites(5)) // 2
    reductions.clear()
    assert is_perfect(pc, 5)
    assert len(reductions) <= len(pc.offsets) * len(ball_sites(5)) // 2


def test_canonical_form_of_a_large_cell_takes_a_few_reductions_per_offset(monkeypatch):
    """The 3,456-offset hcp supercell: every offset difference translates
    it, so testing them all takes about n^2 reductions. By quotients it
    takes fewer than 10 n."""
    hcp = build_layered_d5(0, "01")
    rows, offsets = _supercell(hcp, 12)
    pc = make_config(rows, offsets)
    reductions = _counted_reductions(monkeypatch)
    assert canonical_key(canonicalize(pc)) == canonical_key(hcp)
    assert len(reductions) < 10 * len(pc.offsets)


@pytest.mark.parametrize(
    "d2, build",
    [(d2, build) for d2, entries in CONSTRUCTORS.items() for _, build in entries],
    ids=[f"{d2}-{label}" for d2, entries in CONSTRUCTORS.items() for label, _ in entries],
)
def test_canonical_form_matches_the_difference_scan_on_every_constructor(d2, build):
    """Each constructor's cell and its 2x2x2 and 4x4x4 supercells, each also
    with its first offset removed."""
    for k in (1, 2, 4):
        rows, offsets = _supercell(build(), k)
        for offs in (offsets, offsets[1:]) if len(offsets) > 1 else (offsets,):
            cell = make_config(rows, offs, d2)
            assert canonicalize(cell) == canonical_by_differences(cell)


def _with_a_defect(word):
    """The word with its third letter, a 0, turned into a 2."""
    return word[:2] + "2" + word[3:]


@pytest.mark.parametrize(
    "word", ["01" * k for k in (1, 2, 7, 40)] + ["012" * k for k in (1, 3, 20)]
    + [_with_a_defect("01" * k) for k in (2, 20)],
)
def test_layered_builds_canonicalize_like_the_difference_scan(word, monkeypatch):
    built = build_layered_d5(0, word)
    monkeypatch.setattr(families, "canonicalize", canonical_by_differences)
    assert build_layered_d5(0, word) == built


def _counted_checks(monkeypatch) -> list:
    """The (offsets, d2) of every configs.is_admissible_config call from now on."""
    checked = []
    real = configs.is_admissible_config

    def counted(pc, d2):
        checked.append((len(pc.offsets), d2))
        return real(pc, d2)

    monkeypatch.setattr(configs, "is_admissible_config", counted)
    return checked


def test_a_layered_build_checks_the_hard_core_rule_on_its_canonical_cell(monkeypatch):
    """The 10,000-level build of "01" is canonicalized first, so the rule is
    checked once, on the 2 offsets of the hcp cell."""
    checked = _counted_checks(monkeypatch)
    built = build_layered_d5(0, "01" * 5000)
    assert checked == [(2, 5)]
    assert built == build_layered_d5(0, "01") and built.context_d2 == 5


def test_derived_cells_are_not_checked_again(monkeypatch):
    """pc_census(10) checks the hard-core rule once per seed it builds, and
    never on the 384 images it canonicalizes; shift_count checks it on none
    of the cells it derives from the 4x4x4 hcp supercell, holed or not."""
    rows, offsets = _supercell(build_layered_d5(0, "01"), 4)
    full, holed = make_config(rows, offsets, 5), make_config(rows, offsets[1:], 5)
    checked = _counted_checks(monkeypatch)
    seeds = families._census_seeds(10)
    assert len(checked) == len(seeds) == 8
    checked.clear()
    assert families.pc_census(10) == 208
    assert len(checked) == len(seeds)
    checked.clear()
    assert shift_count(full) == 18 and shift_count(holed) == holed.det
    assert checked == []


def test_a_background_built_at_its_threshold_is_not_checked_again(monkeypatch):
    """Reports over the hcp cell, which make_config checked at context_d2 5,
    trust that check, as do reports over the bcc and cubic cells at their
    thresholds; is_perfect on a cell with no context, or a lower one,
    checks once, and raises on an inadmissible cell."""
    hcp = build_layered_d5(0, "01")
    insertion, removal = make_insertion(hcp, 5, [(0, 2, 1)]), gamma1(hcp, 5)
    bare, lower = make_config(hcp.basis, hcp.offsets), make_config(hcp.basis, hcp.offsets, 2)
    fcc = build_fcc(1)
    others = [(build_bcc(2), 3), (build_bcc(4), 12), (build_cubic(2), 4), (build_cubic(3), 9)]
    checked = _counted_checks(monkeypatch)
    assert hcp.context_d2 == 5 and excitation_report(hcp, insertion, 5).background_perfect
    assert peierls_check(hcp, insertion, 5)[0] and peierls_check(hcp, removal=removal, d2=5)[0]
    assert checked == []
    for pc, d2 in others:
        excitation_report(pc, make_insertion(pc, d2, [(1, 0, 0)]), d2)
        excitation_report(pc, removal=gamma1(pc, d2), d2=d2)
    assert checked == []
    assert is_perfect(bare, 5) and is_perfect(lower, 5)
    assert checked == [(2, 5), (2, 5)]
    checked.clear()
    for cell in (fcc, make_config(fcc.basis, fcc.offsets)):
        with pytest.raises(ValueError, match="not d2=3 admissible"):
            is_perfect(cell, 3)
    assert checked == [(1, 3), (1, 3)]


small_rows = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=3, max_size=3).filter(det3)


@st.composite
def periodic_cells(draw):
    """A cell of the lattice L = M F, F drawn and M upper triangular with
    diagonal 1..3, so that L lies in F with the coset representatives
    c F, c in the box of M's diagonal; and its offsets: a few drawn sites,
    either alone or with all their translates by those representatives,
    which makes the occupied set a union of cosets of F. Returns the cell
    and F, or None for F."""
    fine = draw(small_rows)
    index = draw(st.tuples(*[st.integers(1, 3)] * 3))
    a, b, c = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    m = ((index[0], a, b), (0, index[1], c), (0, 0, index[2]))
    rows = [[sum(m[i][j] * fine[j][t] for j in range(3)) for t in range(3)] for i in range(3)]
    sites = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=1, max_size=4))
    if not draw(st.booleans()):
        return make_config(rows, sites), None
    reps = [[sum(k[j] * fine[j][t] for j in range(3)) for t in range(3)] for k in product(*map(range, index))]
    return make_config(rows, [[s[t] + r[t] for t in range(3)] for s in sites for r in reps]), fine


@given(periodic_cells())
def test_canonical_form_matches_the_difference_scan_on_random_cells(case):
    pc, fine = case
    canonical = canonicalize(pc)
    assert canonical == canonical_by_differences(pc)
    if fine is not None:  # the cosets of F are translates, so F lies in the canonical lattice
        assert det3(fine) % canonical.det == 0


def _recorded_configs(mp) -> list:
    """Each (cell, rows, offsets) that configs._config builds from now on."""
    built = []
    real = configs._config

    def recorded(rows, offsets, context_d2):
        rows, offsets = list(rows), list(offsets)
        built.append((real(rows, offsets, context_d2), rows, offsets))
        return built[-1][0]

    mp.setattr(configs, "_config", recorded)
    return built


def _check_derived(cells, d2, elements):
    """Each derived cell of cells (their images under the elements, and the
    canonical form of each, with every cell canonicalize goes through)
    equals what the checked make_config builds from its arguments, inherits
    the context d2, and obeys it."""
    with pytest.MonkeyPatch.context() as mp:
        built = _recorded_configs(mp)
        images = [cell.transform(g) for cell in cells for g in elements]
        derived = images + [canonicalize(cell) for cell in cells + images]
    assert len(built) >= len(images)
    for cell, rows, offsets in built + [(cell, cell.basis, cell.offsets) for cell in derived]:
        assert cell == make_config(rows, offsets, d2)
        assert cell.context_d2 == d2 and is_admissible_config(cell, cell.context_d2)


@pytest.mark.parametrize(
    "d2, build",
    [(d2, build) for d2, entries in CONSTRUCTORS.items() for _, build in entries],
    ids=[f"{d2}-{label}" for d2, entries in CONSTRUCTORS.items() for label, _ in entries],
)
def test_every_derived_cell_is_the_checked_cell_of_its_arguments_on_every_constructor(d2, build):
    """Each constructor's cell and its 2x2x2 supercell, also with its first
    offset removed, each given the context d2."""
    pc = build()
    rows, offsets = _supercell(pc, 2)
    cells = [make_config(pc.basis, pc.offsets, d2), make_config(rows, offsets, d2), make_config(rows, offsets[1:], d2)]
    _check_derived(cells, d2, oh_elements())


@given(periodic_cells(), st.lists(st.sampled_from(oh_elements()), min_size=1, max_size=3))
def test_every_derived_cell_is_the_checked_cell_of_its_arguments_on_random_cells(case, elements):
    """The random cells of the difference scan's test, each given as context
    the largest threshold it obeys, 1 at least, and a few drawn elements."""
    pc, _ = case
    d2 = max(d for d in (1,) + SUPPORTED_D2 if is_admissible_config(pc, d))
    _check_derived([make_config(pc.basis, pc.offsets, d2)], d2, elements)


def test_saturation_of_the_dense_packing():
    assert is_saturated(build_fcc(1), 2)
    assert density(build_fcc(1)) == Fraction(1, 2)


def test_configs_equal_ignores_representation():
    a = make_config([(1, 1, 0), (0, 2, 0), (0, 0, 2)], [(0, 0, 0)])
    b = make_config([(2, 0, 0), (1, 1, 0), (1, 1, 2)], [(2, 2, 2)])
    assert configs_equal(a, b)


def test_context_round_trip():
    pc = PeriodicConfiguration(((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((0, 0, 0),), 4)
    assert pc.context_d2 == 4
    assert pc.reduce((5, -3, 2)) == (1, 1, 0)
