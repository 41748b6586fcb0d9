"""Constructors for the dense-packing families, their censuses and density
table, and sliding.

Each builder returns a canonicalized PeriodicConfiguration whose context_d2
is set when the family is tied to a specific exclusion threshold. The four
layered families (d5, the d6 triangular and rhombic stacks, and 2l2) are
one construction, built by _stack: a mesh repeated level by level along a
diagonal, level k shifted by (k * step + label) / den. It checks that every
offset and the period row are integral and runs the displayed step rule;
violations raise instead of being silently repaired.

The sliding witness and the close-packed census at d2 = 2 l^2 are closed
forms, proved in sliding_witness and sublattices.fcc_census; the scans
they replace are test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import latticegas  # the census and density readers reach forces and sublattices through it

from .configs import (
    MAIN_DIAGONALS,
    NON_MAIN_DIAGONALS,
    PeriodicConfiguration,
    canonicalize,
    close_packing_scale,
    is_perfect,
    make_config,
)
from .lattice import Site, oh_elements

COUNTABLE_MARKER = "ℵ₀"  # countable-infinity marker for continuum rows


def _add(a: Site, b: Site) -> Site:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _scale(c: int, v: Site) -> Site:
    return (c * v[0], c * v[1], c * v[2])


def _neg(v: Site) -> Site:
    return (-v[0], -v[1], -v[2])


def _cross(a: Site, b: Site) -> Site:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _div_exact(v: Site, d: int, what: str) -> Site:
    if any(c % d for c in v):
        raise ValueError(f"{what}: {v} is not divisible by {d}; non-integral site")
    return (v[0] // d, v[1] // d, v[2] // d)


def _in_mesh(t: Site, den: int, u: Site, v: Site) -> bool:
    """Is t in den times the lattice of the independent vectors u and v?"""
    n = _cross(u, v)
    if t[0] * n[0] + t[1] * n[1] + t[2] * n[2] != 0:
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            d = u[i] * v[j] - u[j] * v[i]
            if d:
                m_num = t[i] * v[j] - t[j] * v[i]
                n_num = u[i] * t[j] - u[j] * t[i]
                return m_num % (den * d) == 0 and n_num % (den * d) == 0
    raise ValueError("degenerate mesh generators")


def _layer_digits(word: str, family: str, labels: int) -> tuple[int, ...]:
    """The digits of a periodic layer word over the labels 0..labels-1 of a
    layered family. The word starts at label 0, and no two consecutive
    labels are equal, the last and the first included."""
    digits = tuple(int(c) for c in word)
    if not digits:
        raise ValueError("empty digit sequence")
    if max(digits) >= labels:
        raise ValueError(f"digits outside the {family} alphabet")
    if digits[0] != 0:
        raise ValueError("layer sequences start at label 0")
    # a period-1 word meets itself
    if any(digits[k] == digits[k - 1] for k in range(len(digits))):
        raise ValueError("consecutive layer labels must differ")
    return digits


# --- cubic / close-packed / body-centered lattices -------------------------


def build_cubic(l: int) -> PeriodicConfiguration:
    if l < 1:
        raise ValueError("side must be >= 1")
    return make_config([(l, 0, 0), (0, l, 0), (0, 0, l)], [(0, 0, 0)])


def build_fcc(l: int) -> PeriodicConfiguration:
    """The face-centered l-sublattice: all sites with coordinate sum even, scaled by l."""
    if l < 1:
        raise ValueError("scale must be >= 1")
    rows = [(0, l, l), (l, 0, l), (l, l, 0)]
    return make_config(rows, [(0, 0, 0)], context_d2=2 * l * l)


def build_bcc(side: int) -> PeriodicConfiguration:
    """Body-centered cubic with the given (even) cube side."""
    if side < 2 or side % 2:
        raise ValueError("side must be even and >= 2")
    h = side // 2
    return make_config([(side, 0, 0), (0, side, 0), (h, h, h)], [(0, 0, 0)])


# --- the layered families -----------------------------------------------------


def _stack(
    digits: Sequence[int],
    step: Site,
    label: Sequence[Site],
    den: int,
    jumps: tuple[int, ...],
    u: Site,
    v: Site,
    d2: int,
) -> PeriodicConfiguration:
    """The canonical stack of the mesh lattice L = (u, v) whose level k,
    with label j = digits[k], is shifted by (k * step + label[j]) / den.

    The period row is len(digits) * step / den; a non-integral offset or
    period row raises. Each transition j -> jn must satisfy the step rule:
    label[jn] - label[j] - label[jp] lies in den * L for a jump label jp.
    With no jumps the rule is not run, and the d5 and 2l2 stacks pass none
    because there it always holds, with jumps (1, 2).

    Proof. Their labels have label[1] + label[2] = 0 and 2 label[1] -
    label[2] = -den (u + v). With a = label[1], 3a = -den (u + v) lies in
    den * L and label[2] = 2a - 3a, so modulo den * L the labels 0, a, 2a
    form Z/3 and label[jn] - label[j] = (jn - j) a = label[(jn - j) mod 3].
    Consecutive labels differ, so that label is 1 or 2.
    """
    p = len(digits)
    period = _div_exact(_scale(p, step), den, "period row")
    offsets = []
    for k, j in enumerate(digits):
        offsets.append(_div_exact(_add(_scale(k, step), label[j]), den, f"level {k} label {j}"))
        jn = digits[(k + 1) % p]
        jump = _add(label[jn], _neg(label[j]))
        if jumps and not any(_in_mesh(_add(jump, _neg(label[jp])), den, u, v) for jp in jumps):
            raise ValueError(f"transition {j} -> {jn} violates the mesh step rule")
    cell = canonicalize(make_config([u, v, period], offsets))
    return make_config(cell.basis, cell.offsets, context_d2=d2)  # the hard-core rule, on the small cell


def build_layered_d5(i: int, seq: str) -> PeriodicConfiguration:
    """Union of triangular meshes stacked along main diagonal i, one per level."""
    if not 0 <= i <= 3:
        raise ValueError("diagonal index must be in 0..3")
    digits = _layer_digits(seq, "d5-triangular", 3)
    e = MAIN_DIAGONALS[i]
    s2, s3 = e[1], e[2]
    label = ((0, 0, 0), (0, s2, -s3), (0, -s2, s3))
    return _stack(digits, e, label, 1, (), (1, -2 * s2, s3), (-1, -s2, 2 * s3), 5)


def hcp_census() -> int:
    """Distinct 2-periodic layered packings at threshold 5, counting translates."""
    return _count_translates(build_layered_d5(i, word) for i in range(4) for word in ("01", "02"))


def build_layered_d6_tri(i: int, seq: str) -> PeriodicConfiguration:
    """Triangular-mesh stack along main diagonal i with 7 sub-mesh labels per level."""
    if not 0 <= i <= 3:
        raise ValueError("diagonal index must be in 0..3")
    digits = _layer_digits(seq, "d6-triangular", 7)
    e = MAIN_DIAGONALS[i]
    s2, s3 = e[1], e[2]
    w1, w2, w3 = (1, -2 * s2, s3), (-1, -s2, 2 * s3), (-2, s2, s3)
    w = ((0, 0, 0), w1, w2, w3, _neg(w1), _neg(w2), _neg(w3))
    # displayed step rule: the jump to the next mesh is one third of a
    # w-vector with an even label, modulo the mesh lattice
    return _stack(digits, _scale(4, e), w, 3, (2, 4, 6), w1, w2, 6)


def build_layered_d6_rhombic(i: int, seq: str) -> PeriodicConfiguration:
    """Rhombic-mesh stack along non-main diagonal i with 3 sub-mesh labels."""
    if not 0 <= i <= 5:
        raise ValueError("diagonal index must be in 0..5")
    digits = _layer_digits(seq, "d6-rhombic", 3)
    s = NON_MAIN_DIAGONALS[i]
    s1, s2, s3 = s
    a = (1 - abs(s1), 1 - abs(s2), 1 - abs(s3))
    tb = (  # twice the half-integer shift vector
        s2 - s2 * abs(s3) - s3 + s3 * abs(s2),
        s3 - s3 * abs(s1) - s1 + s1 * abs(s3),
        s1 - s1 * abs(s2) - s2 + s2 * abs(s1),
    )
    g1 = _add(_scale(2, a), tb)
    g2 = _add(_scale(2, a), _neg(tb))
    # labels 0, a+b, a-b, doubled over the denominator 2
    return _stack(digits, _scale(3, s), ((0, 0, 0), g1, g2), 2, (1, 2), g1, g2, 6)


# --- deformed close-packed lattices at thresholds 9 and 10 -------------------


def build_phi9(i: int, l: int) -> PeriodicConfiguration:
    """One of the six congruent threshold-9 lattices (axis i, chirality l)."""
    if i not in (1, 2, 3) or l not in (0, 1):
        raise ValueError("axis index in {1,2,3}, chirality in {0,1}")
    base = {
        0: ((0, 3, 1), (0, -1, 3), (2, 1, 2)),
        1: ((0, 3, -1), (0, -1, -3), (2, 1, -2)),
    }[l]
    rows = [tuple(r) for r in base]
    if i == 2:
        # quarter turn about the third axis
        rows = [(-r[1], r[0], r[2]) for r in rows]
    elif i == 3:
        # quarter turn about the second axis
        rows = [(r[2], r[1], -r[0]) for r in rows]
    return make_config(rows, [(0, 0, 0)], context_d2=9)


def build_phi10(i: int, l: int) -> PeriodicConfiguration:
    """One of the eight congruent threshold-10 lattices (diagonal i, chirality l)."""
    if not 0 <= i <= 3 or l not in (0, 1):
        raise ValueError("diagonal index in 0..3, chirality in {0,1}")
    s2, s3 = MAIN_DIAGONALS[i][1], MAIN_DIAGONALS[i][2]
    if l == 0:
        rows = [(-1, -3 * s2, 4 * s3), (3, -4 * s2, s3), (0, 3 * s2, -s3)]
    else:
        rows = [(-1, 4 * s2, -3 * s3), (3, s2, -4 * s3), (0, -s2, 3 * s3)]
    return make_config(rows, [(0, 0, 0)], context_d2=10)


# --- layered family at thresholds 2*l^2 --------------------------------------


def build_layered_2l2(l: int, i: int, seq: str) -> PeriodicConfiguration:
    """Triangular sqrt(2)*l-mesh stack along main diagonal i at threshold 2*l^2.

    Per-level offsets are integral only when the label at level k is k mod 3,
    unless l is divisible by 3, in which case every label pattern is integral.
    Violations raise.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if not 0 <= i <= 3:
        raise ValueError("diagonal index must be in 0..3")
    digits = _layer_digits(seq, "2l2-triangular", 3)
    e = MAIN_DIAGONALS[i]
    s2, s3 = e[1], e[2]
    label = ((0, 0, 0), (-2 * l, l * s2, l * s3), (2 * l, -l * s2, -l * s3))
    u, v = (l, -l * s2, 0), (l, 0, -l * s3)
    return _stack(digits, _scale(2 * l, e), label, 3, (), u, v, 2 * l * l)


# --- threshold-4 structures ---------------------------------------------------


def build_d4_family(
    direction: int = 2,
    parity: int = 0,
    pattern2d: Optional[tuple[int, str]] = None,
    column_shifts: Optional[Sequence[str]] = None,
) -> PeriodicConfiguration:
    """A threshold-4 perfect configuration from planar patterns and column shifts.

    The occupied planes sit at coordinate `direction` congruent to `parity`
    mod 2. Each plane carries a square 2-mesh in which every line with mask
    bit 1 is shifted by one unit along the line (pattern2d = (line_direction,
    mask)); column_shifts is a periodic 0/1 grid lifting whole columns by one
    unit. The result is checked to be admissible and perfect; combinations
    that fail raise.
    """
    if direction not in (0, 1, 2):
        raise ValueError("direction must be 0, 1, or 2")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    line_dir, mask = pattern2d if pattern2d is not None else (0, "0")
    if line_dir not in (0, 1):
        raise ValueError("pattern2d line direction must be 0 or 1")
    if not mask or any(c not in "01" for c in mask):
        raise ValueError("pattern2d mask must be a nonempty 0/1 string")
    grid = list(column_shifts) if column_shifts else ["0"]
    if not grid or any(not row or any(c not in "01" for c in row) for row in grid):
        raise ValueError("column_shifts must be nonempty 0/1 strings")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ValueError("column_shifts rows must share one width")

    m = len(mask)
    rows_n = len(grid)
    lines = math.lcm(m, rows_n)
    # local coordinates: (along-line, across-lines, stacking)
    axes = [a for a in range(3) if a != direction]
    u_ax, v_ax = (axes[0], axes[1]) if line_dir == 0 else (axes[1], axes[0])
    w_ax = direction

    def to_global(local: tuple[int, int, int]) -> Site:
        g = [0, 0, 0]
        g[u_ax], g[v_ax], g[w_ax] = local
        return (g[0], g[1], g[2])

    offsets = []
    for j in range(lines):  # line index, across direction
        for pos in range(width):  # position along the line
            uu = 2 * pos + int(mask[j % m])
            vv = 2 * j
            ww = parity + int(grid[j % rows_n][pos % width])
            offsets.append(to_global((uu, vv, ww)))
    basis = [to_global((2 * width, 0, 0)), to_global((0, 2 * lines, 0)), to_global((0, 0, 2))]
    pc = make_config(basis, offsets, context_d2=4)
    if not is_perfect(pc, 4):
        raise ValueError("inadmissible combination: the assembled pattern is not perfect")
    return canonicalize(pc)


# --- censuses and the density table ------------------------------------------


def pc_census(d2: int) -> Union[int, str]:
    """Number of distinct perfect configurations at threshold d2.

    For d2 in {4, 5, 6} the family is infinite (countably many periodic
    members); the countable marker string is returned instead of a number.
    """
    if d2 in (4, 5, 6):
        return COUNTABLE_MARKER
    return _count_translates(
        canonicalize(pc.transform(g)) for pc in _census_seeds(d2) for g in oh_elements()
    )


def _count_translates(images: Iterable[PeriodicConfiguration]) -> int:
    """Number of distinct configurations among all translates of canonical images.

    Proof. A canonical configuration P has its full translation group as
    its lattice L (canonicalize), so P + t = P + t' iff t - t' lies in L,
    and P has exactly det L distinct translates, all canonical with lattice
    L. Two canonical configurations P, Q are translates iff they share L
    and the offsets of Q are those of P shifted by one vector modulo L. The
    key (L, min over offsets o of the sorted residues of offsets - o) is
    the same for P and P + t, since both give the same residue sets, one
    for each offset; and equal keys, attained at offsets o of P and q of Q,
    give Q = P + (q - o). So translation classes are the distinct keys, each
    with det L members, and classes of different keys are disjoint.
    """
    dets = {}
    for pc in images:
        rel = min(
            tuple(sorted(pc.reduce(_add(s, _neg(o))) for s in pc.offsets)) for o in pc.offsets
        )
        dets[pc.basis, rel] = pc.det
    return sum(dets.values())


def _census_seeds(d2: int) -> list[PeriodicConfiguration]:
    if d2 == 2:
        return [build_fcc(1)]
    if d2 == 3:
        return [build_bcc(2)]
    if d2 == 8:
        return [build_fcc(2)]
    if d2 == 9:
        return [build_phi9(i, l) for i in (1, 2, 3) for l in (0, 1)]
    if d2 == 10:
        return [build_phi10(i, l) for i in range(4) for l in (0, 1)]
    if d2 == 12:
        return [build_bcc(4)]
    raise ValueError(f"no finite census is implemented for d2={d2}")


def densest_density(d2: int) -> Fraction:
    """Packing density of the perfect configurations at threshold d2.

    A perfect configuration has density 1/normalization_constant(d2) (see
    configs.is_perfect); at d2 = 2*l^2 the close-packed l-sublattice and its
    layered sibling both have density 1/(2*l^3).
    """
    if d2 in latticegas.SUPPORTED_D2:
        return 1 / latticegas.normalization_constant(d2)
    l = close_packing_scale(d2)
    if l is not None:
        return Fraction(1, 2 * l**3)
    raise ValueError(f"no density known for d2={d2}")


def census_marker(d2: int) -> Union[int, str]:
    """Census size, or the countable marker for infinite families."""
    if d2 in latticegas.SUPPORTED_D2:
        return pc_census(d2)
    l = close_packing_scale(d2)
    if l is not None:
        if l % 3 == 0:
            return COUNTABLE_MARKER
        return latticegas.fcc_census(l).pcs_total  # type: ignore[return-value]
    raise ValueError(f"no census known for d2={d2}")


def table_densities(extra_l: Sequence[int]) -> list[tuple[int, Union[int, str], Fraction]]:
    """Rows (d2, census or cardinality marker, density), all computed.

    The nine built-in thresholds always appear; extra_l appends the
    close-packing thresholds 2l^2 for the listed l when not already
    covered (l=1 and l=2 coincide with thresholds 2 and 8).
    """
    d2s = set(latticegas.SUPPORTED_D2) | {2 * l * l for l in extra_l}
    return [(d2, census_marker(d2), densest_density(d2)) for d2 in sorted(d2s)]


# --- the sliding witness -------------------------------------------------------


def sliding_witness(l: int, n: int) -> int:
    """Size of the removal set when a shifted block is glued into the plain packing.

    The ambient packing is 2Z^3; the block configuration lifts every column
    over the l-by-l even square by one unit. Gluing the block restricted to
    the box [0, 2(l-1)]^2 x [0, n] into the ambient packing removes the
    ambient sites outside the box that lie closer than 2 (squared distance
    below 4) to a block site inside it. The count is l^2 for odd n and 0
    for even n.

    Proof. A block site inside the box is (x, y, z) with x, y even in
    [0, 2(l-1)] and z odd in [1, n]. An ambient site (x', y', z') has all
    coordinates even, so x' - x and y' - y are even and z' - z is odd; a
    squared distance below 4 then forces x' = x, y' = y and z' = z +- 1, at
    squared distance 1. The lower one, z - 1 in [0, n - 1], is inside the
    box. The upper one, z + 1, leaves it iff z = n, which happens iff n is
    odd; then each of the l^2 columns loses exactly its site (x, y, n + 1),
    and these are distinct. The direct scan is the test oracle
    (tests/oracles.py, sliding_witness_by_scan).
    """
    if l < 1 or n < 1:
        raise ValueError("l and n must be >= 1")
    return l * l if n % 2 else 0
