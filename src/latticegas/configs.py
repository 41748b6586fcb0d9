"""Periodic configurations of Z^3: canonical form, perfection, saturation.

A periodic configuration is a full-rank integer lattice (stored as a
Hermite-Normal-Form row basis) plus a sorted list of occupied offsets
reduced into the fundamental cell. Canonical form extends the basis by
every translation that maps the occupied set onto itself, so two
descriptions of the same infinite point set always compare equal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import latticegas  # _perfect_density reads normalization_constant through it: forces loads on first use

from .lattice import Matrix, Record, Site, SignedPermutation, ball_sites, exact_site, half_ball, hnf, outgrows_ball

# Main space diagonals (1, s2(i), s3(i)) and the non-main diagonals used by
# the layered mesh families.
MAIN_DIAGONALS: tuple[Site, ...] = ((1, 1, 1), (1, -1, 1), (1, -1, -1), (1, 1, -1))
NON_MAIN_DIAGONALS: tuple[Site, ...] = ((1, 1, 0), (-1, 1, 0), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))


def close_packing_scale(d2: int) -> Optional[int]:
    """The l >= 1 with d2 == 2*l*l, where the close-packed l-sublattice packs; else None."""
    l = math.isqrt(max(d2, 0) // 2)
    return l if l >= 1 and 2 * l * l == d2 else None


def _reduce_site(site: Site, basis: Matrix) -> Site:
    """Canonical residue of a site modulo an HNF basis, in closed form: the basis
    is upper triangular, so x0 fixes the quotient by row 0, then x1 by row 1."""
    (a, b01, b02), (_, d, b12), (_, _, f) = basis
    x0, x1, x2 = site
    q0 = x0 // a
    y1 = x1 - q0 * b01
    q1 = y1 // d
    return (x0 - q0 * a, y1 - q1 * d, (x2 - q0 * b02 - q1 * b12) % f)


class PeriodicConfiguration(Record):
    """An infinite periodic occupied set: lattice basis rows + cell offsets.

    Each instance also keeps its offsets as a set, built once when it is
    made. The set is no field, so equality, hash and repr leave it out.

    make_config checks context_d2 once: None, or an int whose hard-core rule
    the cell obeys. transform and canonicalize pass it on unchecked, since
    each derived cell is the same point set or an isometric image of it, and
    is_perfect trusts it instead of checking the rule again. A configuration
    built directly, as only the tests do, is outside that promise.
    """

    basis: Matrix
    offsets: tuple[Site, ...]
    context_d2: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_occupied", frozenset(self.offsets))

    @property
    def det(self) -> int:
        return self.basis[0][0] * self.basis[1][1] * self.basis[2][2]

    def reduce(self, site: Site) -> Site:
        return _reduce_site(site, self.basis)

    def contains(self, site: Site) -> bool:
        """Whether the site is occupied: one reduction and one lookup in the
        set of offsets, whatever their number, so there is no crossover."""
        return _reduce_site(site, self.basis) in self._occupied

    def reached(self, d2: int) -> set[Site]:
        """The residues of all sites closer than sqrt(d2) to an occupied site,
        the offsets included (d2 >= 1): len(offsets) * |ball| reductions,
        whatever the size of the cell."""
        basis = self.basis
        return {
            _reduce_site((o[0] + b[0], o[1] + b[1], o[2] + b[2]), basis)
            for o in self.offsets for b in ball_sites(d2)
        }

    def occupied_in_box(self, lo: Sequence[int], hi: Sequence[int]) -> list[Site]:
        """All occupied sites s with lo[t] <= s[t] <= hi[t], exactly.

        The HNF basis is upper triangular, so coordinate t of a site depends
        only on coefficients 0..t; the coefficient ranges are exact and no
        post-filtering is needed. For an offset o, the site o + c0 b0 +
        c1 b1 + c2 b2 has first coordinate o0 + c0 a, in the box for c0 from
        ceil((lo0 - o0) / a) = -((o0 - lo0) // a) to floor((hi0 - o0) / a);
        then second coordinate y + c1 d, y = o1 + c0 b01, likewise; and the
        third runs over lo2 <= z <= hi2 in steps of f, starting at the first
        such z congruent to o2 + c0 b02 + c1 b12 mod f.
        """
        (a, b01, b02), (_, d, b12), (_, _, f) = self.basis
        (lo0, lo1, lo2), (hi0, hi1, hi2) = lo, hi
        out: list[Site] = []
        for o0, o1, o2 in self.offsets:
            for c0 in range(-((o0 - lo0) // a), (hi0 - o0) // a + 1):
                x = o0 + c0 * a
                y = o1 + c0 * b01
                z = o2 + c0 * b02
                for c1 in range(-((y - lo1) // d), (hi1 - y) // d + 1):
                    y1 = y + c1 * d
                    for z2 in range(lo2 + (z + c1 * b12 - lo2) % f, hi2 + 1, f):
                        out.append((x, y1, z2))
        return out

    def occupied_near(self, center: Site, radius_sq: int) -> list[Site]:
        """All occupied sites within squared distance < radius_sq of center,
        in lexicographic order. Above the crossover (lattice.outgrows_ball)
        each site center + b of the ball is reduced and looked up, and the
        lexicographic ball keeps its hits sorted; below it the ball's
        columns are walked from every offset.

        The walk is exact. With r1 = radius_sq - 1, the site center +
        (dx, dy, dz) is in the ball iff dx^2 + dy^2 + dz^2 <= r1, that is
        iff |dx| <= isqrt(r1), |dy| <= ry = isqrt(r1 - dx^2) and |dz| <=
        rz = isqrt(r1 - dx^2 - dy^2), since |t| <= isqrt(m) iff t^2 <= m
        for integers. The translates o + c0 b0 + c1 b1 + c2 b2 of an offset
        o, b0 = (a, b01, b02), b1 = (0, d, b12), b2 = (0, 0, f), have dx in
        one residue class mod a; c0 fixes dy's class mod d, carried as
        + b01 per step of dx; and c0, c1 fix dz's class mod f, carried as
        + b02 and + b12. Each range starts at its first member of the
        class, so every site emitted is in the ball and occupied, and every
        such site is emitted once: the basis is triangular, and distinct
        offsets are distinct residues. An offset's sites come out with dx,
        then dy, then dz increasing, in lexicographic order; several
        offsets are merged by one sort.
        """
        if radius_sq < 1:
            return []
        cx, cy, cz = center
        if outgrows_ball(len(self.offsets), radius_sq, 1):
            basis, occupied = self.basis, self._occupied
            ball = [(cx + b0, cy + b1, cz + b2) for b0, b1, b2 in ball_sites(radius_sq)]
            return [s for s in ball if _reduce_site(s, basis) in occupied]
        (a, b01, b02), (_, d, b12), (_, _, f) = self.basis
        r1 = radius_sq - 1
        r = math.isqrt(r1)
        out: list[Site] = []
        for o0, o1, o2 in self.offsets:
            dx = (o0 - cx + r) % a - r
            q = (dx + cx - o0) // a
            y = o1 + q * b01 - cy  # dy and dz of the translate with c1 = c2 = 0
            z = o2 + q * b02 - cz
            while dx <= r:
                rx = r1 - dx * dx
                ry = math.isqrt(rx)
                dy = (y + ry) % d - ry
                zy = z + (dy - y) // d * b12
                x = cx + dx
                while dy <= ry:
                    rz = math.isqrt(rx - dy * dy)
                    for dz in range((zy + rz) % f - rz, rz + 1, f):
                        out.append((x, cy + dy, cz + dz))
                    dy += d
                    zy += b12
                dx += a
                y += b01
                z += b02
        if len(self.offsets) > 1:
            out.sort()
        return out

    def transform(self, g: SignedPermutation) -> "PeriodicConfiguration":
        """Image under a signed permutation, re-normalized to HNF."""
        return _config(map(g.apply, self.basis), map(g.apply, self.offsets), self.context_d2)


def _config(basis_rows: Iterable, offsets: Iterable[Site], context_d2: Optional[int]) -> PeriodicConfiguration:
    """HNF the basis, reduce the offsets, sort, dedupe; nothing is checked."""
    b = hnf(basis_rows)
    return PeriodicConfiguration(b, tuple(sorted({_reduce_site(o, b) for o in offsets})), context_d2)


def make_config(basis_rows: Iterable[Sequence[int]], offsets: Iterable[Sequence[int]],
                context_d2: Optional[int] = None) -> PeriodicConfiguration:
    """_config on exact offsets, at least one, and a context None or an int the cell obeys."""
    if context_d2 is not None and type(context_d2) is not int:
        raise ValueError(f"context d2 {context_d2!r} is not an integer")
    pc = _config(basis_rows, [exact_site(o, "offset") for o in offsets], context_d2)
    if not pc.offsets:
        raise ValueError("a periodic configuration needs at least one offset")
    if context_d2 is not None and not is_admissible_config(pc, context_d2):
        raise ValueError(f"configuration violates the d2={context_d2} hard-core rule")
    return pc


def is_admissible_config(pc: PeriodicConfiguration, d2: int) -> bool:
    """No two occupied sites closer than sqrt(d2). Always true for d2 <= 1,
    where lattice.half_ball(d2) is empty.

    The residue of o + b is looked up for every offset o and every b of
    half_ball(d2). The half ball suffices: a close pair of occupied sites
    has its upper site at b above its lower one, a translate of an offset
    o, so the residue of o + b is an offset. Conversely such a hit is a
    pair at squared distance |b|^2 < d2, even where o + b reduces to o
    itself (a lattice vector shorter than sqrt(d2)).
    """
    basis, occupied, half = pc.basis, pc._occupied, half_ball(d2)
    return not any(
        _reduce_site((o0 + b0, o1 + b1, o2 + b2), basis) in occupied
        for o0, o1, o2 in pc.offsets for b0, b1, b2 in half
    )


def density(pc: PeriodicConfiguration) -> Fraction:
    return Fraction(len(pc.offsets), pc.det)


def canonicalize(pc: PeriodicConfiguration) -> PeriodicConfiguration:
    """Extend the basis by every self-translation of the occupied set.

    The constructor basis may be a proper sublattice of the configuration's
    true translation group (layered builds often are); the canonical form is
    the HNF of the full group with offsets re-reduced. The differences
    d = o - o0 from the first offset are tested in turn, each up to the
    first offset it sends to a vacant site. The first d that translates the
    cell joins the basis, and the smaller cell is canonicalized in turn.

    Each such d at least halves the cell: o and o0 are distinct residues, so
    d is not in the lattice L, and L' = L + Zd holds L with index m >= 2.
    The occupied set is invariant under L', so each of its L'-classes is m
    of its L-classes, and the new cell has len(offsets) / m offsets. The
    passing tests thus take fewer than 2 len(offsets) lookups in all. A
    failing d stops soon on a cell that repeats a smaller one, but only near
    the defect on a cell periodic but for one defect, which stays quadratic
    (about len(offsets)^2 / 4 lookups on a holed hcp supercell).

    A cell with no translating difference is canonical: a translation t
    maps o0 onto a site congruent to some offset o modulo L, so o - o0,
    which is t minus a vector of L, translates the cell too. It was tested,
    so o = o0 and t lies in L. L is then the full translation group, whose
    HNF is unique.
    """
    o0 = pc.offsets[0]
    for o in pc.offsets[1:]:
        d = (o[0] - o0[0], o[1] - o0[1], o[2] - o0[2])
        # a translation permutes the residues, so mapping into the offsets is enough
        if all(pc.contains((s[0] + d[0], s[1] + d[1], s[2] + d[2])) for s in pc.offsets):
            return canonicalize(_config(list(pc.basis) + [d], pc.offsets, pc.context_d2))
    return pc


def shift_count(pc: PeriodicConfiguration) -> int:
    """Number of distinct translates; equals the canonical basis determinant."""
    return canonicalize(pc).det


def is_perfect(pc: PeriodicConfiguration, d2: int) -> bool:
    """True iff the total force equals 1 at EVERY site of one fundamental cell.

    Decided by density: summed over one period cell, the force field is
    len(offsets) * C with C = normalization_constant(d2) (C = 1 at d2 = 1,
    where the force is the occupation indicator). verify_forces proves no
    site of an admissible configuration gets more than fstar = 1, so all det
    sites get exactly 1 iff len(offsets) * C == det, i.e. density == 1/C.
    With C = p / q that is len(offsets) * p == det * q, read in integers
    (_perfect_density): cross-multiplying needs no reduced form. Raises
    (rather than returning False) if the configuration is not even
    admissible for d2.

    The admissibility check is skipped when pc.context_d2 >= d2: make_config
    checked the cell at its context, _config passes a context only to the
    same point set or an isometric image of it, and a cell admissible at D
    is admissible at every d2 <= D. A background built by a constructor is
    thus checked once, however many reports read it.
    """
    perfect = _perfect_density(pc, d2)
    trusted = pc.context_d2 is not None and pc.context_d2 >= d2
    if not trusted and not is_admissible_config(pc, d2):
        raise ValueError(f"configuration is not d2={d2} admissible; perfection undefined")
    return perfect


def _perfect_density(pc: PeriodicConfiguration, d2: int) -> bool:
    """is_perfect of a configuration already known to be d2-admissible:
    len(offsets) * p == det * q in integers, C = p / q, or len(offsets) ==
    det at the int d2 = 1 (1.0, Fraction(1) and True reach
    normalization_constant, which refuses them). No Fraction is built."""
    n = len(pc.offsets)
    if d2 == 1 and type(d2) is int:
        return n == pc.det
    c = latticegas.normalization_constant(d2)
    return n * c.numerator == pc.det * c.denominator


def is_saturated(pc: PeriodicConfiguration, d2: int) -> bool:
    """True iff no vacant cell site can be occupied without breaking the hard-core rule.

    A vacant site is blocked iff it lies within sqrt(d2) of an occupied
    site, i.e. iff its residue is reached; occupied residues are reached
    too, so saturation means all det residues are reached.
    """
    return len(pc.reached(d2)) == pc.det
