"""Independent oracles: slow, simple recomputations used to cross-check
the library and to freeze golden expectations.

Nothing here shares search machinery with the package but
window_census_exhaustive, which runs the package's kernel with nothing
pruned and counts by visiting, on conflicts found by comparing every pair
of sites (conflict_masks_pairwise) rather than by the library's ball
lookup, window_by_lookups, which reads each window site's repelled
particles from its own occupied_near call where the library reads them all
from one box, and covering_by_subfolds, which finds the K_p of the census's
bound by one unit-weight fold per particle over its members' conflicts,
renumbered, where the library folds once per pattern on the conflicts as
they are. Balls come from a cube scan, admissible
patterns and window insertion sets from plain-list DFSs, densities from
counting occupied sites in an exact box, admissibility from a cube-scanned
ball around every offset (admissible_by_scan) or from every pair in a box, and cubic sublattices from a
scan over every pair of sphere vectors (orthogonal_triples), where the
library builds them from integer quaternions; the sublattices, their
symmetry classes and their close-packed sublattices are told apart by
Hermite normal form.

The cell walks visit every site of one period cell (the HNF box, `cell`),
where the library looks only at the residues an occupied site reaches:
perfection from the force collected at every cell site
(perfect_by_scan), saturation from a cube-scanned ball around every
vacant cell site (saturated_by_scan), the IIa count from classifying
every vacant cell site (iia_count_by_scan), and the censuses from the
canonical form of every translate by a cell site (translates_by_walk).
The canonical form has a quadratic twin: canonical_by_differences tests
every offset difference against every offset, where the library stops at
the first translation and goes on with the smaller cell. The residue of a
site has a loop twin: reduce_by_rows subtracts each basis row in turn,
where the library reads the quotients off the triangle in closed form.

The closed forms have scans behind them: the sliding witness's removal
set from the neighbours of every lifted column site
(sliding_witness_by_scan), and the number of cubic (so of close-packed)
sublattices from the quaternion enumeration sublattices._cubic_keys.

The force sums have Fraction twins: the library sums the integer weights
of forces.force_table, while excesses_by_fractions, peierls_by_fractions,
perfect_by_scan, force_extremes and total_force add Fractions read from
the literal forces.FORCE_TABLES, one site at a time, on cube-scanned balls.
The density identity has one too: the library cross-multiplies integers,
while perfect_by_density compares density(pc) with 1 / C as Fractions.
quaternions_of_norm lists the integer quaternions of one norm from the
package's sphere points.

Some helpers only the tests need live here, not in the package: the
translate and canonical key of a configuration, the quaternion conjugate
and product, and the close-packed sublattice of a cubic basis
(fcc_from_cubic, is_cubic_basis).

The package's value types derive from lattice.Record; their twins here are
frozen dataclasses with the same names, fields, defaults and equality, so
a test can hold Record to what the dataclass it replaced did.
"""

from __future__ import annotations

import math
from dataclasses import field, make_dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional

from latticegas.configs import MAIN_DIAGONALS, PeriodicConfiguration, canonicalize, density, make_config
from latticegas.excitations import (
    InsertionType,
    WindowCensus,
    _detect_layering,
    _slab_sites,
    classify_insertion,
    make_insertion,
    reduce_insertions,
)
from latticegas.forces import BALL_RADIUS_SQ, FORCE_TABLES, normalization_constant, peierls_gap
from latticegas.lattice import Matrix, _bits, fold_independent_sets, hnf, independent_sets, oh_elements
from latticegas.sublattices import (
    Quaternion,
    SublatticeClass,
    _sphere_points,
    predicted_class_bases,
)

Site = tuple[int, int, int]


def det3(m) -> int:
    """Determinant of a 3x3 integer matrix, by cofactors."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def canonical_by_differences(pc: PeriodicConfiguration) -> PeriodicConfiguration:
    """configs.canonicalize by testing every offset difference against every
    offset: the basis extended at once by each difference that maps the
    offsets onto occupied sites, about len(offsets)^2 reductions."""
    offs = set(pc.offsets)
    extra: list[Site] = []
    o0 = pc.offsets[0]
    for o in pc.offsets[1:]:
        d = (o[0] - o0[0], o[1] - o0[1], o[2] - o0[2])
        if all(pc.reduce((s[0] + d[0], s[1] + d[1], s[2] + d[2])) in offs for s in pc.offsets):
            extra.append(d)
    if not extra:
        return pc
    return make_config(list(pc.basis) + extra, pc.offsets, pc.context_d2)


def reduce_by_rows(site: Site, basis: Matrix) -> Site:
    """configs._reduce_site by greedy triangular reduction: for each row i
    in turn, subtract the quotient of coordinate i by the pivot times row i."""
    x = list(site)
    for i in (0, 1, 2):
        q = x[i] // basis[i][i]
        if q:
            for t in range(3):
                x[t] -= q * basis[i][t]
    return (x[0], x[1], x[2])


def canonical_key(pc: PeriodicConfiguration) -> tuple:
    """What tells canonical configurations apart: basis and offsets."""
    return (pc.basis, pc.offsets)


def translate(pc: PeriodicConfiguration, v: Site) -> PeriodicConfiguration:
    """The configuration shifted by v, on the same basis."""
    offs = sorted(pc.reduce((o[0] + v[0], o[1] + v[1], o[2] + v[2])) for o in pc.offsets)
    return PeriodicConfiguration(pc.basis, tuple(offs), pc.context_d2)


def configs_equal(a: PeriodicConfiguration, b: PeriodicConfiguration) -> bool:
    """The two describe the same occupied set: equal canonical forms."""
    return canonical_key(canonicalize(a)) == canonical_key(canonicalize(b))


def brute_ball(bound_sq: int, center: Site = (0, 0, 0)) -> list[Site]:
    """All sites strictly closer than sqrt(bound_sq) to the center, cube scan."""
    r = math.isqrt(bound_sq)
    cx, cy, cz = center
    out = []
    for dx, dy, dz in product(range(-r, r + 1), repeat=3):
        if dx * dx + dy * dy + dz * dz < bound_sq:
            out.append((cx + dx, cy + dy, cz + dz))
    return sorted(out)


def pairwise_admissible(sites: list[Site], d2: int) -> bool:
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            d = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
            if d < d2:
                return False
    return True


def conflict_masks_pairwise(sites: list[Site], d2: int) -> list[int]:
    """lattice.conflict_masks by comparing every pair of sites."""
    n = len(sites)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if not pairwise_admissible([sites[i], sites[j]], d2):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def covering_by_subfolds(conflict: list[int], cover: list[int]) -> dict[int, tuple[int, int]]:
    """lattice._covering by one fold per particle p: the conflicts among the
    indices whose covers have p, renumbered 0, 1, ..., folded with unit 1;
    K_p is the highest set size the fold finds."""
    members: dict[int, list[int]] = {}
    for i, c in enumerate(cover):
        for p in _bits(c):
            members.setdefault(p, []).append(i)
    out = {}
    for p, ks in members.items():
        sub = [sum(1 << b for b, j in enumerate(ks) if conflict[k] >> j & 1) for k in ks]
        out[p] = (sum(1 << k for k in ks), fold_independent_sets(sub, [1] * len(ks), range(len(ks)))[1].bit_length() - 1)
    return out


def total_force(d2: int, occupied, center: Site = (0, 0, 0)) -> Fraction:
    """Force collected at `center` from the occupied sites of its ball, in
    Fractions read from the literal table. Raises if an occupied site lies
    outside the ball or the occupied set violates the hard-core rule."""
    table = FORCE_TABLES[d2]
    pts = sorted(set(occupied))
    dists = [_sq(y, center) for y in pts]
    if any(q >= BALL_RADIUS_SQ[d2] for q in dists):
        raise ValueError(f"an occupied site lies outside the ball around {center}")
    if not pairwise_admissible(pts, d2):
        raise ValueError("occupied set violates the hard-core exclusion rule")
    return sum((table[q] for q in dists), Fraction(0))


def force_extremes(d2: int):
    """Plain-list DFS over all admissible ball patterns.

    Returns (config_count, fstar, second_max, max_occupancy, signatures)
    with the empty pattern included in the count, exactly like the library
    claims to do.
    """
    sites = brute_ball(BALL_RADIUS_SQ[d2])
    fvals = [FORCE_TABLES[d2][s[0] ** 2 + s[1] ** 2 + s[2] ** 2] for s in sites]
    dists = [s[0] ** 2 + s[1] ** 2 + s[2] ** 2 for s in sites]
    n = len(sites)

    count = 0
    best = Fraction(0)
    second: Fraction | None = None
    max_occ = 0
    sigs: set[tuple[int, ...]] = set()

    def compatible(i: int, chosen: list[int]) -> bool:
        a = sites[i]
        for j in chosen:
            b = sites[j]
            if (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2 < d2:
                return False
        return True

    def rec(start: int, chosen: list[int], total: Fraction) -> None:
        nonlocal count, best, second, max_occ
        count += 1
        if len(chosen) > max_occ:
            max_occ = len(chosen)
        if total > best:
            second = best
            best = total
        elif total != best and (second is None or total > second):
            second = total
        if total == 1:
            sigs.add(tuple(sorted(dists[j] for j in chosen)))
        for i in range(start, n):
            if compatible(i, chosen):
                chosen.append(i)
                rec(i + 1, chosen, total + fvals[i])
                chosen.pop()

    rec(0, [], Fraction(0))
    return count, best, second, max_occ, tuple(sorted(sigs))


def _window(pc: PeriodicConfiguration, d2: int, layers: int, radius_sq: int):
    """The vacant sites of the radius_sq ball around the origin whose level
    along the layering diagonal lies in the first `layers` layers, and the
    frozenset of particles each of them repels."""
    def level(x: Site, e: Site) -> int:
        return x[0] * e[0] + x[1] * e[1] + x[2] * e[2]

    h = 3 if d2 == 5 else 2 * math.isqrt(d2 // 2)
    e = next(
        e for e in MAIN_DIAGONALS
        if all(level(v, e) % h == 0 for v in pc.basis + pc.offsets)
    )
    window = [
        x for x in brute_ball(radius_sq + 1)
        if 0 <= level(x, e) <= h * (layers - 1) and not pc.contains(x)
    ]
    repelled = [
        frozenset(y for y in brute_ball(d2, x) if pc.contains(y)) for x in window
    ]
    return window, repelled


def window_by_lookups(pc: PeriodicConfiguration, d2: int, layers: int, radius_sq: int):
    """excitations._window with each window site's repelled particles looked
    up on their own (occupied_near), where the library reads them all from one
    box: the window in lexicographic order, its conflicts from every pair, and
    each site's cover over the repelled particles sorted lexicographically."""
    e, h, _ = _detect_layering(pc, d2)
    window = sorted(x for x in _slab_sites((0, 0, 0), e, h * (layers - 1), radius_sq) if not pc.contains(x))
    near = [pc.occupied_near(x, d2) for x in window]
    index = {y: k for k, y in enumerate(sorted({y for ys in near for y in ys}))}
    return window, conflict_masks_pairwise(window, d2), [sum(1 << index[y] for y in ys) for ys in near]


def _iia(pc: PeriodicConfiguration, site: Site, d2: int) -> bool:
    """The insertion at site is IIa; a site classify_insertion rejects is not."""
    try:
        return classify_insertion(pc, site, d2) == InsertionType.IIA
    except ValueError:
        return False


def _all_iia(pc: PeriodicConfiguration, d2: int, survivors) -> bool:
    return all(len(s) == 1 and _iia(pc, s[0], d2) for s in survivors)


def window_census(pc: PeriodicConfiguration, d2: int, layers: int, radius_sq: int):
    """Plain-list DFS over the insertion sets of a window around the origin.

    Every nonempty admissible subset of the window is scanned; its repelled
    set is a frozenset union and its energy |repelled| - |inserted|. Sets
    of energy <= 2 are reduced. Returns (window_sites, sets_scanned,
    survivors, all_iia) with the survivors sorted, like the library's
    WindowCensus.
    """
    window, repelled = _window(pc, d2, layers, radius_sq)
    scanned = 0
    survivors: set = set()

    def rec(start: int, chosen: list[int], eta: frozenset) -> None:
        nonlocal scanned
        for i in range(start, len(window)):
            if not pairwise_admissible([window[j] for j in chosen] + [window[i]], d2):
                continue
            chosen.append(i)
            eta2 = eta | repelled[i]
            scanned += 1
            if len(eta2) - len(chosen) <= 2:
                ins = make_insertion(pc, d2, [window[j] for j in chosen])
                red = reduce_insertions(pc, ins, d2)
                if red.sites:
                    survivors.add(red.sites)
            rec(i + 1, chosen, eta2)
            chosen.pop()

    rec(0, [], frozenset())
    uniq = tuple(sorted(survivors))
    return len(window), scanned, uniq, _all_iia(pc, d2, uniq)


def window_census_exhaustive(
    pc: PeriodicConfiguration, d2: int, layers: int, radius_sq: int
) -> WindowCensus:
    """The bitmask census with nothing pruned: the package's kernel visits
    every admissible set of the window, counting the nonempty ones and
    reducing those of energy <= 2. Fast enough for windows of millions of
    sets, where the plain-list DFS is not."""
    window, repelled = _window(pc, d2, layers, radius_sq)
    index = {y: k for k, y in enumerate(sorted(frozenset().union(*repelled)))}
    cover = [sum(1 << index[y] for y in ys) for ys in repelled]
    scanned = 0
    survivors: set = set()

    def visit(chosen: list[int], covered: int) -> None:
        nonlocal scanned
        if not chosen:
            return
        scanned += 1
        if covered.bit_count() - len(chosen) <= 2:
            ins = make_insertion(pc, d2, [window[k] for k in chosen])
            red = reduce_insertions(pc, ins, d2)
            if red.sites:
                survivors.add(red.sites)

    independent_sets(conflict_masks_pairwise(window, d2), cover, visit)
    uniq = tuple(sorted(survivors))
    return WindowCensus(len(window), scanned, uniq, _all_iia(pc, d2, uniq))


def cell(pc: PeriodicConfiguration):
    """Every site of one fundamental cell: the HNF box, one site per residue."""
    return product(*(range(pc.basis[i][i]) for i in range(3)))


def perfect_by_scan(pc: PeriodicConfiguration, d2: int) -> bool:
    """Per-site force scan: True iff every site of one fundamental cell (the
    HNF box) collects total force exactly 1 from the occupied sites of its
    cube-scanned ball. At d2 = 1 the force is the occupation indicator. The
    configuration is assumed d2-admissible.
    """
    if d2 == 1:
        return all(pc.contains(x) for x in cell(pc))
    table = FORCE_TABLES[d2]
    for x in cell(pc):
        total = Fraction(0)
        for y in brute_ball(BALL_RADIUS_SQ[d2], x):
            if pc.contains(y):
                total += table[(x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2 + (x[2] - y[2]) ** 2]
        if total != 1:
            return False
    return True


def perfect_by_density(pc: PeriodicConfiguration, d2: int) -> bool:
    """The density identity in Fractions: density(pc) == 1 / C, C being
    normalization_constant(d2), or 1 at the int d2 = 1, where the force is
    the occupation indicator. The configuration is assumed d2-admissible."""
    c = Fraction(1) if d2 == 1 and type(d2) is int else normalization_constant(d2)
    return density(pc) == 1 / c


def _sq(a: Site, b: Site) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def _repelled(pc: PeriodicConfiguration, d2: int, inserted, removed) -> set:
    """The removed sites and the occupied sites of the cube-scanned open
    d2-ball of every inserted site."""
    return set(removed) | {y for x in inserted for y in brute_ball(d2, x) if pc.contains(y)}


def excesses_by_fractions(pc: PeriodicConfiguration, d2: int, inserted=(), removed=()):
    """(excesses, energy) of an excitation: each repelled or removed site's
    excess is 1 minus the force it collects from the inserted sites, added
    one Fraction at a time from the literal FORCE_TABLES; the energy is
    |repelled| - |inserted|."""
    table = FORCE_TABLES[d2]
    eta = _repelled(pc, d2, inserted, removed)
    excesses = {
        y: 1 - sum((table.get(_sq(x, y), Fraction(0)) for x in inserted), Fraction(0))
        for y in sorted(eta)
    }
    return excesses, len(eta) - len(inserted)


def peierls_by_fractions(pc: PeriodicConfiguration, d2: int, inserted=(), removed=()):
    """(holds, slack) of the contour bound H(X) >= gap * v(X) / |ball| for the
    excited configuration X (repelled and removed particles gone, inserted
    ones added). The force at every site of the cube-scanned ball around a
    changed site is added one Fraction at a time from the literal
    FORCE_TABLES; H is the total deficit from 1, v the number of deficient
    sites. The gap is forces.peierls_gap, which force_extremes checks."""
    table, rsq = FORCE_TABLES[d2], BALL_RADIUS_SQ[d2]
    eta = _repelled(pc, d2, inserted, removed)
    ham, support = Fraction(0), 0
    for x in sorted({x for y in eta | set(inserted) for x in brute_ball(rsq, y)}):
        total = Fraction(0)
        for z in brute_ball(rsq, x):
            if (pc.contains(z) and z not in eta) or z in inserted:
                total += table[_sq(x, z)]
        if total != 1:
            support += 1
            ham += 1 - total
    slack = ham - peierls_gap(d2) * support / len(brute_ball(rsq))
    return slack >= 0, slack


def saturated_by_scan(pc: PeriodicConfiguration, d2: int) -> bool:
    """True iff every vacant cell site has an occupied site in its cube-scanned
    open d2-ball, so that no particle can be added."""
    return all(
        pc.contains(x) or any(pc.contains(y) for y in brute_ball(d2, x)) for x in cell(pc)
    )


def iia_count_by_scan(pc: PeriodicConfiguration, d2: int) -> int:
    """Vacant cell sites whose single insertion is IIa, classifying every one."""
    return sum(1 for x in cell(pc) if not pc.contains(x) and _iia(pc, x, d2))


def translates_by_walk(images) -> int:
    """Distinct configurations among the translates of the images by every
    site of their cells, told apart by the canonical form of each translate."""
    return len({
        canonical_key(canonicalize(translate(img, t))) for img in images for t in cell(img)
    })


def box_side(pc: PeriodicConfiguration) -> int:
    side = 1
    for i in range(3):
        side = side * pc.basis[i][i] // math.gcd(side, pc.basis[i][i])
    return side


def naive_density(pc: PeriodicConfiguration) -> Fraction:
    """Occupied fraction of an exact period box, counted one site at a time."""
    n = box_side(pc)
    count = sum(
        1 for p in product(range(n), repeat=3) if pc.contains(p)
    )
    return Fraction(count, n ** 3)


def admissible_by_scan(pc: PeriodicConfiguration, d2: int) -> bool:
    """True iff the cube-scanned open d2-ball of no offset holds another
    occupied site; every occupied pair is a translate of one at an offset."""
    return all(y == o or not pc.contains(y) for o in pc.offsets for y in brute_ball(d2, o))


def box_admissible(pc: PeriodicConfiguration, d2: int) -> bool:
    """Hard-core check on a 2-period box, pairwise and unoptimized."""
    n = 2 * box_side(pc)
    occ = [p for p in product(range(n), repeat=3) if pc.contains(p)]
    half = [p for p in occ if all(c < n // 2 for c in p)]
    for a in half:
        for b in occ:
            if a == b:
                continue
            d = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
            if d < d2:
                return False
    return True


def r3_naive(n: int) -> int:
    """Representations of n as an ordered sum of three squares, triple loop."""
    r = math.isqrt(n)
    count = 0
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            rest = n - x * x - y * y
            if rest < 0:
                continue
            z = math.isqrt(rest)
            if z * z == rest:
                count += 1 if z == 0 else 2
    return count


@lru_cache(maxsize=None)
def orthogonal_triples(l: int) -> frozenset[tuple[Site, Site, Site]]:
    """Every (v, w, cross(v, w)/l) with v, w orthogonal on the sphere of radius l
    and the cross product divisible by l, scanning all pairs of sphere vectors.
    Cached: the HNF oracles below and the tests share one scan per l."""
    n = l * l
    sphere = []
    for x in range(-l, l + 1):
        for y in range(-l, l + 1):
            rest = n - x * x - y * y
            if rest < 0:
                continue
            z = math.isqrt(rest)
            if z * z == rest:
                sphere.extend({(x, y, z), (x, y, -z)})
    out = set()
    for v in sphere:
        for w in sphere:
            if v[0] * w[0] + v[1] * w[1] + v[2] * w[2]:
                continue
            cx = (
                v[1] * w[2] - v[2] * w[1],
                v[2] * w[0] - v[0] * w[2],
                v[0] * w[1] - v[1] * w[0],
            )
            if all(c % l == 0 for c in cx):
                out.add((v, w, (cx[0] // l, cx[1] // l, cx[2] // l)))
    return frozenset(out)


def cubic_sublattices_by_hnf(l: int) -> list[Matrix]:
    """HNF bases of the lattices spanned by the triples of orthogonal_triples, sorted."""
    return sorted({hnf(list(t)) for t in orthogonal_triples(l)})


def classify_by_hnf(l: int) -> list[SublatticeClass]:
    """Orbits of cubic_sublattices_by_hnf(l) under the 48 signed permutations,
    each image brought to HNF, with the predicted parameters matched by HNF.
    Each template of predicted_class_bases is expanded to its class by the
    same action, so a later parameter choice overrides an earlier one for
    the lattices they share."""
    group = oh_elements()
    remaining = set(cubic_sublattices_by_hnf(l))
    predicted = {
        hnf([g.apply(row) for row in b]): (size, params)
        for size, params, b in predicted_class_bases(l)
        for g in group
    }
    classes = []
    while remaining:
        rep = min(remaining)
        orbit = {hnf([g.apply(row) for row in rep]) for g in group}
        assert orbit <= remaining, "orbit escaped the enumerated set"
        remaining -= orbit
        params = None
        for m in orbit:
            if m in predicted:
                psize, pparams = predicted[m]
                if psize == len(orbit):
                    params = pparams
                break
        members = tuple(sorted(orbit))
        classes.append(SublatticeClass(len(orbit), 48 // len(orbit), rep, members, params))
    return sorted(classes, key=lambda c: (c.size, c.representative))


def fcc_count_by_hnf(l: int) -> int:
    """Distinct close-packed sublattices of the cubic ones, told apart by HNF."""
    return len({hnf(list(fcc_from_cubic(t))) for t in orthogonal_triples(l)})


def sliding_witness_by_scan(l: int, n: int) -> int:
    """Ambient sites (all coordinates even) outside the box [0, 2(l-1)]^2 x
    [0, n] that lie closer than 2 to a lifted column site (x, y, z) inside
    it, x and y even and z odd, scanning the 26 neighbours of every one."""
    top = 2 * (l - 1)
    removed = set()
    for x, y, z in product(range(0, top + 1, 2), range(0, top + 1, 2), range(1, n + 1, 2)):
        for dx, dy, dz in product((-1, 0, 1), repeat=3):
            s = (x + dx, y + dy, z + dz)
            if (dx, dy, dz) == (0, 0, 0) or dx * dx + dy * dy + dz * dz >= 4:
                continue
            if any(c % 2 for c in s):
                continue
            if not (0 <= s[0] <= top and 0 <= s[1] <= top and 0 <= s[2] <= n):
                removed.add(s)
    return len(removed)


def quaternions_of_norm(l: int) -> list[Quaternion]:
    """All integer quaternions of squared norm l."""
    if l < 1:
        raise ValueError("l must be >= 1")
    top = math.isqrt(l)
    return [Quaternion(a, *p) for a in range(-top, top + 1) for p in _sphere_points(l - a * a)]


def conjugate(q: Quaternion) -> Quaternion:
    return Quaternion(q.a, -q.b, -q.c, -q.d)


def quaternion_product(p: Quaternion, q: Quaternion) -> Quaternion:
    """The Hamilton product p q."""
    a, b, c, d = p.a, p.b, p.c, p.d
    e, f, g, h = q.a, q.b, q.c, q.d
    return Quaternion(
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def is_cubic_basis(m: Matrix) -> bool:
    """Rows pairwise orthogonal and of one common nonzero squared norm."""
    norms = {sum(c * c for c in row) for row in m}
    if len(norms) != 1 or 0 in norms:
        return False
    return not any(sum(m[i][t] * m[j][t] for t in range(3)) for i, j in ((0, 1), (0, 2), (1, 2)))


def fcc_from_cubic(m: Matrix) -> Matrix:
    """Basis of the index-2 close-packed sublattice inside a cubic one."""
    if not is_cubic_basis(m):
        raise ValueError("rows must be pairwise orthogonal with equal norms")
    x1, x2, x3 = m
    add = lambda p, q: (p[0] + q[0], p[1] + q[1], p[2] + q[2])
    return (add(x1, x2), add(x2, x3), add(x1, x3))


# --- frozen-dataclass twins of the records ----------------------------------------


def _nonzero_quaternion(q) -> None:
    if (q.a, q.b, q.c, q.d) == (0, 0, 0, 0):
        raise ValueError("the zero quaternion generates nothing")


QuaternionTwin = make_dataclass(
    "Quaternion",
    [("a", int), ("b", int), ("c", int), ("d", int)],
    frozen=True,
    namespace={"__post_init__": _nonzero_quaternion},
)

PeriodicConfigurationTwin = make_dataclass(
    "PeriodicConfiguration",
    [("basis", Matrix), ("offsets", tuple), ("context_d2", Optional[int], None)],
    frozen=True,
)

ExcitationReportTwin = make_dataclass(
    "ExcitationReport",
    [
        ("inserted_count", int),
        ("repelled", tuple),
        ("energy", int),
        ("excesses", dict, field(compare=False)),
        ("type", Optional[str], None),
        ("background_perfect", bool, True),
    ],
    frozen=True,
)
