"""Insertion and removal excitations over perfect configurations.

Energies are exact integers, excesses exact rationals. The force sums
behind them run on the integer weights of forces.ForceTable (f(q) * den),
so an excess is the integer deficit den - sum of weights, read off as a
Fraction from one table per force table (_excess_fractions). The classification
of single insertions (types I, IIa, IIb, IIc) applies to the layered
families whose occupied sites form triangular meshes stacked along a main
diagonal; it is detected from the configuration itself, never assumed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .configs import MAIN_DIAGONALS, PeriodicConfiguration, close_packing_scale, is_perfect
from .forces import SUPPORTED_D2, ForceTable, force_table, normalization_constant, peierls_gap
from .lattice import (
    ORIGIN,
    Record,
    Site,
    ball_sites,
    conflict_masks,
    count_independent_sets,
    exact_site,
    independent_sets,
    is_admissible,
    sq_dist,
)


def _dot(a: Site, b: Site) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class InsertionSet(Record):
    """A finite collection of extra particles placed into vacant sites."""

    pc: PeriodicConfiguration
    d2: int
    sites: tuple[Site, ...]

    def __post_init__(self) -> None:
        sites = tuple(sorted({exact_site(s, "insertion site") for s in self.sites}))
        if len(sites) != len(self.sites):
            raise ValueError("insertion sites must be distinct")
        object.__setattr__(self, "sites", sites)
        for s in sites:
            if self.pc.contains(s):
                raise ValueError(f"insertion site {s} is occupied")
        if not is_admissible(sites, self.d2):
            raise ValueError("insertion sites are not pairwise admissible")


class RemovalSet(Record):
    """A finite collection of particles deleted from the configuration."""

    pc: PeriodicConfiguration
    d2: int
    sites: tuple[Site, ...]

    def __post_init__(self) -> None:
        sites = tuple(sorted({exact_site(s, "removal site") for s in self.sites}))
        if len(sites) != len(self.sites):
            raise ValueError("removal sites must be distinct")
        object.__setattr__(self, "sites", sites)
        for s in sites:
            if not self.pc.contains(s):
                raise ValueError(f"removal site {s} is vacant")


def make_insertion(pc: PeriodicConfiguration, d2: int, sites: Iterable[Site]) -> InsertionSet:
    return InsertionSet(pc, d2, tuple(sites))


def gamma1(pc: PeriodicConfiguration, d2: int, site: Optional[Site] = None) -> RemovalSet:
    """Deletion of a single particle; energy 1."""
    return RemovalSet(pc, d2, (site if site is not None else pc.offsets[0],))


def gamma2(
    pc: PeriodicConfiguration, d2: int, sites: Optional[tuple[Site, Site]] = None
) -> RemovalSet:
    """Deletion of two particles; energy 2."""
    if sites is None:
        first = pc.offsets[0]
        near = sorted(
            (s for s in pc.occupied_near(first, 4 * d2) if s != first),
            key=lambda s: (sq_dist(first, s), s),
        )
        if not near:
            raise ValueError("no second particle found near the first")
        sites = (first, near[0])
    return RemovalSet(pc, d2, sites)


def _repelled_by(pc: PeriodicConfiguration, insertion: InsertionSet, d2: int) -> dict[Site, list[Site]]:
    """Each inserted site's occupied sites strictly within distance sqrt(d2),
    one occupied_near call per site. An insertion made over another
    configuration, or at another threshold, is refused: its sites need not
    be vacant or admissible here. The background of an insertion is most
    often this very object, so identity is tried before equality."""
    if (insertion.pc is not pc and insertion.pc != pc) or insertion.d2 != d2:
        raise ValueError(f"the insertion was not made over this configuration at d2={d2}")
    return {x: pc.occupied_near(x, d2) for x in insertion.sites}


def repelled_set(pc: PeriodicConfiguration, insertion: InsertionSet, d2: int) -> list[Site]:
    """Occupied sites strictly within distance sqrt(d2) of some inserted site."""
    return sorted({y for ys in _repelled_by(pc, insertion, d2).values() for y in ys})


class InsertionType:
    """Taxonomy of single insertions into a layered configuration."""

    I = "I"
    IIA = "IIa"
    IIB = "IIb"
    IIC = "IIc"
    ALL = (I, IIA, IIB, IIC)


class ExcitationReport(Record, uncompared=("excesses",)):
    inserted_count: int
    repelled: tuple[Site, ...]
    energy: int
    excesses: dict[Site, Fraction]
    type: Optional[str] = None
    background_perfect: bool = True


@lru_cache(maxsize=len(SUPPORTED_D2))
def _excess_fractions(ft: ForceTable) -> tuple[Fraction, ...]:
    """Fraction(k, den) for k = 0..den, built once per table (keyed like
    forces._ball). A report asks no other deficit, on any background: the
    weights are >= 0, and the inserted sites that weigh on a particle y are
    pairwise admissible sites of y's ball, so verify_forces bounds their sum
    by fstar * den = den (the golden files pin fstar = 1 at every d2)."""
    return tuple(Fraction(k, ft.den) for k in range(ft.den + 1))


def _excitation_sets(
    pc: PeriodicConfiguration,
    insertion: Optional[InsertionSet],
    d2: Optional[int],
    removal: Optional[RemovalSet],
) -> tuple[int, ForceTable, dict[Site, list[Site]], set[Site]]:
    """The threshold (defaulting to the excitation's own), its force table, the
    inserted sites xi, each with the particles it repels (_repelled_by), and
    eta: the repelled particles plus the removed ones. A removal made over
    another configuration is refused: its sites need not be occupied here."""
    if insertion is None and removal is None:
        raise ValueError("need an insertion, a removal, or both")
    if d2 is None:
        d2 = insertion.d2 if insertion is not None else removal.d2
    if removal is not None and removal.pc != pc:
        raise ValueError("the removal was made over another configuration")
    xi = _repelled_by(pc, insertion, d2) if insertion is not None else {}
    eta = {y for ys in xi.values() for y in ys}
    if removal is not None:
        eta.update(removal.sites)
    return d2, force_table(d2), xi, eta


def excitation_report(
    pc: PeriodicConfiguration,
    insertion: Optional[InsertionSet] = None,
    d2: Optional[int] = None,
    removal: Optional[RemovalSet] = None,
) -> ExcitationReport:
    """Energy and per-site excess bookkeeping for an insertion and/or removal.

    The repelled collection is every occupied site within reach of an
    inserted one, plus any explicitly removed sites. For a perfect
    background the identity energy = sum of excesses holds exactly and is
    asserted; otherwise the report is flagged.

    The excess of a repelled site y is 1 minus the force the inserted sites
    put on it, den - sum of w[|x - y|^2] over them in integer weights. A
    force table is supported below ball_radius_sq <= d2, so every nonzero
    weight links an inserted site x to a particle that x repels: the sum
    runs over the neighbour lists the repelled set was read from, one fetch
    per inserted site, which also types a single insertion (_classify).
    """
    d2, ft, xi, eta = _excitation_sets(pc, insertion, d2, removal)
    eta_sorted = tuple(sorted(eta))
    den, w, rsq, excess = ft.den, ft.weights, ft.ball_radius_sq, _excess_fractions(ft)
    deficits = dict.fromkeys(eta_sorted, den)  # den * excess of each repelled site
    for (x0, x1, x2), ys in xi.items():
        for y in ys:
            q = (x0 - y[0]) ** 2 + (x1 - y[1]) ** 2 + (x2 - y[2]) ** 2
            if q < rsq:
                deficits[y] -= w[q]
    energy = len(eta_sorted) - len(xi)
    perfect = is_perfect(pc, d2)
    if perfect:
        assert sum(deficits.values()) == energy * den, "excess identity violated"
        assert min(deficits.values(), default=0) >= 0, "negative excess on perfect background"
    # inserted_count, repelled, energy, excesses, type and background_perfect,
    # positionally, so Record.__init__ skips its keyword binding (_bind)
    return ExcitationReport(
        len(xi),
        eta_sorted,
        energy,
        {y: excess[d] for y, d in deficits.items()},
        _insertion_type(pc, *next(iter(xi.items())), d2) if removal is None and len(xi) == 1 else None,
        perfect,
    )


# --- layering detection and the single-insertion taxonomy ---------------------


def _detect_layering(pc: PeriodicConfiguration, d2: int) -> tuple[Site, int, int]:
    """Find a main diagonal e and spacing h so occupied levels are h-periodic.

    Returns (e, h, mesh_edge_sq). Raises when the configuration is not
    layered at this threshold.
    """
    if d2 == 5:
        h, edge_sq = 3, 6
    else:
        l = close_packing_scale(d2)
        if l is None:
            raise ValueError(f"no layered taxonomy at d2={d2}")
        h, edge_sq = 2 * l, d2
    for e in MAIN_DIAGONALS:
        if all(_dot(r, e) % h == 0 for r in pc.basis) and all(
            _dot(o, e) % h == 0 for o in pc.offsets
        ):
            return e, h, edge_sq
    raise ValueError("configuration is not layered along any main diagonal")


def classify_insertion(pc: PeriodicConfiguration, site: Site, d2: int) -> str:
    """Type of the single insertion at `site` into a layered configuration."""
    return _classify(pc, site, pc.occupied_near(site, d2), _detect_layering(pc, d2))


def _classify(pc: PeriodicConfiguration, site: Site, eta: list[Site], layering: tuple[Site, int, int]) -> str:
    """classify_insertion on eta, the particles `site` repels, and on a layering
    _detect_layering found, which reads every offset: a census finds it once."""
    e, h, edge_sq = layering
    if pc.contains(site):
        raise ValueError(f"site {site} is occupied")
    level = _dot(site, e)
    by_level: dict[int, list[Site]] = {}
    for y in eta:
        by_level.setdefault(_dot(y, e), []).append(y)
    if level % h:
        below = h * (level // h)
        above = below + h
        if (
            len(eta) == 4
            and len(by_level.get(below, ())) == 2
            and len(by_level.get(above, ())) == 2
        ):
            return InsertionType.I
        raise ValueError(
            f"between-mesh site {site} repels {len(eta)} particles "
            f"(levels {sorted(by_level)}), not a 2+2 tetrahedron"
        )
    plane = by_level.get(level, [])
    if len(plane) != 3:
        raise ValueError(f"in-plane site {site} repels {len(plane)} mesh particles, not 3")
    for i in range(3):
        if sq_dist(site, plane[i]) * 3 != edge_sq:
            raise ValueError(f"site {site} is not a mesh triangle center")
        for j in range(i + 1, 3):
            if sq_dist(plane[i], plane[j]) != edge_sq:
                raise ValueError(f"site {site} is not a mesh triangle center")
    up = len(by_level.get(level + h, ()))
    down = len(by_level.get(level - h, ()))
    extra = len(eta) - 3
    if extra != up + down or up > 1 or down > 1:
        raise ValueError(
            f"triangle-center site {site} has unexpected neighbor-mesh repulsions "
            f"(up={up}, down={down}, total={len(eta)})"
        )
    if extra == 0:
        return InsertionType.IIA
    if extra == 1:
        return InsertionType.IIB
    return InsertionType.IIC


def _insertion_type(pc: PeriodicConfiguration, site: Site, eta: list[Site], d2: int,
                    layering: Optional[tuple[Site, int, int]] = None) -> Optional[str]:
    """_classify's type, or None for a site it rejects (say, a vacancy of an
    imperfect background, or any site of an unlayered one)."""
    try:
        return _classify(pc, site, eta, layering or _detect_layering(pc, d2))
    except ValueError:
        return None


def iia_census(
    pc: PeriodicConfiguration, l: Optional[int] = None
) -> tuple[int, Fraction]:
    """Count of lowest-type in-plane insertion sites per cell, and their density.

    A IIa site repels its three mesh neighbours, so its residue is reached
    from an offset within sqrt(d2) (PeriodicConfiguration.reached); only
    the vacant on-level residues among those are classified, on the one
    layering found first, so the work grows as len(offsets) * |ball|.
    """
    d2 = 5 if l is None else 2 * l * l
    if l is not None and l % 3:
        raise ValueError("in-plane triangle centers are integral only when 3 divides l")
    layering = e, h, _ = _detect_layering(pc, d2)
    count = sum(1 for x in pc.reached(d2) if _dot(x, e) % h == 0 and not pc.contains(x)
                and _insertion_type(pc, x, pc.occupied_near(x, d2), d2, layering) == InsertionType.IIA)
    return count, Fraction(count, pc.det)


# --- reduction -----------------------------------------------------------------


def reduce_insertions(
    pc: PeriodicConfiguration, insertion: InsertionSet, d2: int
) -> InsertionSet:
    """Shrink the insertion while some repelled particle has a unique repeller.

    Deterministic: among removable insertion sites the lexicographically
    smallest goes first. A single insertion whose type is IIa is returned
    unchanged (it is the terminal low-energy case); any other single
    insertion with a uniquely repelled particle reduces to the empty set.
    """
    sites = list(insertion.sites)
    near = _repelled_by(pc, insertion, d2)
    while sites:
        if len(sites) == 1 and _insertion_type(pc, sites[0], near[sites[0]], d2) == InsertionType.IIA:
            break
        repellers: dict[Site, list[Site]] = {}
        for x in sites:
            for y in near[x]:
                repellers.setdefault(y, []).append(x)
        removable = sorted({xs[0] for xs in repellers.values() if len(xs) == 1})
        if not removable:
            break
        sites.remove(removable[0])
    return InsertionSet(pc, d2, tuple(sites))


# --- the contour-bound spot check ------------------------------------------------


def peierls_check(
    pc: PeriodicConfiguration,
    insertion: Optional[InsertionSet] = None,
    d2: Optional[int] = None,
    removal: Optional[RemovalSet] = None,
) -> tuple[bool, Fraction]:
    """Verify the force-deficit bound on the excited configuration.

    The excited configuration X drops the repelled and removed particles eta
    and gains the inserted ones xi. H(X) is the total force deficit over all
    ball centers, v(X) the number of centers with any deficit. The bound
    checked is H(X) >= gap * v(X) / |ball|; returns (holds, exact slack).

    A background not perfect at d2 is refused. On a perfect one every site x
    gets exactly den, so, eta being occupied and xi vacant (_excitation_sets
    ensures both), the deficit at x in X is the sum of the integer weights
    w(x - z) over z in eta minus that over z in xi. Summed over x, each z
    gives C * den, C = normalization_constant(d2), so H(X) = C * E(X) with
    E(X) = |eta| - |xi|, and only v(X) is counted: the sites where those
    signed weights, added over the balls around eta and xi, do not cancel.
    """
    d2, ft, xi, eta = _excitation_sets(pc, insertion, d2, removal)
    if not is_perfect(pc, d2):
        raise ValueError(f"the contour bound needs a background perfect at d2={d2}")
    w, ball = ft.weights, ball_sites(ft.ball_radius_sq)
    ball_w = [(b0, b1, b2, w[b0 * b0 + b1 * b1 + b2 * b2]) for b0, b1, b2 in ball]
    deficit: dict[Site, int] = {}  # den * deficit of each site near a change
    for sign, zs in ((1, eta), (-1, xi)):
        for z0, z1, z2 in zs:
            for b0, b1, b2, wb in ball_w:
                x = (z0 + b0, z1 + b1, z2 + b2)
                deficit[x] = deficit.get(x, 0) + sign * wb
    support = sum(1 for v in deficit.values() if v)
    slack = normalization_constant(d2) * (len(eta) - len(xi)) - peierls_gap(d2) * support / len(ball)
    return slack >= 0, slack


# --- bounded-window census --------------------------------------------------------


class WindowCensus(Record):
    window_sites: int
    sets_scanned: int
    low_energy_terminal: tuple[tuple[Site, ...], ...]
    all_terminal_iia: bool


# Work bounds of a window census's search, which stops with ValueError when
# it passes either. The search prunes by the energy of the chosen set, so
# it visits few sets on a perfect background of a small window (hcp at 3
# layers and squared radius 13: 2,438; fcc at d2 = 2 near the site limit
# below: 4,651-4,995), but each visit recomputes the bounds of the sites
# near the chosen set. On one shared 2-vCPU host (Python 3.11) a visited
# set costs about 5-20 us on small windows, and 22 us on average,
# reductions included, on the 2x2x2 supercell of hcp with one offset
# removed (at 2 layers and squared radius 22 the search needs 5.6e6, and
# the first 1e5 and 4e5 take 2.3 and 9.0 s). The widest windows the count
# accepts visit the most: hcp at 2 layers and squared radius 28 visits
# 814,864 sets in 20 s, about 24 us each, and at 29-31 this budget refuses
# the window after 31-33 s. So the visits take at most about 33 s. A reduction
# costs 0.05 ms for a single site and about 0.5 ms on average for the sets
# of energy <= 2 near a vacancy (the holed hcp supercell at 1 layer and
# squared radius 24), so the reductions take at most about 3 s; hcp windows
# reduce at most 27 sets, but the holed hcp supercell at 1 layer and
# squared radius 30 has 555,467 to reduce.
WINDOW_VISITS_MAX = 10**6
WINDOW_REDUCTIONS_MAX = 5000
# The most window sites a census takes; a larger window is refused before
# any site's repelled set is looked up. Of the nine backgrounds of the
# benchmark, three have a layering (fcc at d2 = 2 and 8, hcp at 5). On fcc
# at d2 = 2 the other budgets accept windows up to this limit (5,000 sites
# at 40 layers and squared radius 284: the search visits 4,995 sets, and
# the census takes about 0.4 s); on hcp and on fcc at d2 = 8 the largest
# windows accepted, over every number of layers from 1 to 8, have 270 sites
# (1 layer, squared radius 218) and 211 (2 layers, squared radius 28). The
# state budget refuses each larger window tried, but for hcp at 2 layers
# and squared radius 29-31 (175-181 sites), which the visits budget
# refuses.
WINDOW_SITES_MAX = 5000


def _slab_sites(center: Site, e: Site, hi: int, radius_sq: int) -> Iterator[Site]:
    """The sites x with sq_dist(x, center) <= radius_sq and 0 <= e.x <= hi, e
    a main diagonal, lazily and level by level, each once.

    With y = x - center, k = e.y, s = e[0] y[0] and t = e[1] y[1], the last
    term e[2] y[2] of e.y is m - t, m = k - s, so x is in the ball iff
    s^2 + t^2 + (m - t)^2 <= radius_sq. That is (2t - m)^2 <= D(s), with
    D(s) = 2 (radius_sq - s^2) - m^2, and some real t has it iff
    D(s) >= 0, that is (3s - k)^2 <= 6 radius_sq - 2 k^2; a level meets the
    ball only if k^2 <= 3 radius_sq. An integer's square is at most D iff
    its absolute value is at most isqrt(D), so each range below is exact.
    """
    ec, rk = _dot(e, center), math.isqrt(3 * radius_sq)
    for level in range(max(0, ec - rk), min(hi, ec + rk) + 1):
        k = level - ec
        rs = math.isqrt(6 * radius_sq - 2 * k * k)
        for s in range(-((rs - k) // 3), (rs + k) // 3 + 1):
            m = k - s
            rt = math.isqrt(2 * (radius_sq - s * s) - m * m)
            for t in range(-((rt - m) // 2), (rt + m) // 2 + 1):
                yield (center[0] + e[0] * s, center[1] + e[1] * t, center[2] + e[2] * (m - t))


def _window(
    pc: PeriodicConfiguration, d2: int, layers: int, radius_sq: int
) -> tuple[list[Site], list[int], list[int]]:
    """The window of a census (see window_census), its conflict masks, and
    each window site's repelled set as a bitmask over the repelled particles
    in lexicographic order. A window of more than WINDOW_SITES_MAX sites is
    refused before any site's repelled set is looked up. The particles come
    from one occupied_in_box query over the window's bounding box grown by
    isqrt(d2 - 1), which holds every x + b, b in ball_sites(d2); the sites
    are keyed as in lattice.conflict_masks, m above the box's span, so the
    keys sort as the sites do."""
    if layers < 1:
        raise ValueError(f"a window census needs at least one layer, got {layers}")
    if radius_sq < 0:
        raise ValueError(f"a window census needs a squared radius >= 0, got {radius_sq}")
    e, h, _ = _detect_layering(pc, d2)
    vacant = (x for x in _slab_sites(ORIGIN, e, h * (layers - 1), radius_sq) if not pc.contains(x))
    window = sorted(itertools.islice(vacant, WINDOW_SITES_MAX + 1))
    if len(window) > WINDOW_SITES_MAX:
        raise ValueError(f"a window census takes at most {WINDOW_SITES_MAX} window sites; the "
                         f"window of layers={layers}, radius_sq={radius_sq} has more")
    if not window:
        return [], [], []
    r = math.isqrt(d2 - 1)
    lo = [min(x[t] for x in window) - r for t in range(3)]
    hi = [max(x[t] for x in window) + r for t in range(3)]
    m = max(b - a for a, b in zip(lo, hi)) + 1
    occupied = {(y0 * m + y1) * m + y2 for y0, y1, y2 in pc.occupied_in_box(lo, hi)}
    steps = [(b0 * m + b1) * m + b2 for b0, b1, b2 in ball_sites(d2)]
    keys = [(x0 * m + x1) * m + x2 for x0, x1, x2 in window]
    near = [[k + s for s in steps if k + s in occupied] for k in keys]
    index = {y: k for k, y in enumerate(sorted({y for ys in near for y in ys}))}
    cover = [sum(1 << index[y] for y in ys) for ys in near]
    return window, conflict_masks(window, d2), cover


def window_census(
    pc: PeriodicConfiguration,
    d2: int = 5,
    layers: int = 2,
    radius_sq: int = 8,
) -> WindowCensus:
    """Reduce every admissible insertion set of energy <= 2 in a bounded window.

    The window holds the vacant sites of the radius_sq ball around the origin
    whose level along the layering diagonal lies in the first `layers`
    layers. A nonempty admissible set X of window sites has the energy
    E(X) = |C(X)| - |X|, C(X) being the particles it repels. The sets are
    counted, not visited: sets_scanned is the number of nonempty admissible
    sets, from lattice.count_independent_sets. Those of energy <= 2 are
    reduced, and the census records the reduced nonempty survivors. The
    expected outcome on a layered perfect background is that each survivor
    is a single lowest-type in-plane insertion.

    The work grows steeply with the window, so it is bounded. Before the
    search starts, the count refuses a window whose sets take more than
    lattice.COUNT_STATES_MAX states to count. The search then stops when it
    has visited more than WINDOW_VISITS_MAX sets or reduced more than
    WINDOW_REDUCTIONS_MAX. Its time depends on what it visits, not on how
    many sets the window has. How much its bounds prune depends on the
    background: at 2 layers and squared radius 16, hcp has 1.4e9 sets and
    the search visits 1,613 of them, while the holed hcp supercell has
    1.5e9 and the search visits 76,841 (about 2 s). Each refusal raises
    ValueError.

    Only sets that can have energy <= 2 are searched. With the window
    sites as indices and the particles each repels as its cover, E(X) is
    the excess of lattice.independent_sets, and its search with limit 2
    visits every X with E(X) <= 2. It prunes by a lower bound on the
    energy of the sets below a node, the energy X already has plus the
    least that each site can add to it, whose proof its docstring gives.
    The exact energy is tested before any set is reduced.

    The search takes the sites in lexicographic order, the count sorted by
    (3 x0 - e.x, x), e the layering diagonal; a count is exact in any order.
    Its states are the sites left open after a prefix of the order, so
    their number follows the boundary of that prefix. Every main diagonal
    has e0 = 1, so each plane 3 x0 - e.x = c contains e and the boundary
    runs across the layers: the benchmark's two hcp windows take 1,263 and
    667 states, against 2,529 and 1,477 in lexicographic order. On one
    layer e.x is constant, so the key orders the sites as x does and the
    count is the lexicographic one.
    """
    window, conflict, cover = _window(pc, d2, layers, radius_sq)
    e = _detect_layering(pc, d2)[0]
    sweep = sorted(window, key=lambda x: (3 * x[0] - _dot(x, e), x))
    sets = count_independent_sets(conflict_masks(sweep, d2)) - 1
    survivors: set[tuple[Site, ...]] = set()
    visits = reductions = 0

    def visit(chosen: list[int], covered: int) -> None:
        nonlocal visits, reductions
        visits += 1
        if visits > WINDOW_VISITS_MAX:
            raise ValueError(
                f"a window census visits at most {WINDOW_VISITS_MAX} sets; the window of "
                f"layers={layers}, radius_sq={radius_sq} needs more"
            )
        if chosen and covered.bit_count() - len(chosen) <= 2:  # the energy |eta| - |xi|
            reductions += 1
            if reductions > WINDOW_REDUCTIONS_MAX:
                raise ValueError(
                    f"a window census reduces at most {WINDOW_REDUCTIONS_MAX} sets; the window "
                    f"of layers={layers}, radius_sq={radius_sq} needs more"
                )
            ins = InsertionSet(pc, d2, tuple(window[k] for k in chosen))
            red = reduce_insertions(pc, ins, d2)
            if red.sites:
                survivors.add(red.sites)

    independent_sets(conflict, cover, visit, limit=2, sites=window)
    uniq = sorted(survivors)
    return WindowCensus(
        window_sites=len(window),
        sets_scanned=sets,
        low_energy_terminal=tuple(uniq),
        all_terminal_iia=all(len(s) == 1 and _insertion_type(pc, s[0], pc.occupied_near(s[0], d2), d2)
                             == InsertionType.IIA for s in uniq),
    )
