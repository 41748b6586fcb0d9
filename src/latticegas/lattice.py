"""Integer lattice geometry: sites, Hermite normal forms, balls, admissible
sets, signed permutations, and Record, the frozen value-type base of every
result class in the package.

Everything here is exact integer arithmetic on Z^3. A "ball" is the set of
lattice sites strictly closer (in squared Euclidean distance) to its center
than a given bound; strictness matters because hard-core exclusion is an
open condition on the squared distance.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from functools import lru_cache
from operator import attrgetter, index
from typing import Callable, Iterable, Iterator, Optional, Sequence

Site = tuple[int, int, int]
Matrix = tuple[Site, Site, Site]

ORIGIN: Site = (0, 0, 0)


def exact_site(entry: Sequence, what: str) -> Site:
    """An integer triple taken exactly: each coordinate goes through
    operator.index, so a float or a Fraction is refused, never truncated.
    A bool, which operator.index takes as 1 or 0, is refused too."""
    try:
        x, y, z = entry
        if bool in (type(x), type(y), type(z)):
            raise TypeError
        return (index(x), index(y), index(z))
    except (TypeError, ValueError):
        raise ValueError(f"{what} {entry!r} is not a triple of integers") from None


def sq_dist(a: Site, b: Site) -> int:
    """Squared Euclidean distance between two sites."""
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def hnf(generators: Iterable[Sequence[int]]) -> Matrix:
    """Row-style Hermite Normal Form of a rank-3 generating set.

    Result is upper triangular with positive diagonal; entries above each
    pivot are reduced into [0, pivot). Raises on rank deficiency and on a
    generator that is not a triple of integers.
    """
    rows = [exact_site(g, "generator") for g in generators]
    work = [list(r) for r in rows if any(r)]
    pivots: list[list[int]] = []
    for col in range(3):
        while True:
            cand = [r for r in work if r[col] != 0]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            base = cand[0]
            for r in cand[1:]:
                q = r[col] // base[col]
                for t in range(3):
                    r[t] -= q * base[t]
        cand = [r for r in work if r[col] != 0]
        if not cand:
            raise ValueError("generators do not span a rank-3 lattice")
        p = cand[0]
        work.remove(p)
        if p[col] < 0:
            p = [-x for x in p]
        pivots.append(p)
        work = [r for r in work if any(r)]
    # reduce entries above each pivot
    for i in (1, 2):
        for j in range(i):
            q = pivots[j][i] // pivots[i][i]
            for t in range(3):
                pivots[j][t] -= q * pivots[i][t]
    return tuple(tuple(r) for r in pivots)  # type: ignore[return-value]


@lru_cache(maxsize=None)
def ball_sites(bound_sq: int) -> tuple[Site, ...]:
    """All sites y with sq_dist(y, ORIGIN) < bound_sq, in lexicographic
    order, as a tuple built once per bound.

    The bound is strict: ball_sites(1) is just the origin, ball_sites(2)
    adds the six axis neighbours, and so on.
    """
    if bound_sq < 1:
        return ()
    r = math.isqrt(bound_sq - 1)
    span = range(-r, r + 1)
    return tuple(
        (dx, dy, dz) for dx in span for dy in span for dz in span
        if dx * dx + dy * dy + dz * dz < bound_sq
    )


def half_ball(d2: int) -> tuple[Site, ...]:
    """The sites b > ORIGIN of the d2-ball, one of each pair +-b of its
    nonzero sites. The ball is symmetric about the origin and sorted, so the
    origin sits in its middle and these are its last half."""
    ball = ball_sites(d2)
    return ball[len(ball) // 2 + 1:]


# An input of at most this many sites or offsets always takes the direct
# loop (see outgrows_ball).
SMALL_INPUT = 8


def outgrows_ball(n: int, bound_sq: int, share: int) -> bool:
    """Whether n sites or offsets are more than SMALL_INPUT plus
    |ball_sites(bound_sq)| / share: the crossover rule of every query with
    two paths. Above it a lookup per site of the ball, or of its half when
    only a yes or no is asked, beats a loop over every site or offset;
    below SMALL_INPUT the fixed cost of an index outweighs any loop. Each
    of the two queries has its own share, measured (see CHANGES.md):
    is_admissible compares pairs or asks conflict_masks (share 4), and
    PeriodicConfiguration.occupied_near walks the ball's columns from every
    offset or reduces the whole ball (share 1). A walk costs each offset
    about one step per column of the ball in its residue class, so cells
    of the same size but other shapes cross over apart. Over the cells
    measured, shares 1 to 3 lost about as much time to the slower path, and
    share 4 twice that: it sends the 64-offset bcc-4 supercell to the
    lookup, which takes twice as long as its walk there.

    A ball of bound d2 >= 1 holds at least d2 sites (it holds the cube of
    side 2 * isqrt((d2 - 1) // 3) + 1), so the first test is implied by the
    second; it only keeps a small input from building a large ball.
    """
    excess = share * (n - SMALL_INPUT)
    return excess > bound_sq and excess > len(ball_sites(bound_sq))


def is_admissible(sites: Iterable[Site], d2: int) -> bool:
    """True iff all pairwise squared distances are >= d2 (hard-core rule):
    pair by pair, or above the crossover (outgrows_ball) no repeated site,
    a pair at distance 0, and no conflict in conflict_masks."""
    pts = list(sites)
    if d2 >= 1 and outgrows_ball(len(pts), d2, 4):
        return len(set(pts)) == len(pts) and not any(conflict_masks(pts, d2))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if sq_dist(pts[i], pts[j]) < d2:
                return False
    return True


def conflict_masks(sites: Sequence[Site], d2: int) -> list[int]:
    """Bit j of entry i is set iff the distinct sites i and j are closer than
    the hard-core distance.

    A site x is keyed (x0 * m + x1) * m + x2, which is linear in x, so x + b
    has the key of x plus the key of b. With m above the sites' coordinate
    span plus twice the ball's largest coordinate, no two points of the
    sites' bounding box grown by the ball share a key, and a dict of keys
    is a site index. Each site's conflicts are looked up in it over the
    half of its hard-core ball above it (half_ball; of a close pair, the
    lower site finds the other), so the cost grows as
    len(sites) * |ball_sites(d2)|, not as the square of len(sites).
    """
    if not sites:
        return []
    m = max(map(max, sites)) - min(map(min, sites)) + 2 * math.isqrt(max(d2 - 1, 0)) + 1
    at = {(x0 * m + x1) * m + x2: k for k, (x0, x1, x2) in enumerate(sites)}
    steps = [(b0 * m + b1) * m + b2 for b0, b1, b2 in half_ball(d2)]
    masks = [0] * len(sites)
    for key, i in at.items():
        for step in steps:
            j = at.get(key + step)
            if j is not None:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _bits(x: int) -> Iterator[int]:
    """The indices of the set bits of x >= 0, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _at_most(key: Sequence[int]) -> tuple[list[int], list[int]]:
    """The keys in increasing order, and masks such that for any b,
    masks[bisect_right(keys, b)] has bit i set iff key[i] <= b."""
    order = sorted(range(len(key)), key=key.__getitem__)
    masks = [0]
    for i in order:
        masks.append(masks[-1] | 1 << i)
    return [key[i] for i in order], masks


def _covering(conflict: Sequence[int], cover: Sequence[int],
              sites: Optional[Sequence[Site]] = None) -> dict[int, tuple[int, int]]:
    """For each bit p set in some cover: the mask of the indices whose covers
    have p, and K_p, the most of them that an independent set holds: the
    top set bit of fold_independent_sets over those indices with unit 1.
    Given the sites whose conflicts these are, K_p is found once per
    pattern: the sites of p's indices taken relative to the first, in index
    order. A translated pattern has the same conflicts."""
    members: dict[int, list[int]] = {}
    for i, c in enumerate(cover):
        for p in _bits(c):
            members.setdefault(p, []).append(i)
    ones, most, out = [1] * len(conflict), {}, {}
    for p, ks in members.items():
        key = tuple(ks) if sites is None else tuple(
            (y0 - x0, y1 - x1, y2 - x2) for x0, x1, x2 in [sites[ks[0]]] for y0, y1, y2 in map(sites.__getitem__, ks))
        if key not in most:
            most[key] = fold_independent_sets(conflict, ones, ks)[1].bit_length() - 1
        out[p] = (sum(1 << k for k in ks), most[key])
    return out


def independent_sets(
    conflict: Sequence[int],
    cover: Sequence[int],
    visit: Callable[[list[int], int], None],
    limit: Optional[int] = None,
    sites: Optional[Sequence[Site]] = None,
) -> None:
    """Visit index sets with no two members in conflict, the empty set first.

    Depth-first, lowest index first, so the sets arrive in lexicographic
    order of their sorted index tuples. visit(chosen, covered) gets the
    chosen indices X in increasing order (a list reused between calls) and
    C(X), the OR of cover over them; the set bits of a cover are the
    particles its index covers.

    Without a limit every independent set is visited. With one, every
    independent X whose excess E(X) = |C(X)| - |X| is at most limit is
    visited, and the search enters a subtree only if a lower bound on the
    excess of its sets allows it. K_p is the most members of an
    independent set whose covers have bit p (_covering; given the sites
    whose conflicts these are, it is found once per pattern of them),
    D = lcm(K_p) and s_p = D / K_p. At the node X, A is the set of indices
    above max X in conflict with nothing in X, and the marginal of an index
    y is D m_X(y) = (sum of s_p over p in C(y) - C(X)) - D.

    Lemma: every independent Y within A has
    D E(X + Y) >= D E(X) + sum over y in Y of D m_X(y). Proof: C(X + Y) is
    C(X) and the bits of C(Y) - C(X). Each such bit p is in the covers of
    at most K_p members of Y, so D = K_p s_p is at least s_p times their
    number, and summed over p, D |C(Y) - C(X)| >= sum over y in Y of the
    sum of s_p over p in C(y) - C(X). Subtracting D |Y| gives the lemma.

    The child that adds index i to X is entered only if
        D E(X) + D m_X(i) + sum over y in A above i of min(0, D m_X(y)) <= D limit.
    Every set below that child is X + {i} + Y with Y within A and above i,
    so the lemma at X bounds its D E from below by the left side. A set of
    excess <= limit passes the test at each of its prefixes and is visited.
    An index y that shares no bit with C(X) has m_X(y) = w(y), the weight
    w(y) being the marginal of y at the empty set, so a node recomputes
    only the marginals of the indices near X.
    """
    n = len(conflict)
    # child i may use only the indices above i that do not conflict with it
    keep = [~(conflict[i] | ((2 << i) - 1)) for i in range(n)]
    chosen: list[int] = []
    weight, reach = [0] * n, [0] * n  # reach[i]: the indices sharing a bit with i
    if limit is not None:
        covering = _covering(conflict, cover, sites)
        den = math.lcm(*(k for _, k in covering.values()))
        cap, share = den * limit, [0] * max(cover, default=0).bit_length()  # share[p]: s_p
        for p, (mask, k) in covering.items():
            share[p] = den // k
            for i in _bits(mask):
                reach[i] |= mask
                weight[i] += share[p]
        weight = [w - den for w in weight]
        weights, light = _at_most(weight)
        negative = sum(1 << i for i in range(n) if weight[i] < 0)

    def admitted(avail: int, covered: int, near: int) -> int:
        """The children of the node chosen that the test admits; near is
        the mask of the indices sharing a bit with C(chosen)."""
        # from the top down, room is D limit - D E(X) minus the negative
        # marginals above, and child i is admitted iff D m_X(i) <= room;
        # only the indices near X or of negative weight are taken one by one
        ok, top, room = 0, n, cap - den * (covered.bit_count() - len(chosen))
        far, t = avail & ~near, avail & (near | negative)
        while t:
            y = t.bit_length() - 1
            t ^= 1 << y
            m, shared = weight[y], cover[y] & covered
            while shared:
                low = shared & -shared
                m -= share[low.bit_length() - 1]
                shared ^= low
            if m <= room:
                ok |= 1 << y
            if m < 0:
                between = far & ((1 << top) - (2 << y))
                if between:
                    ok |= light[bisect_right(weights, room)] & between
                room, top = room - m, y
        return ok | light[bisect_right(weights, room)] & far & ((1 << top) - 1)

    def rec(avail: int, covered: int, near: int) -> None:
        visit(chosen, covered)
        todo = avail if limit is None else admitted(avail, covered, near)
        while todo:
            low = todo & -todo
            i = low.bit_length() - 1
            todo ^= low
            chosen.append(i)
            rec(avail & keep[i], covered | cover[i], near | reach[i])
            chosen.pop()

    rec((1 << n) - 1, 0, 0)


# The most states count_independent_sets or one fold_independent_sets expands
# before it refuses with ValueError. That covers a window census's count, each
# K_p fold of its search (_covering), and each shell base and ball search of
# the forces. The force balls take at most 3,761. A window census counts its
# sets across the layers (excitations.window_census): its hcp windows of 3
# layers take 27,140 states at squared radius 13, 155,720 at 14 (0.3 s on a
# 2-vCPU host), 173,307 at 16, the largest accepted, and 330,152 at 17; at
# squared radius 40 they pass 10**6 (1.7 s, 79 MB).
COUNT_STATES_MAX = 200_000


def _within_budget(expanded: int, n: int) -> int:
    """expanded, if at most COUNT_STATES_MAX; else ValueError."""
    if expanded > COUNT_STATES_MAX:
        raise ValueError(f"counting the conflict-free sets of {n} indices takes more than "
                         f"{COUNT_STATES_MAX} states")
    return expanded


def count_independent_sets(conflict: Sequence[int]) -> int:
    """Number of index sets with no two members in conflict, the empty set included.

    Counts without visiting. A state is the set A of indices still
    available once every index below its lowest one, v, is decided; it
    splits into A - v (v left out) and A - N[v] (v taken), N[v] being v
    with its conflicts, and the empty state ends a set. Equal states are
    merged, each carrying the number of ways to reach it, and are expanded
    in order of v, so each is expanded once and nothing recurses. A state
    waits in slot v + 1, the bit length of its lowest set bit, so the empty
    state waits in slot 0, which is never expanded, and the initial state
    in its own slot (0 when there are no indices); the sets that end by
    taking v, the most common end, are summed at once. More than
    COUNT_STATES_MAX states raise ValueError.
    """
    n = len(conflict)
    waiting: list = [{} for _ in range(n + 1)]  # states by lowest index + 1, with their ways
    waiting[min(n, 1)][(1 << n) - 1] = 1
    done = expanded = 0
    for v in range(n):
        level, waiting[v + 1] = waiting[v + 1], None
        expanded = _within_budget(expanded + len(level), n)
        bit, keep = 1 << v, ~conflict[v]
        for avail, ways in level.items():
            left_out = avail ^ bit
            taken = left_out & keep
            w = waiting[(left_out & -left_out).bit_length()]
            w[left_out] = w.get(left_out, 0) + ways
            if taken:
                w = waiting[(taken & -taken).bit_length()]
                w[taken] = w.get(taken, 0) + ways
            else:
                done += ways
    return done + waiting[0].get(0, 0)


def fold_independent_sets(conflict: Sequence[int], unit: Sequence[int],
                          within: Sequence[int]) -> tuple[int, int]:
    """The number of sets of the indices within (increasing) with no two
    members in conflict, the empty set included, and the bitset of their
    signatures: bit s is set iff some such set X has
    s == sum(unit[i] for i in X), the units being >= 0. With unit 1 the top
    set bit is the largest size of such a set.

    The states are those of count_independent_sets started from the mask
    of within, each carrying [ways, sigs]: sigs has bit s set iff some
    prefix reaching the state has signature s. Leaving v out passes both
    on, taking v shifts sigs up by unit[v], and a merge adds the ways and
    ORs the sigs. A set's signature is the sum over the prefixes along its
    path, so the empty state's bitset holds every signature and no other.
    A state holds only indices of within, so it waits in the slot of its
    lowest index + 1, one slot per index of within and slot 0 for the empty
    state, and the levels are expanded in order of v over within, each
    state once and nothing recursing; more than COUNT_STATES_MAX states
    raise ValueError. Counting alone is left to count_independent_sets,
    which carries no sigs.
    """
    waiting = {v + 1: {} for v in [-1, *within]}  # states by lowest index + 1, with [ways, sigs]
    start = sum(1 << v for v in within)
    waiting[(start & -start).bit_length()][start] = [1, 1]
    expanded = 0
    for v in within:
        level = waiting.pop(v + 1)
        expanded = _within_budget(expanded + len(level), len(within))
        bit, keep, shift = 1 << v, ~conflict[v], unit[v]
        for avail, carried in level.items():
            ways, sigs = carried
            left_out = avail ^ bit
            # the level is dropped, so its lists can move on
            into = waiting[(left_out & -left_out).bit_length()].setdefault(left_out, carried)
            if into is not carried:
                into[0] += ways
                into[1] |= sigs
            taken = left_out & keep
            w = waiting[(taken & -taken).bit_length()]
            into = w.get(taken)
            if into is None:
                w[taken] = [ways, sigs << shift]
            else:
                into[0] += ways
                into[1] |= sigs << shift
    return tuple(waiting[0][0])


_set = object.__setattr__


class Record:
    """Base of the package's immutable value types.

    A subclass's own annotations, in order, are its fields, and a class
    attribute is that field's default. The instance takes the fields
    positionally or by keyword, runs __post_init__, and is then frozen. It
    compares equal only to an instance of exactly its own type with equal
    compared fields (all but those the class keyword `uncompared` names),
    hashes what it compares, and reprs as `Name(field=value, ...)`.

    The values sit in the instance's own attributes, set with
    object.__setattr__, and == and hash read them through one attrgetter:
    the instance __dict__ is never touched, since reading it would make
    every later attribute load slower.
    """

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        if not set(uncompared) <= set(cls._fields):
            raise TypeError(f"{cls.__qualname__} has no fields {set(uncompared) - set(cls._fields)}")
        cls._compared = attrgetter(*(f for f in cls._fields if f not in uncompared))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call that does not pass every field positionally."""
        fields = self._fields
        defaults = vars(self.__class__)
        values = list(args)
        used = 0
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs[f])
                used += 1
            elif f in defaults:
                values.append(defaults[f])
            else:
                raise TypeError(f"{self.__class__.__qualname__} is missing the field {f!r}")
        if len(args) > len(fields) or used != len(kwargs):
            raise TypeError(
                f"{self.__class__.__qualname__} takes the fields {', '.join(fields)}; got "
                f"{len(args)} positionally and {', '.join(kwargs) or 'none'} by keyword"
            )
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class SignedPermutation(Record):
    """An element of the full cubic symmetry group acting on Z^3.

    apply() sends x to y with y[i] = signs[i] * x[perm[i]]; the 48 such maps
    form the symmetry group of the cube, 24 of them orientation-preserving.
    """

    perm: tuple[int, int, int]
    signs: tuple[int, int, int]

    def apply(self, site: Site) -> Site:
        p, s = self.perm, self.signs
        return (s[0] * site[p[0]], s[1] * site[p[1]], s[2] * site[p[2]])

    @property
    def det(self) -> int:
        p = self.perm
        parity = 1 if (p[0], p[1], p[2]) in _EVEN_PERMS else -1
        return parity * self.signs[0] * self.signs[1] * self.signs[2]


_EVEN_PERMS = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def oh_elements() -> list[SignedPermutation]:
    """The 48 signed permutations in a fixed deterministic order.

    The identity comes first; exactly 24 elements have det +1.
    """
    out = []
    for perm in itertools.permutations((0, 1, 2)):
        for signs in itertools.product((1, -1), repeat=3):
            out.append(SignedPermutation(perm, signs))
    return out


def rotation_elements() -> list[SignedPermutation]:
    """The 24 orientation-preserving signed permutations."""
    return [g for g in oh_elements() if g.det == 1]
