"""Integer lattice geometry: sites, balls, admissible sets, signed permutations.

Everything here is exact integer arithmetic on Z^3. A "ball" is the set of
lattice sites strictly closer (in squared Euclidean distance) to its center
than a given bound; strictness matters because hard-core exclusion is an
open condition on the squared distance.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

Site = tuple[int, int, int]

ORIGIN: Site = (0, 0, 0)


def sq_dist(a: Site, b: Site) -> int:
    """Squared Euclidean distance between two sites."""
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def ball_sites(bound_sq: int, center: Site = ORIGIN) -> list[Site]:
    """All sites y with sq_dist(y, center) < bound_sq, in lexicographic order.

    The bound is strict: ball_sites(1) is just the center, ball_sites(2)
    adds the six axis neighbours, and so on.
    """
    if bound_sq < 1:
        return []
    r = math.isqrt(bound_sq - 1)
    out: list[Site] = []
    for dx in range(-r, r + 1):
        for dy in range(-r, r + 1):
            for dz in range(-r, r + 1):
                if dx * dx + dy * dy + dz * dz < bound_sq:
                    out.append((center[0] + dx, center[1] + dy, center[2] + dz))
    return out


def is_admissible(sites: Iterable[Site], d2: int) -> bool:
    """True iff all pairwise squared distances are >= d2 (hard-core rule)."""
    pts = list(sites)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if sq_dist(pts[i], pts[j]) < d2:
                return False
    return True


def conflict_masks(sites: Sequence[Site], d2: int) -> list[int]:
    """Bit j of entry i is set iff sites i and j are closer than the hard-core distance."""
    n = len(sites)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if sq_dist(sites[i], sites[j]) < d2:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def independent_sets(
    conflict: Sequence[int],
    weight: Sequence[int],
    cover: Sequence[int],
    visit: Callable[[list[int], int, int], None],
    limit: Optional[int] = None,
) -> None:
    """Visit index sets with no two members in conflict, the empty set first.

    Depth-first, lowest index first, so the sets arrive in lexicographic
    order of their sorted index tuples. visit(chosen, total, covered) gets
    the chosen indices in increasing order (a list reused between calls),
    the integer sum of weight over them and the OR of cover over them.

    Without a limit every independent set is visited. With one, the search
    enters the child that adds index i only if
    total + weight[i] + sum(min(0, weight[j]) for j > i) <= limit, so the
    sets visited are the empty set and exactly the independent X with
    total(X) + sum(min(0, weight[j]) for j > max X) <= limit. That bound is
    monotone along the chain of prefixes of X, so no such X is cut off
    above it, and it is at most total(X): every independent X with
    total(X) <= limit is visited.
    """
    n = len(conflict)
    # child i may use only the indices above i that do not conflict with it
    keep = [~(conflict[i] | ((2 << i) - 1)) for i in range(n)]
    chosen: list[int] = []
    if limit is None:
        fits = None
    else:
        # fits[k] is the mask of the k indices of least key, key[i] being
        # weight[i] plus the negative weights above i; the children a node
        # may enter under a budget b are those in fits[bisect_right(keys, b)]
        lows = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            lows[i] = lows[i + 1] + min(0, weight[i])
        key = [weight[i] + lows[i + 1] for i in range(n)]
        order = sorted(range(n), key=key.__getitem__)
        keys = [key[i] for i in order]
        fits = [0] * (n + 1)
        for k, i in enumerate(order):
            fits[k + 1] = fits[k] | (1 << i)

    def rec(avail: int, total: int, covered: int) -> None:
        visit(chosen, total, covered)
        todo = avail if fits is None else avail & fits[bisect_right(keys, limit - total)]
        while todo:
            low = todo & -todo
            i = low.bit_length() - 1
            todo ^= low
            chosen.append(i)
            rec(avail & keep[i], total + weight[i], covered | cover[i])
            chosen.pop()

    rec((1 << n) - 1, 0, 0)


def count_independent_sets(conflict: Sequence[int]) -> int:
    """Number of index sets with no two members in conflict, the empty set included.

    Counts without visiting: with v the lowest index of the available set
    A, count(A) = count(A - v) + count(A - N[v]), where N[v] is v with its
    conflicts, memoized on A. The recursion is as deep as there are indices.
    """
    memo = {0: 1}

    def count(avail: int) -> int:
        c = memo.get(avail)
        if c is None:
            low = avail & -avail
            rest = avail ^ low
            c = count(rest) + count(rest & ~conflict[low.bit_length() - 1])
            memo[avail] = c
        return c

    return count((1 << len(conflict)) - 1)


@dataclass(frozen=True)
class SignedPermutation:
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
