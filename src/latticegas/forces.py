"""Repelling-force tables on lattice balls and their exhaustive verification.

For each supported exclusion threshold d2 there is a rational force table
f(q) on squared distances q inside a finite ball. The defining property,
checked exhaustively here, is that the maximum total force collected at the
ball center over ALL admissible occupancy patterns of the ball is exactly 1,
and the patterns achieving 1 are the locally densest ones. The check is a
fold over merged states that accounts for every pattern without visiting
one (verify_forces); the per-pattern search is the oracle of the tests.

All arithmetic is exact and nothing here is floating point. Every table
has a small common denominator (at most 24), so the arithmetic runs on
integers: a ForceTable holds f(q) * den, den the least common denominator
of the table, and every force sum is an integer sum. Fractions are built
only at the boundary, for the values the API returns.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .lattice import (
    ORIGIN,
    Record,
    Site,
    ball_sites,
    conflict_masks,
    count_independent_sets,
    fold_independent_sets,
    independent_sets,
    sq_dist,
)

_F = Fraction

FORCE_TABLES: dict[int, dict[int, Fraction]] = {
    2: {0: _F(1), 1: _F(1, 6)},
    3: {0: _F(1), 1: _F(1, 6), 2: _F(1, 6)},
    4: {0: _F(1), 1: _F(1, 2), 2: _F(1, 4), 3: _F(1, 8)},
    5: {0: _F(1), 1: _F(2, 3), 2: _F(1, 3)},
    6: {0: _F(1), 1: _F(2, 3), 2: _F(1, 3), 3: _F(1, 8), 4: _F(1, 6), 5: _F(1, 24)},
    8: {0: _F(1), 1: _F(1, 2), 2: _F(1, 4), 3: _F(1, 4), 4: _F(1, 6), 5: _F(1, 8), 6: _F(1, 8)},
    9: {0: _F(1), 1: _F(2, 3), 2: _F(1, 2), 3: _F(1, 4), 4: _F(1, 6), 5: _F(1, 6), 6: _F(1, 12)},
    10: {0: _F(1), 1: _F(5, 6), 2: _F(1, 2), 3: _F(1, 2), 4: _F(1, 3), 5: _F(1, 6), 6: _F(1, 6)},
    12: {0: _F(1), 1: _F(1), 2: _F(3, 4), 3: _F(1, 2), 4: _F(1, 2), 5: _F(1, 4), 6: _F(1, 8)},
}

# Squared ball radius (strict bound) per exclusion threshold: each table is
# keyed by every squared distance below it, in order, so its length.
BALL_RADIUS_SQ: dict[int, int] = {d2: len(table) for d2, table in FORCE_TABLES.items()}

SUPPORTED_D2 = tuple(sorted(FORCE_TABLES))


class UnsupportedThresholdError(ValueError):
    """Raised for exclusion thresholds with no known repelling-force table."""


class ForceTable(Record):
    """A rational force profile f(q) on the ball of a given exclusion threshold,
    held as integers: f(q) = weights[q] / den for 0 <= q < ball_radius_sq,
    den the least common denominator of the table's forces."""

    d2: int
    ball_radius_sq: int
    den: int
    weights: tuple[int, ...]


@lru_cache(maxsize=None)
def force_table(d2: int) -> ForceTable:
    """The table of d2, which must be an int of SUPPORTED_D2: a bool, or a
    float or Fraction equal to one, is refused too. Every d2-keyed cache of
    this module reads through here, so none is keyed by anything else."""
    if type(d2) is not int or d2 not in FORCE_TABLES:
        raise UnsupportedThresholdError(
            f"no repelling-force table known for d2={d2!r}; supported: {SUPPORTED_D2}"
        )
    table = FORCE_TABLES[d2]
    den = math.lcm(*(f.denominator for f in table.values()))
    return ForceTable(d2, BALL_RADIUS_SQ[d2], den, tuple(int(f * den) for f in table.values()))


@lru_cache(maxsize=None)
def normalization_constant(d2: int) -> Fraction:
    """Total force collected over the whole ball: sum of f(sq_dist) over ball sites."""
    ft = force_table(d2)
    w = ft.weights
    return Fraction(sum(w[sq_dist(s, ORIGIN)] for s in ball_sites(ft.ball_radius_sq)), ft.den)


def enumerate_ball_acs(
    d2: int, visitor: Optional[Callable[[tuple[Site, ...]], None]] = None
) -> int:
    """Enumerate every admissible occupancy pattern of the d2-ball.

    Patterns are subsets of the ball (the empty set included) whose pairwise
    squared distances are all >= d2. The visitor, if given, is called once
    per pattern with the sites in lexicographic order. Returns the count,
    which lattice.count_independent_sets takes without visiting.
    """
    sites, conflict = _ball(force_table(d2))[:2]
    if visitor is not None:
        independent_sets(conflict, [0] * len(sites), lambda chosen, _: visitor(tuple(sites[i] for i in chosen)))
    return count_independent_sets(conflict)


class BallSearchReport(Record):
    """Outcome of the exhaustive force search over one ball."""

    d2: int
    config_count: int
    fstar: Fraction
    second_max: Fraction
    max_occupancy: int
    signatures: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=len(SUPPORTED_D2))
def _ball(ft: ForceTable) -> tuple[tuple[Site, ...], list[int], list[int], list[int], list[int]]:
    """What the searches of the ball of ft read and never change, built once
    per table, so at most once per supported d2: its sites, their conflict
    masks (lattice.conflict_masks), each site's unit place[q] of the mixed
    radix of verify_forces, q its squared distance, and that radix's bases
    and places, one per shell. A shell's base is the bit length of the
    signatures of lattice.fold_independent_sets over its sites with unit 1,
    which is one more than the largest set size. Keyed by the table, so a
    d2 force_table refuses never reaches the cache."""
    sites = ball_sites(ft.ball_radius_sq)
    dists = [sq_dist(s, ORIGIN) for s in sites]
    conflict = conflict_masks(sites, ft.d2)
    ones = [1] * len(sites)
    bases = [fold_independent_sets(conflict, ones, [i for i, q in enumerate(dists) if q == s])[1].bit_length()
             for s in range(len(ft.weights))]
    place = list(itertools.accumulate(reversed(bases), operator.mul, initial=1))[-2::-1]
    return sites, conflict, [place[q] for q in dists], bases, place


@lru_cache(maxsize=None)
def verify_forces(d2: int) -> BallSearchReport:
    """Exhaustively check the ball's admissible patterns and report the force extremes.

    fstar is the maximum total force over all admissible patterns,
    second_max the largest strictly smaller total, max_occupancy the largest
    pattern size, and signatures the sorted squared-distance multisets of
    the patterns whose total force equals 1 exactly.

    Every admissible pattern is accounted for, yet none is visited: the
    fold of lattice.fold_independent_sets runs over merged states and
    returns the count and the set of signatures, a pattern's signature being
    the sum of place[q] over its sites, q each site's squared distance. The
    ball, its conflicts and the radix below are built once per d2 (_ball);
    the fold runs on every call, so cache_clear makes the next call search
    the ball again.
    Everything reported is a function of the distance multiset, that is of
    the counts n[q] of the pattern's sites on each shell q. The fold obeys
    lattice.COUNT_STATES_MAX; the balls take at most 3,761 states (d2 = 8).

    No digit carries. base[q] is one more than the most sites of shell q
    that an admissible pattern holds (the fold over shell q alone), so
    n[q] < base[q], and place[q] is the product of base[q'] over q' > q.
    The signature sum of n[q] * place[q] is then the mixed-radix numeral
    with digits n[q], so distinct multisets have distinct signatures and
    divmod by the bases reads the counts back. The outer shells take the
    low places, which keeps the carried bitsets narrower than the other way
    round (at most 17,640 bits, at d2 = 8).

    The totals run on the table's integer weights, so a total of exactly 1
    reads as ft.den.
    """
    ft = force_table(d2)
    den, shells = ft.den, range(ft.ball_radius_sq)
    _, conflict, units, bases, place = _ball(ft)
    count, sigs = fold_independent_sets(conflict, units, range(len(conflict)))
    totals: dict[int, list[list[int]]] = {}  # total weight -> the shell counts of its patterns
    while sigs:
        sig = sigs.bit_length() - 1
        sigs ^= 1 << sig
        counts = [sig // place[q] % bases[q] for q in shells]
        totals.setdefault(sum(map(operator.mul, counts, ft.weights)), []).append(counts)
    best = max(totals)
    multisets = (tuple(sorted(q for q in shells for _ in range(c[q]))) for c in totals.get(den, ()))
    return BallSearchReport(
        d2=d2,
        config_count=count,
        fstar=Fraction(best, den),
        second_max=Fraction(max(totals.keys() - {best}), den),
        max_occupancy=max(sum(counts) for group in totals.values() for counts in group),
        signatures=tuple(sorted(multisets)),
    )


@lru_cache(maxsize=None)
def peierls_gap(d2: int) -> Fraction:
    """1 minus the second largest total force; the energy cost per deficient
    site. Built once per d2, like normalization_constant: verify_forces's
    cache_clear leaves it cached, and peierls_gap.cache_clear too makes the
    next call search the ball again."""
    return Fraction(1) - verify_forces(d2).second_max
