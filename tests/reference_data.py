"""Frozen expected values shared by the unit and acceptance tests.

Everything here was either hand-checked against the published reference
tables or produced once by the independent oracles in oracles.py and
frozen. Tests import from here so the expectations live in one place.
"""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction
from typing import Callable

from latticegas.configs import PeriodicConfiguration
from latticegas.families import (
    build_bcc,
    build_d4_family,
    build_fcc,
    build_layered_2l2,
    build_layered_d5,
    build_layered_d6_rhombic,
    build_layered_d6_tri,
    build_phi9,
    build_phi10,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


# Ball sizes quoted alongside the force tables.
BALL_COUNTS = {2: 7, 3: 19, 4: 27, 6: 57, 7: 81}

# The nine repelling-force tables; distances with zero force are spelled
# out so the tests pin the whole support.
FORCE_VALUES: dict[int, dict[int, Fraction]] = {
    2: {0: Fraction(1), 1: Fraction(1, 6)},
    3: {0: Fraction(1), 1: Fraction(1, 6), 2: Fraction(1, 6)},
    4: {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 8)},
    5: {0: Fraction(1), 1: Fraction(2, 3), 2: Fraction(1, 3), 3: Fraction(0), 4: Fraction(0)},
    6: {0: Fraction(1), 1: Fraction(2, 3), 2: Fraction(1, 3), 3: Fraction(1, 8),
        4: Fraction(1, 6), 5: Fraction(1, 24)},
    8: {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4),
        4: Fraction(1, 6), 5: Fraction(1, 8), 6: Fraction(1, 8)},
    9: {0: Fraction(1), 1: Fraction(2, 3), 2: Fraction(1, 2), 3: Fraction(1, 4),
        4: Fraction(1, 6), 5: Fraction(1, 6), 6: Fraction(1, 12), 8: Fraction(0)},
    10: {0: Fraction(1), 1: Fraction(5, 6), 2: Fraction(1, 2), 3: Fraction(1, 2),
         4: Fraction(1, 3), 5: Fraction(1, 6), 6: Fraction(1, 6), 8: Fraction(0),
         9: Fraction(0)},
    12: {0: Fraction(1), 1: Fraction(1), 2: Fraction(3, 4), 3: Fraction(1, 2),
         4: Fraction(1, 2), 5: Fraction(1, 4), 6: Fraction(1, 8), 8: Fraction(0),
         9: Fraction(0), 10: Fraction(0), 11: Fraction(0)},
}

NORMALIZATION = {2: 2, 3: 4, 4: 8, 5: 9, 6: 12, 8: 16, 9: 20, 10: 26, 12: 32}

# Published per-ball occupancy maxima. The exhaustive search disagrees at
# d2=6 (it finds 8); the acceptance test asserts this table as stated and
# is expected to fail on that single entry.
STATED_MAX_OCCUPANCY = {2: 6, 3: 6, 4: 8, 5: 3, 6: 7, 8: 6, 9: 6, 10: 6, 12: 4}

# Hand-transcribed maximal-force signature lists (sorted squared-distance
# multisets of the patterns with total force exactly 1).
EXPECTED_SIGNATURES: dict[int, set[tuple[int, ...]]] = {
    5: {(0,), (1, 2), (2, 2, 2)},
    6: {(0,), (1, 3, 3, 5, 5), (1, 3, 5, 5, 5, 5, 5), (1, 4, 5, 5, 5, 5),
        (2, 2, 2), (2, 2, 4, 4), (2, 4, 4, 4, 4), (4, 4, 4, 4, 4, 4)},
    8: {(0,), (1, 5, 5, 5, 5), (1, 6, 6, 6, 6), (2, 2, 6, 6, 6, 6),
        (3, 3, 3, 3), (4, 4, 4, 4, 4, 4)},
    9: {(0,), (1, 5, 6, 6), (1, 6, 6, 6, 6), (2, 3, 5, 6), (2, 4, 5, 5),
        (2, 5, 5, 5), (2, 5, 5, 6, 6), (4, 4, 5, 5, 5, 5)},
    10: {(0,), (1, 5), (1, 6), (2, 4, 6), (2, 5, 6, 6), (2, 6, 6, 6),
         (3, 3), (3, 4, 5), (3, 4, 6), (3, 5, 5, 5), (3, 5, 5, 6),
         (3, 5, 6, 6), (3, 6, 6, 6), (4, 6, 6, 6, 6), (6, 6, 6, 6, 6, 6)},
    12: {(0,), (1,), (2, 5), (2, 6, 6), (3, 3), (4, 4), (4, 5, 5),
         (4, 5, 6, 6), (5, 5, 5, 5)},
}

CENSUS = {2: 2, 3: 4, 8: 16, 9: 120, 10: 208, 12: 32}

CLASS_HISTOGRAMS = {
    3: {1: 1, 4: 1},
    5: {1: 1, 6: 1},
    7: {1: 1, 8: 1},
    9: {1: 1, 4: 1, 12: 1},
    11: {1: 1, 12: 1},
}
STABILIZER_ORDERS = {48, 12, 8, 6, 4}

# Norms (up to 21) where the closed-form class counts disagree with the
# orbit oracle; empirically this is exactly the multiples of 3.
MISMATCH_LS = {3, 6, 9, 12, 15, 18, 21}

# The hcp window census at 3 layers and squared radius 12, computed once by
# the unpruned oracle (tests/oracles.window_census_exhaustive), which visits
# all 143,255,956 nonempty admissible sets of its 85 sites.
HCP_WINDOW_3_12 = {
    "window_sites": 85,
    "sets_scanned": 143_255_956,
    "survivors": (
        ((-2, 0, 2),), ((-1, 1, 0),), ((-1, 1, 3),), ((0, -1, 1),),
        ((0, 2, -2),), ((0, 2, 1),), ((1, 0, -1),), ((1, 0, 2),),
        ((1, 3, -1),), ((2, -2, 0),), ((2, 1, 0),), ((3, -1, 1),),
    ),
}


# One named constructor per published dense family, keyed by threshold.
# Every entry must build a perfect configuration of density 1/C.
Builder = Callable[[], PeriodicConfiguration]

CONSTRUCTORS: dict[int, list[tuple[str, Builder]]] = {
    2: [("fcc-1", lambda: build_fcc(1))],
    3: [("bcc-2", lambda: build_bcc(2))],
    4: [
        ("columns-trivial", lambda: build_d4_family()),
        ("columns-shifted-lines", lambda: build_d4_family(parity=1)),
        ("columns-shifted-mesh", lambda: build_d4_family(pattern2d=(0, "01"))),
        ("columns-staggered", lambda: build_d4_family(column_shifts=["01", "10"])),
    ],
    5: [
        ("hcp-01", lambda: build_layered_d5(0, "01")),
        ("hcp-02", lambda: build_layered_d5(1, "02")),
        ("fcc-like-012", lambda: build_layered_d5(0, "012")),
        ("mixed-0102", lambda: build_layered_d5(2, "0102")),
    ],
    6: [
        ("tri-021", lambda: build_layered_d6_tri(0, "021")),
        ("tri-041", lambda: build_layered_d6_tri(1, "041")),
        ("rhombic-01", lambda: build_layered_d6_rhombic(0, "01")),
        ("rhombic-0102", lambda: build_layered_d6_rhombic(0, "0102")),
    ],
    8: [
        ("fcc-2", lambda: build_fcc(2)),
        ("layered-2l2-012", lambda: build_layered_2l2(2, 0, "012")),
    ],
    9: [(f"phi9-{i}-{l}", lambda i=i, l=l: build_phi9(i, l))
        for i in (1, 2, 3) for l in (0, 1)],
    10: [(f"phi10-{i}-{l}", lambda i=i, l=l: build_phi10(i, l))
         for i in range(4) for l in (0, 1)],
    12: [("bcc-4", lambda: build_bcc(4))],
}
