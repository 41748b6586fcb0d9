"""The library against a cheap subset of the benchmark's recorded expectations
(perfbench/expected/search.json and cells.json): the ball search at d2 = 5,
the hcp window census of 3 layers and squared radius 8, the det and
shift_count rows of the four cells supercells, and the sublattice entry
for l = 45. The files are read, never written: a mismatch is a change of
output, not a reason to re-record them.

The tables below are this module's copies of the benchmark's own
(perfbench/workloads.py), which is not imported, since importing it loads
subprocess, resource and more.
"""

import hashlib
import json
import pathlib

import pytest

from latticegas.configs import make_config, shift_count
from latticegas.excitations import window_census
from latticegas.families import build_fcc, build_layered_d5, build_layered_d6_tri, build_phi10
from latticegas.forces import verify_forces
from latticegas.reporting import frac_str
from latticegas.sublattices import classify_classes, compare_class_counts, fcc_census
from test_configs import _supercell

EXPECTED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "expected"
SUPERCELLS = {
    "hcp-01": (5, lambda: build_layered_d5(0, "01")),
    "tri-021": (6, lambda: build_layered_d6_tri(0, "021")),
    "fcc-2": (8, lambda: build_fcc(2)),
    "phi10-0-0": (10, lambda: build_phi10(0, 0)),
}


def expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))


def test_the_ball_search_at_5_matches_the_recorded_search():
    rep = verify_forces(5)
    assert {
        "config_count": rep.config_count,
        "fstar": frac_str(rep.fstar),
        "second_max": frac_str(rep.second_max),
        "max_occupancy": rep.max_occupancy,
        "signatures": [list(s) for s in rep.signatures],
    } == expected("search")["verify"]["5"]


def test_the_3_8_window_census_matches_the_recorded_search():
    census = window_census(build_layered_d5(0, "01"), 5, 3, 8)
    assert {
        "window_sites": census.window_sites,
        "sets_scanned": census.sets_scanned,
        "survivors": [[list(s) for s in group] for group in census.low_energy_terminal],
        "all_terminal_iia": census.all_terminal_iia,
    } == expected("search")["window"]["3,8"]


@pytest.mark.parametrize("name", SUPERCELLS)
def test_each_supercell_row_matches_the_recorded_cells(name):
    d2, build = SUPERCELLS[name]
    row = expected("cells")["supercells"][name]
    pc = build()
    assert {"det": pc.det, "shift_count": shift_count(pc)} == row
    # the 2x2x2 supercell is the same configuration on a larger cell
    big = make_config(*_supercell(pc, 2), d2)
    assert (big.det, shift_count(big)) == (8 * row["det"], row["shift_count"])


def test_the_sublattices_of_45_match_the_recorded_cells():
    exp = expected("cells")["sublattices"]["45"]
    classes = classify_classes(45)
    assert [
        [c.size, c.stabilizer_order, [list(r) for r in c.representative],
         list(c.parameters) if c.parameters else None]
        for c in classes
    ] == exp["classes"]
    members = [[list(r) for r in m] for c in classes for m in c.members]
    digest = hashlib.sha256(json.dumps(members, separators=(",", ":")).encode()).hexdigest()
    assert digest == exp["members_sha256"]
    cmp = compare_class_counts(45)
    assert {
        "oracle": {str(s): n for s, n in sorted(cmp.oracle.items())},
        "predicted": {str(s): n for s, n in sorted(cmp.predicted.items())},
        "mismatched_sizes": list(cmp.mismatched_sizes),
    } == exp["compare"]
    fcc = fcc_census(45)
    assert [fcc.fcc_sublattices, fcc.pcs_total, fcc.flagged_layered_continuum] == exp["fcc_census"]
