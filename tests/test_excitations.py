"""Excitations over a perfect background: typing, energy, reduction, the
defect-size bound, and the bounded-window census."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegas import configs, excitations
from latticegas.configs import MAIN_DIAGONALS, PeriodicConfiguration, is_perfect, make_config
from latticegas.excitations import (
    InsertionSet,
    InsertionType,
    RemovalSet,
    classify_insertion,
    excitation_report,
    gamma1,
    gamma2,
    iia_census,
    make_insertion,
    peierls_check,
    reduce_insertions,
    repelled_set,
    window_census,
)
from latticegas.excitations import _slab_sites, _window
from latticegas.families import (
    build_bcc,
    build_cubic,
    build_fcc,
    build_layered_2l2,
    build_layered_d5,
    build_phi9,
    build_phi10,
)
from latticegas.forces import peierls_gap
from latticegas import lattice
from latticegas.lattice import _covering, count_independent_sets, sq_dist
import oracles
from reference_data import CONSTRUCTORS, HCP_WINDOW_3_12
from test_configs import _supercell, _supercell_without_one

HCP = build_layered_d5(0, "01")
FCC_LIKE = build_layered_d5(0, "012")


def test_insertion_set_validation():
    with pytest.raises(ValueError):
        make_insertion(HCP, 5, [(0, 0, 0)])  # occupied
    with pytest.raises(ValueError):
        make_insertion(HCP, 5, [(0, 2, 1), (0, 2, 1)])  # duplicate
    with pytest.raises(ValueError):
        make_insertion(HCP, 5, [(0, 2, 1), (0, 2, 2)])  # mutual conflict


def test_lowest_insertion_on_hcp():
    site = (0, 2, 1)
    assert classify_insertion(HCP, site, 5) == InsertionType.IIA
    ins = make_insertion(HCP, 5, [site])
    assert len(repelled_set(HCP, ins, 5)) == 3
    rep = excitation_report(HCP, ins, 5)
    assert rep.energy == 2
    assert rep.inserted_count == 1
    assert rep.type == InsertionType.IIA
    assert set(rep.excesses.values()) == {Fraction(2, 3)}
    assert rep.background_perfect


def test_between_plane_insertion_on_hcp():
    site = (0, 0, 1)
    assert classify_insertion(HCP, site, 5) == InsertionType.I
    rep = excitation_report(HCP, make_insertion(HCP, 5, [site]), 5)
    assert rep.energy == 3
    assert len(rep.repelled) == 4


def test_cell_type_histograms():
    def histogram(pc):
        out: dict[str, int] = {}
        for x in oracles.cell(pc):
            if pc.contains(x):
                continue
            kind = classify_insertion(pc, x, 5)
            out[kind] = out.get(kind, 0) + 1
        return out

    assert histogram(HCP) == {InsertionType.I: 12, InsertionType.IIC: 2, InsertionType.IIA: 2}
    assert histogram(FCC_LIKE) == {InsertionType.I: 6, InsertionType.IIB: 2}


def test_iia_densities():
    assert iia_census(HCP) == (2, Fraction(1, 9))
    assert iia_census(FCC_LIKE) == (0, Fraction(0))
    assert iia_census(build_layered_d5(0, "0102")) == (2, Fraction(1, 18))
    big = build_layered_2l2(3, 0, "01")
    count, dens = iia_census(big, 3)
    assert dens == Fraction(count, big.det)


@pytest.mark.parametrize("pc, l", [
    *((build_layered_d5(i, word), None) for i in range(4)
      for word in ("01", "02", "012", "021", "0102", "0121", "01020121")),
    (build_layered_2l2(3, 0, "01"), 3),
    (build_layered_2l2(3, 0, "0102"), 3),
    (build_layered_2l2(6, 0, "01"), 6),
    (build_layered_2l2(6, 0, "012"), 6),
])
def test_iia_census_matches_the_cell_scan(pc, l):
    count, dens = iia_census(pc, l)
    assert count == oracles.iia_count_by_scan(pc, 5 if l is None else 2 * l * l)
    assert dens == Fraction(count, pc.det)


def test_pure_removals():
    r1 = excitation_report(HCP, removal=gamma1(HCP, 5), d2=5)
    assert r1.energy == 1 and r1.inserted_count == 0
    r2 = excitation_report(HCP, removal=gamma2(HCP, 5), d2=5)
    assert r2.energy == 2


def test_reduction_examples():
    # a between-plane insertion repels each neighbor singly: reduces away
    terminal = reduce_insertions(HCP, make_insertion(HCP, 5, [(0, 0, 1)]), 5)
    assert terminal.sites == ()
    # the lowest type is already terminal
    iia = make_insertion(HCP, 5, [(0, 2, 1)])
    assert reduce_insertions(HCP, iia, 5).sites == iia.sites


def test_energy_identity_on_random_insertions():
    rng = random.Random(20260819)
    backgrounds = [
        (2, build_fcc(1)),
        (3, build_bcc(2)),
        (5, HCP),
        (9, build_phi9(1, 0)),
        (10, build_phi10(0, 0)),
    ]
    trials = 0
    while trials < 120:
        d2, pc = backgrounds[rng.randrange(len(backgrounds))]
        box = [
            (rng.randrange(-6, 7), rng.randrange(-6, 7), rng.randrange(-6, 7))
            for _ in range(rng.randrange(1, 4))
        ]
        vacant = [s for s in box if not pc.contains(s)]
        try:
            ins = make_insertion(pc, d2, vacant)
        except ValueError:
            continue
        if not ins.sites:
            continue
        rep = excitation_report(pc, ins, d2)
        eta = len(rep.repelled)
        assert rep.energy == eta - len(ins.sites)
        assert sum(rep.excesses.values()) == rep.energy
        assert all(v >= 0 for v in rep.excesses.values())
        trials += 1


def test_peierls_bound_on_samples():
    for d2, entries in CONSTRUCTORS.items():
        if d2 in (4, 6):
            continue  # removal-only samples below cover the gap logic
        pc = entries[0][1]()
        ok, slack = peierls_check(pc, removal=gamma1(pc, d2), d2=d2)
        assert ok and slack >= 0, d2
        ok, slack = peierls_check(pc, removal=gamma2(pc, d2), d2=d2)
        assert ok and slack >= 0, d2


# One perfect background per threshold, its vacant sites near the origin, and
# its occupied sites in a ball wide enough that some lie out of their reach.
BACKGROUNDS = {d2: entries[0][1]() for d2, entries in CONSTRUCTORS.items()}
VACANT = {
    d2: [s for s in oracles.brute_ball(13) if not pc.contains(s)] for d2, pc in BACKGROUNDS.items()
}
OCCUPIED = {d2: [s for s in oracles.brute_ball(64) if pc.contains(s)] for d2, pc in BACKGROUNDS.items()}


@st.composite
def excitations_by_threshold(draw):
    """(pc, d2, insertion, removal): 1-3 admissible vacant insertions, a
    gamma1 removal at a drawn offset, the gamma2 removal, or insertions plus
    a gamma1 at a drawn occupied site out of their reach."""
    d2 = draw(st.sampled_from(sorted(BACKGROUNDS)))
    pc = BACKGROUNDS[d2]
    kind = draw(st.sampled_from(["insert", "gamma1", "gamma2", "both"]))
    if kind == "gamma1":
        return pc, d2, None, gamma1(pc, d2, draw(st.sampled_from(pc.offsets)))
    if kind == "gamma2":
        return pc, d2, None, gamma2(pc, d2)
    sites: list = []
    for s in draw(st.lists(st.sampled_from(VACANT[d2]), min_size=1, max_size=3, unique=True)):
        if all(sq_dist(s, t) >= d2 for t in sites):
            sites.append(s)
    removal = None
    if kind == "both":
        away = [y for y in OCCUPIED[d2] if all(sq_dist(y, s) >= d2 for s in sites)]
        removal = gamma1(pc, d2, draw(st.sampled_from(away)))
    return pc, d2, make_insertion(pc, d2, sites), removal


@given(excitations_by_threshold())
def test_integer_force_sums_match_the_fraction_oracles(case):
    pc, d2, insertion, removal = case
    inserted = insertion.sites if insertion is not None else ()
    removed = removal.sites if removal is not None else ()
    rep = excitation_report(pc, insertion, d2, removal)
    assert (rep.excesses, rep.energy) == oracles.excesses_by_fractions(pc, d2, inserted, removed)
    assert list(rep.excesses) == sorted(rep.excesses)
    assert peierls_check(pc, insertion, d2, removal) == oracles.peierls_by_fractions(
        pc, d2, inserted, removed
    )


def _spread_insertion(pc, d2, n, rng):
    """n vacant sites of the cube |x_t| <= 9, drawn in rng's order and kept
    while they stay pairwise admissible."""
    sites = []
    vacant = [s for s in oracles.brute_ball(244) if max(map(abs, s)) <= 9 and not pc.contains(s)]
    rng.shuffle(vacant)
    for s in vacant:
        if all(sq_dist(s, t) >= d2 for t in sites):
            sites.append(s)
            if len(sites) == n:
                break
    return sites


@pytest.mark.parametrize("d2", sorted(BACKGROUNDS))
def test_excesses_of_large_insertions_match_the_fraction_oracle(d2):
    """Insertions of 2 to 48 sites on each threshold's background, the
    largest also with two removals next to its first site: a particle that
    site repels, and the nearest one it does not."""
    pc, rng = BACKGROUNDS[d2], random.Random(d2)
    for n in (2, 10, 20, 48):
        sites = _spread_insertion(pc, d2, n, rng)
        assert len(sites) == n
        rep = excitation_report(pc, make_insertion(pc, d2, sites), d2)
        assert (rep.excesses, rep.energy) == oracles.excesses_by_fractions(pc, d2, sites)
    x = sites[0]
    around = [y for y in oracles.brute_ball(9 * d2, x) if pc.contains(y)]
    rest = [y for y in around if all(sq_dist(y, s) >= d2 for s in sites)]
    removed = (min(around, key=lambda y: (sq_dist(x, y), y)), min(rest, key=lambda y: (sq_dist(x, y), y)))
    assert sq_dist(x, removed[0]) < d2
    rep = excitation_report(pc, make_insertion(pc, d2, sites), d2, RemovalSet(pc, d2, removed))
    assert (rep.excesses, rep.energy) == oracles.excesses_by_fractions(pc, d2, sites, removed)
    assert rep.excesses[removed[1]] == 1


def test_peierls_known_slacks():
    ok, slack = peierls_check(build_fcc(1), removal=gamma1(build_fcc(1), 2), d2=2)
    assert ok and slack == Fraction(11, 6)
    ok, slack = peierls_check(HCP, make_insertion(HCP, 5, [(0, 2, 1)]), 5)
    assert ok and slack == Fraction(329, 19)
    ok, slack = peierls_check(HCP, removal=gamma2(HCP, 5), d2=5)
    assert ok and slack == Fraction(330, 19)


HOLED = _supercell_without_one(HCP, 5)  # HCP.offsets[0] is its hole


def test_the_contour_bound_refuses_an_imperfect_background():
    # sites near the hole get force below 1 from the background, so H(X) =
    # C * E(X) fails for an excitation there and says nothing for one away
    assert not HOLED.contains(HCP.offsets[0]) and HOLED.contains((1, 5, 9))
    with pytest.raises(ValueError, match="perfect at d2=5"):
        peierls_check(HOLED, make_insertion(HOLED, 5, [HCP.offsets[0]]), 5)
    with pytest.raises(ValueError, match="perfect at d2=5"):
        peierls_check(HOLED, removal=gamma1(HOLED, 5, (1, 5, 9)))


def test_the_excitation_report_flags_an_imperfect_background():
    rep = excitation_report(HOLED, make_insertion(HOLED, 5, [HCP.offsets[0]]), 5)
    assert not rep.background_perfect
    assert rep.energy == len(rep.repelled) - 1


def test_excesses_over_an_imperfect_background_match_the_fraction_oracle():
    """40 sites over the holed hcp supercell, its hole among them."""
    hole = HCP.offsets[0]
    spread = _spread_insertion(HOLED, 5, 60, random.Random(1))
    sites = [hole] + [s for s in spread if sq_dist(s, hole) >= 5][:39]
    assert len(sites) == 40
    rep = excitation_report(HOLED, make_insertion(HOLED, 5, sites), 5)
    assert (rep.excesses, rep.energy) == oracles.excesses_by_fractions(HOLED, 5, sites)
    assert not rep.background_perfect


def _seeded_insertion(pc, d2, vacant, rng):
    """1 to 3 distinct sites drawn from vacant, drawn again until they are
    pairwise admissible."""
    while True:
        sites = rng.sample(vacant, rng.randint(1, 3))
        if all(sq_dist(s, t) >= d2 for s, t in itertools.combinations(sites, 2)):
            return sites


def test_the_excess_table_matches_the_fraction_oracle():
    """Each excess read from the table of excitations._excess_fractions is
    the one the oracle adds up in Fractions: seeded 1-3-site insertions on
    the nine backgrounds of the benchmark and around the hole of the holed
    hcp supercell, and a removal-only report on each background, whose
    every deficit is den."""
    rng = random.Random(31)
    hole = HCP.offsets[0]
    cases = [(pc, d2, VACANT[d2]) for d2, pc in BACKGROUNDS.items()]
    cases.append((HOLED, 5, [s for s in oracles.brute_ball(13, hole) if not HOLED.contains(s)]))
    for pc, d2, vacant in cases:
        for _ in range(20):
            sites = _seeded_insertion(pc, d2, vacant, rng)
            rep = excitation_report(pc, make_insertion(pc, d2, sites), d2)
            assert (rep.excesses, rep.energy) == oracles.excesses_by_fractions(pc, d2, sites)
    for d2, pc in BACKGROUNDS.items():
        removal = RemovalSet(pc, d2, tuple(OCCUPIED[d2][:4]))
        rep = excitation_report(pc, removal=removal)
        assert (rep.excesses, rep.energy) == oracles.excesses_by_fractions(pc, d2, (), removal.sites)
        assert set(rep.excesses.values()) == {1} and rep.energy == 4


def test_the_excess_bookkeeping_fetches_each_inserted_sites_neighbours_once(monkeypatch):
    """On the 4x4x4 hcp supercell, whose admissibility check asks no
    neighbour list, a report and the repelled set each ask one per
    inserted site. A one-site report over hcp reads its type from that
    same list, and the type is classify_insertion's."""
    pc = make_config(*_supercell(HCP, 4))
    sites = _spread_insertion(pc, 5, 40, random.Random(2))
    insertion = make_insertion(pc, 5, sites)
    centers = []
    real = PeriodicConfiguration.occupied_near

    def counted(self, center, radius_sq):
        centers.append(center)
        return real(self, center, radius_sq)

    monkeypatch.setattr(PeriodicConfiguration, "occupied_near", counted)
    repelled = repelled_set(pc, insertion, 5)
    assert centers == list(insertion.sites)
    centers.clear()
    rep = excitation_report(pc, insertion, 5, gamma1(pc, 5))
    assert centers == list(insertion.sites)
    assert set(rep.repelled) == set(repelled) | {pc.offsets[0]}
    for site in ((0, 2, 1), (0, 0, 1)):
        centers.clear()
        rep = excitation_report(HCP, make_insertion(HCP, 5, [site]), 5)
        assert centers == [site]
        assert rep.type == classify_insertion(HCP, site, 5)


FCC1 = build_fcc(1)
FCC2 = build_fcc(2)
HCP_02 = build_layered_d5(0, "02")


def test_a_report_over_a_trusted_background_builds_no_density_and_binds_no_keywords(monkeypatch):
    """A one-site and a three-site report over hcp, whose context 5 is
    trusted, read perfection in integers, so configs.density is never
    called, and build the report positionally, so Record._bind is never
    called. The background is compared by identity first: an insertion made
    over an equal but distinct cell is still accepted, and one made over
    another cell is still refused."""
    one = make_insertion(HCP, 5, [(0, 2, 1)])
    three = make_insertion(HCP, 5, [(-2, -2, -1), (-2, -2, 2), (-2, 0, -2)])
    twin = make_config(HCP.basis, HCP.offsets, 5)
    over_twin = make_insertion(twin, 5, [(0, 2, 1)])
    assert twin == HCP and twin is not HCP
    calls = []
    density, bind = configs.density, lattice.Record._bind
    monkeypatch.setattr(configs, "density", lambda pc: calls.append("density") or density(pc))
    monkeypatch.setattr(lattice.Record, "_bind", lambda self, *args: calls.append("_bind") or bind(self, *args))
    reports = [excitation_report(HCP, insertion, 5) for insertion in (one, three)]
    assert calls == []
    assert [(r.inserted_count, r.energy, len(r.repelled), r.background_perfect) for r in reports] == [
        (1, 2, 3, True), (3, 8, 11, True)]
    assert excitation_report(HCP, over_twin, 5) == reports[0]
    assert calls == []
    with pytest.raises(ValueError, match="insertion was not made over this configuration"):
        excitation_report(HCP, make_insertion(HCP_02, 5, [(0, 0, 1)]), 5)


@pytest.mark.parametrize("pc,insertion,d2,removal,refusal", [
    # fcc(1) is not admissible at 3
    (FCC1, None, 3, gamma1(FCC1, 2), "not d2=3 admissible"),
    # (0, 2, 1) is occupied in the "02" stack and vacant in hcp
    (HCP, None, 5, gamma1(HCP_02, 5, (0, 2, 1)), "removal was made over another configuration"),
    # three sites admissible at 2 that conflict at 8
    (FCC2, make_insertion(FCC2, 2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 8, None,
     "insertion was not made over this configuration at d2=8"),
    (HCP, make_insertion(HCP_02, 5, [(0, 0, 1)]), 5, None,
     "insertion was not made over this configuration at d2=5"),
    # over hcp at 5 this site would repel 5 particles and reduce away
    (HCP, make_insertion(build_cubic(3), 2, [(1, 1, 1)]), 5, None,
     "insertion was not made over this configuration at d2=5"),
], ids=["fcc1-at-3", "removal-from-02", "insertion-at-2-read-at-8", "insertion-into-02",
        "cubic3-insertion-read-over-hcp"])
def test_an_excitation_the_accounting_does_not_cover_is_refused(pc, insertion, d2, removal, refusal):
    with pytest.raises(ValueError, match=refusal):
        excitation_report(pc, insertion, d2, removal)
    with pytest.raises(ValueError, match=refusal):
        peierls_check(pc, insertion, d2, removal)
    if insertion is not None:
        for insertion_only in (repelled_set, reduce_insertions):
            with pytest.raises(ValueError, match=refusal):
                insertion_only(pc, insertion, d2)


def test_gap_feeds_the_bound():
    # the bound is vacuous only if the gap vanished; it never does
    for d2 in (2, 3, 5, 8, 9, 10, 12):
        assert peierls_gap(d2) > 0


def test_window_census_small():
    census = window_census(HCP, 5, layers=2, radius_sq=6)
    assert census.sets_scanned == 3843
    assert len(census.low_energy_terminal) == 6
    assert census.all_terminal_iia
    for survivor in census.low_energy_terminal:
        assert len(survivor) == 1
        assert classify_insertion(HCP, survivor[0], 5) == InsertionType.IIA


@pytest.mark.parametrize("layers,radius_sq", [(2, 6), (2, 8), (1, 12)])
def test_window_census_matches_oracle(layers, radius_sq):
    census = window_census(HCP, 5, layers, radius_sq)
    window_sites, scanned, survivors, all_iia = oracles.window_census(HCP, 5, layers, radius_sq)
    assert census.window_sites == window_sites
    assert census.sets_scanned == scanned
    assert census.low_energy_terminal == survivors
    assert census.all_terminal_iia == all_iia


@pytest.mark.parametrize("pc,d2,layers,radius_sq", [
    (HCP, 5, 2, 6),
    (HCP, 5, 2, 8),
    (HCP, 5, 3, 8),
    (HCP, 5, 2, 10),
    (build_layered_2l2(2, 0, "012"), 8, 2, 12),
    (build_layered_2l2(3, 0, "01"), 18, 2, 20),
], ids=["hcp-2-6", "hcp-2-8", "hcp-3-8", "hcp-2-10", "2l2-l2-012", "2l2-l3-01"])
def test_window_census_matches_the_exhaustive_oracle(pc, d2, layers, radius_sq, monkeypatch):
    # besides the censuses, the pruned search must reduce exactly the sets
    # of energy <= 2 that the exhaustive one reduces
    reduced = {"pruned": [], "exhaustive": []}
    for module, side in ((excitations, "pruned"), (oracles, "exhaustive")):
        def recording(pc, ins, d2, side=side):
            reduced[side].append(ins.sites)
            return reduce_insertions(pc, ins, d2)

        monkeypatch.setattr(module, "reduce_insertions", recording)
    census = window_census(pc, d2, layers, radius_sq)
    assert census == oracles.window_census_exhaustive(pc, d2, layers, radius_sq)
    assert reduced["pruned"] == reduced["exhaustive"]
    assert reduced["pruned"] or not census.low_energy_terminal


@pytest.mark.parametrize("layers,radius_sq", [(2, 6), (2, 8), (3, 8)])
def test_window_census_on_an_imperfect_background(layers, radius_sq):
    # a vacancy of the background survives reduction; classify_insertion
    # rejects it, so it counts as not IIa instead of raising
    holed = _supercell_without_one(HCP, 5)
    census = window_census(holed, 5, layers, radius_sq)
    assert census == oracles.window_census_exhaustive(holed, 5, layers, radius_sq)
    assert not census.all_terminal_iia


def test_hcp_window_census_at_three_layers_and_radius_12():
    census = window_census(HCP, 5, layers=3, radius_sq=12)
    assert census.window_sites == HCP_WINDOW_3_12["window_sites"]
    assert census.sets_scanned == HCP_WINDOW_3_12["sets_scanned"]
    assert census.low_energy_terminal == HCP_WINDOW_3_12["survivors"]
    assert census.all_terminal_iia


@pytest.mark.parametrize("layers,radius_sq,refusal", [
    (3, 17, "more than 200000 states"),  # 145 sites; the count alone would take 330,152 states
    (3, 40, "more than 200000 states"),  # 391 sites; the count would take more than 10**6 states
], ids=["hcp-3-17", "hcp-3-40"])
def test_window_census_refuses_a_window_before_searching_it(layers, radius_sq, refusal, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a refused window census must not search")

    monkeypatch.setattr(excitations, "independent_sets", no_search)
    with pytest.raises(AssertionError, match="must not search"):  # the guard sees a search
        window_census(HCP, 5, 2, 6)
    with pytest.raises(ValueError, match=refusal):
        window_census(HCP, 5, layers, radius_sq)


@pytest.mark.parametrize("pc,layers,radius_sq,budget,used", [
    (HCP, 2, 6, "WINDOW_VISITS_MAX", 38),  # hcp at 2 layers visits 38 sets
    (HCP, 2, 10, "WINDOW_VISITS_MAX", 240),  # the two windows of the benchmark
    (HCP, 3, 8, "WINDOW_VISITS_MAX", 88),
    (_supercell_without_one(HCP, 5), 2, 8, "WINDOW_REDUCTIONS_MAX", 56),  # a vacancy: 56 reductions
], ids=["visits", "visits-2-10", "visits-3-8", "reductions"])
def test_window_census_stops_at_its_search_budget(pc, layers, radius_sq, budget, used, monkeypatch):
    census = window_census(pc, 5, layers, radius_sq)
    monkeypatch.setattr(excitations, budget, used)
    assert window_census(pc, 5, layers, radius_sq) == census
    monkeypatch.setattr(excitations, budget, used - 1)
    with pytest.raises(ValueError, match=f"at most {used - 1} sets"):
        window_census(pc, 5, layers, radius_sq)


@pytest.mark.parametrize("pc,d2,layers,radius_sq", [
    (HCP, 5, 2, 6), (HCP, 5, 2, 8), (HCP, 5, 1, 12), (HCP, 5, 3, 8), (HCP, 5, 2, 10),
    (HCP, 5, 3, 10), (HCP, 5, 3, 12),
    (build_layered_2l2(2, 0, "012"), 8, 2, 12), (build_layered_2l2(3, 0, "01"), 18, 2, 20),
    (_supercell_without_one(HCP, 5), 5, 2, 6), (_supercell_without_one(HCP, 5), 5, 2, 8),
    (_supercell_without_one(HCP, 5), 5, 3, 8),
    (build_layered_2l2(3, 0, "01"), 18, 2, 30),  # 335 sites, 56 particles, 40 patterns
    (build_fcc(1), 2, 40, 284),  # 5,000 sites, 6,042 particles, 31 patterns
], ids=["hcp-2-6", "hcp-2-8", "hcp-1-12", "hcp-3-8", "hcp-2-10", "hcp-3-10", "hcp-3-12", "2l2-l2-012",
        "2l2-l3-01", "holed-2-6", "holed-2-8", "holed-3-8", "2l2-l3-01-wide", "fcc-40-284"])
def test_k_p_per_pattern_matches_one_fold_per_particle(pc, d2, layers, radius_sq):
    window, conflict, cover = _window(pc, d2, layers, radius_sq)
    assert _covering(conflict, cover, window) == oracles.covering_by_subfolds(conflict, cover)


HOLED = _supercell_without_one(HCP, 5)
D5_0212 = build_layered_d5(1, "0212")  # layered along e = (1, -1, 1)
# Windows over every layered family, one layer and several: the benchmark's
# two, fcc at d2 = 2 with its empty one-layer window, and a vacancy.
WINDOW_GRID = [
    pytest.param(HCP, 5, 2, 10, id="hcp-2-10"),
    pytest.param(HCP, 5, 3, 8, id="hcp-3-8"),
    pytest.param(D5_0212, 5, 1, 12, id="d5-0212-1-12"),
    pytest.param(D5_0212, 5, 2, 10, id="d5-0212-2-10"),
    pytest.param(D5_0212, 5, 3, 10, id="d5-0212-3-10"),
    pytest.param(build_layered_2l2(2, 0, "012"), 8, 1, 16, id="2l2-l2-012-1-16"),
    pytest.param(build_layered_2l2(2, 0, "012"), 8, 2, 12, id="2l2-l2-012-2-12"),
    pytest.param(build_layered_2l2(3, 0, "01"), 18, 1, 30, id="2l2-l3-01-1-30"),
    pytest.param(build_layered_2l2(3, 0, "01"), 18, 2, 20, id="2l2-l3-01-2-20"),
    pytest.param(build_fcc(1), 2, 1, 12, id="fcc1-1-12-empty"),
    pytest.param(build_fcc(1), 2, 3, 20, id="fcc1-3-20"),
    pytest.param(build_fcc(2), 8, 1, 20, id="fcc2-1-20"),
    pytest.param(build_fcc(2), 8, 2, 16, id="fcc2-2-16"),
    pytest.param(HOLED, 5, 1, 12, id="holed-1-12"),
    pytest.param(HOLED, 5, 2, 8, id="holed-2-8"),
    pytest.param(HOLED, 5, 3, 8, id="holed-3-8"),
]


def _states(monkeypatch, count) -> int:
    """The states the counts run by count() expand, as lattice._within_budget
    sees them: the running total of its last call."""
    seen = [0]
    real = lattice._within_budget

    def recording(expanded, n):
        seen[0] = expanded
        return real(expanded, n)

    with monkeypatch.context() as m:
        m.setattr(lattice, "_within_budget", recording)
        count()
    return seen[0]


def _census_count(monkeypatch, pc, d2, layers, radius_sq) -> tuple[int, int]:
    """sets_scanned of the window census, and the states its count expands;
    the search, whose K_p folds expand states too, is left out."""
    with monkeypatch.context() as m:
        m.setattr(excitations, "independent_sets", lambda *args, **kwargs: None)
        out = []
        states = _states(m, lambda: out.append(window_census(pc, d2, layers, radius_sq).sets_scanned))
    return out[0], states


@pytest.mark.parametrize("pc,d2,layers,radius_sq", WINDOW_GRID)
def test_the_window_matches_the_per_site_lookups(pc, d2, layers, radius_sq, monkeypatch):
    # the covers come from one box and the count takes the sites along the
    # layers; the per-site lookups and a lexicographic count agree
    window, conflict, cover = _window(pc, d2, layers, radius_sq)
    assert (window, conflict, cover) == oracles.window_by_lookups(pc, d2, layers, radius_sq)
    assert _census_count(monkeypatch, pc, d2, layers, radius_sq)[0] == count_independent_sets(conflict) - 1


@pytest.mark.parametrize("layers,radius_sq,states", [(2, 10, 1263), (3, 8, 667)])
def test_the_census_counts_the_bench_windows_across_the_layers(layers, radius_sq, states, monkeypatch):
    # in lexicographic order the count takes 2,529 and 1,477 states
    assert _census_count(monkeypatch, HCP, 5, layers, radius_sq)[1] == states


@pytest.mark.parametrize("pc,d2,layers,radius_sq", WINDOW_GRID)
def test_the_sweep_count_takes_no_more_states_than_the_lexicographic_one(pc, d2, layers, radius_sq, monkeypatch):
    # exactly as many on one layer, where the two orders are one; so a
    # window the lexicographic count accepts is never refused
    conflict = _window(pc, d2, layers, radius_sq)[1]
    lexicographic = _states(monkeypatch, lambda: count_independent_sets(conflict))
    sweep = _census_count(monkeypatch, pc, d2, layers, radius_sq)[1]
    assert sweep == lexicographic if layers == 1 else sweep <= lexicographic


WINDOW_3_10 = _window(HCP, 5, 3, 10)
MOST_3_10 = {p: k for p, (_, k) in _covering(*WINDOW_3_10[1:]).items()}


@settings(max_examples=400)
@given(seed=st.integers(0, 2 ** 32), whole=st.booleans(), empty=st.booleans())
def test_window_energy_is_at_least_the_weight_sum(seed, whole, empty):
    # the lemma behind the census's bounds: for admissible X + Y,
    # E(X + Y) >= E(X) + sum of m_X(y) over Y, where m_X(y) is the sum of
    # 1/K_p over the particles y repels and X does not, minus 1. With X
    # empty, m_X(y) is the weight of y. X + Y is a maximal admissible set,
    # built greedily in random order, or a prefix; the maximal ones are
    # where an overestimated 1/K_p shows. X is a prefix of that.
    window, conflict, cover = WINDOW_3_10
    rng = random.Random(seed)
    chosen: list[int] = []
    for k in rng.sample(range(len(window)), len(window)):
        if not any(conflict[k] >> j & 1 for j in chosen):
            chosen.append(k)
    if not whole:
        chosen = chosen[:rng.randint(1, len(chosen))]
    cut = 0 if empty else rng.randint(1, len(chosen))

    def energy(ks):
        ins = make_insertion(HCP, 5, [window[k] for k in ks])
        return len(repelled_set(HCP, ins, 5)) - len(ins.sites)

    covered = 0
    for k in chosen[:cut]:
        covered |= cover[k]

    def marginal(y):
        return sum(Fraction(1, k) for p, k in MOST_3_10.items() if (cover[y] & ~covered) >> p & 1) - 1

    assert energy(chosen) >= energy(chosen[:cut]) + sum(marginal(y) for y in chosen[cut:])


@given(
    center=st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    e=st.sampled_from(MAIN_DIAGONALS),
    hi=st.integers(-3, 14),
    radius_sq=st.integers(0, 40),
)
def test_the_slab_sites_are_the_cube_scan_of_the_slab(center, e, hi, radius_sq):
    slab = list(_slab_sites(center, e, hi, radius_sq))
    assert len(slab) == len(set(slab))
    assert sorted(slab) == sorted(
        x for x in oracles.brute_ball(radius_sq + 1, center)
        if 0 <= sum(a * b for a, b in zip(x, e)) <= hi
    )


def test_window_census_needs_a_layer():
    for layers in (0, -1):
        with pytest.raises(ValueError):
            window_census(HCP, 5, layers=layers, radius_sq=6)


def test_insertion_near_the_seam_still_accounts():
    # exercise sites far from the cell used to build the background
    pc = build_layered_d5(2, "02")
    assert is_perfect(pc, 5)
    far = None
    for cand in oracles.brute_ball(9, (7, -5, 11)):
        if not pc.contains(cand):
            try:
                make_insertion(pc, 5, [cand])
                far = cand
                break
            except ValueError:
                continue
    assert far is not None
    rep = excitation_report(pc, make_insertion(pc, 5, [far]), 5)
    assert rep.energy == len(rep.repelled) - 1
    assert sq_dist(far, (0, 0, 0)) > 36
