"""The named dense families, their censuses, and the sliding witness."""

from fractions import Fraction
from functools import partial

import pytest

from hypothesis import given
from hypothesis import strategies as st

from latticegas.configs import canonicalize, density, is_perfect
from latticegas.families import (
    COUNTABLE_MARKER,
    build_bcc,
    build_cubic,
    build_d4_family,
    build_fcc,
    build_layered_2l2,
    build_layered_d5,
    build_layered_d6_rhombic,
    build_layered_d6_tri,
    build_phi9,
    build_phi10,
    census_marker,
    densest_density,
    hcp_census,
    pc_census,
    sliding_witness,
    table_densities,
)
from latticegas.families import _census_seeds, _count_translates
from latticegas.lattice import oh_elements
from oracles import configs_equal, sliding_witness_by_scan, translate, translates_by_walk
from reference_data import CENSUS, CONSTRUCTORS, NORMALIZATION


def test_every_constructor_is_perfect_with_reciprocal_density():
    for d2, entries in CONSTRUCTORS.items():
        target = Fraction(1, NORMALIZATION[d2])
        for label, build in entries:
            pc = build()
            assert density(pc) == target, (d2, label)
            assert is_perfect(pc, d2), (d2, label)


def test_basic_cell_volumes():
    assert build_cubic(1).det == 1
    assert build_fcc(1).det == 2
    assert build_fcc(2).det == 16
    assert build_bcc(2).det == 4
    assert build_bcc(4).det == 32
    assert build_d4_family().det == 8
    assert build_phi9(1, 0).det == 20
    assert build_phi10(0, 0).det == 26


def test_layered_cell_volumes():
    assert build_layered_d5(0, "01").det == 18
    assert build_layered_d5(0, "012").det == 9
    assert build_layered_d5(0, "0102").det == 36
    assert build_layered_d6_tri(0, "021").det == 36
    assert build_layered_d6_rhombic(0, "01").det == 12
    assert build_layered_2l2(3, 0, "01").det == 108


def test_fcc_like_word_collapses_to_one_offset():
    pc = build_layered_d5(0, "012")
    assert len(pc.offsets) == 1
    assert pc.basis == ((1, 0, 5), (0, 1, 2), (0, 0, 9))


def test_small_scale_layered_coincides_with_close_packing():
    assert configs_equal(build_layered_2l2(1, 0, "012"), build_fcc(1))


def test_bcc_needs_even_side():
    with pytest.raises(ValueError):
        build_bcc(3)


def test_layer_words_validate():
    cases = [
        (build_layered_d5, "00", "consecutive layer labels must differ"),
        (build_layered_d5, "011", "consecutive layer labels must differ"),
        # cyclic adjacency counts too, and a period-1 word meets itself
        (build_layered_d5, "010", "consecutive layer labels must differ"),
        (build_layered_d5, "0", "consecutive layer labels must differ"),
        # the first digit is pinned
        (build_layered_d5, "12", "layer sequences start at label 0"),
        (build_layered_d5, "", "empty digit sequence"),
        (build_layered_d5, "03", "digits outside the d5-triangular alphabet"),
        (build_layered_d6_tri, "071", "digits outside the d6-triangular alphabet"),
        (build_layered_d6_rhombic, "03", "digits outside the d6-rhombic alphabet"),
        (build_layered_d5, "0a", "invalid literal for int"),
        (partial(build_layered_2l2, 3), "03", "digits outside the 2l2-triangular alphabet"),
        # the period row len(word) * step / den must be integral
        (build_layered_d6_tri, "0102", "period row"),
        (build_layered_d6_rhombic, "012", "period row"),
        (partial(build_layered_2l2, 2), "01", "period row"),
    ]
    for build, word, message in cases:
        with pytest.raises(ValueError, match=message):
            build(0, word)
    with pytest.raises(ValueError):
        build_layered_d5(4, "01")


def test_d6_word_level_classes():
    # level k = 1 must carry an even digit
    with pytest.raises(ValueError):
        build_layered_d6_tri(0, "012")


def test_d4_combined_shifts_stay_perfect():
    # line shifts and column lifts compose freely without breaking perfection
    pc = build_d4_family(pattern2d=(0, "01"), column_shifts=["01"])
    assert is_perfect(pc, 4)
    assert density(pc) == Fraction(1, 8)


def test_d4_rejects_malformed_patterns():
    with pytest.raises(ValueError):
        build_d4_family(direction=3)
    with pytest.raises(ValueError):
        build_d4_family(pattern2d=(0, "02"))
    with pytest.raises(ValueError):
        build_d4_family(column_shifts=["01", "0"])


def test_phi_orientations_are_distinct():
    variants = {canonicalize(build_phi9(i, l)) for i in (1, 2, 3) for l in (0, 1)}
    assert len(variants) == 6
    variants10 = {canonicalize(build_phi10(i, l)) for i in range(4) for l in (0, 1)}
    assert len(variants10) == 8


def test_censuses():
    assert {d2: pc_census(d2) for d2 in (2, 3, 8, 9, 10, 12)} == CENSUS
    for d2 in (4, 5, 6):
        assert pc_census(d2) == COUNTABLE_MARKER


def test_hcp_family_size():
    assert hcp_census() == 72


@pytest.mark.parametrize("d2", sorted(CENSUS))
def test_census_matches_the_translate_walk(d2):
    images = [canonicalize(pc.transform(g)) for pc in _census_seeds(d2) for g in oh_elements()]
    assert pc_census(d2) == translates_by_walk(images)


def test_hcp_census_matches_the_translate_walk():
    images = [build_layered_d5(i, word) for i in range(4) for word in ("01", "02")]
    assert hcp_census() == translates_by_walk(images)


BUILDS = [build for entries in CONSTRUCTORS.values() for _, build in entries]
shift = st.tuples(*[st.integers(-20, 20)] * 3)


@given(picks=st.lists(
    st.tuples(st.integers(0, len(BUILDS) - 1), st.integers(0, 47), shift), min_size=1, max_size=4
))
def test_translate_keys_count_translation_classes(picks):
    # translated canonical images, several of one configuration or of one
    # lattice among them: the keys must count what the walk counts
    images = [
        translate(canonicalize(BUILDS[b]().transform(oh_elements()[g])), t) for b, g, t in picks
    ]
    assert _count_translates(images) == translates_by_walk(images)


def test_census_marker_covers_close_packing_thresholds():
    assert census_marker(9) == 120
    assert census_marker(4) == COUNTABLE_MARKER
    assert census_marker(18) == COUNTABLE_MARKER
    assert census_marker(32) == 128
    with pytest.raises(ValueError):
        census_marker(7)


def test_densest_densities():
    for d2, c in NORMALIZATION.items():
        assert densest_density(d2) == Fraction(1, c)
    assert densest_density(18) == Fraction(1, 54)
    assert densest_density(32) == Fraction(1, 128)
    with pytest.raises(ValueError):
        densest_density(7)


def test_density_table_rows():
    rows = table_densities((3,))
    by_d2 = {d2: (marker, dens) for d2, marker, dens in rows}
    assert by_d2[9] == (120, Fraction(1, 20))
    assert by_d2[4] == (COUNTABLE_MARKER, Fraction(1, 8))
    assert by_d2[18][1] == Fraction(1, 54)
    assert list(by_d2) == sorted(by_d2)


@pytest.mark.parametrize("l", range(1, 7))
def test_densest_density_at_2l2_matches_the_built_packing(l):
    pc = build_layered_2l2(l, 0, "01") if l % 3 == 0 else build_fcc(l)
    assert densest_density(2 * l * l) == density(pc)


def test_sliding_witness_small_values():
    # odd lifts strand one l-by-l face of ambient sites; even lifts none
    for l in range(1, 12):
        for n in range(1, 14):
            assert sliding_witness(l, n) == sliding_witness_by_scan(l, n) == (l * l if n % 2 else 0)


def test_sliding_witness_within_linear_bound():
    for l in (1, 2, 3):
        for n in (1, 10, 49, 100):
            assert sliding_witness(l, n) <= 2 * l * l
