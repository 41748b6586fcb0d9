"""Report envelopes: rational strings, deterministic JSON, interchange."""

import json
from fractions import Fraction

import pytest

from latticegas.families import build_fcc, build_layered_d5
from latticegas.reporting import (
    ReportEnvelope,
    config_payload,
    frac_str,
    jsonable,
    parse_config,
    parse_site_list,
    sublattice_csv_rows,
)
from latticegas.sublattices import classify_classes
from oracles import configs_equal


def test_frac_str_always_writes_the_denominator():
    assert frac_str(Fraction(1)) == "1/1"
    assert frac_str(Fraction(2, 4)) == "1/2"
    assert frac_str(Fraction(-3, 9)) == "-1/3"
    assert frac_str(5) == "5/1"
    assert frac_str(Fraction(0)) == "0/1"


def test_jsonable_handles_the_report_vocabulary():
    data = {
        "n": 3,
        "q": Fraction(2, 6),
        "flag": True,
        "tags": ("a", "b"),
        "bag": {2, 1},
        "none": None,
    }
    assert jsonable(data) == {
        "n": 3,
        "q": "1/3",
        "flag": True,
        "tags": ["a", "b"],
        "bag": [1, 2],
        "none": None,
    }
    with pytest.raises(TypeError):
        jsonable(0.5)


def test_envelope_json_is_deterministic():
    env = ReportEnvelope(("pc", "census", "--d2", "9"), {"d2": 9}, {"census": 120})
    assert env.to_json() == env.to_json()
    body = json.loads(env.to_json())
    assert body["command"] == ["pc", "census", "--d2", "9"]
    assert body["results"]["census"] == 120
    assert body["provenance"] == "computed"
    # keys are emitted sorted at every level
    text = env.to_json()
    assert text.index('"command"') < text.index('"inputs"') < text.index('"results"')


def test_envelope_text_rendering():
    env = ReportEnvelope(("x",), {}, {"a": Fraction(1, 2), "b": [1, 2]})
    text = env.to_text()
    assert "a = 1/2" in text
    assert "b = 1 2" in text


def test_config_payload_round_trip():
    pc = build_layered_d5(0, "01")
    data = config_payload(pc)
    assert data["d2"] == 5
    back = parse_config(data)
    assert configs_equal(back, pc)


def test_parse_config_accepts_an_envelope():
    pc = build_fcc(1)
    env = ReportEnvelope(("pc", "build"), {}, config_payload(pc, 2))
    back = parse_config(json.loads(env.to_json()))
    assert configs_equal(back, pc)


def test_parse_config_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        parse_config({"basis": [[1, 0, 0]], "offsets": [[0, 0, 0]]})
    with pytest.raises(ValueError):
        parse_config({"offsets": [[0, 0, 0]]})
    with pytest.raises(ValueError):
        parse_config({"results": {"census": 4}})


@pytest.mark.parametrize("bad", [2.0, 2.9, True, "2", None])
def test_parse_config_accepts_only_json_integers(bad):
    good = {"basis": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "offsets": [[0, 0, 0]], "d2": 2}
    assert parse_config(good).basis == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    with pytest.raises(ValueError):
        parse_config({**good, "basis": [[bad, 0, 0], [0, 2, 0], [0, 0, 2]]})
    with pytest.raises(ValueError):
        parse_config({**good, "offsets": [[0, bad, 0]]})
    if bad is not None:  # a null d2 means "no threshold attached"
        with pytest.raises(ValueError):
            parse_config({**good, "d2": bad})
    with pytest.raises(ValueError):
        parse_site_list([[0, 2, bad]])


def test_parse_site_list_forms():
    assert parse_site_list([[0, 1, 2]]) == [(0, 1, 2)]
    assert parse_site_list({"sites": [[0, 1, 2], [3, 4, 5]]}) == [(0, 1, 2), (3, 4, 5)]
    with pytest.raises(ValueError):
        parse_site_list({"sites": [[1, 2]]})
    with pytest.raises(ValueError):
        parse_site_list("nope")


def test_sublattice_csv_shape():
    entries = [
        {"basis": member, "class_id": idx, "stabilizer_order": cl.stabilizer_order}
        for idx, cl in enumerate(classify_classes(3), start=1)
        for member in cl.members
    ]
    rows = sublattice_csv_rows(entries)
    assert rows[0].startswith("b11,")
    body = rows[1:]
    assert len(body) == 5
    for line in body:
        cells = line.split(",")
        assert len(cells) == 11
        ints = [int(c) for c in cells]
        assert ints[10] in (48, 12)
