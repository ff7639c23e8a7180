"""Result records and rational rendering."""

from fractions import Fraction

from replab.records import DensityRecord, ValueRecord, fraction_str


def test_fraction_str_keeps_explicit_denominator():
    assert fraction_str(Fraction(2, 3)) == "2/3"
    assert fraction_str(Fraction(6, 9)) == "2/3"
    assert fraction_str(Fraction(1)) == "1/1"
    assert fraction_str(Fraction(0)) == "0/1"


def test_density_record_round_trip():
    rec = DensityRecord(family="line", params={"q": 2, "n": 3},
                        value=Fraction(3, 8), witness_size=3, universe_size=8,
                        witness=[[0, 1, 0]], method="exact-bb")
    back = DensityRecord.from_json(rec.to_json())
    assert back.value == rec.value
    assert back.params == rec.params
    assert back.witness == [[0, 1, 0]]


def test_density_report_is_timestamp_free():
    rec = DensityRecord(family="square", params={"n": 1}, value=Fraction(3, 4),
                        witness_size=3, universe_size=4, witness=None,
                        method="closed-form")
    assert "timestamp" not in rec.to_json()
    lines = rec.report_lines()
    assert "value:         3/4" in lines
    assert not any(line.startswith("witness:") for line in lines)
    rec.witness = [(0, 0)]
    assert any(line.startswith("witness:") for line in rec.report_lines())


def test_params_render_in_sorted_order():
    rec = ValueRecord(game="anticorr", params={"repeat": 2, "q": 3},
                      value=Fraction(2, 3), strategy=None, method="exact-bb")
    line = next(l for l in rec.report_lines() if l.startswith("params"))
    assert "q=3, repeat=2" in line


def test_value_record_round_trip():
    rec = ValueRecord(game="anticorr", params={"q": 3}, value=Fraction(2, 3),
                      strategy={"players": []}, method="exact-bb")
    back = ValueRecord.from_json(rec.to_json())
    assert back.value == Fraction(2, 3)
    assert back.strategy == {"players": []}
    assert back.game == "anticorr"
