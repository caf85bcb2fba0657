"""Serialization round-trips, error diagnostics, the catalog encoding."""

from fractions import Fraction
from pathlib import Path

import pytest

from latdel import formats
from latdel.catalog import catalog_names
from latdel.delaunay import delaunay_star, make_cell, star_from_reps
from latdel.exact import QuadraticForm
from latdel.verify import star_for


def form(rows):
    return QuadraticForm(tuple(tuple(Fraction(v) for v in row) for row in rows))


HEX = form([[2, -1], [-1, 2]])


def test_form_round_trip():
    f = form([[Fraction(1, 3), Fraction(-1, 2)], [Fraction(-1, 2), 2]])
    assert formats.decode_form(formats.encode_form(f)) == f


def test_form_decode_errors():
    with pytest.raises(formats.FormatError, match="entries"):
        formats.decode_form({})
    with pytest.raises(formats.FormatError, match=r"entries\[0\]\[1\]"):
        formats.decode_form({"entries": [["1", "x/y"], ["0", "1"]]})
    with pytest.raises(formats.FormatError, match="rank"):
        formats.decode_form({"rank": 3, "entries": [["1", "0"], ["0", "1"]]})
    for rank in (True, 1.0, "1"):
        with pytest.raises(formats.FormatError, match="rank"):
            formats.decode_form({"rank": rank, "entries": [["1"]]})
    with pytest.raises(formats.FormatError):
        formats.decode_form({"entries": [["1", "2"], ["0", "1"]]})  # asymmetric


def test_cell_round_trip():
    cell = make_cell([(0, 0), (1, 0), (1, 1)])
    assert formats.decode_cell(formats.encode_cell(cell)) == cell
    for bad in ([[0, "1"]], [[0, True]], [[0, 0], [1, 0], [0, 1, 2]]):
        with pytest.raises(formats.FormatError, match="vertices"):
            formats.decode_cell({"vertices": bad})
    with pytest.raises(formats.FormatError, match="center"):
        formats.decode_cell({"vertices": [[0, 0]], "center": ["0"], "sq_radius": "0"})
    with pytest.raises(formats.FormatError, match='cell: missing "sq_radius"'):
        formats.decode_cell({"vertices": [[0, 0]], "center": ["0", "0"]})
    # every rep and cell of every catalog star, holes and radii included, and
    # the decoded reps certify the same star
    for name in catalog_names():
        star = star_for(name)
        for c in star.orbit_reps + star.cells:
            decoded = formats.decode_cell(formats.encode_cell(c))
            assert decoded == c and hash(decoded) == hash(c)
        reps = [formats.decode_cell(formats.encode_cell(c)) for c in star.orbit_reps]
        assert star_from_reps(star.form, reps) == star


def test_catalog_data_file_matches_embedded():
    golden = Path(__file__).parent / "golden" / "catalog.json"
    assert golden.read_text(encoding="utf-8") == formats.dumps(formats.encode_catalog())


def test_dumps_is_canonical():
    star = formats.encode_star(delaunay_star(HEX))
    assert formats.dumps(star) == formats.dumps(star)
    assert formats.dumps(star).endswith("\n")


def test_loads_diagnostics(tmp_path):
    path = tmp_path / "form.json"
    path.write_text("{not json")
    with pytest.raises(formats.FormatError) as info:
        formats.read_json(str(path))
    assert str(info.value).startswith("%s: line 1 column 2: " % path)
