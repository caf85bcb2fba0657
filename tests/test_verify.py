"""Verification suites: fusion reports, table diffs, cell naming."""

from pathlib import Path

import pytest

from latdel import formats
from latdel.delaunay import make_cell
from latdel.verify import (
    fusion_check,
    name_cell,
    name_vertex,
    reproduce_table,
    run_suites,
    sigma_cell,
    star_for,
    sv,
    verify_dim4,
    verify_lowdim,
)


def test_name_vertex():
    assert name_vertex((0, 0, 0, 0)) == "0"
    assert name_vertex((1, 0, 1, 1)) == "s134"
    assert name_vertex((2, 0, 0, 0)) == "(2,0,0,0)"


def test_name_cell():
    assert name_cell(sigma_cell((1, 2, 3, 4))) == "σ_1234"
    cell = make_cell([(0, 0, 0, 0), sv(4, "2"), sv(4, "23")])
    assert name_cell(cell) == "⟨0,s2,s23⟩"


def test_fusion_check_dim2():
    report = fusion_check("dim2.V1capV2", "dim2.V1")
    assert len(report.fusions) == 1
    coarse, pieces = report.fusions[0]
    assert len(coarse.vertices) == 4 and len(pieces) == 2
    assert report.volume_conserved
    assert not report.unchanged


def test_fusion_check_requires_face_relation():
    with pytest.raises(ValueError):
        fusion_check("dim2.V1", "dim2.V2")
    with pytest.raises(ValueError):
        fusion_check("dim4.V1", "dim4.V1capV2")  # wrong direction


def test_fusion_check_dim4_volume_conserved():
    for coarse, fine in (
        ("dim4.V1capV2", "dim4.V1"),
        ("dim4.V2capV3", "dim4.V2"),
        ("dim4.W0", "dim4.V3"),
        ("dim4.W0", "dim4.V4"),
    ):
        report = fusion_check(coarse, fine)
        assert report.volume_conserved


def test_lowdim_suite():
    assert verify_lowdim()["pass"]


def test_dim4_suite():
    assert verify_dim4()["pass"]


def test_reproduce_table_1():
    diff = reproduce_table(1)
    assert diff.ok
    assert len(diff.expected) == 24
    assert len(diff.computed) == 24


def test_reproduce_table_2():
    diff = reproduce_table(2)
    assert diff.ok
    # row 19 pairs σ_2341 = <0,s2,s23,s234,s1234> with <0,s2,s24,s23,s1234>
    row19 = [line for line in diff.expected if line.startswith("19")]
    assert row19 == ["19  σ_2341 | ⟨0,s2,s24,s23,s1234⟩"]


def test_reproduce_table_rejects_other():
    with pytest.raises(ValueError):
        reproduce_table(3)


def test_run_suites_all():
    reports = run_suites(["all"])
    assert [r["suite"] for r in reports] == [
        "lowdim",
        "dim4",
        "tables",
        "faces",
        "theorem",
    ]
    assert all(r["pass"] for r in reports)
    # byte for byte the stdout of `latdel verify --suite all`
    golden = Path(__file__).parent / "golden" / "verify_all.json"
    assert formats.dumps(reports).encode("utf-8") == golden.read_bytes()


def test_star_for_one_cache_entry_per_form():
    star_for.cache_clear()
    first = star_for("dim2.V1")
    assert star_for("dim2.V1", None) is first
    assert star_for(cone_name="dim2.V1") is first
    info = star_for.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # weights in any sequence type share one entry
    ramp = star_for("dim2.V1", [1, 2, 3])
    assert star_for("dim2.V1", (1, 2, 3)) is ramp
    info = star_for.cache_info()
    assert (info.misses, info.hits) == (2, 3)
