"""Verification suites: fusion reports, table diffs, cell naming."""

import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from latdel import formats, verify
from latdel.catalog import OMEGA, catalog
from latdel.delaunay import canonical_orbit_rep, delaunay_star, make_cell
from latdel.exact import form_add, form_scale
from latdel.geometry import normalized_volume
from latdel.verify import (
    FusionError,
    fusion_check,
    fusion_map,
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


def volume_conserved(report):
    """Each fused coarse rep has the normalized volume of its pieces together."""
    return all(
        sum(normalized_volume(p.vertices) for p in pieces) == normalized_volume(coarse.vertices)
        for coarse, pieces in report.fusions
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
    assert volume_conserved(report)
    assert not report.unchanged


def test_fusion_check_requires_face_relation():
    with pytest.raises(ValueError):
        fusion_check("dim2.V1", "dim2.V2")
    with pytest.raises(ValueError):
        fusion_check("dim4.V1", "dim4.V1capV2")  # wrong direction


def test_fusion_check_places_each_fine_class_once():
    fine, coarse = star_for("dim2.V1"), star_for("dim2.V1capV2")
    assert fusion_map(coarse, fine) == fusion_check("dim2.V1capV2", "dim2.V1")
    # a fine class that lies in no coarse cell: the triangle <0, 2 s1, 2 s2>
    stray = make_cell([(0, 0), (2, 0), (0, 2)])
    with pytest.raises(FusionError, match="placed 0 times"):
        fusion_map(coarse, replace(fine, orbit_reps=fine.orbit_reps + (stray,)))
    # the coarse square listed twice places each fine class twice
    with pytest.raises(FusionError, match="placed 2 times"):
        fusion_map(replace(coarse, orbit_reps=coarse.orbit_reps * 2), fine)


def test_fusion_map_certifies_a_bf_wall_off_the_catalog():
    # item 7's BF|BF wall, from the generators of K alone: c, the sum of all
    # twelve (3 omega), plus the wall's eight; its sides add g_124 or e_45
    k = catalog("dim4.K")
    gen = dict(zip(k.generator_names, k.generators))
    c = form_add(*k.generators)
    assert c == form_scale(3, OMEGA)
    names = ("e_13", "e_14", "e_15", "e_23", "e_24", "e_34", "f_1234", "g_123")
    wall_form = form_add(c, *(gen[n] for n in names))
    wall = delaunay_star(wall_form)
    assert (len(wall.cells), len(wall.orbit_reps)) == (104, 20)
    for side in ("g_124", "e_45"):
        fine = delaunay_star(form_add(wall_form, gen[side]))
        assert len(fine.orbit_reps) == 24
        report = fusion_map(wall, fine)
        assert len(report.fusions) == 4
        placed = Counter(
            canonical_orbit_rep(p).vertices for _, pieces in report.tilings for p in pieces
        )
        assert placed == Counter(rep.vertices for rep in fine.orbit_reps)
        assert volume_conserved(report)
    # a star that does not refine the wall: the first untiled coarse cell is named
    with pytest.raises(FusionError, match=re.escape(
        "refinement does not tile the coarse cell ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1), "
        "(1, 0, 0, 1), (1, 1, 1, 1), (1, 1, 1, 2)): its pieces have normalized volume 0, "
        "the cell 2"
    )):
        fusion_map(wall, star_for("dim4.V1"))
    with pytest.raises(ValueError, match="stars of rank 2 and 4") as refused:
        fusion_map(star_for("dim2.V1capV2"), wall)
    assert refused.type is ValueError  # a refusal of the input, not a failed lemma


def test_fusion_check_dim4_volume_conserved():
    for coarse, fine in (
        ("dim4.V1capV2", "dim4.V1"),
        ("dim4.V2capV3", "dim4.V2"),
        ("dim4.W0", "dim4.V3"),
        ("dim4.W0", "dim4.V4"),
    ):
        assert volume_conserved(fusion_check(coarse, fine))


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


def _table_1_with(monkeypatch, index, row):
    rows = list(verify._T1_ROWS)
    rows[index] = row
    monkeypatch.setattr(verify, "_T1_ROWS", rows)
    return reproduce_table(1).mismatches


def test_reproduce_table_names_a_wrong_refined_cell(monkeypatch):
    # σ_1234 is the V1 cell of row 1, not one of the V2 cells of block A
    row = (1, ("0", "1", "12", "123", "1234"), "A", ("0", "1", "12", "123", "1234"))
    assert _table_1_with(monkeypatch, 0, row) == (
        "row 1: σ_1234 is not among the dim4.V2 cells refining ⟨0,s2,s1,s12,s123,s1234⟩",
        "block A: refinement differs from the listed cells",
    )


def test_reproduce_table_names_a_row_in_the_wrong_block(monkeypatch):
    row = (3, ("0", "1", "12", "124", "1234"), "A", ("0", "1", "2", "124", "1234"))
    assert _table_1_with(monkeypatch, 2, row) == (
        "row 1: fused cell is ⟨0,s2,s1,s12,s123,s1234⟩, expected the block union",
        "row 2: fused cell is ⟨0,s2,s1,s12,s123,s1234⟩, expected the block union",
        "row 3: fused cell is ⟨0,s2,s1,s12,s124,s1234⟩, expected the block union",
        "row 4: fused cell is ⟨0,s2,s1,s12,s124,s1234⟩, expected the block union",
    )


def test_reproduce_table_names_a_fine_cell_not_in_the_star(monkeypatch):
    # ⟨0,s1,s2,s12,s1234⟩ spans only three dimensions: no cell of V1
    row = (1, ("0", "2", "1", "12", "1234"), "A", ("0", "1", "2", "123", "1234"))
    assert _table_1_with(monkeypatch, 0, row) == (
        "row 1: ⟨0,s2,s1,s12,s1234⟩ is not a cell of dim4.V1",
        "block A: refinement differs from the listed cells",
    )


def test_reproduce_table_names_an_unchanged_row_that_fuses(monkeypatch):
    # σ_1234 is row 1 of block A; listed as unchanged it is a block of its own
    unchanged = list(verify._T1_UNCHANGED)
    unchanged[0] = (13, (1, 2, 3, 4))
    monkeypatch.setattr(verify, "_T1_UNCHANGED", unchanged)
    assert reproduce_table(1).mismatches == (
        "row 13: σ_1234 fuses in dim4.V1capV2 but the table keeps it",
    )


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


def test_theorem_suite_fails_a_star_with_a_rep_that_is_not_basic(monkeypatch):
    # the wall maps are cached from the true stars before star_for is doctored
    for coarse, fine in (("dim4.V1capV2", "dim4.V1"), ("dim4.V2capV3", "dim4.V2"),
                         ("dim4.W0", "dim4.V3")):
        fusion_check(coarse, fine)
    v1 = star_for("dim4.V1")
    wide = make_cell([(0, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    doctored = replace(v1, orbit_reps=(wide,) + v1.orbit_reps[1:])
    assert (len(doctored.orbit_reps), len(doctored.cells)) == (24, 120)
    monkeypatch.setattr(verify, "star_for", lambda n: doctored if n == "dim4.V1" else star_for(n))
    report = verify.verify_main_theorem()
    assert not report["pass"] and report["nilpotency"] == "unknown"
    assert report["details"][0] == (
        "FAIL dim4.V1: 24 orbit reps, all basic simplices, 120 star cells"
    )
    assert all(line.startswith("PASS ") for line in report["details"][1:])


def test_star_for_one_cache_entry_per_form():
    star_for.cache_clear()
    first = star_for("dim2.V1")
    assert star_for("dim2.V1") is first
    info = star_for.cache_info()
    assert (info.misses, info.hits) == (1, 1)
