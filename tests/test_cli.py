"""Command-line interface: subcommands, exit codes, byte-stable output."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latdel import cli, formats, verify
from latdel.catalog import catalog_names
from latdel.cli import run
from latdel.generation import GenerationReport


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_form(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(
        formats.dumps({"entries": [[str(v) for v in row] for row in rows]})
    )
    return str(path)


def test_del_mod_translation_square(tmp_path, capsys):
    path = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    code, out, _ = invoke(capsys, "del", "--form", path, "--mod-translation")
    assert code == 0
    cells = json.loads(out)
    assert len(cells) == 1
    assert cells[0]["vertices"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_del_full_star(tmp_path, capsys):
    path = write_form(tmp_path, "hex.json", [[2, -1], [-1, 2]])
    code, out, _ = invoke(capsys, "del", "--form", path)
    assert code == 0
    star = json.loads(out)
    assert len(star["cells"]) == 6
    assert len(star["orbit_reps"]) == 2


def test_del_rejects_indefinite(tmp_path, capsys):
    path = write_form(tmp_path, "bad.json", [[1, 0], [0, -1]])
    assert invoke(capsys, "del", "--form", path) == (
        2,
        "",
        "error: form is not positive definite\n",
    )


def test_rationals_outside_the_p_over_q_encoding_are_usage_errors(tmp_path, capsys):
    # read by `Fraction`, "1e999999" would be a million-digit integer
    path = write_form(tmp_path, "exp.json", [["1e999999", 0], [0, 1]])
    start = time.perf_counter()
    assert invoke(capsys, "del", "--form", path) == (
        2,
        "",
        "error: %s.entries[0][0]: Invalid literal for Fraction: '1e999999'\n" % path,
    )
    assert time.perf_counter() - start < 1
    assert invoke(capsys, "sample", "--cone", "dim2.V1", "--weights", "1e400,1,1") == (
        2,
        "",
        "error: bad --weights: Invalid literal for Fraction: '1e400'\n",
    )


def test_del_accepts_json_integer_entries(tmp_path, capsys):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"entries": [[1, 0], [0, 1]]}))
    code, out, err = invoke(capsys, "del", "--form", str(path))
    assert code == 0 and err == ""
    strings = write_form(tmp_path, "strings.json", [[1, 0], [0, 1]])
    assert invoke(capsys, "del", "--form", strings)[1] == out


def assert_usage_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_del_rejects_float_entries(tmp_path, capsys):
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"entries": [[1.5, 0], [0, 1]]}))
    code, _, err = invoke(capsys, "del", "--form", str(path))
    assert_usage_error(code, err)


def test_del_rejects_rank_5(tmp_path, capsys):
    path = write_form(
        tmp_path, "id5.json", [[int(i == j) for j in range(5)] for i in range(5)]
    )
    code, _, err = invoke(capsys, "del", "--form", path)
    assert_usage_error(code, err)
    assert "ranks up to 4" in err


def test_del_missing_file(capsys):
    code, _, err = invoke(capsys, "del", "--form", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize("command, flag", [("del", "--form"), ("gen", "--cell"), ("gen", "--pieces")])
@pytest.mark.parametrize("kind", ["directory", "not UTF-8", "nested 200000 deep", "5000 digits"])
def test_unreadable_files_are_input_errors(tmp_path, capsys, command, flag, kind):
    bad = tmp_path / "bad.json"
    if kind == "directory":
        bad.mkdir()
    elif kind == "not UTF-8":
        bad.write_bytes(b'{"entries": [["\xff"]]}')
    elif kind == "nested 200000 deep":
        bad.write_text("[" * 200000 + "]" * 200000)
    else:  # past the interpreter's limit on the digits of an integer
        bad.write_text("[%s]" % ("1" * 5000))
    paths = {"--form": write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])}
    if command == "gen":
        paths["--cell"] = str(tmp_path / "cell.json")
        (tmp_path / "cell.json").write_text(formats.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
    paths[flag] = str(bad)
    code, out, err = invoke(capsys, command, *[a for pair in paths.items() for a in pair])
    assert_usage_error(code, err)
    assert out == "" and err.startswith("error: %s: " % bad)


def test_catalog_list_and_show(capsys):
    code, out, _ = invoke(capsys, "catalog", "list")
    assert code == 0
    names = json.loads(out)
    assert "dim4.V1" in names and "dim4.K" in names
    code, out, _ = invoke(capsys, "catalog", "show", "dim4.W0")
    assert code == 0
    entry = json.loads(out)
    assert entry["name"] == "dim4.W0"
    assert len(entry["generators"]) == 9
    code, _, err = invoke(capsys, "catalog", "show", "dim5.V1")
    assert code == 2


def test_sample(capsys):
    code, out, _ = invoke(capsys, "sample", "--cone", "dim2.V1capV2")
    assert code == 0
    assert json.loads(out)["entries"] == [["1", "0"], ["0", "1"]]
    code, out, _ = invoke(
        capsys, "sample", "--cone", "dim2.V1", "--weights", "1,1,1"
    )
    assert json.loads(out)["entries"] == [["2", "-1"], ["-1", "2"]]
    code, _, err = invoke(
        capsys, "sample", "--cone", "dim2.V1", "--weights", "1,0,1"
    )
    assert code == 2


def test_unknown_cones_and_empty_weights_are_usage_errors(capsys):
    unknown = (2, "", "error: unknown catalog cone 'dim4.X'\n")
    assert invoke(capsys, "sample", "--cone", "dim4.X") == unknown
    assert invoke(capsys, "fuse", "--coarse", "dim4.X", "--fine", "dim4.V1") == unknown
    assert invoke(capsys, "fuse", "--coarse", "dim4.V1capV2", "--fine", "dim4.X") == unknown
    # an empty --weights is given, not absent
    assert invoke(capsys, "sample", "--cone", "dim2.V1", "--weights", "") == (
        2,
        "",
        "error: bad --weights: Invalid literal for Fraction: ''\n",
    )


def test_fuse(capsys):
    code, out, _ = invoke(
        capsys, "fuse", "--coarse", "dim2.V1capV2", "--fine", "dim2.V1"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["fusions"]) == 1
    assert len(report["fusions"][0]["pieces"]) == 2
    code, _, err = invoke(
        capsys, "fuse", "--coarse", "dim2.V1", "--fine", "dim2.V2"
    )
    assert code == 2


def test_fuse_exits_1_on_a_fusion_lemma_violation(monkeypatch, capsys):
    from dataclasses import replace

    from latdel.delaunay import make_cell

    stars = {name: verify.star_for(name) for name in ("dim2.V1", "dim2.V1capV2")}
    fine = stars["dim2.V1"]
    monkeypatch.setattr(verify, "star_for", lambda name: stars[name])
    # doctored stars stay out of the cache of fusion maps
    monkeypatch.setattr(cli, "fusion_check", verify.fusion_check.__wrapped__)
    argv = ("fuse", "--coarse", "dim2.V1capV2", "--fine", "dim2.V1")
    # a fine class that lies in no coarse cell: the triangle <0, 2 s1, 2 s2>
    stray = make_cell([(0, 0), (2, 0), (0, 2)])
    stars["dim2.V1"] = replace(fine, orbit_reps=fine.orbit_reps + (stray,))
    assert invoke(capsys, *argv) == (
        1,
        "",
        "error: fine cell class ((0, 0), (0, 2), (2, 0)) is placed 0 times "
        "(fusion lemma violated)\n",
    )
    # without one fine class, the coarse square is not tiled
    stars["dim2.V1"] = replace(fine, orbit_reps=fine.orbit_reps[1:])
    assert invoke(capsys, *argv) == (
        1,
        "",
        "error: refinement does not tile the coarse cell ((0, 0), (0, 1), (1, 0), (1, 1)): "
        "its pieces have normalized volume 1, the cell 2\n",
    )
    # unknown cones and non-faces stay usage errors
    stars["dim2.V1"] = fine
    assert invoke(capsys, "fuse", "--coarse", "dim2.nope", "--fine", "dim2.V1")[0] == 2
    assert invoke(capsys, "fuse", "--coarse", "dim2.V1", "--fine", "dim2.V1capV2")[0] == 2


def test_fuse_keeps_the_exit_code_contract_on_every_pair_of_catalog_cones(capsys):
    # the stars of K's rigid D4 sample and of G1234's sample on its inner wall do
    # not refine the walls below them; each failure names the coarse cell
    names = catalog_names()
    codes, failures = [], {}
    for coarse in names:
        for fine in names:
            if coarse != fine:
                code, out, err = invoke(capsys, "fuse", "--coarse", coarse, "--fine", fine)
                codes.append(code)
                if code:
                    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                if code == 1:
                    failures[coarse, fine] = err
    assert len(codes) == 462 and [codes.count(c) for c in (0, 1, 2)] == [10, 3, 449]
    prefix = "error: refinement does not tile the coarse cell "
    assert failures == {
        ("dim4.V1capV2", "dim4.K"): prefix + "((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), "
        "(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)): its pieces have normalized volume 0, the cell 2\n",
        ("dim4.W0", "dim4.K"): prefix + "((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), "
        "(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)): its pieces have normalized volume 0, the cell 3\n",
        ("dim4.V2capV3", "dim4.G1234"): prefix + "((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), "
        "(0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1)): its pieces have normalized volume 1, the cell 2\n",
    }


def test_gen(tmp_path, capsys):
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cpath = tmp_path / "cell.json"
    cpath.write_text(
        formats.dumps({"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]})
    )
    code, out, _ = invoke(
        capsys, "gen", "--cell", str(cpath), "--form", fpath
    )
    assert code == 0
    report = json.loads(out)
    assert report["totally_generating"] is True
    assert report["witness"] is None
    # a non-Delaunay cell is refused with a verification failure
    bad = tmp_path / "bad.json"
    bad.write_text(formats.dumps({"vertices": [[0, 0], [2, 0], [0, 2]]}))
    code, _, err = invoke(capsys, "gen", "--cell", str(bad), "--form", fpath)
    assert code == 1


@pytest.mark.parametrize("rows", [[[1, 0], [0, 0]], [[0, 0], [0, 0]], [[1, 0], [0, -1]]])
def test_gen_refuses_a_form_that_is_not_positive_definite(tmp_path, capsys, rows):
    fpath = write_form(tmp_path, "form.json", rows)
    cpath = tmp_path / "cell.json"
    cpath.write_text(formats.dumps({"vertices": [[0, 0], [1, 0], [0, 1]]}))
    assert invoke(capsys, "gen", "--cell", str(cpath), "--form", fpath) == (
        2,
        "",
        "error: form is not positive definite\n",
    )


def test_gen_rejects_non_refining_pieces(tmp_path, capsys):
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cpath = tmp_path / "cell.json"
    cpath.write_text(
        formats.dumps({"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]})
    )
    # one triangle covers half of the unit square
    ppath = tmp_path / "pieces.json"
    ppath.write_text(formats.dumps([{"vertices": [[0, 0], [1, 0], [0, 1]]}]))
    code, out, err = invoke(
        capsys, "gen", "--cell", str(cpath), "--form", fpath, "--pieces", str(ppath)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gen_rejects_lower_dimensional_pieces(tmp_path, capsys):
    # the triangle and the segment <(0, 1), (1, 1)> are no refinement of the
    # unit square, any more than the triangle alone
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cpath = tmp_path / "cell.json"
    cpath.write_text(formats.dumps({"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]}))
    triangle = {"vertices": [[0, 0], [1, 0], [1, 1]]}
    for extra in ([], [{"vertices": [[0, 1], [1, 1]]}], [{"vertices": [[0, 0]]}]):
        ppath = tmp_path / "pieces.json"
        ppath.write_text(formats.dumps([triangle] + extra))
        code, out, err = invoke(
            capsys, "gen", "--cell", str(cpath), "--form", fpath, "--pieces", str(ppath)
        )
        assert_usage_error(code, err)
        assert out == "" and "not a refinement of the cell" in err


def test_gen_reports_pieces_without_unchecked_sphere_data(tmp_path, capsys):
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cpath = tmp_path / "cell.json"
    cpath.write_text(formats.dumps({"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]}))
    pieces = [
        {"vertices": [[0, 0], [1, 0], [1, 1]], "center": ["9000000000", "0"], "sq_radius": "7"},
        {"vertices": [[0, 0], [0, 1], [1, 1]]},
    ]
    ppath = tmp_path / "pieces.json"
    ppath.write_text(formats.dumps(pieces))
    code, out, err = invoke(
        capsys, "gen", "--cell", str(cpath), "--form", fpath, "--pieces", str(ppath)
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["pieces"] == [{"vertices": p["vertices"]} for p in pieces]
    assert "9000000000" not in out


def test_gen_cell_without_origin(tmp_path, capsys):
    # the unit square shifted by (1, 0) is a Delaunay cell of the identity form
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cpath = tmp_path / "cell.json"
    cpath.write_text(
        formats.dumps({"vertices": [[1, 0], [1, 1], [2, 0], [2, 1]]})
    )
    code, out, err = invoke(capsys, "gen", "--cell", str(cpath), "--form", fpath)
    assert (code, err) == (0, "")
    assert json.loads(out)["totally_generating"] is True
    # pieces are decided with the cell and reported where they were given
    ppath = tmp_path / "pieces.json"
    pieces = [
        {"vertices": [[1, 0], [2, 0], [2, 1]]},
        {"vertices": [[1, 0], [1, 1], [2, 1]]},
    ]
    ppath.write_text(formats.dumps(pieces))
    code, out, err = invoke(
        capsys, "gen", "--cell", str(cpath), "--form", fpath, "--pieces", str(ppath)
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["totally_generating"] is True
    assert sorted(p["vertices"] for p in report["pieces"]) == sorted(
        p["vertices"] for p in pieces
    )


def test_gen_cube_tetrahedron_is_not_generating(tmp_path, capsys):
    # the unit cube cut into the tetrahedron on (1,1,0), (1,0,1), (0,1,1) and
    # its four corners; the cone of the tetrahedron at 0 has the
    # parallelepiped point (1, 1, 1), which no sum of its vertices reaches
    fpath = write_form(tmp_path, "id3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    cube = [list(v) for v in product((0, 1), repeat=3)]
    cpath = tmp_path / "cube.json"
    cpath.write_text(formats.dumps({"vertices": cube}))
    even = [v for v in cube if sum(v) == 2]
    pieces = [{"vertices": [[0, 0, 0]] + even}]
    for corner in cube:
        if sum(corner) % 2 == 0:
            continue
        near = [v for v in cube if sum(abs(a - b) for a, b in zip(v, corner)) == 1]
        pieces.append({"vertices": [corner] + near})
    ppath = tmp_path / "pieces.json"
    ppath.write_text(formats.dumps(pieces))
    code, out, err = invoke(
        capsys, "gen", "--cell", str(cpath), "--form", fpath, "--pieces", str(ppath)
    )
    assert code == 1
    report = json.loads(out)
    assert report["totally_generating"] is False
    assert report["witness"] == [1, 1, 1]
    assert err.startswith("error: not generating: ") and err.count("\n") == 1
    assert "(1, 1, 1)" in err


def test_gen_rejects_vertex_lengths_other_than_the_rank(tmp_path, capsys):
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cells = {
        "long.json": {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "mixed.json": {"vertices": [[0, 0], [1, 0], [0, 1, 2]]},
        "square.json": {"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]},
    }
    for name, cell in cells.items():
        (tmp_path / name).write_text(formats.dumps(cell))
    for name in ("long.json", "mixed.json"):
        code, out, err = invoke(
            capsys, "gen", "--cell", str(tmp_path / name), "--form", fpath
        )
        assert_usage_error(code, err)
        assert out == ""
    ppath = tmp_path / "pieces.json"
    ppath.write_text(formats.dumps([{"vertices": [[0], [1]]}]))
    code, out, err = invoke(
        capsys, "gen", "--cell", str(tmp_path / "square.json"), "--form", fpath,
        "--pieces", str(ppath),
    )
    assert_usage_error(code, err)
    assert "rank 2" in err


def test_gen_does_not_trust_a_given_radius(tmp_path, capsys):
    # (0, 0), (2, 0), (0, 2) is no Delaunay cell of the identity form, whatever
    # sphere the payload claims for it
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cpath = tmp_path / "cell.json"
    cpath.write_text(
        formats.dumps(
            {"vertices": [[0, 0], [2, 0], [0, 2]], "center": ["1", "1"], "sq_radius": "0"}
        )
    )
    code, out, err = invoke(capsys, "gen", "--cell", str(cpath), "--form", fpath)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "(1, 1)" in err


def test_gen_names_the_lattice_points_inside_a_far_sphere(tmp_path, capsys):
    # the sphere through 0, (100, 0) and (0, 1) holds (50, 0) and (50, 1)
    # nearest its center; they are the witness, without a sweep of its ball
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cpath = tmp_path / "cell.json"
    cpath.write_text(formats.dumps({"vertices": [[0, 0], [100, 0], [0, 1]]}))
    code, out, err = invoke(capsys, "gen", "--cell", str(cpath), "--form", fpath)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "(50, 0)" in err and "(50, 1)" in err


A2_2I3 = [[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 2]]
ON_SPHERE = [
    # (form, cell, witness): each witness lies on the sphere through the cell,
    # none inside it, and is named where the cell stands
    ([[1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1]], ((1, 1),)),
    ([[1, 0], [0, 1]], [[3, -2], [4, -2], [3, -1]], ((4, -1),)),
    ([[2, 1, 0], [1, 2, 0], [0, 0, 2]], [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
     ((0, 1, 1), (1, 0, 1))),
    (A2_2I3, [[0] * 5] + [[int(i == j) for j in range(5)] for i in range(5)], (
        (0, 0, 0, 1, 1), (0, 0, 1, 0, 1), (0, 0, 1, 1, 0), (0, 0, 1, 1, 1), (0, 1, 0, 0, 1),
        (0, 1, 0, 1, 0), (0, 1, 0, 1, 1), (0, 1, 1, 0, 0), (0, 1, 1, 0, 1), (0, 1, 1, 1, 0),
        (0, 1, 1, 1, 1), (1, 0, 0, 0, 1), (1, 0, 0, 1, 0), (1, 0, 0, 1, 1), (1, 0, 1, 0, 0),
        (1, 0, 1, 0, 1), (1, 0, 1, 1, 0), (1, 0, 1, 1, 1),
    )),
]


@pytest.mark.parametrize("rows, vertices, witness", ON_SPHERE)
def test_gen_names_the_lattice_points_on_the_sphere(tmp_path, capsys, rows, vertices, witness):
    fpath = write_form(tmp_path, "form.json", rows)
    cpath = tmp_path / "cell.json"
    cpath.write_text(formats.dumps({"vertices": vertices}))
    assert invoke(capsys, "gen", "--cell", str(cpath), "--form", fpath) == (
        1,
        "",
        "error: the cell is not a Delaunay cell of the form: %r\n" % (witness,),
    )


def test_gen_failure_names_its_witness(tmp_path, capsys, monkeypatch):
    fpath = write_form(tmp_path, "id2.json", [[1, 0], [0, 1]])
    cpath = tmp_path / "cell.json"
    cpath.write_text(formats.dumps({"vertices": [[0, 0], [0, 1], [1, 0], [1, 1]]}))
    monkeypatch.setattr(
        cli, "is_totally_generating", lambda cell: GenerationReport(False, witness=(1, 1))
    )
    code, out, err = invoke(capsys, "gen", "--cell", str(cpath), "--form", fpath)
    assert code == 1
    assert json.loads(out)["witness"] == [1, 1]
    assert err.startswith("error: ") and err.count("\n") == 1 and "(1, 1)" in err


def test_gen_names_overlapping_pieces_and_unpaired_facets(tmp_path, capsys):
    def gen(form, cell, pieces):
        fpath = write_form(tmp_path, "form.json", form)
        (tmp_path / "cell.json").write_text(formats.dumps({"vertices": cell}))
        (tmp_path / "pieces.json").write_text(
            formats.dumps([{"vertices": p} for p in pieces])
        )
        before = invoke(capsys, "gen", "--cell", str(tmp_path / "cell.json"), "--form", fpath)
        code, out, err = invoke(
            capsys, "gen", "--cell", str(tmp_path / "cell.json"), "--form", fpath,
            "--pieces", str(tmp_path / "pieces.json"),
        )
        assert before[0] == 0 and code == 1
        assert err.startswith("error: not generating: ") and err.count("\n") == 1
        assert json.loads(out)["witness"] is None
        return err

    # two triangles of the unit square, shifted by (1, 0), share the corner
    # (1, 0) and overlap; the error names both, where they were given
    square = [[1, 0], [1, 1], [2, 0], [2, 1]]
    err = gen([[1, 0], [0, 1]], square, [[[1, 0], [2, 0], [2, 1]], [[1, 0], [2, 0], [1, 1]]])
    assert "((1, 0), (2, 0), (2, 1)) and ((1, 0), (1, 1), (2, 0)) overlap" in err
    # the unit cube cut by x = y into a prism and a staircase of three
    # tetrahedra: the tetrahedron at 0 has the facet <0, s12, s3> where the
    # prism has <0, s12, s3, s123>, so the facets through 0 do not pair up
    cube = [list(v) for v in product((0, 1), repeat=3)]
    prism = [v for v in cube if v[0] >= v[1]]
    stairs = [
        [[0, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1]],
        [[1, 1, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]],
    ]
    err = gen([[1, 0, 0], [0, 1, 0], [0, 0, 1]], cube, [prism] + stairs)
    assert "((0, 0, 0), (0, 0, 1), (1, 1, 0))" in err
    assert "((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1))" in err


SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["1", "-2", "1/2", "-1/3", "1/0", "x", ""]),
    st.text(max_size=3),
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=8,
)


def form_payload(draw, g):
    """A symmetric integer matrix of rank g, often definite; or rows of any
    scalars and lengths; or any JSON."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(JSON)
    if kind == 1:
        rows = draw(st.lists(st.lists(SCALARS, max_size=g + 1), max_size=g + 1))
    else:
        rows = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                entry = st.integers(1, 3) if i == j else st.integers(-1, 1)
                rows[i][j] = rows[j][i] = draw(entry)
    obj = {"entries": rows}
    if draw(st.integers(0, 3)) == 0:
        obj["rank"] = draw(st.integers(0, 4) | JSON)
    return obj


def cell_payload(draw, g):
    """Points of the cube {0, 1}^g or near it, some of another length or with
    other scalars, sometimes with a center; or any JSON."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(JSON)
    cube = st.lists(st.integers(0, 1), min_size=g, max_size=g)
    vertex = cube | st.lists(st.integers(-1, 2), min_size=g, max_size=g)
    if kind == 1:
        vertex = vertex | st.lists(SCALARS, max_size=4)
    obj = {"vertices": draw(st.lists(vertex, min_size=1, max_size=2 ** g))}
    if draw(st.integers(0, 3)) == 0:
        obj["center"] = draw(
            st.lists(st.sampled_from(["0", "1/2", "1"]), min_size=g, max_size=g) | JSON
        )
        obj["sq_radius"] = draw(st.sampled_from(["0", "1/2", "3/4"]) | JSON)
    return obj


@st.composite
def payloads(draw):
    """A form, a cell and pieces (or None), mostly of one rank g in 1-3."""
    g = draw(st.integers(1, 3))
    ranks = st.just(g) | st.integers(1, 3)
    form = form_payload(draw, draw(ranks))
    cell = cell_payload(draw, draw(ranks))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        pieces = None
    elif kind == 1:
        pieces = cell_payload(draw, draw(ranks))
    else:
        pieces = [cell_payload(draw, draw(ranks)) for _ in range(draw(st.integers(0, 4)))]
    return form, cell, pieces


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(["del", "gen"]), payload=payloads(), mod=st.booleans())
def test_malformed_payloads_keep_the_exit_code_contract(tmp_path, command, payload, mod):
    # small integers keep every run short: the star and the nearest-point sweep
    # enumerate lattice points in balls that grow with the entries
    form, cell, pieces = payload
    paths = {}
    for name, obj in (("form", form), ("cell", cell), ("pieces", pieces)):
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj))
    argv = [command, "--form", paths["form"]]
    if command == "del" and mod:
        argv.append("--mod-translation")
    if command == "gen":
        argv += ["--cell", paths["cell"]]
        if pieces is not None:
            argv += ["--pieces", paths["pieces"]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        # one line: the usage error, or the witness of the failed check
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_tables(capsys):
    code, out, _ = invoke(capsys, "tables", "--which", "1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["expected"]) == 24
    assert report["mismatches"] == []


def test_faces(capsys):
    code, out, _ = invoke(capsys, "faces")
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"total": 64, "BF": 48, "RT": 16}
    for row in report["faces"]:
        assert row["orbit"] in ("BF", "RT")
        assert row["type"] == ("II" if row["orbit"] == "BF" else "III")
        assert row["shape"] in ("triangle", "fork")


def test_verify_dim2(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "dim2")
    assert code == 0
    reports = json.loads(out)
    assert any("σ5 = σ1 ∪ σ2" in line for r in reports for line in r["details"])


def test_verify_takes_the_suite_names_its_reports_use(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "lowdim")
    assert code == 0
    assert [r["suite"] for r in json.loads(out)] == ["lowdim"]


def test_identical_invocations_identical_bytes(capsys):
    _, first, _ = invoke(capsys, "catalog", "show", "dim4.K")
    _, second, _ = invoke(capsys, "catalog", "show", "dim4.K")
    assert first == second


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["catalog", "list", "--frobnicate"])
    assert exc.value.code == 2
