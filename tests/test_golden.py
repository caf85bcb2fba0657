"""Byte-for-byte golden outputs of the CLI.

The files under tests/golden/ hold stdout recorded before the exact kernel
and the polyhedral primitives were rewritten: `latdel faces`,
`latdel verify --suite faces`, both tables, the unit sample forms of
dim2.V1, dim3.V and dim4.V1capV2 (`latdel sample`) and their stars
(`latdel del`).  Their orbit reps (`latdel del --mod-translation`) were
recorded before the star was built from a walk over the reps.  The two
`latdel fuse` outputs, pieces and sphere data included, were recorded
before the fusion matcher was anchored at the coarse cell's vertices.
The stars of the two long-sweep forms (form_diag1e8.json, form_skew101.json)
were recorded before the coset sweeps were rewritten in integers.
verify_all.json is the stdout of `latdel verify --suite all`; it is
compared in tests/test_verify.py, where that run already happens, and by CI.
demo_*.txt hold the stdout of the three scripts under demos/, recorded
before `faces.group_G` returned root permutations.  gen_*dim4.V1capV2.json
hold `latdel gen` on a cell of that sample's star, alone and with its
pieces from the V1 star, recorded before the empty-sphere check of a lone
cell became a nearest-point check.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from latdel import formats
from latdel.cli import run

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"
SAMPLES = ["dim2.V1", "dim3.V", "dim4.V1capV2"]
# diag(10^8, 1) and [[101, 100, 0, 0], [100, 101, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]:
# one short and one long axis, so a coset sweep walks thousands of values of a coordinate
LONG_SWEEPS = ["diag1e8", "skew101"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["faces"], "faces.json"),
        (["verify", "--suite", "faces"], "verify_faces.json"),
        (["tables", "--which", "1"], "tables_1.json"),
        (["tables", "--which", "2"], "tables_2.json"),
    ]
    + [(["sample", "--cone", c], "form_%s.json" % c) for c in SAMPLES]
    + [
        (["del", "--form", str(GOLDEN / ("form_%s.json" % c))], "del_%s.json" % c)
        for c in SAMPLES
    ]
    + [
        (["fuse", "--coarse", coarse, "--fine", fine], "fuse_%s_%s.json" % (coarse, fine))
        for coarse, fine in (("dim4.V1capV2", "dim4.V1"), ("dim4.W0", "dim4.V3"))
    ]
    + [
        (
            ["del", "--form", str(GOLDEN / ("form_%s.json" % c)), "--mod-translation"],
            "del_mod_%s.json" % c,
        )
        for c in SAMPLES
    ]
    + [(["del", "--form", str(GOLDEN / ("form_%s.json" % f))], "del_%s.json" % f) for f in LONG_SWEEPS],
)
def test_stdout_matches_golden(capsys, argv, name):
    assert run(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


# a cell of the dim4.V1capV2 star, and the two cells of the dim4.V1 star that tile it
WALL_CELL = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)]
WALL_PIECES = [WALL_CELL[:4] + WALL_CELL[5:], WALL_CELL[:3] + WALL_CELL[4:]]


@pytest.mark.parametrize("pieces, name", [
    (None, "gen_dim4.V1capV2.json"), (WALL_PIECES, "gen_pieces_dim4.V1capV2.json"),
])
def test_gen_stdout_matches_golden(tmp_path, capsys, pieces, name):
    cell = tmp_path / "cell.json"
    cell.write_text(formats.dumps({"vertices": [list(v) for v in WALL_CELL]}))
    argv = ["gen", "--cell", str(cell), "--form", str(GOLDEN / "form_dim4.V1capV2.json")]
    if pieces:
        (tmp_path / "pieces.json").write_text(formats.dumps([{"vertices": p} for p in pieces]))
        argv += ["--pieces", str(tmp_path / "pieces.json")]
    assert run(argv) == 0
    out = capsys.readouterr()
    assert (out.out.encode("utf-8"), out.err) == ((GOLDEN / name).read_bytes(), "")


def test_verify_all_golden_is_the_benchmark_paper_output():
    expected = Path(__file__).parent.parent / "perfbench" / "expected.json"
    digest = hashlib.sha256((GOLDEN / "verify_all.json").read_bytes()).hexdigest()
    assert digest == json.loads(expected.read_text())["paper"]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_stdout_matches_golden(capsys, demo):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / ("demo_" + demo[:-3] + ".txt")).read_bytes()
