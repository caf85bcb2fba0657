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
before `faces.group_G` returned root permutations.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

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


def test_verify_all_golden_is_the_benchmark_paper_output():
    expected = Path(__file__).parent.parent / "perfbench" / "expected.json"
    digest = hashlib.sha256((GOLDEN / "verify_all.json").read_bytes()).hexdigest()
    assert digest == json.loads(expected.read_text())["paper"]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_stdout_matches_golden(capsys, demo):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / ("demo_" + demo[:-3] + ".txt")).read_bytes()
