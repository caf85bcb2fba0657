"""Byte-for-byte golden outputs of the face classification commands.

The files under tests/golden/ hold the stdout of `latdel faces` and
`latdel verify --suite faces`; every face's orbit and type is in them.
"""

from pathlib import Path

import pytest

from latdel.cli import run

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["faces"], "faces.json"),
        (["verify", "--suite", "faces"], "verify_faces.json"),
    ],
)
def test_stdout_matches_golden(capsys, argv, name):
    assert run(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()
