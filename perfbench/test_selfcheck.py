"""Self-checks of the benchmark itself (slow: about three minutes).

Linux only: the process check reads /proc.

Run from the repository root:

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def test_corrupted_recorded_hash_is_a_failure(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    key = sorted(expected["fusion_cells"])[0]
    expected["fusion_cells"][key] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    context, res = result(
        bench("--workload", "fusion", "--seed", "0", "--seconds", "0",
              "--trace", "0", "--expected", str(corrupted))
    )
    assert res["correct"] is False
    assert res["failed"] == 1
    assert context["failed_frac"] > 0
    assert key in context["failures"][0]


def test_traced_runs_bypass_the_layers_they_were_chosen_to_bypass():
    _, stars = result(bench("--workload", "stars", "--seed", "3", "--seconds", "0", "--trace", "1"))
    _, fusion = result(bench("--workload", "fusion", "--seed", "3", "--seconds", "0", "--trace", "1"))
    for res in (stars, fusion):
        assert res["correct"] is True and res["failed"] == 0
        assert res["metrics"]["faces.calls"]["value"] == 0
    assert stars["metrics"]["generation.calls"]["value"] == 0
    assert stars["metrics"]["delaunay.delaunay_star.calls"]["value"] == 20
    assert fusion["metrics"]["delaunay.delaunay_star.calls"]["value"] == 0
    assert fusion["metrics"]["generation.is_simplicially_generating.calls"]["value"] > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "stars", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _session_members(sid):
    members = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                stat = Path("/proc", pid, "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
                members.append(int(pid))
    return members


def test_no_process_outlives_a_run():
    # fusion starts the two star workers in its set-up; the run gets a
    # session of its own, and nothing may be left in it after it exits
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fusion", "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    proc.communicate(timeout=300)
    assert proc.returncode == 0
    assert _session_members(proc.pid) == []
