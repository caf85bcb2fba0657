"""Record the output hashes the benchmark checks against.

Usage (from the repository root): python3 perfbench/record.py

Writes perfbench/expected.json with the sha256 of
- the canonical `formats.dumps` star of every stars item of the default
  seed (unit-weight items do not depend on the seed, so their hashes are
  checked on every seed),
- the pieces plus `GenerationReport` of every fusion item of the default
  seed, and the same without the sphere data, which depends on the form:
  the cells are the same for every interior form of a wall or chamber, so
  that hash is checked on every seed,
- the stdout of `latdel verify --suite all`.
Run it only at a commit whose outputs are known to be right.
"""

import json
import subprocess
import sys

import workloads


def main():
    seed = workloads.DEFAULT_SEED
    stars = {}
    for key, form in workloads.star_inputs(seed):
        stars[key] = workloads.sha256(workloads.star_output(workloads.delaunay.delaunay_star(form)))
    fusion, fusion_cells = {}, {}
    _, rows = workloads.fusion_pass(*workloads.fusion_setup(seed))
    for key, _, result, err in rows:
        if err is not None:
            raise SystemExit(err)
        fusion[key] = workloads.sha256(workloads.fusion_output(*result))
        fusion_cells[key] = workloads.sha256(workloads.fusion_cells_output(*result))
    proc = subprocess.run(
        [sys.executable, "-m", "latdel.cli", *workloads.PAPER_ARGV],
        cwd=str(workloads.ROOT),
        env=workloads.child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    expected = {
        "default_seed": seed,
        "stars": dict(sorted(stars.items())),
        "fusion": dict(sorted(fusion.items())),
        "fusion_cells": dict(sorted(fusion_cells.items())),
        "paper": workloads.sha256(proc.stdout),
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
