"""Run every workload on several seeds and write a results file.

Usage (from the repository root):

    python3 perfbench/baseline.py --runs 10 --out perfbench/BENCH_1.json

For each workload: `--runs` untraced runs on seeds 1..runs, then one traced
run on seed 1.  The file keeps every run's context and metrics, the median,
quartiles and spread (quartile distance over median) of each end-to-end
metric, the traced per-layer metrics, and the rows of the ROADMAP baseline
table.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit("%s seed %d trace %d failed:\n%s" % (workload, seed, trace, proc.stderr))
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default="stars,fusion,paper")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"benchmark": bench["command"], "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            t0 = time.perf_counter()
            context, res = run(workload, seed, seconds, 0)
            runs.append({"context": context, "result": res, "run_s": time.perf_counter() - t0})
            print(workload, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  "correct" if res["correct"] else "FAILED", file=sys.stderr, flush=True)
        t0 = time.perf_counter()
        t_context, traced = run(workload, 1, seconds, 1)
        t_run_s = time.perf_counter() - t0
        summary = {}
        for name in bounds:
            s = stats([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            summary[name] = s
            print(workload, name, {k: round(v, 4) for k, v in s.items()}, file=sys.stderr)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "runs": runs,
            "traced": {"context": t_context, "result": traced, "run_s": t_run_s},
        }
        out["context"] = {k: t_context[k] for k in ("commit", "src_sha256", "nproc", "python")}
    out["roadmap_rows"] = roadmap_rows(out["workloads"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def roadmap_rows(workloads):
    """The ROADMAP baseline table, re-measured (seconds unless named)."""
    rows = {}
    if "paper" in workloads:
        w = workloads["paper"]
        m = w["traced"]["result"]["metrics"]
        traced_wall = m["trace.traced_s"]["value"]
        rows["paper.wall_s (untraced median)"] = w["end_to_end"]["wall_s"]["median"]
        rows["paper.faces_share (faces self time / traced wall)"] = m["faces.s"]["value"] / traced_wall
        rows["paper.faces.group_G.s"] = m["faces.group_G.s"]["value"]
        rows["paper.faces.orbit_classify.s (self)"] = m["faces.orbit_classify.s"]["value"]
        rows["paper.faces.orbit_classify (with its pair_permutation calls)"] = (
            m["faces.orbit_classify.s"]["value"] + m["faces.pair_permutation.s"]["value"]
        )
        rows["paper.trace.overhead_frac"] = m["trace.overhead_frac"]["value"]
    if "stars" in workloads:
        w = workloads["stars"]
        for key in ("dim4.V1:unit", "dim4.K:unit"):
            rows["stars.%s (median over runs, two workers busy)" % key] = statistics.median(
                r["context"]["details"][key] for r in w["runs"]
            )
        rows["stars.trace.overhead_frac"] = w["traced"]["result"]["metrics"]["trace.overhead_frac"]["value"]
    if "fusion" in workloads:
        m = workloads["fusion"]["traced"]["result"]["metrics"]
        rows["fusion.trace.overhead_frac"] = m["trace.overhead_frac"]["value"]
    return rows


if __name__ == "__main__":
    main()
