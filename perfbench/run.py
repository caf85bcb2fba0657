"""Run one latdel benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload stars|fusion|paper --seed N \
        --seconds S --trace 0|1 [--expected FILE]

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the run is repeated with
the per-layer wrappers installed and the metrics are the per-layer ones.
The line before it is a JSON object holding the run's context: commit,
source digest, seed, nproc, Python version, run and item counts, the share
of failed items and the first failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stars", "fusion", "paper")
# fresh-process set-up samples per run, besides the run's own set-up.
# fusion's set-up computes six stars, so each more sample would add several
# seconds to every run; its one sample is the run's own
PROBES = {"stars": 4, "fusion": 0, "paper": 4}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expected", default=str(HERE / "expected.json"))
    return p.parse_args(argv)


def commit():
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the paths and bytes of every file under src/latdel."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "latdel").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "latdel" / "__init__.py").is_file():
        print("error: no latdel sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    # set-up: this process's own, then fresh-process probes
    t0 = time.perf_counter()
    import workloads

    inputs = workloads.setup(args.workload, args.seed)
    setup_samples = [time.perf_counter() - t0]
    for _ in range(PROBES[args.workload]):
        setup_samples.append(workloads.probe_setup(args.workload, args.seed))

    expected = workloads.load_expected(args.expected)
    res = workloads.RUNNERS[args.workload](
        args.seed, args.seconds, bool(args.trace), expected, inputs
    )

    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in workloads.tracer.layer_metrics(res["trace"]).items()
        }
        metrics["trace.untraced_s"] = {"value": res["untraced_s"], "unit": "s"}
        metrics["trace.traced_s"] = {"value": res["traced_s"], "unit": "s"}
        metrics["trace.overhead_frac"] = {
            "value": res["traced_s"] / res["untraced_s"] - 1.0 if res["untraced_s"] else 0.0,
            "unit": "ratio",
        }
    else:
        p50, p75 = workloads.quartiles(res["item_times"] or [0.0])
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "item_s.p50": {"value": p50, "unit": "s"},
            "item_s.p75": {"value": p75, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": workloads.peak_rss_mb(), "unit": "MB"},
        }

    failed = len(res["failures"])
    attempted = res["attempted"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "passes": res.get("passes", 1),
        "items": len(res["item_times"]),
        "attempted": attempted,
        "failed_frac": failed / attempted,
        "setup_samples": setup_samples,
        "failures": res["failures"][:10],
        "details": res["details"],
    }
    print(json.dumps({"context": context}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # a terminated run still kills and reaps the processes it started
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    finally:
        if "workloads" in sys.modules:
            sys.modules["workloads"].stop_children()
    sys.exit(code)
