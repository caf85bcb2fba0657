"""Run the latdel command line with the per-layer tracer installed.

Usage: python3 perfbench/paper_child.py SUMMARY.json ARGS...

The wrappers go in before `cli.run` and come out after it; the command's
stdout is untouched.  The raw trace summary, plus the seconds spent after
the command returned, is written to SUMMARY.json and the spans next to it.
"""

import json
import sys
import time
from pathlib import Path

import tracer


def main():
    summary_path = Path(sys.argv[1])
    tr = tracer.Tracer()
    tr.install()
    from latdel import cli

    try:
        code = cli.run(sys.argv[2:])
    finally:
        tr.remove()
        sys.stdout.flush()
    t_done = time.perf_counter()
    tr.write_spans(summary_path.with_suffix(".spans.jsonl"))
    summary = tr.summary()
    summary["post_s"] = time.perf_counter() - t_done
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
