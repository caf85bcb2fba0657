"""A stars worker: computes the stars it is sent, one at a time.

Started by `workloads.run_star_pass` as

    python3 perfbench/star_worker.py TRACE INDEX

with pickled messages on stdin and stdout.  It answers "ready" first, then
one ("item", key, plain, traced) per (key, form) task, where plain and
traced are (seconds, star, error) and traced is None unless TRACE is 1.
On a None task it answers ("trace", summary or None) and exits.
"""

import pickle
import sys

import tracer
import workloads


def main():
    trace, index = sys.argv[1] == "1", int(sys.argv[2])
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stdout carries only the messages

    def send(msg):
        pickle.dump(msg, out, protocol=pickle.HIGHEST_PROTOCOL)
        out.flush()

    tr = tracer.Tracer() if trace else None
    send("ready")
    while True:
        task = pickle.load(inp)
        if task is None:
            break
        key, form = task
        plain = workloads.timed_star(key, form)
        traced = None
        if tr is not None:
            tr.install()
            try:
                traced = workloads.timed_star(key, form)
            finally:
                tr.remove()
        send(("item", key, plain, traced))
    if tr is None:
        send(("trace", None))
        return 0
    workloads.OUT_DIR.mkdir(exist_ok=True)
    tr.write_spans(workloads.OUT_DIR / ("stars-%d.spans.jsonl" % index))
    send(("trace", tr.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
