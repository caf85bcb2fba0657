"""The three latdel benchmark workloads: stars, fusion and paper.

latdel is driven only through its public functions and its command line;
the benchmark generates the forms from the seed and hands latdel nothing
else.  Every output is checked (recorded hashes, or exact identities for
inputs that have no recorded hash), so a speed-up that changes a result
counts as a failure, not a win.

- stars: cold `delaunay.delaunay_star` on the unit-weight interior forms of
  all 17 rank-4 catalog cones and on seeded forms of 3 of them, on two
  worker processes.
- fusion: `verify.cells_tiling` plus `generation.is_simplicially_generating`
  for every coarse orbit representative of the three rank-4 walls; the six
  stars are computed in set-up.
- paper: `latdel verify --suite all` in a fresh process.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import queue
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from latdel import delaunay, formats, generation, geometry, verify  # noqa: E402

catalog = importlib.import_module("latdel.catalog")

import tracer  # noqa: E402

DEFAULT_SEED = 0
WEIGHT_RANGE = (1, 5)
# cones that also get a seeded form, so a run has 17 + 3 = 20 stars: K and
# G1234, whose seeded forms fall in varying chambers, and the wall V2capV3.
# 40 stars would put ten samples beyond p75, but take about a minute on two
# workers; with 20, a full benchmark of about 70 runs fits in an hour next to
# the minute-long paper run.
SEEDED = ("dim4.K", "dim4.G1234", "dim4.V2capV3")
WALLS = (("dim4.V1capV2", "dim4.V1"), ("dim4.V2capV3", "dim4.V2"), ("dim4.W0", "dim4.V3"))
PAPER_ARGV = ("verify", "--suite", "all")
TIMEOUT_S = 170
STAR_WORKERS = 2


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(path=EXPECTED_PATH):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# every child process this one starts, until it has been reaped
_CHILDREN = set()


def run_child(cmd, timeout, **kwargs):
    """(returncode, stdout, stderr) of `cmd` run from the repository root.

    The child is killed after `timeout` seconds (raising TimeoutExpired), or
    when this process leaves early; it is reaped on every path.
    """
    proc = start_child(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        stop_child(proc, grace=0)
    return proc.returncode, out, err


def start_child(cmd, **kwargs):
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(), **kwargs)
    _CHILDREN.add(proc)
    return proc


def stop_child(proc, grace):
    """Wait up to `grace` seconds for `proc` to end, kill it if it has not,
    and reap it."""
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    _CHILDREN.discard(proc)


def stop_children():
    """Kill and reap every child still running."""
    for proc in list(_CHILDREN):
        stop_child(proc, grace=0)


def probe_setup(workload, seed):
    """Set-up seconds of one fresh process, as `setup_probe.py` measures them."""
    code, out, err = run_child(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        timeout=TIMEOUT_S,
        text=True,
    )
    if code != 0:
        raise RuntimeError("setup probe exited %d: %s" % (code, err.strip()))
    return float(out.strip().splitlines()[-1])


def peak_rss_mb():
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def quartiles(values):
    """(p50, p75) of the samples; a single sample is both."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[1], q[2]


# ---------------------------------------------------------------------------
# inputs


def rank4_cones():
    return [n for n in catalog.catalog_names() if n.startswith("dim4.")]


def _weights(rng, name):
    return tuple(rng.randint(*WEIGHT_RANGE) for _ in catalog.catalog(name).generators)


def _form(name, weights):
    cone = catalog.catalog(name)
    return catalog.sample_interior(cone, None if weights is None else list(weights))


def star_inputs(seed):
    """The stars items: (key, form); unit-weight keys do not depend on the seed."""
    rng = random.Random(seed)
    names = rank4_cones()
    specs = [(n, None) for n in names] + [(n, _weights(rng, n)) for n in SEEDED]
    items = []
    for name, weights in specs:
        tag = "unit" if weights is None else ",".join(map(str, weights))
        items.append(("%s:%s" % (name, tag), _form(name, weights)))
    return items


def fusion_setup(seed):
    """Seeded forms of the six cones, their stars, and the 58 fusion items.

    The six stars are computed on the two star workers.
    """
    rng = random.Random(seed)
    forms = []
    for coarse, fine in WALLS:
        for name in (coarse, fine):
            forms.append((name, _form(name, _weights(rng, name))))
    _, out, _ = run_star_pass(forms, trace=False)
    stars = {}
    for name, ((_, star, err), _) in out.items():
        if err is not None:
            raise RuntimeError(err)
        stars[name] = star
    items = []
    for coarse, fine in WALLS:
        for rep in stars[coarse].orbit_reps:
            key = "%s>%s:%s" % (coarse, fine, json.dumps(rep.vertices, separators=(",", ":")))
            items.append((key, fine, rep))
    rng.shuffle(items)
    return stars, items


def setup(workload, seed):
    """Everything a run needs before its timed part."""
    if workload == "stars":
        return star_inputs(seed)
    if workload == "fusion":
        return fusion_setup(seed)
    if workload == "paper":
        importlib.import_module("latdel.cli")
        return None
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# output checks


def star_output(star):
    return formats.dumps(formats.encode_star(star))


def check_star(key, form, star, expected):
    """None if the star is right, else the reason it is not."""
    digest = sha256(star_output(star))
    recorded = expected.get(key)
    if recorded is not None and recorded != digest:
        return "%s: output hash %s differs from the recorded %s" % (key, digest, recorded)
    if star.form != form:
        return "%s: star is for another form" % key
    g = form.rank
    volume = sum(geometry.normalized_volume(list(r.vertices)) for r in star.orbit_reps)
    if volume != {1: 1, 2: 2, 3: 6, 4: 24}[g]:
        return "%s: orbit reps have normalized volume %s" % (key, volume)
    if len(star.cells) != sum(len(r.vertices) for r in star.orbit_reps):
        return "%s: %d cells but the reps have %d vertices" % (
            key,
            len(star.cells),
            sum(len(r.vertices) for r in star.orbit_reps),
        )
    return None


def fusion_output(pieces, report):
    return formats.dumps(
        {
            "pieces": [formats.encode_cell(p) for p in pieces],
            "report": formats.encode_generation_report(report),
        }
    )


def fusion_cells_output(pieces, report):
    """The fusion output without the sphere data, which depends on the form."""
    return formats.dumps(
        {
            "pieces": [p.vertices for p in pieces],
            "totally_generating": report.totally_generating,
            "witness": report.witness,
            "report_pieces": [p.vertices for p in report.pieces],
        }
    )


# ---------------------------------------------------------------------------
# stars: two worker processes fed from one queue


def timed_star(key, form):
    """(seconds, star, error) of one cold `delaunay_star` call."""
    try:
        t0 = time.perf_counter()
        star = delaunay.delaunay_star(form)
        return time.perf_counter() - t0, star, None
    except Exception as exc:  # reported as a failed item
        return 0.0, None, "%s: %r" % (key, exc)


def _send(proc, msg):
    pickle.dump(msg, proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
    proc.stdin.flush()


def _feed(proc, tasks, out, traces, errors):
    """Send `proc` tasks until the queue is empty, then its stop message.

    Results go into `out` as {key: (plain, traced, finish time)}."""
    try:
        while True:
            try:
                key, form = tasks.get_nowait()
            except queue.Empty:
                break
            _send(proc, (key, form))
            _, key, plain, traced = pickle.load(proc.stdout)
            out[key] = (plain, traced, time.perf_counter())
        _send(proc, None)
        traces.append(pickle.load(proc.stdout)[1])
    except Exception as exc:  # the worker died; the pass fails below
        errors.append(repr(exc))


def run_star_pass(items, trace):
    """Compute every star cold on `star_worker.py` processes.

    Returns (wall, {key: (plain, traced)}, trace summaries), where plain and
    traced are (seconds, star, error) and traced is None unless `trace`.
    """
    deadline = time.monotonic() + TIMEOUT_S
    procs = []
    try:
        for i in range(min(STAR_WORKERS, len(items))):
            procs.append(
                start_child(
                    [sys.executable, str(HERE / "star_worker.py"), str(int(trace)), str(i)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
            )
        for proc in procs:
            if pickle.load(proc.stdout) != "ready":
                raise RuntimeError("a star worker did not start")
        # the unit K form is much the slowest; start it first so the two
        # workers finish close together
        tasks = queue.Queue()
        for item in sorted(items, key=lambda it: it[0] != "dim4.K:unit"):
            tasks.put(item)
        out, traces, errors = {}, [], []
        feeders = [
            threading.Thread(target=_feed, args=(proc, tasks, out, traces, errors), daemon=True)
            for proc in procs
        ]
        t0 = time.perf_counter()
        for t in feeders:
            t.start()
        for t in feeders:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        if any(t.is_alive() for t in feeders):
            raise RuntimeError("the stars took longer than %d s" % TIMEOUT_S)
        if errors or len(out) < len(items):
            raise RuntimeError("a star worker failed: %s" % "; ".join(errors))
        wall = max(done for _, _, done in out.values()) - t0
        for proc in procs:
            proc.stdin.close()
            stop_child(proc, grace=10)
    finally:
        for proc in procs:
            stop_child(proc, grace=0)
    out = {key: (plain, traced) for key, (plain, traced, _) in out.items()}
    return wall, out, [t for t in traces if t is not None]


def check_stars(items, results, expected):
    """Failures and output digests of {key: (seconds, star, error)}."""
    failures = []
    digests = {}
    for key, form in items:
        _, star, err = results[key]
        if err is None:
            err = check_star(key, form, star, expected)
            digests[key] = sha256(star_output(star))
        if err is not None:
            failures.append(err)
    return failures, digests


def run_stars(seed, seconds, trace, expected, inputs):
    """One pass over the stars; traced, each star is computed twice in a row."""
    del seed, seconds  # the inputs are made in set-up; one pass takes longer
    wall, out, traces = run_star_pass(inputs, trace)
    plain = {key: p for key, (p, _) in out.items()}
    failures, digests = check_stars(inputs, plain, expected["stars"])
    res = {
        "attempted": len(inputs),
        "failures": failures,
        "wall_s": wall,
        "item_times": [dt for dt, _, err in plain.values() if err is None],
        "details": {key: dt for key, (dt, _, _) in plain.items()},
    }
    if trace:
        traced = {key: t for key, (_, t) in out.items()}
        t_failures, t_digests = check_stars(inputs, traced, expected["stars"])
        res["attempted"] += len(inputs)
        res["failures"] += t_failures + [
            "%s: traced output differs from untraced" % k
            for k in digests
            if k in t_digests and t_digests[k] != digests[k]
        ]
        res["untraced_s"] = sum(dt for dt, _, _ in plain.values())
        res["traced_s"] = sum(dt for dt, _, _ in traced.values())
        res["trace"] = tracer.merge(traces)
    return res


# ---------------------------------------------------------------------------
# fusion


def fusion_pass(stars, items):
    """One pass over the items; returns (wall, [(key, seconds, output or error)])."""
    rows = []
    t_pass = time.perf_counter()
    for key, fine, rep in items:
        try:
            t0 = time.perf_counter()
            pieces = verify.cells_tiling(stars[fine], rep)
            report = generation.is_simplicially_generating(rep, pieces)
            dt = time.perf_counter() - t0
            rows.append((key, dt, (pieces, report), None))
        except Exception as exc:  # reported as a failed item
            rows.append((key, 0.0, None, "%s: %r" % (key, exc)))
    return time.perf_counter() - t_pass, rows


def check_fusion_rows(rows, expected, seed):
    """Failures and full-output digests of one pass.

    The cells and the report are checked on every seed; the full output,
    sphere data included, on the seed it was recorded for.
    """
    failures = []
    digests = {}
    for key, _, result, err in rows:
        if err is None:
            digests[key] = sha256(fusion_output(*result))
            cells = sha256(fusion_cells_output(*result))
            if expected["fusion_cells"].get(key) != cells:
                err = "%s: cells hash %s differs from the recorded %s" % (
                    key,
                    cells,
                    expected["fusion_cells"].get(key),
                )
            elif seed == expected["default_seed"] and expected["fusion"][key] != digests[key]:
                err = "%s: output hash %s differs from the recorded %s" % (
                    key,
                    digests[key],
                    expected["fusion"][key],
                )
        if err is not None:
            failures.append(err)
    return failures, digests


def run_fusion(seed, seconds, trace, expected, inputs):
    """Passes over the items until the passes have taken `seconds`.

    wall_s is the median pass; an item's latency is its median over the
    passes, which damps the host's second-to-second speed changes.  Traced,
    the first pass is followed by one traced pass, so the per-layer counts
    do not depend on the pass count; it is compared with the median
    untraced pass, as the first pass alone can be slower than the rest.
    """
    stars, items = inputs
    walls, t_walls, failures = [], [], []
    per_item = {}
    attempted = 0
    tr = tracer.Tracer() if trace else None
    while sum(walls) < seconds or not walls:
        wall, rows = fusion_pass(stars, items)
        walls.append(wall)
        for key, dt, _, err in rows:
            if err is None:
                per_item.setdefault(key, []).append(dt)
        f, digests = check_fusion_rows(rows, expected, seed)
        failures += f
        attempted += len(rows)
        if tr is not None and not t_walls:
            tr.install()
            try:
                wall, rows = fusion_pass(stars, items)
            finally:
                tr.remove()
            t_walls.append(wall)
            f, t_digests = check_fusion_rows(rows, expected, seed)
            failures += f + [
                "%s: traced output differs from untraced" % k
                for k in t_digests
                if t_digests[k] != digests.get(k)
            ]
            attempted += len(rows)
    res = {
        "attempted": attempted,
        "failures": failures,
        "wall_s": statistics.median(walls),
        "item_times": [statistics.median(v) for v in per_item.values()],
        "passes": len(walls),
        "details": {"pass_walls": walls},
    }
    if tr is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tr.write_spans(OUT_DIR / "fusion.spans.jsonl")
        res["untraced_s"] = statistics.median(walls)
        res["traced_s"] = t_walls[0]
        res["trace"] = tr.summary()
    return res


# ---------------------------------------------------------------------------
# paper


def _paper_child(traced, box):
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        summary = OUT_DIR / "paper.summary.json"
        cmd = [sys.executable, str(HERE / "paper_child.py"), str(summary)]
    else:
        cmd = [sys.executable, "-m", "latdel.cli"]
    t0 = time.perf_counter()
    try:
        code, out, _ = run_child(cmd + list(PAPER_ARGV), timeout=TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        box["error"] = "paper run timed out after %d s" % TIMEOUT_S
        return
    box["wall"] = time.perf_counter() - t0
    box["returncode"] = code
    box["stdout"] = out
    if traced and code == 0:
        with open(summary, "r", encoding="utf-8") as fh:
            box["trace"] = json.load(fh)
        # the child's span dump after the command is not part of the run
        box["wall"] -= box["trace"].pop("post_s")


def _check_paper(box, expected):
    if "error" in box:
        return box["error"]
    if box["returncode"] != 0:
        return "paper run exited %d" % box["returncode"]
    digest = sha256(box["stdout"])
    if digest != expected:
        return "paper stdout hash %s differs from the recorded %s" % (digest, expected)
    return None


def run_paper(seed, seconds, trace, expected, inputs):
    del seed, seconds, inputs  # the paper run has no generated input
    plain = {}
    boxes = [plain]
    if trace:
        # run the traced child alongside the untraced one, so a traced run
        # stays well inside the time limit; both see the same contention
        traced = {}
        boxes.append(traced)
        threads = [
            threading.Thread(target=_paper_child, args=(False, plain), daemon=True),
            threading.Thread(target=_paper_child, args=(True, traced), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    else:
        _paper_child(False, plain)
    failures = [e for e in (_check_paper(b, expected["paper"]) for b in boxes) if e]
    if trace and not failures and traced["stdout"] != plain["stdout"]:
        failures.append("traced paper stdout differs from untraced")
    wall = plain.get("wall", 0.0)
    res = {
        "attempted": len(boxes),
        "failures": failures,
        "wall_s": wall,
        "item_times": [wall],
        "details": {"stdout_sha256": sha256(plain.get("stdout", ""))},
    }
    if trace:
        res["untraced_s"] = wall
        res["traced_s"] = traced.get("wall", 0.0)
        res["trace"] = traced.get("trace", tracer.merge([]))
    return res


RUNNERS = {"stars": run_stars, "fusion": run_fusion, "paper": run_paper}
