"""Per-layer tracing of latdel from outside the package.

The tracer replaces chosen public functions of the latdel modules by thin
wrappers, in every latdel module that holds them by name (so
`verify.delaunay_star` and `delaunay.delaunay_star` are both wrapped), and
puts the originals back on `remove()`.  Spanned functions record
(name, start, end, parent) in memory; counted functions only bump a call
counter, because they are too hot to time per call.  `summary()` totals
the spans per function, with self time = span duration minus the time its
child spans cover, and `layer_metrics()` turns totals into metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from math import comb

LATDEL_MODULES = (
    "exact",
    "geometry",
    "delaunay",
    "catalog",
    "generation",
    "verify",
    "faces",
    "formats",
    "cli",
)

# layer -> functions that get a span each call
SPANNED = {
    "delaunay": (
        "delaunay_star",
        "voronoi_inequalities",
        "points_within",
        "certify_cell",
        "check_star_completeness",
    ),
    "geometry": (
        "vertex_enumeration",
        "polytope_facets",
        "normalized_volume",
        "cone_contains",
        "extremal_rays",
    ),
    "generation": (
        "is_simplicially_generating",
        "is_totally_generating",
        "parallelepiped_points",
        "in_semigroup",
        "cone_cover_check",
    ),
    "verify": ("cells_tiling", "reproduce_table", "fusion_check"),
    "faces": ("enumerate_faces", "group_G", "orbit_classify", "pair_permutation"),
}

# layer -> functions that are only counted
COUNTED = {
    "exact": ("solve_overdetermined", "nullspace", "matrix_rank", "congruence_act"),
}

LAYERS = ("delaunay", "geometry", "generation", "verify", "faces", "exact")


def _work_notes():
    """Work counters taken from a wrapped call's arguments and result."""

    def subsets(args, result, work):
        ineqs = args[0]
        if ineqs:
            work["geometry.vertex_enumeration.subsets"] += comb(len(ineqs), len(ineqs[0][0]))
        work["geometry.vertex_enumeration.vertices"] += len(result)

    return {
        "delaunay.voronoi_inequalities": lambda a, r, w: w.update(
            {"delaunay.voronoi_inequalities.rows": len(r)}
        ),
        "delaunay.points_within": lambda a, r, w: w.update(
            {"delaunay.points_within.points": len(r)}
        ),
        "geometry.vertex_enumeration": subsets,
        "geometry.cone_contains": lambda a, r, w: w.update(
            {"geometry.cone_contains.hits": r is not None}
        ),
        "generation.parallelepiped_points": lambda a, r, w: w.update(
            {"generation.parallelepiped_points.points": len(r)}
        ),
        "verify.cells_tiling": lambda a, r, w: w.update({"verify.cells_tiling.pieces": len(r)}),
        "faces.group_G": lambda a, r, w: w.update({"faces.group_G.elements": len(r)}),
    }


class Tracer:
    """Installs the wrappers, keeps the spans and counters of one traced run.

    `install()` and `remove()` may alternate; spans and counters accumulate.
    """

    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = Counter()
        self.work = Counter()
        self._stack = []
        self._targets = []  # (original, wrapper), made on the first install
        self._patched = []
        self._star_for_before = None

    def _spanned(self, name, fn, note):
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, work = self._stack, self.work
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                note(args, result, work)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every loaded latdel module that names it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        if not self._targets:
            for mod in LATDEL_MODULES:
                importlib.import_module("latdel." + mod)
            notes = _work_notes()
            for layer, funcs in SPANNED.items():
                for func in funcs:
                    name = "%s.%s" % (layer, func)
                    original = getattr(sys.modules["latdel." + layer], func)
                    self._targets.append((original, self._spanned(name, original, notes.get(name))))
            for layer, funcs in COUNTED.items():
                for func in funcs:
                    name = "%s.%s" % (layer, func)
                    original = getattr(sys.modules["latdel." + layer], func)
                    self._targets.append((original, self._counted(name, original)))
        holders = [m for k, m in sys.modules.items() if k == "latdel" or k.startswith("latdel.")]
        for original, wrapper in self._targets:
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, original))
        self._star_for_before = sys.modules["latdel.verify"].star_for.cache_info()

    def remove(self):
        """Put every original function back."""
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []
        after = sys.modules["latdel.verify"].star_for.cache_info()
        self.work["verify.star_for.hits"] += after.hits - self._star_for_before.hits
        self.work["verify.star_for.misses"] += after.misses - self._star_for_before.misses

    def write_spans(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(
                    json.dumps(
                        [
                            self.names[self.span_name[i]],
                            self.span_start[i],
                            self.span_end[i],
                            self.span_parent[i],
                        ]
                    )
                    + "\n"
                )

    def summary(self):
        """Raw per-function totals (self seconds, calls, work) of the removed wrappers."""
        n = len(self.span_start)
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        self_s = Counter()
        calls = Counter(self.calls)
        for i in range(n):
            name = self.names[self.span_name[i]]
            self_s[name] += self.span_end[i] - self.span_start[i] - covered[i]
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls), "work": dict(self.work)}


def merge(summaries):
    """Sum raw summaries from several traced processes."""
    total = {"self_s": Counter(), "calls": Counter(), "work": Counter()}
    for s in summaries:
        for key in total:
            total[key].update(s[key])
    return {k: dict(v) for k, v in total.items()}


def layer_metrics(raw):
    """Per-layer metric values (name -> (value, unit)) from a raw summary."""
    self_s = Counter(raw["self_s"])
    calls = Counter(raw["calls"])
    work = Counter(raw["work"])
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for layer in LAYERS:
        funcs = SPANNED.get(layer, ()) + COUNTED.get(layer, ())
        put(layer + ".calls", sum(calls["%s.%s" % (layer, f)] for f in funcs), "count")
        if layer in SPANNED:
            put(layer + ".s", sum(self_s["%s.%s" % (layer, f)] for f in funcs), "s")
    for layer, funcs in SPANNED.items():
        for f in funcs:
            name = "%s.%s" % (layer, f)
            put(name + ".s", self_s[name], "s")
            put(name + ".calls", calls[name], "count")
    for layer, funcs in COUNTED.items():
        for f in funcs:
            name = "%s.%s" % (layer, f)
            put(name + ".calls", calls[name], "count")
    for key in (
        "delaunay.voronoi_inequalities.rows",
        "delaunay.points_within.points",
        "geometry.vertex_enumeration.subsets",
        "geometry.vertex_enumeration.vertices",
        "generation.parallelepiped_points.points",
        "verify.cells_tiling.pieces",
        "faces.group_G.elements",
        "verify.star_for.hits",
        "verify.star_for.misses",
    ):
        put(key, work[key], "count")
    subsets = work["geometry.vertex_enumeration.subsets"]
    put(
        "geometry.vertex_enumeration.yield",
        work["geometry.vertex_enumeration.vertices"] / subsets if subsets else 0.0,
        "ratio",
    )
    cc = calls["geometry.cone_contains"]
    put(
        "geometry.cone_contains.hit_ratio",
        work["geometry.cone_contains.hits"] / cc if cc else 0.0,
        "ratio",
    )
    lookups = work["verify.star_for.hits"] + work["verify.star_for.misses"]
    put(
        "verify.star_for.hit_ratio",
        work["verify.star_for.hits"] / lookups if lookups else 0.0,
        "ratio",
    )
    return out
