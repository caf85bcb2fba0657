"""End-to-end verification suites: fusions, the two fusion/division tables,
the low-dimension decompositions and the simplicial-generation theorems.

One matcher, `cells_tiling`, places translates of a fine star's orbit
representatives inside a coarse cell.  `fusion_check` runs it over the
orbit representatives of a wall star, and the tables and the theorem read
their tilings from those fusion maps.  The expected tables are hard-coded
and the computed side is rebuilt from scratch (stars, fusion maps, cell
naming), so a run is an exact diff against the printed source of truth.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import List, Tuple

from .catalog import catalog, sample_interior
from .delaunay import (
    DelaunayCell,
    DelaunayStar,
    canonical_orbit_rep,
    delaunay_star,
    is_basic_simplex,
    make_cell,
)
from .exact import basis_sum, shift_points, vec_sub
from .generation import (
    cone_rays,
    is_simplicially_generating,
)
from .geometry import normalized_volume


def sv(rank: int, digits: str) -> Tuple[int, ...]:
    """The lattice vector s_I for an index string, e.g. sv(4, "134")."""
    return basis_sum(rank, [int(c) for c in digits])


def sigma_cell(order) -> DelaunayCell:
    """The simplex <0, s_a, s_ab, ...> for an order of 1..g: in rank 4,
    sigma_abcd = <0, s_a, s_ab, s_abc, s_1234>."""
    return make_cell([basis_sum(len(order), order[:k]) for k in range(len(order) + 1)])


def _cell_from_names(rank: int, names) -> DelaunayCell:
    return make_cell([sv(rank, "" if n == "0" else n) for n in names])


def name_vertex(v) -> str:
    if not any(v):
        return "0"
    if all(c in (0, 1) for c in v):
        return "s" + "".join(str(i + 1) for i, c in enumerate(v) if c)
    return "(" + ",".join(str(c) for c in v) + ")"


_SIGMA_NAMES = {sigma_cell(o).vertices: "σ_%d%d%d%d" % o for o in permutations((1, 2, 3, 4))}


def name_cell(cell: DelaunayCell) -> str:
    """σ_abcd for one of the 24 σ cells, else the vertex names in ⟨…⟩."""
    name = _SIGMA_NAMES.get(cell.vertices)
    return name or "⟨" + ",".join(name_vertex(v) for v in cell.vertices) + "⟩"


@lru_cache(maxsize=None)
def star_for(cone_name: str) -> DelaunayStar:
    """The cached star of a catalog cone's sample form."""
    return delaunay_star(sample_interior(catalog(cone_name)))


class FusionError(ValueError):
    """A fine star does not refine a coarse one as the fusion lemma says."""


@dataclass(frozen=True)
class FusionReport:
    coarse_cone: str
    fine_cone: str
    fusions: Tuple[Tuple[DelaunayCell, Tuple[DelaunayCell, ...]], ...]
    unchanged: Tuple[DelaunayCell, ...]

    @property
    def tilings(self):
        """(coarse orbit rep, its fine pieces) for every coarse orbit rep."""
        return self.fusions + tuple((c, (c,)) for c in self.unchanged)


@lru_cache(maxsize=4096)
def _at_origin(vertices):  # a rep's sorted vertices minus its first, as a set
    return frozenset(vec_sub(v, vertices[0]) for v in vertices)


def cells_tiling(star: DelaunayStar, coarse: DelaunayCell):
    """The Delaunay cells of the star's decomposition inside a coarse cell.

    Candidates are lattice translates of the star's orbit representatives;
    a translate qualifies when all its vertices are vertices of the coarse
    cell.  Then the rep's smallest vertex lands on a coarse vertex w, and the
    rep qualifies there exactly when its vertex set minus that vertex is a
    subset of the coarse vertex set minus w: one set inclusion per rep and
    w; only a match becomes a cell.  The result must tile the coarse cell
    exactly, or a FusionError names the cell and both normalized volumes.
    """
    at = [(w, {vec_sub(v, w) for v in coarse.vertices}) for w in coarse.vertices]
    found = {}
    for rep in star.orbit_reps:
        shape = _at_origin(rep.vertices)
        for w, near in at:
            if shape <= near:
                cell = rep.translate(vec_sub(w, rep.vertices[0]))
                found[cell.vertices] = cell
    pieces = [found[v] for v in sorted(found)]
    total = sum(normalized_volume(list(p.vertices)) for p in pieces)
    whole = normalized_volume(list(coarse.vertices))
    if total != whole:
        raise FusionError("refinement does not tile the coarse cell %r: its pieces have "
                          "normalized volume %d, the cell %d" % (coarse.vertices, total, whole))
    return pieces


def _is_face_of(coarse_name: str, fine_name: str) -> bool:
    coarse = catalog(coarse_name)
    fine = catalog(fine_name)
    gens = set(f.entries for f in fine.generators)
    return (
        all(g.entries in gens for g in coarse.generators)
        and coarse.dimension < fine.dimension
    )


@lru_cache(maxsize=None)
def fusion_check(coarse_name: str, fine_name: str) -> FusionReport:
    """The fusion map of a wall: the fine cells inside each coarse cell.

    `coarse` must be a catalog face of `fine` (generator subset of smaller
    dimension).  Each orbit rep of the coarse star is tiled by translates of
    the fine orbit reps (`cells_tiling`, which checks the volume balance).
    The fine cells refine the coarse ones, so each fine orbit rep is placed
    exactly once among all the pieces; a class placed zero times or twice
    contradicts the fusion lemma and raises.  Reports are cached per pair.
    """
    if not _is_face_of(coarse_name, fine_name):
        raise ValueError(
            "%s is not a catalog face of %s" % (coarse_name, fine_name)
        )
    coarse_star = star_for(coarse_name)
    fine_star = star_for(fine_name)
    fusions = []
    unchanged = []
    placed = Counter()
    for rep in coarse_star.orbit_reps:
        pieces = cells_tiling(fine_star, rep)
        if len(pieces) == 1 and pieces[0].vertices == rep.vertices:
            unchanged.append(rep)
        else:
            fusions.append((rep, tuple(pieces)))
        placed.update(canonical_orbit_rep(p).vertices for p in pieces)
    for rep in fine_star.orbit_reps:
        if placed[rep.vertices] != 1:
            raise FusionError(
                "fine cell class %r is placed %d times (fusion lemma violated)"
                % (rep.vertices, placed[rep.vertices])
            )
    return FusionReport(
        coarse_name, fine_name, tuple(fusions), tuple(unchanged)
    )


# ---------------------------------------------------------------------------
# hard-coded fusion/division tables
#
# Each row: (no, fine cell, coarse block id, coarse-refining cell).
# Rows sharing a block id have a common coarse cell, the union of their fine
# cells.  Cells are written by their s_I vertex names.

_T1_ROWS = [
    (1, ("0", "1", "12", "123", "1234"), "A", ("0", "1", "2", "123", "1234")),
    (2, ("0", "2", "12", "123", "1234"), "A", ("1", "2", "12", "123", "1234")),
    (3, ("0", "1", "12", "124", "1234"), "B", ("0", "1", "2", "124", "1234")),
    (4, ("0", "2", "12", "124", "1234"), "B", ("1", "2", "12", "124", "1234")),
    (5, ("0", "3", "13", "123", "1234"), "C", ("0", "3", "13", "23", "1234")),
    (6, ("0", "3", "23", "123", "1234"), "C", ("0", "13", "23", "123", "1234")),
    (7, ("0", "4", "14", "124", "1234"), "D", ("0", "4", "14", "24", "1234")),
    (8, ("0", "4", "24", "124", "1234"), "D", ("0", "14", "24", "124", "1234")),
    (9, ("0", "3", "34", "134", "1234"), "E", ("0", "3", "34", "134", "234")),
    (10, ("0", "3", "34", "234", "1234"), "E", ("0", "3", "134", "234", "1234")),
    (11, ("0", "4", "34", "134", "1234"), "F", ("0", "4", "34", "134", "234")),
    (12, ("0", "4", "34", "234", "1234"), "F", ("0", "4", "134", "234", "1234")),
]
# rows 13..24: the twelve sigma_abcd unchanged in all three columns
_T1_UNCHANGED = [
    (13, (1, 3, 2, 4)),
    (14, (1, 4, 2, 3)),
    (15, (2, 3, 1, 4)),
    (16, (2, 4, 1, 3)),
    (17, (1, 3, 4, 2)),
    (18, (1, 4, 3, 2)),
    (19, (2, 3, 4, 1)),
    (20, (2, 4, 3, 1)),
    (21, (3, 1, 4, 2)),
    (22, (4, 1, 3, 2)),
    (23, (3, 2, 4, 1)),
    (24, (4, 2, 3, 1)),
]
_T2_ROWS = [
    (2, ("1", "2", "12", "123", "1234"), "A", ("1", "2", "12", "123", "124")),
    (4, ("1", "2", "12", "124", "1234"), "A", ("1", "2", "123", "124", "1234")),
    (9, ("0", "3", "34", "134", "234"), "B", ("0", "3", "4", "134", "234")),
    (11, ("0", "4", "34", "134", "234"), "B", ("3", "4", "34", "134", "234")),
    (17, ("0", "1", "13", "134", "1234"), "C", ("0", "1", "13", "14", "1234")),
    (18, ("0", "1", "14", "134", "1234"), "C", ("0", "13", "14", "134", "1234")),
    (19, ("0", "2", "23", "234", "1234"), "D", ("0", "2", "23", "24", "1234")),
    (20, ("0", "2", "24", "234", "1234"), "D", ("0", "23", "24", "234", "1234")),
]
# V2 cells unchanged in Table 2 (same cell in all three columns)
_T2_UNCHANGED = [
    (1, ("0", "1", "2", "123", "1234")),
    (3, ("0", "1", "2", "124", "1234")),
    (5, ("0", "3", "13", "23", "1234")),
    (6, ("0", "13", "23", "123", "1234")),
    (7, ("0", "4", "14", "24", "1234")),
    (8, ("0", "14", "24", "124", "1234")),
    (10, ("0", "3", "134", "234", "1234")),
    (12, ("0", "4", "134", "234", "1234")),
    (13, ("0", "1", "13", "123", "1234")),
    (14, ("0", "1", "14", "124", "1234")),
    (15, ("0", "2", "23", "123", "1234")),
    (16, ("0", "2", "24", "124", "1234")),
    (21, ("0", "3", "13", "134", "1234")),
    (22, ("0", "4", "14", "134", "1234")),
    (23, ("0", "3", "23", "234", "1234")),
    (24, ("0", "4", "24", "234", "1234")),
]


@dataclass(frozen=True)
class TableDiff:
    which: int
    expected: Tuple[str, ...]
    computed: Tuple[str, ...]
    mismatches: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _table_layout(which: int):
    if which == 1:
        cones = ("dim4.V1", "dim4.V1capV2", "dim4.V2")
        changed = _T1_ROWS
        unchanged = [(no, sigma_cell(order)) for no, order in _T1_UNCHANGED]
    elif which == 2:
        cones = ("dim4.V2", "dim4.V2capV3", "dim4.V3")
        changed = _T2_ROWS
        unchanged = [(no, _cell_from_names(4, n)) for no, n in _T2_UNCHANGED]
    else:
        raise ValueError("table must be 1 or 2")
    rows = [
        (no, _cell_from_names(4, fine), block, _cell_from_names(4, refined))
        for no, fine, block, refined in changed
    ]
    # an unchanged row is a block of its own, keyed by its row number
    rows += [(no, cell, no, cell) for no, cell in unchanged]
    return cones + (rows,)


def reproduce_table(which: int) -> TableDiff:
    """Recompute a fusion/division table from the fusion maps and diff it.

    A row's coarse cell is the coarse rep that the map of the wall into the
    fine chamber places its fine cell in, shifted onto the fine cell; it
    must be the union of its block's fine cells.  The block's refining
    cells are that rep's pieces in the map of the wall into the refined
    chamber, under the same shift; they must be the cells the block lists.
    """
    fine_name, coarse_name, refined_name, rows = _table_layout(which)
    placed = {
        canonical_orbit_rep(p).vertices: (rep, min(p.vertices))
        for rep, pieces in fusion_check(coarse_name, fine_name).tilings
        for p in pieces
    }
    refining = dict(fusion_check(coarse_name, refined_name).tilings)
    unions = {}
    for _, fine_cell, block, _ in rows:
        unions.setdefault(block, set()).update(fine_cell.vertices)
    listed = {block: set() for block in unions}
    refined_by = {}
    expected_lines, computed_lines, mismatches = [], [], []
    for no, fine_cell, block, refined_cell in sorted(rows):
        line = "%2d  %s | %s" % (no, name_cell(fine_cell), name_cell(refined_cell))
        expected_lines.append(line)
        canon = canonical_orbit_rep(fine_cell).vertices
        if canon not in placed:
            mismatches.append(
                "row %d: %s is not a cell of %s"
                % (no, name_cell(fine_cell), fine_name)
            )
            continue
        rep, at = placed[canon]
        t = tuple(a - b for a, b in zip(min(fine_cell.vertices), at))
        coarse_cell = rep.translate(t)
        if set(coarse_cell.vertices) != unions[block]:
            mismatches.append(
                "row %d: %s fuses in %s but the table keeps it"
                % (no, name_cell(fine_cell), coarse_name)
                if block == no
                else "row %d: fused cell is %s, expected the block union"
                % (no, name_cell(coarse_cell))
            )
            continue
        refined_by[block] = {shift_points(p.vertices, t) for p in refining[rep]}
        if refined_cell.vertices not in refined_by[block]:
            mismatches.append(
                "row %d: %s is not among the %s cells refining %s"
                % (no, name_cell(refined_cell), refined_name, name_cell(coarse_cell))
            )
            continue
        listed[block].add(refined_cell.vertices)
        computed_lines.append(line)
    for block, pieces in refined_by.items():
        if pieces != listed[block]:
            mismatches.append(
                "block %s: refinement differs from the listed cells" % block
            )
    return TableDiff(
        which, tuple(expected_lines), tuple(computed_lines), tuple(mismatches)
    )


class _Checks:
    """Collects "PASS label" / "FAIL label" lines and whether all passed."""

    def __init__(self):
        self.details, self.ok = [], True

    def __call__(self, label, condition):
        self.details.append("%s %s" % ("PASS" if condition else "FAIL", label))
        self.ok = self.ok and condition


def _canon_set(cells):
    return {canonical_orbit_rep(c).vertices for c in cells}


def verify_lowdim() -> dict:
    """Rank 1, 2 and 3 sanity: the decompositions and fusions of the text."""
    check = _Checks()
    star1 = star_for("dim1.V1")
    check(
        "dim1: Del(0) = {[-1,0], [0,1]}",
        {c.vertices for c in star1.cells} == {((-1,), (0,)), ((0,), (1,))}
        and len(star1.orbit_reps) == 1,
    )

    s1, s2, s12 = (1, 0), (0, 1), (1, 1)
    zero = (0, 0)
    sig1 = make_cell([zero, s1, s12])
    sig2 = make_cell([zero, s2, s12])
    sig3 = make_cell([zero, s1, s2])
    sig4 = make_cell([s1, s2, s12])
    sig5 = make_cell([zero, s1, s2, s12])
    check(
        "dim2: Del_V1 reps {σ1, σ2}",
        _canon_set(star_for("dim2.V1").orbit_reps) == _canon_set([sig1, sig2]),
    )
    check(
        "dim2: Del_V2 reps {σ3, σ4}",
        _canon_set(star_for("dim2.V2").orbit_reps) == _canon_set([sig3, sig4]),
    )
    check(
        "dim2: Del_V1capV2 reps {σ5}",
        _canon_set(star_for("dim2.V1capV2").orbit_reps) == _canon_set([sig5]),
    )
    for label, fine, pieces in (
        ("dim2: σ5 = σ1 ∪ σ2", "dim2.V1", {sig1.vertices, sig2.vertices}),
        ("dim2: σ5 = σ3 ∪ σ4", "dim2.V2", {sig3.vertices, sig4.vertices}),
    ):
        tilings = fusion_check("dim2.V1capV2", fine).tilings
        check(
            label,
            [(c.vertices, {p.vertices for p in ps}) for c, ps in tilings]
            == [(sig5.vertices, pieces)],
        )
    check(
        "dim2: C(0,σ5) = C(0,σ3) and 0 ∉ σ4",
        cone_rays(sig5) == cone_rays(sig3)
        and zero not in sig4.vertices,
    )

    check(
        "dim3: Del_V reps are the 6 simplices σ_ijk",
        _canon_set(star_for("dim3.V").orbit_reps)
        == _canon_set([sigma_cell(order) for order in permutations((1, 2, 3))]),
    )
    return {"suite": "lowdim", "pass": check.ok, "details": check.details}


def verify_main_theorem() -> dict:
    """Simplicial generation of every rank-4 decomposition in the catalog."""
    check = _Checks()
    for name in ("dim4.V1", "dim4.V2", "dim4.V3", "dim4.V4"):
        star = star_for(name)
        check(
            "%s: 24 orbit reps, all basic simplices, 120 star cells" % name,
            len(star.orbit_reps) == 24
            and len(star.cells) == 120
            and all(is_basic_simplex(r) for r in star.orbit_reps),
        )
    for coarse_name, fine_name in (
        ("dim4.V1capV2", "dim4.V1"),
        ("dim4.V2capV3", "dim4.V2"),
        ("dim4.W0", "dim4.V3"),
    ):
        all_generating = all(
            is_simplicially_generating(rep, pieces).totally_generating
            for rep, pieces in fusion_check(coarse_name, fine_name).tilings
        )
        check(
            "%s: all star cells simplicially generating via %s (nilpotency 1)"
            % (coarse_name, fine_name),
            all_generating,
        )
    return {
        "suite": "theorem",
        "pass": check.ok,
        "details": check.details,
        "nilpotency": 1 if check.ok else "unknown",
    }


def verify_tables() -> dict:
    check = _Checks()
    for which in (1, 2):
        diff = reproduce_table(which)
        check("Table %d reproduced (%d rows)" % (which, len(diff.expected)), diff.ok)
        check.details.extend(diff.mismatches)
    return {"suite": "tables", "pass": check.ok, "details": check.details}


def verify_faces() -> dict:
    from . import faces as face_mod

    check = _Checks()
    all_faces, orbits = face_mod._classification()
    shapes = [f.graph.shape for f in all_faces]
    check(
        "64 faces: 32 triangles, 32 forks",
        len(all_faces) == 64
        and shapes.count(face_mod.TRIANGLE) == 32
        and shapes.count(face_mod.FORK) == 32,
    )
    check("|G| = 1152", len(face_mod.group_G()) == 1152)
    check("orbits BF=48, RT=16", len(orbits["BF"]) == 48 and len(orbits["RT"]) == 16)
    w0 = face_mod.face_of_cone(catalog("dim4.W0"))
    check(
        "W0 drop set {(x1+x3)², (x1+x4)², (x3−x4)²}, class RT",
        w0 == ((1, 3, 1), (1, 4, 1), (3, 4, -1))
        and face_mod.classify_face(w0) == "RT",
    )
    v1v2 = face_mod.face_of_cone(catalog("dim4.V1capV2"))
    check("V1∩V2 class BF", face_mod.classify_face(v1v2) == "BF")
    check(
        "V2 type II; V3, V4 type III",
        face_mod.classify_named_cone("dim4.V2") == face_mod.TYPE_II
        and face_mod.classify_named_cone("dim4.V3") == face_mod.TYPE_III
        and face_mod.classify_named_cone("dim4.V4") == face_mod.TYPE_III,
    )
    return {"suite": "faces", "pass": check.ok, "details": check.details}


def verify_dim4() -> dict:
    check = _Checks()
    for coarse, fine, label, fused, kept in (
        ("dim4.V1capV2", "dim4.V1", "V1 → V1∩V2", 6, 12),
        ("dim4.V2capV3", "dim4.V2", "V2 → V2∩V3", 4, 16),
    ):
        report = fusion_check(coarse, fine)
        counts = len(report.fusions) == fused and len(report.unchanged) == kept
        check("%s: %d fusions, %d unchanged" % (label, fused, kept), counts)
    return {"suite": "dim4", "pass": check.ok, "details": check.details}


SUITES = {
    "lowdim": verify_lowdim,
    "dim4": verify_dim4,
    "tables": verify_tables,
    "faces": verify_faces,
    "theorem": verify_main_theorem,
}


# the names `latdel verify --suite` takes beyond the suites themselves
_ALIASES = {"all": list(SUITES), "dim2": ["lowdim"], "dim3": ["lowdim"]}


def run_suites(names) -> List[dict]:
    """The reports of the named suites, each run once, in order of first mention."""
    wanted = [suite for name in names for suite in _ALIASES.get(name, [name])]
    return [SUITES[suite]() for suite in dict.fromkeys(wanted)]
