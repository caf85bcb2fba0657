"""Totally-generating and simplicially-generating decisions for cells at 0.

A cell containing the origin is totally generating when the lattice points
of its cone at 0 are exactly the nonnegative integer combinations of the
cell's lattice points.  The decision triangulates the cone into simplicial
subcones, collects the half-open parallelepiped points of each, and settles
each of those finitely many points by a bounded exact semigroup search.
Simplicial generation also needs the cones at 0 of the pieces through 0 to
tile C(0, cell): facet pairing (`cone_cover_check`) puts at least one piece
cone over a generic point, disjoint interiors (`_interiors_overlap`) at most
one.  The pairing needs pieces that meet face to face at 0, as the cells of
a Delaunay refinement do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Tuple

from .delaunay import DelaunayCell
from .exact import (
    SingularMatrixError,
    dot,
    matrix_rank,
    solve_overdetermined,
    vec_sub,
)
from .geometry import (
    affine_dimension,
    cone_contains,
    extremal_rays,
    facet_map,
    normalized_volume,
    polytope_facets,
    triangulate_cone,
    unpaired_facets,
    vertex_enumeration,
)

# total-degree cap for the bounded semigroup search, per ambient rank
DEGREE_BOUND_FACTOR = 4


class SemigroupBoundExceeded(RuntimeError):
    """The bounded membership search hit its degree cap; never passed silently."""


@dataclass(frozen=True)
class ConeAtZero:
    rays: Tuple[Tuple[int, ...], ...]
    lattice_points: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class GenerationReport:
    """A decision and its witness: a lattice point of a cone at 0 that is no
    sum of lattice points, or, when the piece cones at 0 do not tile C(0,
    cell), two overlapping pieces or the unpaired facets through 0."""

    totally_generating: bool
    witness: Optional[Tuple[int, ...]] = None
    pieces: Tuple[DelaunayCell, ...] = ()
    overlap: tuple = ()
    unpaired: tuple = ()


def _require_origin(cell: DelaunayCell):
    zero = tuple(0 for _ in cell.vertices[0])
    if zero not in cell.vertices:
        raise ValueError("0 is not a vertex of the cell")
    return zero


def cone_rays(cell: DelaunayCell) -> ConeAtZero:
    """Primitive extremal rays of C(0, cell), with the generating set.

    By the cell invariant the lattice points of the hull are exactly the
    listed vertices, so those are the semigroup generators.
    """
    _require_origin(cell)
    nonzero = [v for v in cell.vertices if any(v)]
    rays = tuple(sorted(extremal_rays(nonzero)))
    return ConeAtZero(rays, tuple(cell.vertices))


def parallelepiped_points(rays):
    """Lattice points of the half-open parallelepiped of independent rays.

    Points x = sum lambda_i v_i with 0 <= lambda_i < 1, found by exact
    enumeration of the bounding box followed by an exact coefficient solve.
    """
    rays = [tuple(r) for r in rays]
    k = len(rays)
    if matrix_rank(rays) != k:
        raise ValueError("rays must be linearly independent")
    g = len(rays[0])
    lo = [sum(min(r[i], 0) for r in rays) for i in range(g)]
    hi = [sum(max(r[i], 0) for r in rays) for i in range(g)]
    cols = list(zip(*rays))
    out = []
    for p in product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        try:
            coeffs = solve_overdetermined(cols, p)
        except (SingularMatrixError, ValueError):
            continue
        if all(0 <= c < 1 for c in coeffs):
            out.append(p)
    return set(out)


def in_semigroup(x, generators, degree_bound: int) -> bool:
    """Bounded exact search for x in the semigroup of the generators.

    Raises SemigroupBoundExceeded when the search is cut off by the degree
    cap while branches remain; a False answer is always certified within the
    bound.
    """
    gens = sorted(set(tuple(g) for g in generators if any(g)))
    memo = {}

    def search(point, start, budget):
        if not any(point):
            return True
        if budget == 0:
            raise SemigroupBoundExceeded(
                "membership of %r undecided within degree %d" % (x, degree_bound)
            )
        key = (point, start)
        if key in memo:
            return memo[key]
        result = False
        for i in range(start, len(gens)):
            rest = vec_sub(point, gens[i])
            if cone_contains(gens[i:], rest) is None:
                continue
            if search(rest, i, budget - 1):
                result = True
                break
        memo[key] = result
        return result

    return search(tuple(x), 0, degree_bound)


def is_totally_generating(cell: DelaunayCell) -> GenerationReport:
    """Decide C(0, cell) Z-cap X == Semi(0, cell Z-cap X), with witness."""
    _require_origin(cell)
    g = len(cell.vertices[0])
    cone = cone_rays(cell)
    if not cone.rays:  # the cell is the point 0
        return GenerationReport(True)
    gens = [p for p in cone.lattice_points if any(p)]
    bound = DEGREE_BOUND_FACTOR * g
    for simplex in triangulate_cone(cone.rays):
        sel = [cone.rays[i] for i in simplex]
        for p in sorted(parallelepiped_points(sel)):
            if not any(p):
                continue
            if not in_semigroup(p, gens, bound):
                return GenerationReport(False, witness=tuple(p))
    return GenerationReport(True)


def _interiors_overlap(cell_a: DelaunayCell, cell_b: DelaunayCell) -> bool:
    """Exact full-dimensional intersection test for two lattice polytopes."""
    g = len(cell_a.vertices[0])
    ineqs = []
    for cell in (cell_a, cell_b):
        for _, normal, offset in polytope_facets(list(cell.vertices)):
            ineqs.append((normal, offset))
    common = vertex_enumeration(ineqs)
    if not common:
        return False
    return affine_dimension(common) == g


def _is_refinement(cell: DelaunayCell, pieces) -> bool:
    facets = polytope_facets(list(cell.vertices))
    for piece in pieces:
        for v in piece.vertices:
            if any(dot(normal, v) > offset for _, normal, offset in facets):
                return False
    total = sum(normalized_volume(list(p.vertices)) for p in pieces)
    return total == normalized_volume(list(cell.vertices))


def cone_cover_check(coarse_cell: DelaunayCell, pieces) -> bool:
    """C(0, coarse) equals the union of the cones over pieces containing 0.

    The piece rays must lie in the coarse cone.  Every facet through 0 of a
    piece, unless it lies in a facet of the coarse cell, must be shared by
    two pieces on opposite sides (`geometry.facet_map`); then the
    number of piece cones over a point of the coarse cone does not change
    across a facet, so off codimension 2 it is constant, hence at least 1:
    the closed cones cover.  Full-dimensional pieces that do not meet face
    to face at 0 count as not covering; Delaunay refinements always do.
    """
    zero = _require_origin(coarse_cell)
    pieces0 = [p for p in pieces if zero in p.vertices]
    if not pieces0:
        return False
    coarse = cone_rays(coarse_cell)
    for piece in pieces0:
        for ray in cone_rays(piece).rays:
            if cone_contains(list(coarse.rays), ray) is None:
                return False
    return not _unpaired_cone_facets(coarse_cell, pieces0)


def _unpaired_cone_facets(coarse_cell: DelaunayCell, pieces0):
    """Facets through 0 of the pieces, off the coarse cell's facets, that are
    not shared by two pieces on opposite sides."""
    zero = _require_origin(coarse_cell)
    walls = [n for _, n, offset in polytope_facets(list(coarse_cell.vertices)) if offset == 0]
    return unpaired_facets(
        facet_map(
            [p.vertices for p in pieces0],
            lambda f: zero not in f or any(all(dot(n, v) == 0 for v in f) for n in walls),
        )
    )


def is_simplicially_generating(cell: DelaunayCell, pieces) -> GenerationReport:
    """Decide simplicial generation of a cell from a refining decomposition.

    Only the pieces containing 0 enter: they must have pairwise disjoint
    interiors, each must be totally generating, and their cones at 0 must
    cover C(0, cell).
    """
    zero = _require_origin(cell)
    pieces = list(pieces)
    if not _is_refinement(cell, pieces):
        raise ValueError("pieces are not a refinement of the cell")
    pieces0 = [p for p in pieces if zero in p.vertices]
    for a, b in combinations(pieces0, 2):
        if _interiors_overlap(a, b):
            return GenerationReport(False, pieces=tuple(pieces0), overlap=(a.vertices, b.vertices))
    for piece in pieces0:
        sub = is_totally_generating(piece)
        if not sub.totally_generating:
            return GenerationReport(False, witness=sub.witness, pieces=tuple(pieces0))
    if not cone_cover_check(cell, pieces0):
        unpaired = tuple(_unpaired_cone_facets(cell, pieces0))
        return GenerationReport(False, pieces=tuple(pieces0), unpaired=unpaired)
    return GenerationReport(True, pieces=tuple(pieces0))
