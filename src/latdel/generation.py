"""Totally-generating and simplicially-generating decisions for cells at 0.

A cell containing the origin is totally generating when the lattice points
of its cone at 0 are exactly the nonnegative integer combinations of the
cell's lattice points.  Every simplex of the cell's pulling triangulation
from 0 holds 0, so the cones at 0 over their other vertices cover C(0,
cell).  The decision collects the half-open parallelepiped points of
each by residues modulo a maximal minor p of its rays (p^k candidates for
k rays, no box scan), and settles each of those finitely many points by an
exact semigroup search whose depth the height of the cone bounds (Bruns
and Gubeladze, Polytopes, Rings, and K-Theory, 2009, ch. 2).  A unimodular
simplex, of cached normalized volume 1, needs none of it: its rays are a Z-basis.
Simplicial generation also needs the cones at 0 of the pieces through 0 to
tile C(0, cell).  Every test of that reads walls, the outward normals n of
a cell's facets through 0: the facets through a vertex cut out the tangent
cone there, so C(0, cell) = {x : n.x <= 0 for every wall}.  The cover is a
facet pairing off the walls.  The vertex sum of a full-dimensional
piece P is interior to its cone, so if it satisfies every wall of a piece
Q, the cone interiors meet, and so do P and Q near 0.  Once the cover
holds, the number k of piece cones over a generic point is constant; if
k >= 2, points near that sum lie in a second, closed cone, which then holds
the sum.  So this overlap test misses an overlap only when the cover fails.
Lattice facets have primitive normals, so a facet through 0 of a piece in the
cell lies in a wall exactly when its outward normal is that wall's n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Tuple

from .delaunay import DelaunayCell, facets_at_zero, is_basic_simplex
from .exact import _echelon, dot, vec_sub
from .geometry import (
    _lift,
    cone_contains,
    extremal_rays,
    normalized_volume,
    pointed_cone_facets,
    polytope_facets,
    triangulate_cone,
    unpaired_facets,
)


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


def cone_rays(cell: DelaunayCell) -> Tuple[Tuple[int, ...], ...]:
    """The sorted primitive extremal rays of C(0, cell)."""
    _require_origin(cell)
    return tuple(extremal_rays([v for v in cell.vertices if any(v)]))


def parallelepiped_points(rays):
    """Lattice points of the half-open parallelepiped of independent rays.

    Points x = sum lambda_i r_i with 0 <= lambda_i < 1.  The common pivot p
    of `_echelon` is a nonzero maximal minor of the rays, so Cramer's rule
    puts every lambda_i in (1/p)Z: the points are the integral ones among
    the p^k candidates sum c_i r_i / p, 0 <= c_i < p, for k rays.
    """
    rays = [tuple(r) for r in rays]
    _, pivots, p = _echelon(rays)
    if len(pivots) != len(rays):
        raise ValueError("rays must be linearly independent")
    p = abs(p)
    out = set()
    for coeffs in product(range(p), repeat=len(rays)):
        point = [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*rays)]
        if all(v % p == 0 for v in point):
            out.add(tuple(v // p for v in point))
    return out


def in_semigroup(x, generators) -> bool:
    """Exact search for x in the semigroup of the generators.

    Depth first, subtracting generators in index order, and expanding only
    points of the cone of the remaining generators (`cone_contains`, by the
    cached triangulation of that suffix cone).  The height h, the sum
    of the primitive facet normals of the cone, is an integer >= 1 on every
    generator and >= 0 on the cone, so a branch ends within h(x) steps and
    the search decides.  Raises ValueError when the cone is not pointed
    (`geometry.pointed_cone_facets`).
    """
    gens = sorted(set(tuple(g) for g in generators if any(g)))
    if not gens:
        return not any(x)
    pointed_cone_facets(gens)
    stack, seen = [(tuple(x), 0)], set()
    while stack:
        point, start = stack.pop()
        if not any(point):
            return True
        if cone_contains(gens[start:], point) is None:
            continue
        for i in reversed(range(start, len(gens))):
            state = (vec_sub(point, gens[i]), i)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def is_totally_generating(cell: DelaunayCell) -> GenerationReport:
    """Decide C(0, cell) Z-cap X == Semi(0, cell Z-cap X), with witness, on
    the cones at 0 of the simplices of the cell's pulling triangulation from 0.
    A lattice point of the hull that is not a vertex is a nonzero parallelepiped
    point of the simplex that holds it; a cell that leaves one unlisted, or
    whose 0 is not a vertex, is refused (ValueError) before deciding."""
    zero = _require_origin(cell)
    gens = [p for p in cell.vertices if any(p)]
    if is_basic_simplex(cell):
        return GenerationReport(True)  # a unimodular simplex: its rays are a Z-basis
    if gens and cone_contains(_lift(gens), zero + (1,)) is not None:
        raise ValueError("0 is not a vertex of the cell")
    points = [
        p
        for simplex in triangulate_cone(_lift([zero] + gens))
        for p in sorted(parallelepiped_points([gens[i - 1] for i in simplex[1:]]))
    ]
    lifted = _lift(cell.vertices)
    for p in points:
        if any(p) and p not in cell.vertices and cone_contains(lifted, p + (1,)) is not None:
            raise ValueError("the lattice point %r of the cell is not a listed vertex" % (p,))
    for p in points:
        if any(p) and not in_semigroup(p, gens):
            return GenerationReport(False, witness=p)
    return GenerationReport(True)


def _overlap(pieces0, facets):
    """The first pair of pieces, in `combinations` order, where the vertex sum
    of one satisfies every wall of the other in `facets`, their `facets_at_zero`; or ()."""
    walls = [[n for s in facets.values() for k, n in s if k == i] for i, _ in enumerate(pieces0)]
    sums = [tuple(map(sum, zip(*p.vertices))) for p in pieces0]
    for i, j in combinations(range(len(pieces0)), 2):
        for a, b in ((i, j), (j, i)):
            if all(dot(n, sums[a]) <= 0 for n in walls[b]):
                return pieces0[i].vertices, pieces0[j].vertices
    return ()


def _is_refinement(cell: DelaunayCell, facets, pieces) -> bool:
    outside = {v for piece in pieces for v in piece.vertices} - set(cell.vertices)
    if any(dot(normal, v) > offset for v in outside for _, normal, offset in facets):
        return False
    try:
        total = sum(normalized_volume(list(p.vertices)) for p in pieces)
    except ValueError:  # a piece that is not full-dimensional
        return False
    return total == normalized_volume(list(cell.vertices))


def cone_cover_check(coarse_cell: DelaunayCell, pieces) -> bool:
    """C(0, coarse) equals the union of the cones over pieces containing 0.

    A piece cone lies in the coarse cone exactly when the piece vertices
    satisfy the coarse walls.  Every facet through 0 of a piece, unless it
    lies in a coarse wall, must be shared by two pieces on opposite sides
    (`delaunay.facets_at_zero`); then the number of piece cones over a point of
    the coarse cone does not change across a facet, so off codimension 2 it
    is constant, hence at least 1: the closed cones cover.  Pieces that do
    not meet face to face at 0 count as not covering.
    """
    zero = _require_origin(coarse_cell)
    pieces0 = [p for p in pieces if zero in p.vertices]
    walls = [n for _, n, offset in polytope_facets(list(coarse_cell.vertices)) if offset == 0]
    if not pieces0 or any(dot(n, v) > 0 for n in walls for p in pieces0 for v in p.vertices):
        return False
    return not _unpaired_cone_facets(walls, facets_at_zero(pieces0))


def _unpaired_cone_facets(walls, facets):
    """Facets of the map, off the walls, not shared by two pieces on opposite sides."""
    return unpaired_facets({f: s for f, s in facets.items() if s[0][1] not in walls})


def is_simplicially_generating(cell: DelaunayCell, pieces) -> GenerationReport:
    """Decide simplicial generation of a cell from a refining decomposition.

    Only the pieces containing 0 enter: no vertex sum of one may satisfy
    the walls of another, each must be totally generating, and their cones
    at 0 must cover C(0, cell).
    """
    zero = _require_origin(cell)
    pieces = list(pieces)
    facets = polytope_facets(list(cell.vertices))
    if not _is_refinement(cell, facets, pieces):
        raise ValueError("pieces are not a refinement of the cell")
    pieces0 = tuple(p for p in pieces if zero in p.vertices)
    at_zero = facets_at_zero(pieces0)
    overlap = _overlap(pieces0, at_zero)
    if overlap:
        return GenerationReport(False, pieces=pieces0, overlap=overlap)
    for piece in pieces0:
        sub = is_totally_generating(piece)
        if not sub.totally_generating:
            return GenerationReport(False, witness=sub.witness, pieces=pieces0)
    # the pieces lie in the cell, so their cones cover C(0, cell) if they pair
    walls = [n for _, n, offset in facets if offset == 0]
    unpaired = tuple(_unpaired_cone_facets(walls, at_zero))
    return GenerationReport(bool(pieces0) and not unpaired, pieces=pieces0, unpaired=unpaired)
