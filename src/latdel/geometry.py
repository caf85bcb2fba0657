"""Exact polyhedral helpers: vertex enumeration, facets, triangulation.

Everything here works over the rationals.  Dimensions are tiny (g <= 4), so
the algorithms are the simple combinatorial ones: vertices of a bounded
polyhedron are found by solving all d-subsets of its defining inequalities,
and membership in a pointed cone by Caratheodory over independent ray
subsets.  Facets and pulling triangulations are computed once, for pointed
cones of any dimension; a polytope is handled as the cone over its lifted
points (p, 1).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .exact import (
    SingularMatrixError,
    _echelon,
    _row_scale,
    determinant,
    dot,
    matrix_rank,
    nullspace,
    solve_overdetermined,
    vec_sub,
)


def _int_scaled(a, b):
    """Scale inequality a.x <= b to integer coefficients."""
    row = [Fraction(v) for v in a] + [Fraction(b)]
    m = _row_scale(row)
    return tuple(int(v * m) for v in row[:-1]), int(row[-1] * m)


def vertex_enumeration(inequalities):
    """All vertices of the polyhedron {x : a.x <= b for (a, b) given}.

    The polyhedron must be bounded.  Returns a sorted list of rational
    coordinate tuples.  Inequalities may be rational; they are rescaled to
    integers, and each d-subset of the rows [a | b] is reduced once by the
    fraction-free `_echelon`.  A nonsingular subset gives its vertex as
    integer numerators over the common pivot, so the feasibility test stays
    in integer arithmetic.
    """
    if not inequalities:
        return []
    d = len(inequalities[0][0])
    ineqs = [_int_scaled(a, b) for a, b in inequalities]
    rows = [a + (b,) for a, b in ineqs]
    nonsingular = list(range(d))
    seen = set()
    for subset in combinations(rows, d):
        reduced, pivots, den, _ = _echelon(subset)
        if pivots != nonsingular:
            continue
        nums = [row[d] for row in reduced]
        if den < 0:
            den, nums = -den, [-v for v in nums]
        if all(dot(a, nums) <= b * den for a, b in ineqs):
            seen.add(tuple(Fraction(v, den) for v in nums))
    return sorted(seen)


def affine_dimension(points) -> int:
    if not points:
        return -1
    diffs = [vec_sub(p, points[0]) for p in points[1:]]
    if not diffs:
        return 0
    return matrix_rank(diffs)


def _lift(points):
    """The points (p, 1): a polytope is a slice of the cone over them."""
    return [tuple(p) + (1,) for p in points]


def cone_facets(rays):
    """Facets of a pointed cone, as sorted (member indices, normal) pairs.

    The normal lies in the linear span of the rays, is >= 0 on every ray and
    vanishes exactly on the members.  Each facet is spanned by rank - 1 of
    the rays, so every such subset is tried: its normal is the kernel of the
    subset stacked with the equations of the span, when that is a line.
    """
    rays = [tuple(r) for r in rays]
    g = len(rays[0])
    span_equations = nullspace(rays)
    facets = {}
    for subset in combinations(range(len(rays)), g - len(span_equations) - 1):
        stack = [rays[i] for i in subset] + span_equations
        # rank-1 rays in a one-dimensional space leave an empty stack, which
        # imposes nothing
        kernel = nullspace(stack or [(0,) * g])
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        values = [dot(normal, r) for r in rays]
        if all(v <= 0 for v in values):
            normal, values = tuple(-v for v in normal), [-v for v in values]
        elif not all(v >= 0 for v in values):
            continue
        members = tuple(i for i, v in enumerate(values) if v == 0)
        facets[members] = (members, normal)
    return sorted(facets.values())


def polytope_facets(points):
    """Facets of a full-dimensional polytope given by its vertex list.

    Returns a list of (vertex_indices, normal, offset) with normal.x <= offset
    valid for every vertex and tight exactly on the facet.  A facet normal
    (w, c) of the cone over the lifted points gives normal -w and offset c.
    """
    d = len(points[0])
    lifted = _lift(points)
    if matrix_rank(lifted) != d + 1:
        raise ValueError("polytope is not full-dimensional")
    return [
        (members, tuple(-v for v in w[:d]), w[d])
        for members, w in cone_facets(lifted)
    ]


def triangulate_cone(rays):
    """A pulling triangulation of a pointed cone, as ray-index simplices.

    Pulls from the first ray: it is joined to a triangulation of every facet
    not containing it, so the result is determined by the input order.
    """
    rays = [tuple(r) for r in rays]
    d = matrix_rank(rays)
    if len(rays) == d:
        return [tuple(range(d))]
    if d == 1:
        return [(0,)]
    result = []
    for members, _ in cone_facets(rays):
        if 0 in members:
            continue
        for simplex in triangulate_cone([rays[i] for i in members]):
            result.append((0,) + tuple(members[i] for i in simplex))
    return result


def triangulate_polytope(points):
    """A pulling triangulation of conv(points); points need not be full-dim.

    Returns simplices as tuples of indices into the input list, pulling from
    the first point so the decomposition is determined by the input order:
    the triangulation of the cone over the lifted points.
    """
    return sorted(tuple(sorted(s)) for s in triangulate_cone(_lift(points)))


def normalized_volume(points):
    """g! times the Euclidean volume of a full-dimensional lattice polytope."""
    points = list(points)
    d = len(points[0])
    total = 0
    for simplex in triangulate_polytope(points):
        rows = [vec_sub(points[i], points[simplex[0]]) for i in simplex[1:]]
        total += abs(determinant(rows))
    return total


def primitive(v):
    """The primitive integer vector in the direction of v."""
    g = 0
    for c in v:
        g = gcd(g, abs(int(c)))
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(int(c) // g for c in v)


def cone_contains(rays, x):
    """Exact membership of x in the cone spanned by the rays.

    Returns the coefficient witness (full length, zeros for unused rays) or
    None.  Linearly independent rays have unique coefficients, so one solve
    decides.  Otherwise, by Caratheodory, it suffices to search nonnegative
    combinations over linearly independent ray subsets; a dependent subset
    fails its solve.
    """
    n = len(rays)
    if all(v == 0 for v in x):
        return tuple(Fraction(0) for _ in rays)
    d = matrix_rank(list(rays))
    for k in (n,) if d == n else range(1, d + 1):
        for subset in combinations(range(n), k):
            cols = list(zip(*(rays[i] for i in subset)))
            try:
                coeffs = solve_overdetermined(cols, x)
            except (SingularMatrixError, ValueError):
                continue
            if all(c >= 0 for c in coeffs):
                full = [Fraction(0)] * n
                for i, c in zip(subset, coeffs):
                    full[i] = c
                return tuple(full)
    return None


def extremal_rays(vectors):
    """The inclusion-minimal generator subset of cone(vectors), primitivized."""
    rays = [primitive(v) for v in vectors]
    rays = sorted(set(rays))
    keep = []
    for i, r in enumerate(rays):
        others = [s for j, s in enumerate(rays) if j != i]
        if cone_contains(others, r) is None:
            keep.append(r)
    return keep
