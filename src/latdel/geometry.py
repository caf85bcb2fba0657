"""Exact polyhedral helpers: vertex enumeration, facets, triangulation.

Everything here works over the rationals.  Dimensions are tiny (g <= 4), so
the algorithms are the simple combinatorial ones.  One facet routine,
`cone_facets`, serves everything: double description, one ray at a time, on
integer normals that it joins as `exact._cut` does; the vertices of a
polyhedron are its polar (`vertex_enumeration`).  A polytope is the
cone over its lifted points (p, 1), and the pulling triangulations recurse on
facets; a simplex takes one elimination.  The facets, each with its vertex
tuple at 0 as its class key, and the normalized volume of a lattice polytope
are computed once per translation class and its negative, and cached
(`_lattice_polytope`).  A pointed cone is read from its facets too:
membership is one solve per simplex of its pulling triangulation, and its
extreme rays are the facet normals of its dual; a cone that is not pointed
is refused (`pointed_cone_facets`).  The star walks its
Voronoi cell from 0 (`_vertex_from_origin`) by the ratio test `_step`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd

from .exact import (
    _cut,
    _scaled_inverse,
    dot,
    integral,
    matrix_rank,
    solve_overdetermined,
    vec_sub,
)


def _lowest_terms(nums, den):
    """The point nums / den as (integer numerators, positive denominator)."""
    if den < 0:
        nums, den = [-v for v in nums], -den
    g = gcd(den, *nums)
    return tuple(v // g for v in nums), den // g


def _vertex_from_origin(ineqs, d):
    """A vertex and its tight rows of a bounded {x : a.x <= b}, all b > 0: from 0, each
    `_step` along the kernel of the rows tight so far raises their rank, so d steps at most;
    the kernel is `_cut` by each row that becomes tight."""
    nums, den, tight = (0,) * d, 1, []
    kernel = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    while kernel:
        nums, den, now = _step(ineqs, nums, den, kernel[0])
        kernel, tight = reduce(_cut, [ineqs[i][0] for i in now if i not in tight], kernel), now
    return nums, den, tight


def _step(ineqs, nums, den, u):
    """The vertex at the far end of the edge from nums / den along u, and
    the indices of the rows tight there; None when no row bounds u.

    Exact ratio test: the first row to become tight, at (slack s, rate r);
    a row is tight at the far end when its own pair has slack * r = s * rate.
    """
    pairs = [(b * den - dot(a, nums), dot(a, u)) for a, b in ineqs]
    best = None
    for slack, rate in pairs:
        if rate > 0 and (best is None or slack * best[1] < best[0] * rate):
            best = (slack, rate)
    if best is None:
        return None
    s, r = best
    nums, den = _lowest_terms([r * x + s * c for x, c in zip(nums, u)], den * r)
    return nums, den, [i for i, (slack, rate) in enumerate(pairs) if slack * r == s * rate]


def vertex_enumeration(inequalities):
    """All vertices of the polyhedron {x : a.x <= b for (a, b) given}, as sorted rational tuples.

    The polar of `cone_facets`: a vertex v spans, as (v, 1), an extreme ray of the cone
    {(x, t) : a.x <= b t, t >= 0}, the dual of the cone over the rows (-a, b) and (0, ..., 0, 1),
    so it is read off a facet normal (w, t) of that cone with t > 0.  When the a's have rank
    < d the polyhedron holds a line and has no vertex; an empty one has only normals at t = 0.
    """
    if not inequalities:
        return []
    d = len(inequalities[0][0])
    if matrix_rank([a for a, _ in inequalities]) < d:
        return []
    rows = [tuple(-c for c in a) + (b,) for a, b in inequalities] + [(0,) * d + (1,)]
    return sorted(tuple(Fraction(c, w[d]) for c in w[:d]) for _, w in cone_facets(rows) if w[d])


def _lift(points):
    """The points (p, 1): a polytope is a slice of the cone over them."""
    return [tuple(p) + (1,) for p in points]


def _simplicial_facets(rays):
    """(`cone_facets`, |det|) of g independent rays in dimension g, else None:
    column i of their `_scaled_inverse` is 0 on every ray but ray i, > 0 on it."""
    g, inverse = len(rays), _scaled_inverse(rays)
    return inverse and (sorted(
        (tuple(j for j in range(g) if j != i), primitive(c)) for i, c in enumerate(zip(*inverse[0]))
    ), inverse[1])


def cone_facets(rays):
    """Facets of a cone, as sorted (member indices, normal) pairs.

    The normal is a primitive integer vector in the linear span of the rays, >= 0 on every ray
    and vanishing exactly on the members: an extreme ray of the dual cone in that span, by
    double description (Motzkin et al., 1953; Fukuda and Prodon, 1996).  The rays that `_cut`
    the identity are independent, and the columns of their `_scaled_inverse`, in the basis of
    the span (the identity cut by the identity cut by the rays), start the normals.  Each
    further ray keeps the normals >= 0 on it and joins each adjacent pair of opposite sign as
    `_cut` does.  A pair is not adjacent when fewer than rank - 2 rays are tight on both, or when
    a third normal is tight on every ray on which both are tight; the tight rays of each normal
    are kept as a bit set.
    """
    rays = [tuple(integral(r)[0]) for r in rays]
    n = len(rays[0])
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    kernel, start = eye, []
    for i, r in enumerate(rays):
        cut = _cut(kernel, r)
        if len(cut) < len(kernel):
            kernel, start = cut, start + [i]
    span = reduce(_cut, kernel, eye)
    inverse = _scaled_inverse([[dot(rays[i], b) for b in span] for i in start]) or [[]]
    normals = [(sum(1 << j for j in start if j != i), primitive([dot(c, x) for x in zip(*span)]))
               for i, c in zip(start, zip(*inverse[0]))]
    for i, r in enumerate(rays):
        if i in start:
            continue
        signed = [(dot(w, r), z, w) for z, w in normals]
        joined = [(z | (v == 0) << i, w) for v, z, w in signed if v >= 0]
        for a, zu, u in signed:
            for b, zw, w in signed if a > 0 else ():
                tight = zu & zw
                if (b < 0 and tight.bit_count() >= len(span) - 2
                        and sum(z & tight == tight for z, _ in normals) == 2):
                    normal = primitive([a * x - b * y for x, y in zip(w, u)])
                    joined.append((tight | 1 << i, normal))
        normals = joined
    return sorted((tuple(j for j in range(len(rays)) if z >> j & 1), w) for z, w in normals)


@lru_cache(maxsize=1024)
def _lattice_polytope(points):
    """(facets, normalized volume) of a full-dimensional lattice polytope whose vertex tuple
    starts at 0; ValueError if flat.  A facet is (members, normal, offset, its vertex tuple
    moved to its first member).  Its negative m - P reversed, m = points[-1], shares one
    computation: the smaller key's entry, mapped.  A simplex takes one `_scaled_inverse`, else
    one `cone_facets` of the lifted points gives cone normals (w, c), normal -w and offset c,
    and |det| sums over 0 joined to each simplex of `triangulate_cone` on each facet off 0."""
    n, m = len(points) - 1, points[-1]
    negative = tuple(vec_sub(m, p) for p in reversed(points))
    if negative < points:  # its entry mapped: member j -> n - j, cone normal (w, c - w.m)
        facets, volume = _lattice_polytope(negative)
        facets = sorted((tuple(n - j for j in k[::-1]), w + (c - dot(w, m),))
                        for k, w, c, _ in facets)
    else:  # a simplex has a volume; any other polytope sums it over its cone's facets
        d, lifted = len(points[0]), _lift(points)
        facets, volume = _simplicial_facets(lifted) or (cone_facets(lifted), 0)
        for members, w in facets if not volume else ():
            for s in triangulate_cone([lifted[i] for i in members]) if w[d] else ():
                inverse = _scaled_inverse([lifted[0]] + [lifted[members[i]] for i in s])
                volume += inverse[1] if inverse else 0
        if not volume:  # a flat polytope has no simplex of d + 1 lifted points
            raise ValueError("polytope is not full-dimensional")
    keys = [tuple(vec_sub(points[i], points[k[0]]) for i in k) for k, _ in facets]
    return tuple((k, tuple(-v for v in w[:-1]), w[-1], key)
                 for (k, w), key in zip(facets, keys)), volume


def _at_zero(points):
    """The `_lattice_polytope` of the points translated by -points[0], and points[0];
    points already at 0 keep their vertex tuples, which the cache key then shares."""
    t = tuple(points[0])
    key = tuple(vec_sub(p, t) for p in points) if any(t) else tuple(map(tuple, points))
    return _lattice_polytope(key), t


def polytope_facets(points):
    """Facets of a full-dimensional lattice polytope given by its vertex list.

    Returns a list of (vertex_indices, normal, offset) with normal.x <= offset
    valid for every vertex and tight exactly on the facet: the cached facets of
    its translate at 0 (`_at_zero`), each offset shifted by normal.points[0].
    """
    (facets, _), t = _at_zero(points)
    return [(m, n, c + dot(n, t)) for m, n, c, _ in facets]


def facet_map(polytopes, on_boundary):
    """{facet vertex tuple: [(polytope index, outward normal), ...]} for the
    facets of full-dimensional polytopes, skipping those with
    `on_boundary(facet)`, read from the `polytope_facets` of the sorted vertices."""
    facets = {}
    for index, points in enumerate(polytopes):
        points = sorted(tuple(p) for p in points)
        for members, normal, _ in polytope_facets(points):
            facet = tuple(points[i] for i in members)
            if not on_boundary(facet):
                facets.setdefault(facet, []).append((index, normal))
    return facets


def unpaired_facets(facets):
    """Sorted facets of a `facet_map` that are not shared by exactly two
    polytopes on opposite sides (outward normals with a negative dot
    product)."""
    return sorted(f for f, s in facets.items() if len(s) != 2 or dot(s[0][1], s[1][1]) >= 0)


def pointed_cone_facets(rays):
    """The `cone_facets` of a pointed cone; ValueError unless the height, the sum of
    the facet normals, is >= 1 on every ray, as no ray lies on every facet."""
    facets = cone_facets(rays)
    height = [sum(n[i] for _, n in facets) for i in range(len(rays[0]))]
    if any(dot(height, r) <= 0 for r in rays):
        raise ValueError("the rays do not span a pointed cone")
    return facets


def triangulate_cone(rays):
    """A pulling triangulation of a pointed cone, as ray-index simplices.

    Pulls from the first ray: it is joined to a triangulation of every facet
    not containing it, so the result is determined by the input order.  A
    cone that is not pointed is refused (`pointed_cone_facets`).
    """
    rays = [tuple(r) for r in rays]
    d = matrix_rank(rays)
    if len(rays) == d:
        return [tuple(range(d))]
    result = []
    for members, _ in pointed_cone_facets(rays):
        if 0 in members:
            continue
        for simplex in triangulate_cone([rays[i] for i in members]):
            result.append((0,) + tuple(members[i] for i in simplex))
    return result


def normalized_volume(points):
    """g! times the Euclidean volume of a lattice polytope, cached for its
    translate at 0 (`_at_zero`); ValueError if not full-dimensional."""
    return _at_zero(list(points))[0][1]


def primitive(v):
    """The primitive integer vector in the direction of the rational v: its
    numerators over a common denominator (`integral`), over their gcd."""
    nums, _ = integral(v)
    g = gcd(*nums)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(c // g for c in nums)


@lru_cache(maxsize=1024)
def _simplicial_pieces(rays):
    """(ray indices, columns) of each simplex of `triangulate_cone(rays)`."""
    return [(s, list(zip(*(rays[i] for i in s)))) for s in triangulate_cone(rays)]


def cone_contains(rays, x):
    """Exact membership of x in the pointed cone spanned by the rays.

    Returns the coefficient witness (full length, zeros for rays outside
    the simplex that holds x) or None.  The simplicial cones of the pulling
    triangulation, cached per ray tuple, cover the cone, and each has
    unique coefficients, so one solve per simplex decides.  Every simplex
    spans the cone's span, so a point off it fails the first solve.
    """
    rays = tuple(tuple(r) for r in rays)
    for simplex, cols in _simplicial_pieces(rays):
        try:
            coeffs = solve_overdetermined(cols, x)
        except ValueError:  # x is off the span
            return None
        if all(c >= 0 for c in coeffs):
            full = [Fraction(0)] * len(rays)
            for i, c in zip(simplex, coeffs):
                full[i] = c
            return tuple(full)
    return None


def extremal_rays(vectors):
    """The primitive generators of the extreme rays of a pointed cone, sorted.

    The polar of `cone_facets`, as in `vertex_enumeration`: the extreme rays of a
    pointed cone are the facet normals of its dual in its span, the cone over the
    normals of its facets (`pointed_cone_facets`).
    """
    rays = sorted({primitive(v) for v in vectors})
    if not rays:
        return []
    return sorted(w for _, w in cone_facets([n for _, n in pointed_cone_facets(rays)]))
