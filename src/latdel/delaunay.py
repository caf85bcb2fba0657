"""Delaunay cells and the star of the origin for a positive definite form.

The star Del(0) is computed through the classical duality with the Voronoi
polytope of the origin: the holes (centers of maximal Delaunay cells through
0) are exactly the vertices of {y : 2B(e, y) <= B(e, e) for all lattice e},
and the defining inequalities can be restricted to the minima of the cosets
of X/2X.  A cell's vertices are 0 and the coset minima e whose inequality is
tight at its hole: every vertex e of a Delaunay polytope through 0 is a
minimum of its class mod 2, because z and e - z lie outside the empty sphere
for every lattice z.  The star is built modulo translation and x -> -x, by a walk
over its orbit reps in integers, one ratio test per +- class of reps, and certified
on the reps and their facet classes alone (`star_from_reps`), so it never trusts the
walk; a lone cell by the lattice points nearest its center (`certify_cell`).
Every lattice point sweep, the coset minima included, is one integer Fincke-Pohst
routine, `_sweep`, and every hole is kept in integers: rationals meet it only in
`make_cell` and `center`.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, floor, isqrt
from typing import Optional, Tuple

from .exact import (
    QuadraticForm,
    SingularMatrixError,
    _scaled_inverse,
    dot,
    integral,
    ldl,
    mat_vec,
    norm,
    shift_points,
    solve_overdetermined,
    vec_sub,
)
from .geometry import (
    _at_zero,
    _step,
    _vertex_from_origin,
    facet_map,
    normalized_volume,
    primitive,
    unpaired_facets,
)


class NotPositiveDefiniteError(ValueError):
    """The operation needs a positive definite form."""


class NotCospherical(ValueError):
    """Vertices do not lie on a common empty sphere."""


class UnsupportedRankError(ValueError):
    """The form's rank is beyond what the star computation supports."""


class CertificationError(RuntimeError):
    """A computed star failed its own certificate; signals an internal bug."""


@dataclass(frozen=True)
class DelaunayCell:
    """A Delaunay cell: sorted lattice vertices plus cached sphere data, the hole
    in integers (nums, den), den > 0 and gcd(den, *nums) = 1; `center` reads it."""

    vertices: Tuple[Tuple[int, ...], ...]
    hole: Optional[Tuple[Tuple[int, ...], int]] = None
    sq_radius: Optional[Fraction] = None

    @property
    def center(self) -> Optional[Tuple[Fraction, ...]]:
        return self.hole and tuple(Fraction(x, self.hole[1]) for x in self.hole[0])

    def translate(self, t) -> "DelaunayCell":
        nums, den = self.hole or ((), 1)  # c + t over the denominator of c
        hole = self.hole and (tuple(x + den * d for x, d in zip(nums, t)), den)
        return DelaunayCell(tuple(sorted(shift_points(self.vertices, t))), hole, self.sq_radius)

    def vertex_set(self):
        return set(self.vertices)


def make_cell(vertices, center=None, sq_radius=None) -> DelaunayCell:
    verts = tuple(sorted(set(tuple(int(c) for c in v) for v in vertices)))
    hole = None if center is None else integral(center)  # a rational center enters here
    return DelaunayCell(verts, hole and (tuple(hole[0]), hole[1]), sq_radius)


@dataclass(frozen=True)
class EmptySphereCertificate:
    cell: DelaunayCell
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class DelaunayStar:
    form: QuadraticForm
    cells: Tuple[DelaunayCell, ...]
    orbit_reps: Tuple[DelaunayCell, ...]


def _integer_ldl(form: QuadraticForm):
    """(scale, weights, rows) in integers, scale * B(e, e) the sum of
    weights[i] (rows[i] . e)^2: the in-order B = U^T D U of `ldl`, row i of U
    times its least denominator q_i, so rows[i][i] = q_i, and d_i / q_i^2 over
    the scale.  NotPositiveDefiniteError unless B is definite."""
    factor = ldl(form)
    if factor is None or not all(factor[0]):
        raise NotPositiveDefiniteError("form is not positive definite")
    rows = [integral(row) for row in factor[1]]
    weights, scale = integral([d / (q * q) for d, (_, q) in zip(factor[0], rows)])
    return scale, weights, [nums for nums, _ in rows]


def _sweep(factor, residues, m, bound):
    """[(e, scale * B(e, e))] for every integer e = residues (mod m) with
    B(e, e) <= bound, by the `_integer_ldl` factor: Fincke-Pohst in integers.
    With e fixed after i, s = rows[i] . e = q_i e_i + t, and weights[i] s^2
    fits the budget left when |s| <= isqrt(budget // weights[i])."""
    scale, weights, rows = factor
    total, out, e = floor(scale * bound), [], [0] * len(rows)

    def descend(i, budget, offsets):  # offsets[k] is t for k <= i
        w, q, t = weights[i], rows[i][i], offsets[i]
        r = isqrt(budget // w)
        lo, column = -((r + t) // q), [row[i] for row in rows[:i]]
        for x in range(lo + (residues[i] - lo) % m, (r - t) // q + 1, m):
            e[i], s = x, q * x + t
            if i:
                descend(i - 1, budget - w * s * s, [o + c * x for o, c in zip(offsets, column)])
            else:
                out.append((tuple(e), total - budget + w * s * s))

    if total < 0 or not e:
        return [] if total < 0 else [((), 0)]
    descend(len(e) - 1, total, [0] * len(e))
    return out


def points_within(form: QuadraticForm, alpha, bound: Fraction):
    """All lattice points x with B(x - alpha, x - alpha) <= bound, sorted:
    e = m x - a by `_sweep`, for alpha = a / m over a common denominator."""
    alpha, bound = tuple(Fraction(a) for a in alpha), Fraction(bound)
    if bound < 0:
        return []
    factor = _integer_ldl(form)
    a, m = integral(alpha)
    found = _sweep(factor, [-c % m for c in a], m, m * m * bound)
    return sorted(tuple((c + b) // m for c, b in zip(e, a)) for e, _ in found)


def nearest_points(form: QuadraticForm, alpha):
    """All lattice points attaining the minimum of ||b - alpha|| in B: one
    `_sweep`, bounded by the rounding floor(alpha + 1/2), gives every
    candidate's distance in integers."""
    factor = _integer_ldl(form)
    a, m = integral([Fraction(c) for c in alpha])
    start = [m * ((2 * c + m) // (2 * m)) - c for c in a]
    found = _sweep(factor, [-c % m for c in a], m, norm(form, start))
    best = min(v for _, v in found)
    return {tuple((c + b) // m for c, b in zip(e, a)) for e, v in found if v == best}


def _coset_minima(factor, gram):
    """(e, Ge, G[e]) for the `_integer_gram` (G, k) and the minima e of the nonzero
    cosets of X/2X, coset by coset in `product` order, each coset's sorted: one
    `_sweep` of the factor modulo 2 per coset, bounded by its 0/1 representative."""
    (gram, k), minima = gram, []
    for parity in filter(any, product((0, 1), repeat=len(gram))):
        found = _sweep(factor, parity, 2, Fraction(dot(parity, mat_vec(gram, parity)), k))
        best = min(v for _, v in found)
        for e in sorted(e for e, v in found if v == best):
            ge = mat_vec(gram, e)
            minima.append((e, ge, dot(e, ge)))
    return minima


def voronoi_inequalities(form: QuadraticForm):
    """Inequalities 2B(e, y) <= B(e, e) cutting out the Voronoi cell of 0.

    The vectors e run over all minima of the nonzero cosets of X/2X, which
    suffice to define the cell (and include every facet vector): the
    `_coset_minima`, divided back by the scale of the integer Gram matrix.
    """
    gram = _integer_gram(form)
    (_, k), minima = gram, _coset_minima(_integer_ldl(form), gram)
    return [(tuple(Fraction(2 * c, k) for c in ge), Fraction(v, k), e) for e, ge, v in minima]


def cell_center(form: QuadraticForm, vertices):
    """Center and squared radius of the sphere through the given vertices.

    Vertices must affinely span the full rank; inconsistent (non-cospherical)
    systems raise NotCospherical.  The sphere is solved through the smallest
    vertex, so 0 need not be a vertex.
    """
    verts = [tuple(v) for v in vertices]
    base = min(verts)
    diffs = [w for w in (vec_sub(v, base) for v in verts) if any(w)]
    rows = [tuple(2 * c for c in mat_vec(form.entries, w)) for w in diffs]
    rhs = [norm(form, w) for w in diffs]
    try:
        center = solve_overdetermined(rows, rhs)
    except SingularMatrixError:
        raise SingularMatrixError("vertices are not full-dimensional")
    except ValueError:
        raise NotCospherical("vertices are not cospherical")
    return tuple(c + b for c, b in zip(center, base)), norm(form, center)


def _integer_gram(form: QuadraticForm):
    """(G, k): G the Gram matrix times the least positive integer k making it integral."""
    nums, k = integral([x for row in form.entries for x in row])
    g = form.rank
    return [nums[i * g:(i + 1) * g] for i in range(g)], k


def _power(gram, hole, norms):
    """v -> den vᵀGv - 2 (G nums).v for the hole (nums, den), c = nums/den: with G
    a positive multiple of the form, a positive multiple of Q[v-c] - Q[c].  Each
    vᵀGv is kept in the dict norms, which the powers of one star share."""
    nums, den = hole
    h = [2 * x for x in mat_vec(gram, nums)]

    def power(v):
        q = norms[v] = norms.get(v) or dot(v, mat_vec(gram, v))
        return den * q - dot(h, v)

    return power


def certify_cell(form: QuadraticForm, cell: DelaunayCell) -> EmptySphereCertificate:
    """Exact empty-sphere check for a cell, where it stands.

    A full-dimensional cell is a Delaunay cell exactly when the lattice points
    nearest the center c of the sphere through its vertices are its vertices
    (Conway and Sloane, SPLAG ch. 2).  The sphere is solved through the vertices
    (`cell_center`), never taken from the cell's own sphere data, so the nearest
    distance d is at most the radius r.  If d < r, the nearest points lie strictly
    inside and none is a vertex; if d = r, none lies inside and those on the sphere
    are the nearest.  Either way the violations are the `nearest_points` to c that
    are not vertices, sorted; a flat or not cospherical cell reports every vertex.
    NotPositiveDefiniteError unless the form is definite, before any sphere.
    """
    _integer_ldl(form)
    try:
        center, _ = cell_center(form, cell.vertices)
    except (SingularMatrixError, NotCospherical):
        return EmptySphereCertificate(cell, tuple(cell.vertices))
    nearest = nearest_points(form, center)
    return EmptySphereCertificate(cell, tuple(sorted(nearest - cell.vertex_set())))


def canonical_orbit_rep(cell: DelaunayCell) -> DelaunayCell:
    """The translate of the cell carrying its smallest vertex to the origin."""
    v = min(cell.vertices)
    return cell.translate(tuple(-c for c in v))


def is_basic_simplex(cell: DelaunayCell) -> bool:
    """True iff the cell is a unimodular simplex: g + 1 vertices, cached normalized volume 1."""
    verts = cell.vertices
    with suppress(ValueError):  # normalized_volume refuses a flat cell
        return bool(verts) and len(verts) == len(verts[0]) + 1 and normalized_volume(verts) == 1
    return False


def facets_at_zero(cells):
    """The `geometry.facet_map` of the cells' facets through 0; a facet
    without the vertex 0 bounds the cells away from 0."""
    return facet_map([c.vertices for c in cells], lambda f: all(map(any, f)))


def check_star_completeness(cells) -> bool:
    """The cells cover a neighbourhood of 0: each facet through 0 of their
    `facets_at_zero` has two cells on opposite sides."""
    return bool(cells) and not unpaired_facets(facets_at_zero(cells))


def _lemma(gram, cells, placements, facets):
    """Delaunay's lemma in integers: raises CertificationError unless it holds.

    For a cell's hole c, s = `_power` is a positive multiple of Q[v-c] - Q[c]
    in integers, for G the `_integer_gram`.  A full-dimensional cell has one
    equidistant point, so s constant on its vertices verifies the hole.  Each
    facet of the `facet_map` must have two cells A and B, and s_A(w) must
    exceed that constant, putting every vertex w of B off A strictly outside
    A's sphere.  The holders are placements (i, v), the translates cells[i] - v
    of `facet_classes`: s once per cell, and w = u - v_B + v_A for u in B.
    """
    norms = {}  # vᵀGv once per point of the star
    powers = [_power(gram, cell.hole, norms) for cell in cells]
    levels = [{s(v) for v in cell.vertices} for cell, s in zip(cells, powers)]
    for i, v in placements:
        if len(levels[i]) != 1:
            name = cells[i].translate(tuple(-c for c in v)).vertices
            raise CertificationError("cell %r is not cospherical about its hole" % (name,))
    for facet, sides in facets.items():
        if len(sides) != 2:
            raise CertificationError("facet %r is not shared by two cells" % (facet,))
        (a, va), (b, vb) = (placements[i] for i, _ in sides)
        (level,) = levels[a]
        across = (tuple(x - y + z for x, y, z in zip(u, vb, va)) for u in cells[b].vertices)
        for w in [w for w in across if w not in cells[a].vertices]:
            excess = powers[a](w) - level
            if excess <= 0:
                raise CertificationError(
                    "facet %r is not locally Delaunay: the vertex %r across it lies %s the "
                    "sphere of %r" % (facet, vec_sub(w, va), "inside" if excess else "on",
                                      cells[a].translate(tuple(-c for c in va)).vertices)
                )


def check_tiling(g: int, reps):
    """The tiling invariant of a star: raises CertificationError unless it holds.

    The translates of the orbit representatives tile space with one cell per
    fundamental domain, so their normalized volumes add up to g!.
    """
    volume = sum(normalized_volume(list(rep.vertices)) for rep in reps)
    if volume != factorial(g):
        raise CertificationError(
            "star fails the tiling invariant: normalized volume %d of the orbit "
            "representatives, expected %d" % (volume, factorial(g))
        )


def _walk_reps(factor, gram):
    """The orbit reps of the star, sorted; their `polytope_facets` fill the cache.

    It starts at the hole `geometry._vertex_from_origin` reaches from 0.  The Voronoi
    edge dual to a facet F through v of a rep A, outward normal n, leaves the hole of
    A - v along adj(G) n: the rows of F stay tight and the rest of A goes slack, so one
    ratio test (`geometry._step`) on the integer rows (2Ge, G[e]) gives the hole across
    F and its tight rows.  As x -> -x fixes the form, a rep A found registers -A too
    (m - A for its largest vertex m, hole m - c), and each holds its facet classes on
    the sides of their normals.  A class is crossed only while no known cell holds its
    other side, so each ratio test finds a new +- class of reps; as the cells of a
    tiling are connected through facets, every rep is found."""
    minima = _coset_minima(factor, gram)
    rows = sorted((primitive(tuple(2 * c for c in ge) + (v,)), e) for e, ge, v in minima)
    ineqs = [(row[:-1], row[-1]) for row, _ in rows]
    (gram, k), g = gram, len(gram[0])
    adj, _ = _scaled_inverse(gram)  # adj(G) = det(G) G^-1, as det G > 0
    reps, held, stack = {}, set(), []

    def found(nums, den, tight):  # the rep at a hole and its negative, each at its smallest vertex
        verts = [(0,) * g] + [rows[i][1] for i in tight]
        v = min(verts)
        vertices = tuple(sorted(vec_sub(w, v) for w in verts))
        nums = vec_sub(nums, [den * c for c in v])
        sq_radius = Fraction(dot(nums, mat_vec(gram, nums)), k * den * den)
        m = vertices[-1]
        negative = tuple(vec_sub(m, w) for w in vertices[::-1]), vec_sub([den * c for c in m], nums)
        for vertices, nums in dict.fromkeys([(vertices, nums), negative]):  # once if A = -A
            rep = reps[vertices] = DelaunayCell(vertices, (nums, den), sq_radius)
            try:
                classes, placements = facet_classes([rep])
            except ValueError:
                raise CertificationError("star cell %r is not full-dimensional" % (vertices,))
            for facet, holders in classes.items():
                for i, normal in holders:
                    held.add((facet, normal))
                    stack.append((facet, normal, nums, den, placements[i][1]))

    found(*_vertex_from_origin(ineqs, g))
    while stack:
        facet, normal, nums, den, v = stack.pop()
        if (facet, tuple(-c for c in normal)) not in held:
            found(*_step(ineqs, vec_sub(nums, [den * c for c in v]), den, mat_vec(adj, normal)))
    return tuple(reps[key] for key in sorted(reps))


def facet_classes(reps):
    """(map, placements): a `geometry.facet_map` of the facets of the reps up to
    translation, each moved so its smallest vertex is 0, over the placements
    (r, v) that hold them, the translates reps[r] - v; every facet of the tiling
    is in a class.  The moved facets are the keys cached with the facets (`_at_zero`)."""
    classes, index = {}, {}
    for r, rep in enumerate(reps):
        (facets, _), _ = _at_zero(rep.vertices)
        for members, normal, _, facet in facets:
            v = rep.vertices[members[0]]
            classes.setdefault(facet, []).append((index.setdefault((r, v), len(index)), normal))
    return classes, list(index)


def star_from_reps(form: QuadraticForm, reps) -> DelaunayStar:
    """The star of 0 of the orbit reps, certified.

    With each of the `facet_classes` held twice, on opposite sides, the
    translates over a point are equally many off codimension 2, and the
    tiling invariant makes them one.  Delaunay's lemma once per class pair, on
    the reps (`_lemma`), checks each hole and makes the lift of Q convex: every
    sphere is empty."""
    classes, placements = facet_classes(reps)
    unpaired = unpaired_facets(classes)
    if unpaired:
        holders = [reps[placements[i][0]] for i, _ in classes[unpaired[0]]]
        raise CertificationError(
            "star of the origin is not locally complete: the facet class %r is held by "
            "the reps %r, not by two on opposite sides"
            % (unpaired[0], [canonical_orbit_rep(rep).vertices for rep in holders])
        )
    _lemma(_integer_gram(form)[0], reps, placements, classes)
    cells = [rep.translate(tuple(-c for c in v)) for rep in reps for v in rep.vertices]
    cells.sort(key=lambda cell: cell.vertices)
    check_tiling(form.rank, reps)
    return DelaunayStar(form, tuple(cells), tuple(reps))


def delaunay_star(form: QuadraticForm) -> DelaunayStar:
    """All maximal Delaunay cells containing 0: the orbit reps of `_walk_reps`,
    one ratio test per +- class of reps beyond the first, certified by `star_from_reps`."""
    factor = _integer_ldl(form)  # raises unless definite
    if not 0 < form.rank <= 4:
        raise UnsupportedRankError("only ranks up to 4 are supported (and at least 1)")
    return star_from_reps(form, _walk_reps(factor, _integer_gram(form)))
