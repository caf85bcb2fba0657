"""Independent oracles: brute force for stars and generation in rank ≤ 2,
the whole symmetry group G for the faces of K, a plain `Fraction`
Gauss-Jordan elimination, principal minors and `Fraction` matrix products
for the exact kernel, a solve per box point for parallelepiped points and a degree-capped search
for semigroup membership, a solve of every d-subset of the inequalities for the vertex walk, a
`Fraction` kernel per ray subset for the cone facets and per drop set for
the faces of K, the earlier `triangulate_polytope` with a `Fraction`
determinant per simplex for the cached volume of a lattice polytope, a
Carathéodory search over independent ray subsets for cone membership and
extreme rays, a scan of the lattice points in a box for the
cone cover, pairwise polytope intersections (a vertex enumeration of the joined facet
systems) and a ray-by-ray cover for the tiling at 0 of simplicial
generation, a box scan for the lattice points of a cell that it leaves
unlisted, the former matcher that builds every shifted rep for the
set-inclusion matcher `cells_tiling`, the former empty-sphere sweep of the
ball of norm 4 r^2 (`oracle_ball_sweep`) for the nearest-point check of a lone
cell (`certify_cell`) and, once per orbit rep, for Delaunay's lemma, the
earlier lemma on a translate of a rep per facet class
(`oracle_check_local_delaunay`) for the lemma on the reps themselves, a walk
over every vertex of the Voronoi cell (`vertex_enumeration`) for the walk
over the orbit reps of a star, the earlier `Fraction` Fincke-Pohst sweep
for the integer sweep of the lattice points in a ball and the coset minima,
the former form-level match of a generator to its ray of K
(`identify_pm` of `voronoi_transform`) for the integer `faces.k_ray`, and the
former `Fraction` form arithmetic for the integer `form_add` and `form_scale`."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd, isqrt, lcm
from operator import mul
from typing import Dict, Iterable, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latdel import formats
from latdel.catalog import _flatten, _vector_square, catalog, catalog_names, sample_interior
from latdel.delaunay import (
    CertificationError,
    DelaunayStar,
    EmptySphereCertificate,
    NotCospherical,
    NotPositiveDefiniteError,
    _integer_ldl,
    _power,
    canonical_orbit_rep,
    cell_center,
    certify_cell,
    DelaunayCell,
    delaunay_star,
    facet_classes,
    facets_at_zero,
    make_cell,
    nearest_points,
    points_within,
    voronoi_inequalities,
)
from latdel.exact import (
    INDEFINITE,
    Matrix,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    QuadraticForm,
    SingularMatrixError,
    _echelon,
    _scaled_inverse,
    congruence_act,
    definiteness,
    dot,
    form_add,
    form_scale,
    integral,
    ldl,
    mat_mul,
    mat_vec,
    matrix_rank,
    norm,
    nullspace,
    shift_points,
    solve_overdetermined,
    transpose,
    vec_sub,
)
from latdel.faces import (
    K_RAYS,
    ROOTS,
    SIGNED_PAIRS,
    VORONOI_MATRIX,
    SignedPair,
    _pair_vector,
    _classification,
    _k_facets,
    apply_to_face,
    enumerate_faces,
    facial_certificate,
    group_G,
    group_generators,
    k_ray,
    pair_permutation,
    root_permutation,
)
from latdel import delaunay, exact, generation, geometry, verify
from latdel.generation import (
    GenerationReport,
    _overlap,
    _require_origin,
    cone_cover_check,
    cone_rays,
    in_semigroup,
    is_simplicially_generating,
    is_totally_generating,
    parallelepiped_points,
)
from latdel.geometry import (
    _lift,
    cone_contains,
    cone_facets,
    extremal_rays,
    normalized_volume,
    polytope_facets,
    primitive,
    triangulate_cone,
    unpaired_facets,
    vertex_enumeration,
)
from latdel.verify import FusionError, cells_tiling, star_for

# (matrix, grid denominator): the grid {i/D : |i| <= D}^g contains every
# hole of every star cell, asserted below before the comparison
CORPUS = [
    ([[1]], 2),
    ([[3]], 2),
    ([[1, 0], [0, 1]], 2),
    ([[2, -1], [-1, 2]], 3),
    ([[2, 1], [1, 2]], 3),
    ([[1, 0], [0, 2]], 2),
    ([[2, 0], [0, 3]], 2),
    ([[3, 1], [1, 2]], 10),
    ([[3, -1], [-1, 2]], 10),
    ([[4, 1], [1, 3]], 22),
]


def form(rows):
    return QuadraticForm(tuple(tuple(Fraction(v) for v in row) for row in rows))


@lru_cache(maxsize=None)
def weighted_star(name, weights):
    """The star of a catalog cone's form with the given weights, a tuple or
    None; the unit form's star is `star_for`'s."""
    if weights is None:
        return star_for(name)
    return delaunay_star(sample_interior(catalog(name), weights))


def oracle_star_cells(B, denom):
    """Maximal cells of Del(0) by scanning nearest-point sets over a grid."""
    g = B.rank
    zero = (0,) * g
    found = set()
    steps = [Fraction(i, denom) for i in range(-denom, denom + 1)]
    for alpha in product(steps, repeat=g):
        pts = nearest_points(B, alpha)
        if zero in pts and affine_dimension(list(pts)) == g:
            found.add(tuple(sorted(pts)))
    return found


_CACHE = {}


def star_oracle_agrees() -> bool:
    """Cached comparison of delaunay_star against the grid-scan oracle."""
    if "star" not in _CACHE:
        ok = True
        for rows, denom in CORPUS:
            B = form(rows)
            star = delaunay_star(B)
            on_grid = all(
                denom % c.denominator == 0 and abs(c) <= 1
                for cell in star.cells
                for c in cell.center
            )
            agree = oracle_star_cells(B, denom) == {
                c.vertices for c in star.cells
            }
            ok = ok and on_grid and agree
        _CACHE["star"] = ok
    return _CACHE["star"]


def test_star_matches_nearest_point_oracle():
    assert star_oracle_agrees()


def affine_dimension(points) -> int:
    if not points:
        return -1
    diffs = [vec_sub(p, points[0]) for p in points[1:]]
    if not diffs:
        return 0
    return matrix_rank(diffs)


def test_affine_dimension():
    assert affine_dimension([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    assert affine_dimension([(0, 0), (2, 2)]) == 1
    assert affine_dimension([(5, 5)]) == 0


def _int_scaled(a, b):
    """Inequality a.x <= b as a primitive integer row (a, b)."""
    row = primitive(tuple(a) + (b,)) if any(a) or b else (0,) * (len(a) + 1)
    return row[:-1], row[-1]


def oracle_star(form):
    """The star from every vertex of the Voronoi cell: the holes by
    `vertex_enumeration`, each cell 0 plus the coset minima tight at its
    hole, and the reps as the cells' canonical translates; uncertified."""
    ineqs = voronoi_inequalities(form)
    centers = vertex_enumeration([(row, rhs) for row, rhs, _ in ineqs])
    # the tight test in integers: primitive rows against c = nums / den
    scaled = [(_int_scaled(row, rhs), e) for row, rhs, e in ineqs]
    zero = (0,) * form.rank
    cells = []
    for c in centers:
        nums, den = integral(c)
        verts = [zero] + [e for (a, b), e in scaled if dot(a, nums) == b * den]
        cells.append(make_cell(verts, tuple(c), norm(form, c)))
    cells.sort(key=lambda cell: cell.vertices)
    reps = sorted(
        {canonical_orbit_rep(cell).vertices: canonical_orbit_rep(cell) for cell in cells}.values(),
        key=lambda cell: cell.vertices,
    )
    return DelaunayStar(form, tuple(cells), tuple(reps))


def test_star_of_the_reps_matches_the_walk_over_every_voronoi_vertex():
    rng = random.Random(0)
    specs = [(name, None) for name in catalog_names()]
    for name in ("dim4.K", "dim4.G1234", "dim4.V2capV3", "dim4.W0", "dim4.F12"):
        for _ in range(3):
            specs.append((name, tuple(rng.randint(1, 5) for _ in catalog(name).generators)))
    for name, weights in specs:
        star = weighted_star(name, weights)
        expected = formats.dumps(formats.encode_star(oracle_star(star.form)))
        assert formats.dumps(formats.encode_star(star)) == expected, (name, weights)


def naive_generating(cell, bound=10):
    """Direct comparison of cone lattice points against semigroup sums."""
    gens = [v for v in cell.vertices if any(v)]
    g = len(gens[0])
    sums = {(0,) * g}
    frontier = {(0,) * g}
    for _ in range(bound):
        frontier = {
            tuple(a + b for a, b in zip(p, v))
            for p in frontier
            for v in gens
        }
        sums |= frontier
    for x in product(range(-bound, bound + 1), repeat=g):
        if sum(abs(c) for c in x) > bound:
            continue
        if oracle_cone_contains(gens, x) is None:
            continue
        if x not in sums:
            return False, x
    return True, None


def is_gap(cell, x) -> bool:
    """x lies in C(0, cell) and is no sum of the cell's nonzero vertices."""
    gens = [v for v in cell.vertices if any(v)]
    in_cone = x is not None and oracle_cone_contains(gens, x) is not None
    return in_cone and not oracle_in_semigroup(x, gens, 10)


# rank-3 cells that are not unimodular, with the unit simplex and the first
# Reeve tetrahedron as unimodular controls: the cube tetrahedron <0, s12,
# s13, s23>, the Reeve tetrahedra <0, e1, e2, e1 + e2 + r e3>, and a lattice
# polytope with five vertices and no other lattice point, whose gaps lie in
# the second simplex of its pulling triangulation from 0 only
RANK3_CELLS = [
    make_cell([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]),
    *[make_cell([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, r)]) for r in range(1, 5)],
    make_cell([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    make_cell([(0, 0, 0), (-1, -1, 2), (0, 1, 1), (1, -1, -1), (1, 2, 0)]),
]


def unlisted_lattice_points(cell):
    """The lattice points of the hull that are not listed, by a box scan and
    a Carathéodory search in the cone over the lifted vertices."""
    lifted = _lift(cell.vertices)
    box = product(*(range(min(c), max(c) + 1) for c in zip(*cell.vertices)))
    return [
        x
        for x in box
        if x not in cell.vertices and oracle_cone_contains(lifted, x + (1,)) is not None
    ]


def refuses_naming(cell, points) -> bool:
    """is_totally_generating refuses the cell with a ValueError naming one of the points."""
    try:
        is_totally_generating(cell)
    except ValueError as exc:
        return any(repr(p) in str(exc) for p in points)
    return False


def generation_oracle_agrees() -> bool:
    """Cached comparison of is_totally_generating against naive enumeration:
    the same verdict, and both witnesses gaps of the semigroup.  A cell that
    leaves a lattice point of its hull unlisted is refused, naming one."""
    if "gen" not in _CACHE:
        cells = []
        for rows, _ in CORPUS:
            star = delaunay_star(form(rows))
            cells.extend((cell, 10) for cell in star.orbit_reps)
        cells.append((make_cell([(0, 0), (1, 0), (1, 2)]), 10))
        cells.extend((cell, 4) for cell in RANK3_CELLS)
        ok, refused = True, 0
        for cell, bound in cells:
            unlisted = unlisted_lattice_points(cell)
            if unlisted:
                ok, refused = ok and refuses_naming(cell, unlisted), refused + 1
                continue
            expected, witness = naive_generating(cell, bound)
            report = is_totally_generating(cell)
            ok = ok and report.totally_generating == expected
            if not expected:
                ok = ok and is_gap(cell, witness) and is_gap(cell, report.witness)
        _CACHE["gen"] = ok and refused == 1
    return _CACHE["gen"]


def test_generation_matches_naive_oracle():
    assert generation_oracle_agrees()


def oracle_parallelepiped_points(rays):
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


@st.composite
def independent_rays(draw):
    """k <= g <= 4 independent integer rays, k < g included."""
    g = draw(st.integers(1, 4))
    k = draw(st.integers(1, g))
    entries = st.integers(-2, 2)
    rays = draw(st.lists(st.tuples(*[entries] * g), min_size=k, max_size=k))
    assume(matrix_rank(rays) == k)
    return rays


@settings(max_examples=150, deadline=None)
@given(independent_rays())
def test_parallelepiped_points_match_the_box_scan(rays):
    # the residue enumeration tries p^k candidates and the box scan solves
    # one system per box point; |p| <= 4 keeps both fast
    assume(abs(_echelon(rays)[2]) <= 4)
    assert parallelepiped_points(rays) == oracle_parallelepiped_points(rays)


class SemigroupBoundExceeded(RuntimeError):
    """The bounded membership search hit its degree cap; never passed silently."""


def oracle_in_semigroup(x, generators, degree_bound: int) -> bool:
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
            if oracle_cone_contains(gens[i:], rest) is None:
                continue
            if search(rest, i, budget - 1):
                result = True
                break
        memo[key] = result
        return result

    return search(tuple(x), 0, degree_bound)


@st.composite
def semigroup_cases(draw):
    """Up to 4 generators with first coordinate >= 1, so their cone is
    pointed, and a point; a first coordinate above the cap of 6 can leave
    the capped search undecided."""
    g = draw(st.integers(1, 3))
    rest = [st.integers(-2, 2)] * (g - 1)
    gens = draw(st.lists(st.tuples(st.integers(1, 2), *rest), min_size=1, max_size=4))
    x = draw(st.tuples(st.integers(0, 8), *[st.integers(-4, 4)] * (g - 1)))
    return x, gens


@settings(max_examples=200, deadline=None)
@given(semigroup_cases())
def test_in_semigroup_matches_the_capped_search(case):
    x, gens = case
    try:
        expected = oracle_in_semigroup(x, gens, 6)
    except SemigroupBoundExceeded:
        assume(False)
    assert in_semigroup(x, gens) == expected


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def fraction_closure():
    """All elements of G, closed over `Fraction` matrices."""
    gens = group_generators()
    elements = {identity_matrix(4)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return frozenset(elements)


def test_integer_closure_matches_fraction_closure():
    oracle = fraction_closure()
    assert len(oracle) == 1152
    # root_permutation is injective on G (the faithfulness test below)
    assert group_G() == {root_permutation(m) for m in oracle}


def ray_of(v):
    """The signed pair (p, q, sign) with v = +-(e_p + sign * e_q)."""
    p, q = [i for i, c in enumerate(v) if c]
    return p + 1, q + 1, v[p] * v[q]


# for p = 1..4 the roots e_p + e_q and e_p - e_q, q = 2 for p = 1 and 1 otherwise
_ROW_ROOTS = ((0, 2), (0, 3), (4, 7), (8, 11))


def _doubled_matrix(perm) -> Tuple[Tuple[int, ...], ...]:
    """2*M read back from its root permutation: row p of 2*M is
    M^T (e_p + e_q) + M^T (e_p - e_q)."""
    return tuple(
        tuple(a + b for a, b in zip(ROOTS[perm[i]], ROOTS[perm[j]])) for i, j in _ROW_ROOTS
    )


def test_root_action_is_faithful_and_folds_to_the_ray_action():
    read_back = set()
    for m in fraction_closure():
        perm = root_permutation(m)
        images = [ROOTS[r] for r in perm]
        assert sorted(images) == sorted(ROOTS)
        # each root goes to M^T r, and its ray to the ray of that image
        rays = pair_permutation(m)
        for root, image in zip(ROOTS, images):
            assert image == mat_vec(transpose(m), root)
            assert rays[ray_of(root)] == ray_of(image)
        doubled = _doubled_matrix(perm)
        assert doubled == tuple(tuple(2 * v for v in row) for row in m)
        read_back.add(doubled)
    assert len(read_back) == 1152


def test_generator_orbits_are_orbits_of_every_element():
    _, orbits = _classification()
    perms = [pair_permutation(m) for m in fraction_closure()]
    for orbit in orbits.values():
        for perm in perms:
            assert {apply_to_face(perm, d) for d in orbit} == orbit
        seed = min(orbit)
        assert {apply_to_face(perm, seed) for perm in perms} == orbit


def pm_form(p: int, q: int, sign: int) -> QuadraticForm:
    """(x_p + sign * x_q)^2 as a rank-4 matrix."""
    return _vector_square(4, _pair_vector(p, q, sign))


PM_FORMS: Dict[SignedPair, QuadraticForm] = {k: pm_form(*k) for k in SIGNED_PAIRS}


def _primitive_form(form: QuadraticForm) -> QuadraticForm:
    ints = primitive([v for row in form.entries for v in row])
    g = form.rank
    return QuadraticForm(tuple(ints[i * g:(i + 1) * g] for i in range(g)))


_PM_LOOKUP = {_primitive_form(f).entries: k for k, f in PM_FORMS.items()}


def identify_pm(form: QuadraticForm) -> Optional[SignedPair]:
    """The signed pair whose form is a positive multiple of the input."""
    try:
        prim = _primitive_form(form)
    except ValueError:
        return None
    return _PM_LOOKUP.get(prim.entries)


def voronoi_transform(form: QuadraticForm) -> QuadraticForm:
    if form.rank != 4:
        raise ValueError("the Voronoi transformation acts on rank-4 forms")
    return congruence_act(VORONOI_MATRIX, form)


def scaled_form(form, c):
    return QuadraticForm(tuple(tuple(c * v for v in row) for row in form.entries))


def seeded_symmetric_forms(count, seed=0):
    """Integer symmetric 4x4 forms: every other one a square w w^T of a small
    integer w, so that some land on a ray of K, the rest with entries in -2..2."""
    rng = random.Random(seed)
    forms = []
    for n in range(count):
        if n % 2:
            w = [rng.randint(-1, 1) for _ in range(4)]
            rows = [[a * b for b in w] for a in w]
        else:
            rows = [[0] * 4 for _ in range(4)]
            for i, j in combinations_with_replacement(range(4), 2):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        forms.append(QuadraticForm(tuple(tuple(Fraction(v) for v in row) for row in rows)))
    return forms


def test_k_ray_matches_the_form_level_identification():
    generators = [g for name in catalog_names() for g in catalog(name).generators
                  if catalog(name).ambient_rank == 4]
    forms = [scaled_form(g, c) for g in generators for c in (1, 3, Fraction(1, 2), -1, 0)]
    forms += seeded_symmetric_forms(400)
    found = [k_ray(f) for f in forms]
    assert found == [identify_pm(voronoi_transform(f)) for f in forms]
    # both outcomes occur: every K ray is met, and forms miss every ray
    assert set(found) == set(SIGNED_PAIRS) | {None}
    assert all(k_ray(scaled_form(g, 0)) is None for g in generators)
    for ask in (k_ray, voronoi_transform):
        with pytest.raises(ValueError, match="^the Voronoi transformation acts on rank-4 forms$"):
            ask(catalog("dim3.V").generators[0])


def fraction_rref(rows, ncols):
    """Gauss-Jordan over `Fraction` on the first ncols columns of the rows.

    Returns the reduced rows and the pivot columns.
    """
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * p for v, p in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return a, pivots


def oracle_nullspace(rows):
    n = len(rows[0])
    a, pivots = fraction_rref(rows, n)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(tuple(v))
    return basis


def oracle_solve(rows, rhs):
    """The solution, or the name of the error solve_overdetermined must raise."""
    n = len(rows[0])
    a, pivots = fraction_rref([list(r) + [b] for r, b in zip(rows, rhs)], n)
    if any(a[i][n] != 0 for i in range(len(pivots), len(a))):
        return "inconsistent"
    if len(pivots) < n:
        return "singular"
    return tuple(a[i][n] for i in range(n))


def oracle_determinant(m):
    n = len(m)
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


# small rationals with many zeros, so that rank-deficient systems are common
ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def rational_matrices(draw, max_size=7, square=False):
    nrows = draw(st.integers(1, max_size))
    ncols = nrows if square else draw(st.integers(1, max_size))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    # replace some rows by combinations of the others
    for i in range(1, nrows):
        if draw(st.booleans()) and draw(st.booleans()):
            c = draw(st.lists(ENTRIES, min_size=i, max_size=i))
            rows[i] = [sum(c[k] * rows[k][j] for k in range(i)) for j in range(ncols)]
    return rows


@settings(max_examples=200, deadline=None)
@given(rational_matrices(), st.data())
def test_kernel_matches_fraction_gauss_jordan(rows, data):
    n = len(rows[0])
    kernel = oracle_nullspace(rows)
    assert nullspace(rows) == kernel
    assert matrix_rank(rows) == n - len(kernel)
    if data.draw(st.booleans()):
        x = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    expected = oracle_solve(rows, rhs)
    try:
        got = solve_overdetermined(rows, rhs)
    except SingularMatrixError:
        got = "singular"
    except ValueError as exc:
        assert str(exc) == "inconsistent"
        got = "inconsistent"
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(rational_matrices(square=True))
def test_determinant_matches_fraction_elimination(m):
    # the scaled inverse of an integer multiple of m: None iff it is singular,
    # else |det| and |det| times the inverse from the Gauss-Jordan of [M | I]
    n, den = len(m), lcm(*[v.denominator for row in m for v in row])
    m = [[int(v * den) for v in row] for row in m]
    det = abs(oracle_determinant(m))
    got = _scaled_inverse(m)
    if not det:
        assert got is None
    else:
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        reduced, _ = fraction_rref([row + e for row, e in zip(m, eye)], n)
        assert got == ([[det * v for v in row[n:]] for row in reduced], det)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def oracle_form_add(*forms: QuadraticForm) -> QuadraticForm:
    """The former `exact.form_add`, on the `Fraction` entries."""
    ranks = {f.rank for f in forms}
    if len(ranks) != 1:
        raise ValueError("dimension mismatch")
    n = ranks.pop()
    return QuadraticForm(
        tuple(
            tuple(sum(f.entries[i][j] for f in forms) for j in range(n))
            for i in range(n)
        )
    )


def oracle_form_scale(c, form: QuadraticForm) -> QuadraticForm:
    """The former `exact.form_scale`, on the `Fraction` entries."""
    c = Fraction(c)
    return QuadraticForm(tuple(tuple(c * v for v in row) for row in form.entries))


@st.composite
def rational_forms(draw, n):
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = draw(ENTRIES)
    return QuadraticForm(entries)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(rational_forms(n), min_size=1, max_size=4)),
       ENTRIES)
def test_integer_form_arithmetic_matches_the_fraction_arithmetic(forms, c):
    # the sum over the lcm of the scales and the scaled Gram, each in lowest terms,
    # are the forms of the Fraction entries; the scale is the least denominator
    for got, want in [(form_add(*forms), oracle_form_add(*forms))] + [
            (form_scale(c, f), oracle_form_scale(c, f)) for f in forms]:
        assert got == want and got.entries == want.entries and hash(got) == hash(want)
        assert gcd(got.scale, *[x for row in got.gram for x in row]) == 1
    for f in forms:
        assert QuadraticForm(f.entries) == f and QuadraticForm(as_matrix(f.entries)) == f
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        form_add(forms[0], QuadraticForm([[1] * (forms[0].rank + 1)] * (forms[0].rank + 1)))


def oracle_congruence_act(a, form):
    """The congruence action B |-> A^T B A for invertible rational A."""
    a = as_matrix(a)
    if oracle_determinant(a) == 0:
        raise SingularMatrixError("congruence by a singular matrix")
    return QuadraticForm(mat_mul(transpose(a), mat_mul(form.entries, a)))


@settings(max_examples=200, deadline=None)
@given(rational_matrices(max_size=5, square=True), st.data())
def test_integer_congruence_matches_fraction_congruence(a, data):
    n = len(a)
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = data.draw(ENTRIES)
    form = QuadraticForm(entries)
    results = []
    for act in (oracle_congruence_act, congruence_act):
        try:
            results.append(act(a, form))
        except SingularMatrixError:
            results.append("singular")
    assert results[0] == results[1]


def principal_minor_class(entries):
    """Sylvester: semidefinite iff every principal minor is >= 0, definite iff
    every leading principal minor is > 0."""
    n = len(entries)
    minors = {
        idx: oracle_determinant([[entries[i][j] for j in idx] for i in idx])
        for k in range(1, n + 1)
        for idx in combinations(range(n), k)
    }
    if any(v < 0 for v in minors.values()):
        return INDEFINITE
    if all(minors[tuple(range(k))] > 0 for k in range(1, n + 1)):
        return POSITIVE_DEFINITE
    return POSITIVE_SEMIDEFINITE


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # a Gram matrix A^T A: semidefinite, of rank at most the row count
        k = draw(st.integers(0, n))
        a = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=k, max_size=k))
        return [[sum(r[i] * r[j] for r in a) for j in range(n)] for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(ENTRIES)
    return m


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_definiteness_matches_principal_minors(entries):
    assert definiteness(QuadraticForm(entries)) == principal_minor_class(entries)


def oracle_vertices(inequalities):
    """Vertices of {x : a.x <= b} from every nonsingular d-subset of the rows.

    Each (d-1)-prefix of the rows [a | b], scaled to integers, is reduced
    once by the fraction-free `_echelon`, to p times its reduced echelon
    form with rows a_c at the pivot columns c.  Each later row r is
    eliminated against it, r' = p r - sum r[c] a_c, and the d-subset is
    nonsingular when r' is nonzero at the free column f.  Cramer's rule
    then gives its solution, kept when it satisfies every inequality.
    """
    if not inequalities:
        return []
    d = len(inequalities[0][0])
    ineqs = []
    for a, b in inequalities:
        row = [Fraction(v) for v in a] + [Fraction(b)]
        scale = lcm(*(v.denominator for v in row))
        row = [int(v * scale) for v in row]
        ineqs.append((tuple(row[:-1]), row[-1]))
    rows = [a + (b,) for a, b in ineqs]
    seen = set()
    for prefix in combinations(range(len(rows)), d - 1):
        reduced, pivots, p = _echelon([rows[i] for i in prefix])
        if len(pivots) != d - 1 or d in pivots:
            continue
        (f,) = [c for c in range(d) if c not in pivots]
        # r'[k] = r.w_k, with p at k and -a_c[k] at each pivot column c
        wf, wd = [0] * (d + 1), [0] * (d + 1)
        wf[f] = wd[d] = p
        for c, a in zip(pivots, reduced):
            wf[c], wd[c] = -a[f], -a[d]
        for r in rows[prefix[-1] + 1 if prefix else 0:]:
            rf, rd = sum(map(mul, r, wf)), sum(map(mul, r, wd))
            if rf == 0:
                continue
            nums = [0] * d
            nums[f], den = p * rd, p * rf
            for c, a in zip(pivots, reduced):
                nums[c] = a[d] * rf - a[f] * rd
            if den < 0:
                den, nums = -den, [-v for v in nums]
            if all(sum(map(mul, a, nums)) <= b * den for a, b in ineqs):
                seen.add(tuple(Fraction(v, den) for v in nums))
    return sorted(seen)


def unit_vectors(d):
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


@st.composite
def bounded_polyhedra(draw):
    """A box or a cross-polytope cut by random rows, in dimension 1 to 4.

    Cross-polytopes (d >= 3) and rows through box corners give degenerate
    vertices; copies, positive multiples and far-away rows give duplicate
    and redundant rows; a row with its negation flattens the polytope; and
    random offsets may leave it empty.
    """
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        rows = [(tuple(s * c for c in e), k) for e in unit_vectors(d) for s in (1, -1)]
    else:
        rows = [(signs, k) for signs in product((1, -1), repeat=d)]
    coeffs = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    for a in draw(st.lists(coeffs, max_size=4)):
        rows.append((tuple(a), draw(st.integers(-2, 2 * k))))
    if draw(st.booleans()):
        a = tuple(draw(coeffs))
        b = draw(st.integers(-k, k))
        rows += [(a, b), (tuple(-c for c in a), -b)]
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        a, b = rows[i]
        m = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)]))
        rows.append((tuple(m * c for c in a), m * b))
    if draw(st.booleans()):
        rows.append((tuple(draw(coeffs)), 100))
    return draw(st.permutations(rows))


def test_walk_on_empty_and_degenerate_inputs():
    assert vertex_enumeration([]) == oracle_vertices([]) == []
    for d in range(1, 5):
        cube = [(tuple(s * c for c in e), 1) for e in unit_vectors(d) for s in (1, -1)]
        cross = [(signs, 1) for signs in product((1, -1), repeat=d)]
        for rows in (cube, cross, cube + cross, cube + cube):
            assert vertex_enumeration(rows) == oracle_vertices(rows)
        # the single point 0, and the empty set
        point = [(a, 0) for a, _ in cube]
        assert vertex_enumeration(point) == [(Fraction(0),) * d]
        empty = point + [(cube[0][0], -1)]
        assert vertex_enumeration(empty) == oracle_vertices(empty) == []
    # a polyhedron that holds a line has no vertex: a half-plane and a strip;
    # a quadrant and a half-line, which hold none, have one
    assert vertex_enumeration([((1, 0), 1)]) == []
    assert vertex_enumeration([((1, 0), 1), ((-1, 0), 1)]) == []
    assert vertex_enumeration([((-1, 0), 0), ((0, -1), 0)]) == [(0, 0)]
    assert vertex_enumeration([((1,), 1)]) == [(1,)]


@settings(max_examples=150, deadline=None)
@given(bounded_polyhedra())
def test_walk_matches_all_subsets(rows):
    assert vertex_enumeration(rows) == oracle_vertices(rows)


def test_walk_matches_all_subsets_on_voronoi_cells():
    for name in catalog_names():
        form = sample_interior(catalog(name))
        rows = [(row, rhs) for row, rhs, _ in voronoi_inequalities(form)]
        assert vertex_enumeration(rows) == oracle_vertices(rows), name


def oracle_cone_facets(rays):
    """Facets of a pointed cone, as sorted (member indices, normal) pairs.

    The normal lies in the linear span of the rays, is >= 0 on every ray and
    vanishes exactly on the members.  Each facet is spanned by rank - 1 of
    the rays, so every such subset is tried: its normal is the kernel of the
    subset stacked with the equations of the span, when that is a line.
    The kernels come from the plain `Fraction` Gauss-Jordan of
    `oracle_nullspace`, so no elimination code is shared with `cone_facets`.
    """
    rays = [tuple(r) for r in rays]
    g = len(rays[0])
    span_equations = oracle_nullspace(rays)
    facets = {}
    for subset in combinations(range(len(rays)), g - len(span_equations) - 1):
        stack = [rays[i] for i in subset] + span_equations
        # rank-1 rays in a one-dimensional space leave an empty stack, which
        # imposes nothing
        kernel = oracle_nullspace(stack or [(0,) * g])
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


def oracle_cone_contains(rays, x):
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


def oracle_extremal_rays(vectors):
    """The inclusion-minimal generator subset of cone(vectors), primitivized."""
    rays = [primitive(v) for v in vectors]
    rays = sorted(set(rays))
    keep = []
    for i, r in enumerate(rays):
        others = [s for j, s in enumerate(rays) if j != i]
        if oracle_cone_contains(others, r) is None:
            keep.append(r)
    return keep


def positive_multiple(u, v):
    """u = t v for some rational t > 0."""
    i = next(i for i, c in enumerate(v) if c)
    t = Fraction(u[i]) / v[i]
    return t > 0 and all(a == t * b for a, b in zip(u, v))


def embedded_pointed_rays(draw, g, k, count):
    """count integer rays of a pointed cone of rank k or less in Z^g.

    Rays with a positive last coordinate in Z^k span a pointed cone; an
    injective integer map carries it into Z^g.
    """
    base = st.tuples(*[st.integers(-2, 2)] * (k - 1), st.integers(1, 3))
    rays = draw(st.lists(base, min_size=count[0], max_size=count[1]))
    column = st.lists(st.integers(-2, 2), min_size=g, max_size=g)
    embedding = draw(st.lists(column, min_size=k, max_size=k).filter(lambda m: matrix_rank(m) == k))
    return [tuple(sum(c * e[j] for c, e in zip(r, embedding)) for j in range(g)) for r in rays]


@st.composite
def pointed_cones(draw):
    """Integer rays of a pointed cone in dimension 1 to 4, of any rank up to
    the dimension.  Copies and positive multiples of some rays are appended."""
    g = draw(st.integers(1, 4))
    rays = embedded_pointed_rays(draw, g, draw(st.integers(1, g)), (1, 7))
    for i in draw(st.lists(st.integers(0, len(rays) - 1), max_size=3)):
        t = draw(st.integers(1, 3))
        rays.append(tuple(t * c for c in rays[i]))
    return draw(st.permutations(rays))


@st.composite
def square_ray_sets(draw):
    """g integer rays in dimension g = 1 to 4: independent, with det > 0 or
    det < 0, or (g >= 2) a pointed set of rank below g."""
    g = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([1, -1, 0] if g > 1 else [1, -1]))
    if kind == 0:
        return embedded_pointed_rays(draw, g, draw(st.integers(1, g - 1)), (g, g))
    row = st.tuples(*[st.integers(-3, 3)] * g)
    return draw(st.lists(row, min_size=g, max_size=g).filter(lambda m: kind * oracle_determinant(m) > 0))


def assert_cone_facets_match_the_oracle(rays):
    expected = oracle_cone_facets(rays)
    got = cone_facets(rays)
    assert [m for m, _ in got] == [m for m, _ in expected]
    for (_, normal), (_, oracle_normal) in zip(got, expected):
        assert all(type(c) is int for c in normal) and gcd(*normal) == 1
        assert positive_multiple(normal, oracle_normal)


@settings(max_examples=200, deadline=None)
@given(pointed_cones())
def test_cone_facets_match_fraction_nullspace(rays):
    assert_cone_facets_match_the_oracle(rays)


@settings(max_examples=200, deadline=None)
@given(square_ray_sets())
def test_simplicial_cone_facets_match_fraction_nullspace(rays):
    # `_simplicial_facets` answers independent rays only, `cone_facets` every set
    assert (geometry._simplicial_facets(rays) is None) == (oracle_determinant(rays) == 0)
    assert_cone_facets_match_the_oracle(rays)


def scaled_rays(rays):
    """Ray i times its own positive rational (i + 2) / (2i + 3)."""
    return [tuple(Fraction(i + 2, 2 * i + 3) * c for c in r) for i, r in enumerate(rays)]


def test_cone_facets_match_the_oracle_where_the_search_prunes():
    # the hypothesis cones stop at dimension 4: here K's twelve flattened
    # generators in dimension 10, and the lifted vertices of every orbit rep
    # of the rank-4 unit stars in dimension 5, each also with rational rays
    k_rays = _flatten(*[PM_FORMS[k] for k in SIGNED_PAIRS])
    assert len(k_rays[0]) == 10 and len(cone_facets(k_rays)) == 64
    assert tuple(map(tuple, k_rays)) == K_RAYS
    stars = [star_for(name) for name in catalog_names()]
    reps = [_lift(rep.vertices) for star in stars if star.form.rank == 4 for rep in star.orbit_reps]
    assert sum(star.form.rank == 4 for star in stars) == 17
    assert max(map(len, reps)) == 8 and sum(len(r) > 5 for r in reps) > 0
    for rays in [k_rays] + reps:
        assert_cone_facets_match_the_oracle(rays)
        assert_cone_facets_match_the_oracle(scaled_rays(rays))


def rank4_generator_rays():
    """{primitive flattened generator: its names} over every generator of every
    rank-4 catalog cone."""
    named = {}
    for name in catalog_names():
        cone = catalog(name)
        for gname, g in zip(cone.generator_names, cone.generators):
            if cone.ambient_rank == 4:
                named.setdefault(primitive(_flatten(g)[0]), set()).add(gname)
    return named


def test_the_rank4_generator_cone_costs_its_facets_not_its_ray_subsets():
    # the 19 distinct generators span the 10-dimensional space of forms; a walk
    # over their ray subsets made 166,817 kernel cuts, and the all-subsets
    # oracle takes minutes, so each facet is certified directly instead
    named = rank4_generator_rays()
    rays = sorted(named)
    with mock.patch.object(geometry, "_cut", wraps=geometry._cut) as cut:
        facets = cone_facets(rays)
    assert len(rays) == 19 and len(facets) == 82 and cut.call_count < 200
    for members, normal in facets:
        assert all(type(c) is int for c in normal) and gcd(*normal) == 1
        assert all(dot(normal, r) >= 0 for r in rays)
        assert matrix_rank([rays[i] for i in members]) == 9
    # the two rays that are not extreme: omega, a third of a sum of other
    # generators (omega_third), and e_34125
    kept = extremal_rays(rays)
    assert sorted(sorted(named[r]) for r in rays if r not in kept) == [["e_12345"], ["e_34125"]]
    _k_facets.cache_clear()
    with mock.patch.object(geometry, "_cut", wraps=geometry._cut) as cut:
        assert len(_k_facets()) == 64
    assert cut.call_count < 100


def test_facet_classes_read_from_the_cache_match_the_oracle():
    # after a cache clear, a rep whose negative has the smaller key reads a
    # mapped entry, its class keys recomputed from its own vertices
    stars = [star_for(name) for name in catalog_names()]
    keys = [rep.vertices for star in stars for rep in star.orbit_reps]
    assert any(tuple(vec_sub(k[-1], v) for v in reversed(k)) < k for k in keys)
    geometry._lattice_polytope.cache_clear()
    for _ in ("cold", "warm"):
        for star in stars:
            assert facet_classes(star.orbit_reps)[0] == oracle_facet_classes(star.orbit_reps)[0]


@settings(max_examples=200, deadline=None)
@given(square_ray_sets(), st.data())
def test_simplex_volume_matches_the_fraction_determinant(rows, data):
    base = data.draw(st.tuples(*[st.integers(-3, 3)] * len(rows)))
    points = data.draw(st.permutations([base] + [tuple(a + b for a, b in zip(base, r)) for r in rows]))
    det = abs(oracle_determinant([vec_sub(p, points[0]) for p in points[1:]]))
    if det:
        assert normalized_volume(points) == det
    else:
        with pytest.raises(ValueError, match="polytope is not full-dimensional"):
            normalized_volume(points)


def triangulate_polytope(points):
    """A pulling triangulation of conv(points); points need not be full-dim.

    Returns simplices as tuples of indices into the input list, pulling from
    the first point so the decomposition is determined by the input order:
    the triangulation of the cone over the lifted points.
    """
    return sorted(tuple(sorted(s)) for s in triangulate_cone(_lift(points)))


def test_triangulation_of_the_square():
    assert len(triangulate_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])) == 2


@st.composite
def lattice_polytopes(draw):
    """g + 1 to g + 4 distinct lattice points of a small box in dimension g =
    2 to 4, full-dimensional: mostly not a simplex, some not all vertices."""
    g = draw(st.integers(2, 4))
    box = st.tuples(*[st.integers(-1, 2)] * g)
    points = draw(st.lists(box, min_size=g + 1, max_size=g + 4, unique=True))
    assume(affine_dimension(points) == g)
    return points


@settings(max_examples=150, deadline=None)
@given(lattice_polytopes(), st.data())
def test_polytope_facets_and_volume_match_the_oracles(points, data):
    lifted = _lift(points)
    simplices = triangulate_polytope(points)
    volume = sum(abs(oracle_determinant([lifted[i] for i in s])) for s in simplices)
    assert normalized_volume(points) == volume
    # the volume does not depend on the point the triangulation pulls from
    assert normalized_volume(data.draw(st.permutations(points))) == volume
    assert_facets_match_the_oracle(points, polytope_facets(points))


def assert_facets_match_the_oracle(points, facets):
    expected = oracle_cone_facets(_lift(points))
    assert [m for m, _, _ in facets] == [m for m, _ in expected]
    for (members, normal, offset), (_, w) in zip(facets, expected):
        assert positive_multiple(tuple(-c for c in normal) + (offset,), w)
        assert gcd(*normal, offset) == 1
        assert all(dot(normal, p) <= offset for p in points)
        assert [i for i, p in enumerate(points) if dot(normal, p) == offset] == list(members)


@settings(max_examples=100, deadline=None)
@given(lattice_polytopes())
def test_a_polytope_and_its_negative_share_one_cache_entry(points):
    # -P as m - P, m the last point, in reversed order: the first of the two
    # to be asked for fills the entry, the second maps it and eliminates nothing
    negative = [vec_sub(points[-1], p) for p in reversed(points)]
    for pair in ((points, negative), (negative, points)):
        geometry._lattice_polytope.cache_clear()
        volumes = []
        for i, p in enumerate(pair):
            spy = mock.patch.object(geometry, "_simplicial_facets", wraps=geometry._simplicial_facets)
            with spy as elim:
                assert_facets_match_the_oracle(p, polytope_facets(p))
                volumes.append(normalized_volume(p))
            assert bool(elim.call_count) == (i == 0)
        assert volumes[0] == volumes[1]
    flat = list(dict.fromkeys(p[:-1] + (0,) for p in points))
    flat_negative = [vec_sub(flat[-1], p) for p in reversed(flat)]
    for pair in ((flat, flat_negative), (flat_negative, flat)):
        geometry._lattice_polytope.cache_clear()
        for p in pair:
            with pytest.raises(ValueError, match="^polytope is not full-dimensional$"):
                polytope_facets(p)


@settings(max_examples=100, deadline=None)
@given(lattice_polytopes(), st.data())
def test_translation_keeps_volume_and_normals_and_shifts_offsets(points, data):
    t = data.draw(st.tuples(*[st.integers(-5, 5)] * len(points[0])))
    moved = [tuple(a + b for a, b in zip(p, t)) for p in points]
    assert normalized_volume(moved) == normalized_volume(points)
    facets, moved_facets = polytope_facets(points), polytope_facets(moved)
    assert moved_facets == [(m, n, c + dot(n, t)) for m, n, c in facets]


@settings(max_examples=100, deadline=None)
@given(lattice_polytopes())
def test_a_returned_facet_list_is_not_the_cache(points):
    at_zero = [vec_sub(p, points[0]) for p in points]
    for vertices in (points, at_zero):
        first = polytope_facets(vertices)
        expected = list(first)
        first.reverse()
        first.append(first[0])
        assert polytope_facets(vertices) == expected
        assert all(type(n) is tuple for _, n, _ in expected)


@settings(max_examples=100, deadline=None)
@given(lattice_polytopes())
def test_a_flat_input_raises_after_the_cache_is_filled(points):
    # the points pressed onto the hyperplane x_g = 0, after their own facets
    # and volume are cached
    normalized_volume(points), polytope_facets(points)
    flat = list(dict.fromkeys(p[:-1] + (0,) for p in points))
    for f in (normalized_volume, polytope_facets, normalized_volume):
        with pytest.raises(ValueError, match="polytope is not full-dimensional"):
            f(flat)


@settings(max_examples=200, deadline=None)
@given(pointed_cones(), st.data())
def test_cone_membership_and_rays_match_the_subset_search(rays, data):
    # a point of the span, in the cone or not, or one unit step off it
    g = len(rays[0])
    coeffs = data.draw(st.lists(st.integers(-1, 2), min_size=len(rays), max_size=len(rays)))
    step = data.draw(st.tuples(*[st.integers(-1, 1)] * g) | st.just((0,) * g))
    x = tuple(sum(c * r[j] for c, r in zip(coeffs, rays)) + step[j] for j in range(g))
    witness = cone_contains(rays, x)
    assert (witness is None) == (oracle_cone_contains(rays, x) is None)
    if witness is not None:
        assert len(witness) == len(rays) and all(c >= 0 for c in witness)
        assert tuple(sum(c * r[j] for c, r in zip(witness, rays)) for j in range(g)) == x
    assert extremal_rays(rays) == oracle_extremal_rays(rays)


def test_a_cone_that_is_not_pointed_is_refused():
    # (3, 3) and (-1, -1) span a line; once drawn as a "multiple" of (3, 1),
    # it made cone_contains call (3, 3) outside and extremal_rays answer
    # [(-1, -1), (1, 1)]
    rays = [(3, 1), (-1, -1), (3, 3)]
    for ask in (extremal_rays, triangulate_cone, lambda r: cone_contains(r, (3, 3))):
        with pytest.raises(ValueError, match="not span a pointed cone"):
            ask(rays)


def oracle_k_faces():
    """{dropped: functional or None} by the drop-set search over the 160 sets
    of three signed pairs on distinct index pairs: a face when the kernel of
    the nine kept generators is a line of one sign on the three dropped."""
    faces = {}
    for pairs in combinations(combinations(range(1, 5), 2), 3):
        for signs in product((1, -1), repeat=3):
            dropped = tuple(sorted((p, q, s) for (p, q), s in zip(pairs, signs)))
            kept = [k for k in SIGNED_PAIRS if k not in dropped]
            kernel = oracle_nullspace(_flatten(*[PM_FORMS[k] for k in kept]))
            faces[dropped] = None
            if len(kernel) == 1:
                values = [dot(kernel[0], v) for v in _flatten(*[PM_FORMS[k] for k in dropped])]
                if all(v > 0 for v in values):
                    faces[dropped] = kernel[0]
                elif all(v < 0 for v in values):
                    faces[dropped] = tuple(-f for f in kernel[0])
    return faces


def test_faces_of_k_match_the_drop_set_search():
    candidates = oracle_k_faces()
    assert len(candidates) == 160
    expected = {d: f for d, f in candidates.items() if f is not None}
    faces = enumerate_faces()
    assert len(expected) == 64
    assert [f.dropped for f in faces] == sorted(expected)
    for face in faces:
        assert len(face.kept) == 9
        assert positive_multiple(face.functional, expected[face.dropped])
    for dropped, functional in candidates.items():
        assert (facial_certificate(dropped) is None) == (functional is None)


def _cone_inequalities(rays):
    """Halfspace description of a pointed cone: facet normals, span equations."""
    return [normal for _, normal in cone_facets(rays)], nullspace(rays)


def _satisfies(inequalities, x):
    normals, equations = inequalities
    return all(dot(v, x) >= 0 for v in normals) and all(
        dot(v, x) == 0 for v in equations
    )


def box_scan_cover(coarse_cell, pieces):
    """The former cone cover check: piece rays lie in the coarse cone, and
    every lattice point of the coarse cone in a box of height 2·max|coord|
    lies in some piece cone.  Sound only for that box."""
    zero = _require_origin(coarse_cell)
    pieces0 = [p for p in pieces if zero in p.vertices]
    if not pieces0:
        return False
    coarse = cone_rays(coarse_cell)
    piece_cones = [cone_rays(p) for p in pieces0]
    for pc in piece_cones:
        for ray in pc:
            if oracle_cone_contains(list(coarse), ray) is None:
                return False
    g = len(zero)
    height = 2 * max(abs(c) for v in coarse_cell.vertices for c in v)
    piece_ineqs = [_cone_inequalities(pc) for pc in piece_cones]
    coarse_ineqs = _cone_inequalities(coarse)
    for x in product(range(-height, height + 1), repeat=g):
        if not _satisfies(coarse_ineqs, x):
            continue
        if not any(_satisfies(qi, x) for qi in piece_ineqs):
            return False
    return True


def cover_cases():
    """(coarse, pieces) pairs: every orbit rep of the rank-4 walls with its
    fine pieces, the same with one piece at 0 left out, and 2-D cases."""
    zero2 = (0, 0)
    square = make_cell([zero2, (1, 0), (0, 1), (1, 1)])
    upper = make_cell([zero2, (1, 0), (1, 1)])
    lower = make_cell([zero2, (0, 1), (1, 1)])
    corner = make_cell([zero2, (1, 0), (0, 1)])
    far = make_cell([(1, 0), (0, 1), (1, 1)])
    wide = make_cell([zero2, (2, 0), (0, 1), (2, 1)])
    cases = [
        (square, [upper, lower]),
        (square, [corner, far]),
        (square, [corner]),
        (square, [upper]),
        (square, [far]),
        (wide, [corner, make_cell([(1, 0), (2, 0), (0, 1), (2, 1)])]),
        (wide, [make_cell([zero2, (2, 0), (2, 1)]), make_cell([zero2, (0, 1), (2, 1)])]),
        (wide, [make_cell([zero2, (2, 0), (2, 1)])]),
    ]
    for coarse_name, fine_name in (
        ("dim4.V1capV2", "dim4.V1"),
        ("dim4.V2capV3", "dim4.V2"),
        ("dim4.W0", "dim4.V3"),
    ):
        fine = star_for(fine_name)
        for rep in star_for(coarse_name).orbit_reps:
            pieces = cells_tiling(fine, rep)
            cases.append((rep, pieces))
            at_zero = [p for p in pieces if rep.vertices[0] in p.vertices]
            if len(at_zero) > 1:
                cases.append((rep, [p for p in pieces if p != at_zero[0]]))
    return cases


def test_cone_cover_matches_box_scan():
    verdicts = []
    for coarse, pieces in cover_cases():
        expected = box_scan_cover(coarse, pieces)
        assert cone_cover_check(coarse, pieces) == expected, coarse.vertices
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


def oracle_interiors_overlap(cell_a, cell_b) -> bool:
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


def oracle_is_refinement(cell, pieces) -> bool:
    facets = polytope_facets(list(cell.vertices))
    for piece in pieces:
        for v in piece.vertices:
            if any(dot(normal, v) > offset for _, normal, offset in facets):
                return False
    total = sum(normalized_volume(list(p.vertices)) for p in pieces)
    return total == normalized_volume(list(cell.vertices))


def oracle_cone_cover_check(coarse_cell, pieces) -> bool:
    """The cover by extremal rays: each piece ray in the coarse cone by one
    `oracle_cone_contains`, then the facet pairing."""
    zero = _require_origin(coarse_cell)
    pieces0 = [p for p in pieces if zero in p.vertices]
    if not pieces0:
        return False
    coarse = cone_rays(coarse_cell)
    for piece in pieces0:
        for ray in cone_rays(piece):
            if oracle_cone_contains(list(coarse), ray) is None:
                return False
    return not oracle_unpaired_cone_facets(coarse_cell, pieces0)


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


def oracle_unpaired_cone_facets(coarse_cell, pieces0):
    zero = _require_origin(coarse_cell)
    walls = [n for _, n, offset in polytope_facets(list(coarse_cell.vertices)) if offset == 0]
    return unpaired_facets(
        facet_map(
            [p.vertices for p in pieces0],
            lambda f: zero not in f or any(all(dot(n, v) == 0 for v in f) for n in walls),
        )
    )


def oracle_is_simplicially_generating(cell, pieces) -> GenerationReport:
    """Simplicial generation with overlaps found by intersecting the piece
    polytopes pairwise (a vertex enumeration of the joined facet systems)."""
    zero = _require_origin(cell)
    pieces = list(pieces)
    if not oracle_is_refinement(cell, pieces):
        raise ValueError("pieces are not a refinement of the cell")
    pieces0 = [p for p in pieces if zero in p.vertices]
    for a, b in combinations(pieces0, 2):
        if oracle_interiors_overlap(a, b):
            return GenerationReport(False, pieces=tuple(pieces0), overlap=(a.vertices, b.vertices))
    for piece in pieces0:
        sub = is_totally_generating(piece)
        if not sub.totally_generating:
            return GenerationReport(False, witness=sub.witness, pieces=tuple(pieces0))
    if not oracle_cone_cover_check(cell, pieces0):
        unpaired = tuple(oracle_unpaired_cone_facets(cell, pieces0))
        return GenerationReport(False, pieces=tuple(pieces0), unpaired=unpaired)
    return GenerationReport(True, pieces=tuple(pieces0))


def _verdict(decide, cell, pieces):
    try:
        return decide(cell, pieces).totally_generating
    except ValueError:  # the pieces do not refine the cell
        return None


def check_generation_at_zero(cell, pieces):
    """The walls at 0 against the polytope intersections and the ray-by-ray
    cover: the same verdict, a reported overlap is an overlap, and when the
    facets through 0 pair up, an overlap is reported if there is one.
    Returns (whether they pair up, the reported pair, the first overlapping
    pair in `combinations` order)."""
    assert _verdict(is_simplicially_generating, cell, pieces) == _verdict(
        oracle_is_simplicially_generating, cell, pieces
    )
    zero = (0,) * len(cell.vertices[0])
    pieces0 = [p for p in pieces if zero in p.vertices]
    pair = _overlap(pieces0, facets_at_zero(pieces0))
    if pair:
        assert oracle_interiors_overlap(make_cell(pair[0]), make_cell(pair[1]))
    overlapping = [
        (a.vertices, b.vertices) for a, b in combinations(pieces0, 2) if oracle_interiors_overlap(a, b)
    ]
    first = overlapping[0] if overlapping else ()
    paired = bool(pieces0) and not oracle_unpaired_cone_facets(cell, pieces0)
    if paired:
        assert bool(pair) == bool(first)
    return paired, pair, first


@st.composite
def split_cells(draw):
    """A lattice polytope at 0 in dimension 2 or 3, cut by a pulling
    triangulation, as it is or with one change: a piece dropped, a piece
    doubled, a piece replaced by a copy of another, an extra simplex at 0,
    or a simplex cut at a lattice point of an edge through 0, which leaves
    the split not face to face."""
    g = draw(st.integers(2, 3))
    box = st.tuples(*[st.integers(0, 5 - g)] * g)
    points = [(0,) * g] + draw(st.lists(box.filter(any), min_size=g, max_size=6, unique=True))
    assume(affine_dimension(points) == g)
    points = draw(st.permutations(points))
    pieces = [make_cell([points[i] for i in s]) for s in triangulate_polytope(points)]
    index = st.integers(0, len(pieces) - 1)
    variant = draw(st.sampled_from(["tiling", "drop", "double", "swap", "extra", "cut"]))
    if variant == "drop":
        del pieces[draw(index)]
    elif variant == "double":
        pieces.insert(draw(index), pieces[draw(index)])
    elif variant == "swap":
        i, j = draw(index), draw(index)
        if normalized_volume(pieces[i].vertices) == normalized_volume(pieces[j].vertices):
            pieces[i] = pieces[j]
    elif variant == "extra":
        simplex = [(0,) * g] + draw(st.lists(st.sampled_from(points), min_size=g, max_size=g))
        if affine_dimension(simplex) == g:
            pieces.insert(draw(index), make_cell(simplex))
    elif variant == "cut":
        at_zero = [k for k, p in enumerate(pieces) if (0,) * g in p.vertices]
        cuts = [(k, v) for k in at_zero for v in pieces[k].vertices if gcd(*v) > 1]
        if cuts:
            k, v = draw(st.sampled_from(cuts))
            mid = tuple(c // gcd(*v) for c in v)
            rest = [w for w in pieces[k].vertices if w != v and any(w)]
            pieces[k : k + 1] = [make_cell([(0,) * g, mid] + rest), make_cell([mid, v] + rest)]
    return make_cell(points), pieces


@settings(max_examples=150, deadline=None)
@given(split_cells())
def test_generation_at_zero_matches_polytope_intersections(case):
    paired, pair, first = check_generation_at_zero(*case)
    # every overlap here involves the one changed piece, and a paired cover
    # makes its vertex sum or the other's a hit: the same first pair
    if paired:
        assert pair == first


def test_generation_at_zero_matches_on_the_walls_and_fixed_cases():
    zero2 = (0, 0)
    square = make_cell([zero2, (1, 0), (0, 1), (1, 1)])
    corner = make_cell([zero2, (1, 0), (0, 1)])
    upper = make_cell([zero2, (1, 0), (1, 1)])
    lower = make_cell([zero2, (0, 1), (1, 1)])
    cases = cover_cases() + [
        (square, [corner, corner]),
        (square, [upper, corner]),
        (square, [lower, upper, corner]),
        (square, [corner, upper, lower]),
    ]
    outcomes = set()
    for cell, pieces in cases:
        paired, pair, first = check_generation_at_zero(cell, pieces)
        outcomes.add((paired, bool(first)))
        assert pair == first
    # paired and overlapping: the corner twice covers the square's cone twice
    assert (True, True) in outcomes and (True, False) in outcomes and (False, True) in outcomes
    # two face-to-face fans of the same cone, {a, d} and {c, b}: a and b
    # overlap first, but neither vertex sum lies in the other cone, so the
    # walls report a and c, the first pair with a hit
    edges = (((1, 0), (1, 1)), ((3, 2), (1, 3)), ((1, 0), (3, 2)), ((1, 1), (1, 3)))
    a, b, c, d = (make_cell([zero2, u, v]) for u, v in edges)
    cell = make_cell([zero2, (1, 0), (1, 3), (2, 4), (4, 2)])
    paired, pair, first = check_generation_at_zero(cell, [a, b, c, d])
    assert paired and first == (a.vertices, b.vertices) and pair == (a.vertices, c.vertices)


WALLS = (("dim4.V1capV2", "dim4.V1"), ("dim4.V2capV3", "dim4.V2"), ("dim4.W0", "dim4.V3"))


def wall_items(weights=lambda name: None):
    """(fine star, coarse orbit rep) for the 58 orbit reps of the three rank-4
    walls, on the stars of the forms with the given weights."""
    stars = {name: weighted_star(name, weights(name)) for wall in WALLS for name in wall}
    return [(stars[fine], rep) for coarse, fine in WALLS for rep in stars[coarse].orbit_reps]


def oracle_cells_tiling(star, coarse):
    """The former matcher, which builds the shifted vertex tuple of every rep
    for every coarse vertex.

    Candidates are lattice translates of the star's orbit representatives;
    a translate qualifies when all its vertices are vertices of the coarse
    cell.  Then the rep's smallest vertex lands on a coarse vertex, so one
    candidate per pair of a rep and a coarse vertex is tested, vertex by
    vertex up to the first miss; only a match becomes a cell.  The result
    must tile the coarse cell exactly (checked by the normalized volume).
    """
    coarse_set = set(coarse.vertices)
    found = {}
    for rep in star.orbit_reps:
        for w in coarse.vertices:
            t = tuple(a - b for a, b in zip(w, rep.vertices[0]))
            if all(tuple(a + b for a, b in zip(v, t)) in coarse_set for v in rep.vertices[1:]):
                cell = rep.translate(t)
                found[cell.vertices] = cell
    pieces = [found[v] for v in sorted(found)]
    total = sum(normalized_volume(list(p.vertices)) for p in pieces)
    whole = normalized_volume(list(coarse.vertices))
    if total != whole:
        raise FusionError("refinement does not tile the coarse cell %r: its pieces have "
                          "normalized volume %d, the cell %d" % (coarse.vertices, total, whole))
    return pieces


def tiling_or_error(match, star, coarse):
    """The pieces, sphere data included, or the FusionError message."""
    try:
        return match(star, coarse)
    except FusionError as exc:
        return str(exc)


def assert_tilings_match_the_oracle(items):
    """The same pieces or the same error on every item; returns the errors."""
    results = [tiling_or_error(cells_tiling, star, rep) for star, rep in items]
    assert results == [tiling_or_error(oracle_cells_tiling, star, rep) for star, rep in items]
    return [r for r in results if isinstance(r, str)]


def test_cells_tiling_matches_the_oracle_on_the_walls():
    items = wall_items()
    assert len(items) == 58
    assert assert_tilings_match_the_oracle(items) == []


def test_cells_tiling_matches_the_oracle_on_seeded_forms():
    rng = random.Random(1)
    names = [name for wall in WALLS for name in wall]
    weights = {name: tuple(rng.randint(1, 5) for _ in catalog(name).generators) for name in names}
    items = wall_items(weights.get)
    assert len(items) == 58
    assert assert_tilings_match_the_oracle(items) == []


def test_cells_tiling_matches_the_oracle_on_reps_off_0():
    # each rep moved by its own vector: the matcher may not assume that a
    # rep starts at 0, and the pieces are the same cells
    items = wall_items()
    moved = {}
    for star, _ in items:
        reps = tuple(r.translate((k, -2 * k, 1, 3 - k)) for k, r in enumerate(star.orbit_reps))
        moved.setdefault(id(star), replace(star, orbit_reps=reps))
    assert all(any(r.vertices[0]) for s in moved.values() for r in s.orbit_reps)
    off = [(moved[id(star)], rep) for star, rep in items]
    assert assert_tilings_match_the_oracle(off) == []
    assert [cells_tiling(*item) for item in off] == [cells_tiling(*item) for item in items]


def test_cells_tiling_matches_the_oracle_on_the_wrong_wall():
    # the V3 star does not refine the wall between V1 and V2
    items = [(star_for("dim4.V3"), rep) for rep in star_for("dim4.V1capV2").orbit_reps]
    errors = assert_tilings_match_the_oracle(items)
    failed = [  # (coarse cell, normalized volume of its pieces, of the cell)
        (((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)), 1, 2),
        (((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)), 1, 2),
        (((0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1)), 0, 1),
        (((0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1)), 0, 1),
        (((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 0, 1), (1, 1, 1, 1)), 1, 2),
        (((0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)), 1, 2),
        (((0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1)), 0, 1),
        (((0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 1, 1)), 0, 1),
    ]
    assert sorted(set(errors)) == [
        "refinement does not tile the coarse cell %r: its pieces have normalized volume %d, "
        "the cell %d" % witness for witness in failed
    ]


def catalog_tiling_items(moved):
    """(fine star, coarse cell) for every orbit rep of every catalog star, at 0
    or moved by a seeded vector, tiled by every catalog star of its rank."""
    stars = [star_for(name) for name in catalog_names()]
    rng = random.Random(0)
    items = []
    for star in stars:
        for rep in star.orbit_reps:
            t = tuple(rng.randint(-3, 3) for _ in range(star.form.rank))
            coarse = rep.translate(t) if moved else rep
            items += [(fine, coarse) for fine in stars if fine.form.rank == star.form.rank]
    return items


@pytest.mark.parametrize("moved", [False, True])
def test_cells_tiling_matches_the_oracle_on_every_catalog_rep(moved):
    # 6159 cases each way, 12318 in all, split so that each half stays short
    items = catalog_tiling_items(moved)
    assert len(items) == 6159
    assert len(items) - len(assert_tilings_match_the_oracle(items)) == 2117
    sizes = lambda star: {len(r.vertices) for r in star.orbit_reps}
    # reps of more vertices than the cell, such as K's 8-vertex cells against simplices
    assert any(max(sizes(fine)) == 8 and len(coarse.vertices) == 5 for fine, coarse in items)
    # the cell is itself a rep of the fine star, found by the k = n lookup
    assert any(frozenset(canonical_orbit_rep(c).vertices) in f.shapes for f, c in items)
    # stars whose reps differ in size, and cells that do not sit at 0
    assert any(len(sizes(fine)) > 1 for fine, _ in items)
    assert any(any(min(coarse.vertices)) for _, coarse in items) == moved


def test_a_warm_pass_makes_one_volume_lookup_per_tiling(monkeypatch):
    # the shape index is built once per star, on its first read, and a pass
    # over the walls then looks up only each coarse cell's own volume
    items = wall_items()
    fresh = {id(star): replace(star) for star, _ in items}  # the index not yet read
    items = [(fresh[id(star)], rep) for star, rep in items]
    assert not any("shapes" in star.__dict__ for star in fresh.values())
    calls = Counter()

    def counted(name, function):
        return lambda *args: calls.update([name]) or function(*args)

    for module in (verify, delaunay):
        monkeypatch.setattr(module, "normalized_volume", counted("volume", module.normalized_volume))
    monkeypatch.setattr(DelaunayStar.shapes, "func", counted("index", DelaunayStar.shapes.func))
    first = [cells_tiling(*item) for item in items]
    assert calls == {"index": 3, "volume": 58 + 3 * 24}
    calls.clear()
    assert [cells_tiling(*item) for item in items] == first
    assert calls == {"volume": 58}
    assert sum(map(len, first)) == 72


def test_a_warm_pass_over_the_walls_makes_no_elimination(monkeypatch):
    # every piece through 0 of the 58 wall items is a unimodular simplex,
    # decided from the cached volume, and every facet and volume is cached
    items = wall_items()
    run = lambda: [is_simplicially_generating(rep, cells_tiling(fine, rep)) for fine, rep in items]
    assert all(r.totally_generating for r in run())
    calls = {"_echelon": 0, "parallelepiped_points": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    for module in (exact, geometry, generation):
        if hasattr(module, "_echelon"):
            monkeypatch.setattr(module, "_echelon", counted("_echelon", exact._echelon))
    monkeypatch.setattr(
        generation,
        "parallelepiped_points",
        counted("parallelepiped_points", generation.parallelepiped_points),
    )
    assert all(r.totally_generating for r in run())
    assert calls == {"_echelon": 0, "parallelepiped_points": 0}
    # a simplex that is not unimodular still takes the parallelepiped points
    cube_tetrahedron = make_cell([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert is_totally_generating(cube_tetrahedron) == GenerationReport(False, witness=(1, 1, 1))
    assert calls["parallelepiped_points"] > 0 and calls["_echelon"] > 0


def test_wall_reps_make_no_vertex_enumeration(monkeypatch):
    items = wall_items()
    assert len(items) == 58
    calls = []

    def counted(inequalities):
        calls.append(len(inequalities))
        return vertex_enumeration(inequalities)

    for module in (geometry, delaunay, generation):
        if hasattr(module, "vertex_enumeration"):
            monkeypatch.setattr(module, "vertex_enumeration", counted)
    reports = [is_simplicially_generating(rep, cells_tiling(fine, rep)) for fine, rep in items]
    assert all(r.totally_generating for r in reports)
    assert calls == []


def oracle_ball_sweep(form: QuadraticForm, cell: DelaunayCell) -> EmptySphereCertificate:
    """The former `certify_cell`: an exhaustive empty-sphere sweep of the ball of
    norm 4 r^2 about 0 for the translate of the cell at 0, the bound no longer kept.

    The check runs on the translate with the smallest vertex at 0, and the
    violations are translated back.  There the sphere is solved through the
    vertices (`cell_center`), never taken from the cell's own sphere data, so
    every vertex lies on it.  The `nearest_points` to c are the violations if
    they lie strictly inside; if not, r is at most the covering radius.  Any
    violator e of B(e,e) - 2B(e,c) >= 0 satisfies B(e-c,e-c) < r^2 and hence
    B(e,e) < 4 r^2, so sweeping that bounded ball (`points_within`) is sound;
    equality must hold exactly at the vertices.  The slack is tested in
    integers, by `_power`.  NotPositiveDefiniteError unless the form is
    definite, before any sphere.
    """
    _integer_ldl(form)
    shift = min(cell.vertices)
    local = canonical_orbit_rep(cell)
    try:
        center, sq_radius = cell_center(form, local.vertices)
    except (SingularMatrixError, NotCospherical):
        # report the vertices that break the sphere through a spanning subset
        return EmptySphereCertificate(cell, tuple(cell.vertices))
    bound, power = 4 * sq_radius, _power(form.gram, integral(center), {})
    nearest = sorted(nearest_points(form, center))
    if power(nearest[0]) < 0:
        return EmptySphereCertificate(cell, shift_points(nearest, shift))
    vertex_set, swept = local.vertex_set(), points_within(form, (0,) * form.rank, bound)
    bad = [e for e in swept if (s := power(e)) < 0 or (s == 0) != (e in vertex_set)]
    return EmptySphereCertificate(cell, shift_points(bad, shift))


def sweep_accepts(form, cells):
    """The ball sweep: `oracle_ball_sweep` on every orbit rep of the cells."""
    reps = {canonical_orbit_rep(c).vertices: canonical_orbit_rep(c) for c in cells}
    return all(oracle_ball_sweep(form, rep).ok for rep in reps.values())


def lemma_on_cells(form, cells, facets):
    """`delaunay._lemma` on cells that stand where they are: each cell is its
    own placement, at the translation 0."""
    placements = [(i, (0,) * form.rank) for i in range(len(cells))]
    delaunay._lemma(form.gram, cells, placements, facets)


def lemma_accepts(form, cells):
    """Delaunay's lemma on the facets through 0 of the cells."""
    try:
        lemma_on_cells(form, cells, facets_at_zero(cells))
    except CertificationError:
        return False
    return True


def lemma_cases():
    """(form, cells, whether both certificates must accept them)."""
    rng = random.Random(0)
    stars = [star_for(name) for name in catalog_names()]
    for name in ("dim4.K", "dim4.G1234", "dim4.V2capV3"):
        weights = tuple(rng.randint(1, 5) for _ in catalog(name).generators)
        stars.append(weighted_star(name, weights))
    cases = [(star.form, star.cells, True) for star in stars]
    # a rep with a vertex dropped from all its translates, where the other
    # vertices still span
    for star in stars:
        g = star.form.rank
        dropped = [
            (rep.vertices, v)
            for rep in star.orbit_reps
            for v in rep.vertices
            if affine_dimension([w for w in rep.vertices if w != v]) == g
        ]
        if not dropped:
            continue
        rep, v = dropped[0]
        cells = []
        for cell in star.cells:
            if canonical_orbit_rep(cell).vertices == rep:
                gone = tuple(a + b for a, b in zip(v, min(cell.vertices)))
                cell = replace(cell, vertices=tuple(w for w in cell.vertices if w != gone))
            cells.append(cell)
        cases.append((star.form, cells, False))
    # the fine cells of a wall, re-centred under the wall's form: the fused
    # facets are cospherical, not strictly locally Delaunay
    for coarse, fine in (
        ("dim2.V1capV2", "dim2.V1"),
        ("dim4.V1capV2", "dim4.V1"),
        ("dim4.V2capV3", "dim4.V2"),
        ("dim4.W0", "dim4.V3"),
    ):
        form = star_for(coarse).form
        cells = []
        for cell in star_for(fine).cells:
            center, sq_radius = cell_center(form, cell.vertices)
            cells.append(make_cell(cell.vertices, center, sq_radius))
        cases.append((form, cells, False))
    return cases


def test_local_delaunay_agrees_with_the_ball_sweep():
    verdicts = []
    for form, cells, expected in lemma_cases():
        assert sweep_accepts(form, cells) == expected, cells[0].vertices
        assert lemma_accepts(form, cells) == expected, cells[0].vertices
        verdicts.append(expected)
    assert verdicts.count(True) == len(catalog_names()) + 3
    assert verdicts.count(False) >= 8


def random_point_sets(count, seed=0):
    """(form, cell) pairs: a definite integer form A^T A + D of rank 1-3, D
    diagonal in 1-2, and up to 2^g + 1 points of {-1, ..., 2}^g moved by a
    vector of {-3, ..., 3}^g; most are no Delaunay cell, many are flat."""
    rng = random.Random(seed)
    for _ in range(count):
        g = rng.randint(1, 3)
        a = [[rng.randint(-1, 1) for _ in range(g)] for _ in range(g)]
        rows = [[sum(r[i] * r[j] for r in a) + (i == j) * rng.randint(1, 2) for j in range(g)]
                for i in range(g)]
        points = [[rng.randint(-1, 2) for _ in range(g)] for _ in range(rng.randint(g + 1, 2**g + 1))]
        shift = [rng.randint(-3, 3) for _ in range(g)]
        yield form(rows), make_cell([vec_sub(p, shift) for p in points])


def test_nearest_points_certificate_matches_the_ball_sweep():
    stars = [star_for(name) for name in catalog_names()]
    reps = [(star.form, rep) for star in stars for rep in star.orbit_reps]
    assert len(reps) == 373
    shifts = [tuple((k + i) % 5 - 2 for i in range(f.rank)) for k, (f, _) in enumerate(reps)]
    cases = [(f, rep.translate(t)) for (f, rep), t in zip(reps, shifts)]
    assert all(any(cell.vertices[0]) for _, cell in cases)
    # a rep less one vertex, where the rest still spans, has that vertex on its
    # sphere and no lattice point inside
    dropped = [(f, make_cell([w for w in cell.vertices if w != v]), v)
               for f, cell in cases if len(cell.vertices) > f.rank + 1 for v in cell.vertices]
    cases += [(f, cell) for f, cell, _ in dropped] + list(random_point_sets(300))
    certs = [certify_cell(f, cell) for f, cell in cases]
    assert certs == [oracle_ball_sweep(f, cell) for f, cell in cases]
    # the oracle sweeps at 0 wherever the cell stands, so each rep at 0 is checked
    # against the certificate of its moved copy, moved back
    for (f, rep), t, cert in zip(reps, shifts, certs):
        back = tuple(-c for c in t)
        assert certify_cell(f, rep).violations == shift_points(cert.violations, back)
    # besides the accepted cells, refused ones whose witnesses are lattice
    # points nearer the center than the vertices or beside them on the sphere
    named = [c.violations not in ((), c.cell.vertices) for c in certs]
    assert sum(c.ok for c in certs) > 373 and named.count(True) > 100
    on_sphere = [certify_cell(f, cell).violations == (v,) for f, cell, v in dropped]
    assert len(on_sphere) > 100 and on_sphere.count(True) > 50


def oracle_facet_classes(reps):
    """(map, translates): a `facet_map` of the `polytope_facets` of
    the reps up to translation, each moved so its smallest vertex is 0, over
    the rep translates that hold them; every facet of the tiling is in a class."""
    classes, index = {}, {}
    for r, rep in enumerate(reps):
        for members, normal, _ in polytope_facets(rep.vertices):
            v = rep.vertices[members[0]]
            facet = tuple(vec_sub(rep.vertices[i], v) for i in members)
            classes.setdefault(facet, []).append((index.setdefault((r, v), len(index)), normal))
    return classes, [reps[r].translate(tuple(-c for c in v)) for r, v in index]


def oracle_check_local_delaunay(form: QuadraticForm, cells, facets):
    """Delaunay's lemma in integers: raises CertificationError unless it holds.

    For a cell's hole c, s = `_power` is a positive multiple of Q[v-c] - Q[c]
    in integers.  A full-dimensional cell has one equidistant point, so s
    constant on its vertices verifies the hole.  Each facet of the
    `facet_map` must have two cells A and B, and s_A(w) must exceed that
    constant, putting every vertex w of B off A strictly outside A's sphere.
    """
    gram = form.gram
    powers = [delaunay._power(gram, cell.hole, {}) for cell in cells]
    levels = [{s(v) for v in cell.vertices} for cell, s in zip(cells, powers)]
    for cell, level in zip(cells, levels):
        if len(level) != 1:
            raise CertificationError("cell %r is not cospherical about its hole" % (cell.vertices,))
    for facet, sides in facets.items():
        if len(sides) != 2:
            raise CertificationError("facet %r is not shared by two cells" % (facet,))
        (a, _), (b, _) = sides
        (level,) = levels[a]
        for w in [w for w in cells[b].vertices if w not in cells[a].vertices]:
            excess = powers[a](w) - level
            if excess <= 0:
                raise CertificationError(
                    "facet %r is not locally Delaunay: the vertex %r across it lies %s the "
                    "sphere of %r" % (facet, w, "inside" if excess else "on", cells[a].vertices)
                )


def lemma_text(check, *args):
    """The CertificationError text of check(*args), or None when it passes."""
    try:
        check(*args)
    except CertificationError as exc:
        return str(exc)
    return None


def assert_lemma_on_reps_matches_the_translates(form, reps):
    """The same verdict and text from the lemma on the reps and from the
    translate-based lemma; returns the text."""
    classes, placements = facet_classes(reps)
    got = lemma_text(delaunay._lemma, form.gram, reps, placements, classes)
    classes, translates = oracle_facet_classes(reps)
    assert got == lemma_text(oracle_check_local_delaunay, form, translates, classes)
    return got


def test_lemma_on_the_reps_matches_the_translates():
    stars = [star_for(name) for name in catalog_names()]
    assert {star.form.rank for star in stars} == {1, 2, 3, 4}
    for star in stars:
        assert assert_lemma_on_reps_matches_the_translates(star.form, star.orbit_reps) is None
        # one hole moved off its sphere
        reps = list(star.orbit_reps)
        k = len(reps) // 2
        moved = tuple(c + Fraction(1, 97) for c in reps[k].center)
        reps[k] = make_cell(reps[k].vertices, moved, reps[k].sq_radius)
        text = assert_lemma_on_reps_matches_the_translates(star.form, reps)
        assert text.endswith("is not cospherical about its hole")
    # the reps of a fine star re-centred under the form of its wall
    for coarse, fine in (("dim4.V1capV2", "dim4.V1"), ("dim4.V2capV3", "dim4.V2"), ("dim4.W0", "dim4.V3")):
        form = star_for(coarse).form
        reps = [
            make_cell(rep.vertices, center, sq_radius)
            for rep in star_for(fine).orbit_reps
            for center, sq_radius in [cell_center(form, rep.vertices)]
        ]
        assert "lies on the sphere of" in assert_lemma_on_reps_matches_the_translates(form, reps)


def test_local_delaunay_on_cells_matches_the_translate_lemma():
    texts = [
        lemma_text(check, form, cells, facets_at_zero(cells))
        for form, cells, _ in lemma_cases()
        for check in (lemma_on_cells, oracle_check_local_delaunay)
    ]
    assert texts[::2] == texts[1::2]
    assert texts.count(None) == 2 * (len(catalog_names()) + 3)


def test_translate_matches_the_fraction_sum():
    vertices = ((0, 0), (1, 0), (0, 1))
    for d, n in product((1, 2, 3), range(-4, 5)):
        cell = make_cell(vertices, (Fraction(n, d), Fraction(1 - 2 * n, d)), Fraction(n * n, d))
        for t in product(range(-3, 4), repeat=2):
            moved, center = cell.translate(t), tuple(c + x for c, x in zip(cell.center, t))
            assert moved.center == center and repr(moved.center) == repr(center)
            assert moved.vertices == tuple(sorted(shift_points(vertices, t)))
            assert moved.sq_radius == cell.sq_radius
    assert DelaunayCell(vertices).translate((-1, 2)).center is None


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _int_interval(c: Fraction, t: Fraction):
    """Inclusive integer range of n with (n - c)^2 <= t, exactly."""
    if t < 0:
        return range(0)
    approx = isqrt(t.numerator // t.denominator) + 2
    hi = _floor(c) + approx
    while hi - c > 0 and (hi - c) * (hi - c) > t:
        hi -= 1
    lo = -(-c.numerator // c.denominator) - approx  # ceil(c) - approx
    while c - lo > 0 and (c - lo) * (c - lo) > t:
        lo += 1
    return range(lo, hi + 1)


def oracle_ldl(form: QuadraticForm):
    """The former `exact.ldl`, in `Fraction`s: in-order B = U^T D U with U unit
    upper triangular, for semidefinite B.

    Returns (d, u), or None when B is indefinite: a negative pivot, or a zero
    pivot whose residual row is nonzero.  A zero pivot with a zero residual
    row only lowers the rank.  The pivots stay in index order.
    """
    n = form.rank
    a = [list(row) for row in form.entries]
    d = []
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        pivot = a[i][i]
        if pivot < 0 or (pivot == 0 and any(a[i][i + 1:])):
            return None
        d.append(pivot)
        if pivot == 0:
            continue
        u[i][i + 1:] = [x / pivot for x in a[i][i + 1:]]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= u[i][r] * a[i][c]
    return d, u


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_fraction_free_ldl_matches_the_fraction_ldl(entries):
    # on the integer Gram k B, d_i = p_i / p_{i-1} over the nonzero pivots is k times
    # the Fraction pivot and row i over p_i is row i of U; a zero pivot leaves a zero row
    form = QuadraticForm(entries)
    gram, k = form.gram, form.scale
    factor, reference = ldl(gram), oracle_ldl(form)
    assert (factor is None) == (reference is None)
    if factor is None:
        return
    (rows, pivots), (d, u), prev = factor, reference, 1
    for i, p in enumerate(pivots):
        assert (p == 0) == (d[i] == 0)
        if p:
            assert Fraction(p, prev) == k * d[i]
            assert [Fraction(x, p) for x in rows[i]] == u[i]
            prev = p
        else:
            assert not any(rows[i])


def oracle_points_within(form: QuadraticForm, alpha, bound: Fraction):
    """All lattice points x with B(x - alpha, x - alpha) <= bound.

    Fincke-Pohst style enumeration from the exact in-order U^T D U of
    `oracle_ldl`; the returned list is provably exhaustive and sorted.
    """
    n = form.rank
    alpha = tuple(Fraction(a) for a in alpha)
    bound = Fraction(bound)
    if bound < 0:
        return []
    factor = oracle_ldl(form)
    if factor is None or not all(factor[0]):
        raise NotPositiveDefiniteError("form is not positive definite")
    d, u = factor
    out = []
    x = [0] * n

    def descend(i: int, budget: Fraction):
        if i < 0:
            out.append(tuple(x))
            return
        # c is where the i-th squared term vanishes given the fixed tail
        shift = sum(u[i][j] * (x[j] - alpha[j]) for j in range(i + 1, n))
        c = alpha[i] - shift
        for xi in _int_interval(c, budget / d[i]):
            x[i] = xi
            term = d[i] * (xi - c) * (xi - c)
            descend(i - 1, budget - term)

    descend(n - 1, bound)
    return sorted(out)


def oracle_voronoi_inequalities(form):
    """The rows (2Be, B(e, e), e) of the coset minima from the `Fraction` sweep."""
    ineqs = []
    for parity in product((0, 1), repeat=form.rank):
        if not any(parity):
            continue
        half = tuple(-Fraction(p, 2) for p in parity)
        zs = oracle_points_within(form, half, Fraction(norm(form, parity), 4))
        values = {}
        for z in zs:
            e = tuple(p + 2 * c for p, c in zip(parity, z))
            values[e] = norm(form, e)
        best = min(values.values())
        for e, v in values.items():
            if v == best:
                row = tuple(2 * c for c in mat_vec(form.entries, e))
                ineqs.append((row, v, e))
    return ineqs


@st.composite
def ball_cases(draw):
    """(form, centre, point): a definite form A^T A + D of rank 1-4, with D
    diagonal and at least 1, a rational centre, and a lattice point within
    one unit step of its rounding, whose distance makes an attained bound."""
    n = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    diagonal = st.fractions(min_value=1, max_value=3, max_denominator=4)
    entries = [[sum(r[i] * r[j] for r in a) for j in range(n)] for i in range(n)]
    for i in range(n):
        entries[i][i] += draw(diagonal)
    alpha = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=n, max_size=n))
    point = [_floor(c + Fraction(1, 2)) for c in alpha]
    point[draw(st.integers(0, n - 1))] += draw(st.integers(-1, 1))
    return QuadraticForm(entries), tuple(alpha), tuple(point)


@settings(max_examples=150, deadline=None)
@given(ball_cases())
def test_integer_sweep_matches_the_fraction_sweep(case):
    form, alpha, point = case
    bound = norm(form, vec_sub(point, alpha))
    inside = points_within(form, alpha, bound)
    assert inside == oracle_points_within(form, alpha, bound)
    assert point in inside
    assert points_within(form, alpha, bound - Fraction(1, 10**6)) == oracle_points_within(
        form, alpha, bound - Fraction(1, 10**6)
    )
    best = min(norm(form, vec_sub(p, alpha)) for p in inside)
    assert nearest_points(form, alpha) == {p for p in inside if norm(form, vec_sub(p, alpha)) == best}


def test_voronoi_rows_match_the_fraction_sweep():
    rng = random.Random(0)
    specs = [(name, None) for name in catalog_names()]
    for name in ("dim4.K", "dim4.G1234", "dim4.V2capV3", "dim4.W0", "dim4.F12"):
        for _ in range(3):
            specs.append((name, [rng.randint(1, 5) for _ in catalog(name).generators]))
    for name, weights in specs:
        form = sample_interior(catalog(name), weights)
        got = voronoi_inequalities(form)
        assert got == oracle_voronoi_inequalities(form), (name, weights)
        assert [tuple(map(type, row)) + (type(v),) for row, v, _ in got] == [
            (Fraction,) * (form.rank + 1)
        ] * len(got)
