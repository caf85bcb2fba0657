"""Independent oracles: brute force for stars and generation in rank ≤ 2,
and the whole symmetry group G for the faces of K."""

from fractions import Fraction
from functools import lru_cache
from itertools import product

from latdel.delaunay import delaunay_star, make_cell, nearest_points
from latdel.exact import QuadraticForm, identity_matrix, mat_mul
from latdel.faces import (
    _classification,
    apply_to_face,
    group_G,
    group_generators,
    pair_permutation,
)
from latdel.generation import cone_rays, is_totally_generating
from latdel.geometry import affine_dimension, cone_contains

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


def naive_generating(cell, bound=10):
    """Direct comparison of cone lattice points against semigroup sums."""
    rays = cone_rays(cell)
    gens = [v for v in rays.lattice_points if any(v)]
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
        if cone_contains(list(rays.rays), x) is None:
            continue
        if x not in sums:
            return False, x
    return True, None


def generation_oracle_agrees() -> bool:
    """Cached comparison of is_totally_generating against naive enumeration."""
    if "gen" not in _CACHE:
        cells = []
        for rows, _ in CORPUS:
            star = delaunay_star(form(rows))
            cells.extend(star.orbit_reps)
        cells.append(make_cell([(0, 0), (1, 0), (1, 2)]))
        ok = True
        for cell in cells:
            expected, witness = naive_generating(cell)
            report = is_totally_generating(cell)
            ok = ok and report.totally_generating == expected
            if not expected:
                ok = ok and report.witness is not None and witness is not None
        _CACHE["gen"] = ok
    return _CACHE["gen"]


def test_generation_matches_naive_oracle():
    assert generation_oracle_agrees()


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
    # Fraction(2) == 2 with equal hashes, so the doubled oracle compares directly
    assert group_G() == {tuple(tuple(2 * v for v in row) for row in m) for m in oracle}


def test_generator_orbits_are_orbits_of_every_element():
    _, orbits = _classification()
    perms = [pair_permutation(m) for m in fraction_closure()]
    for orbit in orbits.values():
        for perm in perms:
            assert {apply_to_face(perm, d) for d in orbit} == orbit
        seed = min(orbit)
        assert {apply_to_face(perm, seed) for perm in perms} == orbit
