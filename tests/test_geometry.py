"""Rational polyhedral geometry: vertices, facets, volumes, cones."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdel.geometry import (
    cone_contains,
    extremal_rays,
    normalized_volume,
    polytope_facets,
    primitive,
    vertex_enumeration,
)

SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_vertex_enumeration_square():
    # 0 <= x <= 1, 0 <= y <= 1
    ineqs = [
        ((-1, 0), 0),
        ((1, 0), 1),
        ((0, -1), 0),
        ((0, 1), 1),
    ]
    assert vertex_enumeration(ineqs) == sorted(
        tuple(Fraction(c) for c in v) for v in SQUARE
    )


def test_vertex_enumeration_empty():
    assert vertex_enumeration([((1,), -1), ((-1,), -1)]) == []


def test_polytope_facets_square():
    facets = polytope_facets(SQUARE)
    assert len(facets) == 4
    for _, normal, offset in facets:
        assert all(
            sum(n * c for n, c in zip(normal, v)) <= offset for v in SQUARE
        )


def test_triangulation_and_volume():
    assert normalized_volume(SQUARE) == 2
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert normalized_volume(cube) == 6


@pytest.mark.parametrize("points", [[(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 1), (2, 2), (3, 3)]])
def test_degenerate_polytope_is_not_full_dimensional(points):
    # a flat simplex, and a flat polytope that is triangulated first
    for f in (normalized_volume, polytope_facets):
        with pytest.raises(ValueError, match="polytope is not full-dimensional"):
            f(points)


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, -3)) == (0, -1)


def test_primitive_scales_rationals_instead_of_truncating_them():
    assert primitive((Fraction(3, 2), 1)) == (3, 2)
    assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive((Fraction(-1, 6), 0, Fraction(2, 9))) == (-3, 0, 4)
    with pytest.raises(ValueError, match="zero vector has no direction"):
        primitive((Fraction(0), 0))


def test_extremal_rays_of_rational_vectors():
    rays = [(Fraction(3, 2), 1), (Fraction(1, 3), 1)]
    assert extremal_rays(rays) == [(1, 3), (3, 2)]
    assert extremal_rays(rays + [(Fraction(5, 2), 1)]) == [(1, 3), (5, 2)]


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(RATIONALS, min_size=1, max_size=5).filter(any),
    st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
)
def test_primitive_of_a_positive_multiple_is_the_same(v, t):
    assert primitive([t * c for c in v]) == primitive(v)
    assert primitive([-t * c for c in v]) == tuple(-c for c in primitive(v))


def test_cone_contains():
    rays = [(1, 0), (1, 2)]
    coeffs = cone_contains(rays, (2, 2))
    assert coeffs == (Fraction(1), Fraction(1))
    assert cone_contains(rays, (0, -1)) is None
    assert cone_contains(rays, (0, 0)) is not None
    # a point longer than the rays is refused, not read as its first two entries
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        cone_contains([(1, 0), (0, 1)], (1, 1, 5))


def test_extremal_rays():
    rays = extremal_rays([(1, 0), (0, 1), (1, 1), (2, 2)])
    assert sorted(rays) == [(0, 1), (1, 0)]
