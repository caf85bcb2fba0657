"""Delaunay stars, holes, empty-sphere certificates, canonical reps."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdel.catalog import catalog, sample_interior
from latdel.delaunay import (
    CertificationError,
    NotCospherical,
    NotPositiveDefiniteError,
    canonical_orbit_rep,
    cell_center,
    certify_cell,
    check_local_delaunay,
    check_star_completeness,
    check_tiling,
    delaunay_star,
    facets_at_zero,
    is_basic_simplex,
    make_cell,
    nearest_points,
)
from latdel.exact import QuadraticForm, SingularMatrixError, evaluate


def form(rows):
    return QuadraticForm(tuple(tuple(Fraction(v) for v in row) for row in rows))


HEX = form([[2, -1], [-1, 2]])
ID2 = form([[1, 0], [0, 1]])


def test_nearest_points():
    assert nearest_points(ID2, (Fraction(1, 2), Fraction(1, 2))) == {
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
    }
    assert nearest_points(HEX, (0, 0)) == {(0, 0)}
    assert nearest_points(HEX, (Fraction(2, 3), Fraction(1, 3))) == {
        (0, 0),
        (1, 0),
        (1, 1),
    }


def test_nearest_points_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        nearest_points(form([[1, 0], [0, -1]]), (0, 0))


def test_cell_center():
    c, r2 = cell_center(ID2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert c == (Fraction(1, 2), Fraction(1, 2)) and r2 == Fraction(1, 2)
    c, r2 = cell_center(HEX, [(0, 0), (1, 0), (1, 1)])
    assert c == (Fraction(2, 3), Fraction(1, 3)) and r2 == Fraction(2, 3)
    with pytest.raises(NotCospherical):
        cell_center(HEX, [(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(SingularMatrixError):
        cell_center(HEX, [(0, 0), (1, 1)])


def test_delaunay_star_dim1():
    star = delaunay_star(form([[1]]))
    assert {c.vertices for c in star.cells} == {((-1,), (0,)), ((0,), (1,))}
    assert len(star.orbit_reps) == 1


def test_delaunay_star_hexagonal():
    star = delaunay_star(HEX)
    assert len(star.cells) == 6
    reps = {r.vertices for r in star.orbit_reps}
    assert (
        canonical_orbit_rep(make_cell([(0, 0), (1, 0), (1, 1)])).vertices in reps
    )
    assert (
        canonical_orbit_rep(make_cell([(0, 0), (0, 1), (1, 1)])).vertices in reps
    )
    assert len(reps) == 2


def test_delaunay_star_v1_sample():
    star = delaunay_star(sample_interior(catalog("dim4.V1")))
    assert len(star.cells) == 120
    assert len(star.orbit_reps) == 24
    assert all(is_basic_simplex(r) for r in star.orbit_reps)


def test_delaunay_star_rejects_semidefinite():
    with pytest.raises(NotPositiveDefiniteError):
        delaunay_star(form([[1, 0], [0, 0]]))


def test_certify_cell_failures():
    # square is not cospherical for the hexagonal form
    cert = certify_cell(HEX, make_cell([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert not cert.ok
    # interior lattice point breaks equality-only-at-vertices
    cert = certify_cell(form([[1]]), make_cell([(0,), (2,)]))
    assert not cert.ok


def test_cells_without_origin():
    square = make_cell([(1, 0), (2, 0), (1, 1), (2, 1)])
    assert cell_center(ID2, square.vertices) == (
        (Fraction(3, 2), Fraction(1, 2)),
        Fraction(1, 2),
    )
    assert certify_cell(ID2, square).ok
    # violations are reported where the cell is, not at its translate
    shift = (3, -2)
    bad = make_cell([(0, 0), (2, 0), (0, 2), (2, 2)])
    moved = bad.translate(shift)
    cert = certify_cell(ID2, moved)
    assert cert.cell == moved
    assert cert.violations == tuple(
        tuple(a + b for a, b in zip(v, shift)) for v in certify_cell(ID2, bad).violations
    )
    assert (4, -1) in cert.violations


def test_tiling_invariant():
    star = delaunay_star(HEX)
    check_tiling(2, star.cells, star.orbit_reps)
    with pytest.raises(CertificationError, match="normalized volume 1 .* expected 2"):
        check_tiling(2, star.cells, star.orbit_reps[:1])
    with pytest.raises(CertificationError, match="7 cells, expected 6"):
        check_tiling(2, star.cells + star.cells[:1], star.orbit_reps)


def test_star_completeness_pairs_facets_on_opposite_sides():
    assert check_star_completeness(delaunay_star(HEX).cells)
    assert check_star_completeness(delaunay_star(ID2).cells)
    # each facet through 0 is in two cells, but (0, s1, s12) and (0, s1, (2, 1))
    # both lie above the line of s1: the three cells fold over one side of 0
    folded = [
        make_cell([(0, 0), (1, 0), (1, 1)]),
        make_cell([(0, 0), (1, 0), (2, 1)]),
        make_cell([(0, 0), (1, 1), (2, 1)]),
    ]
    assert not check_star_completeness(folded)
    cells = delaunay_star(HEX).cells
    assert not check_star_completeness(cells + cells)
    assert not check_star_completeness(cells[1:])
    assert not check_star_completeness([])


def test_incomplete_star_names_an_unpaired_facet(monkeypatch):
    from latdel import delaunay

    enumerate_all = delaunay.vertex_enumeration
    holes = enumerate_all([(row, rhs) for row, rhs, _ in delaunay.voronoi_inequalities(HEX)])
    dropped = [c for c in delaunay_star(HEX).cells if c.center == holes[0]][0]
    monkeypatch.setattr(delaunay, "vertex_enumeration", lambda ineqs: enumerate_all(ineqs)[1:])
    with pytest.raises(CertificationError, match="not locally complete") as info:
        delaunay_star(HEX)
    # the two edges of the missing triangle through 0 are the unpaired facets
    for v in dropped.vertices:
        if any(v):
            assert repr(tuple(sorted([(0, 0), v]))) in str(info.value)


def test_local_delaunay_accepts_the_hexagonal_star():
    star = delaunay_star(HEX)
    check_local_delaunay(HEX, star.cells, facets_at_zero(star.cells))


def test_local_delaunay_refuses_a_wall_form_with_equality():
    # V1's triangulation refines the V1capV2 subdivision, so under the wall's
    # form a fused facet has the vertex across it on the sphere, not outside
    wall = sample_interior(catalog("dim4.V1capV2"))
    cells = []
    for cell in delaunay_star(sample_interior(catalog("dim4.V1"))).cells:
        center, sq_radius = cell_center(wall, cell.vertices)
        cells.append(replace(cell, center=center, sq_radius=sq_radius))
    with pytest.raises(CertificationError) as info:
        check_local_delaunay(wall, cells, facets_at_zero(cells))
    assert str(info.value) == (
        "facet ((-1, -1, -1, -1), (-1, -1, -1, 0), (-1, -1, 0, 0), (0, 0, 0, 0)) is not "
        "locally Delaunay: the vertex (0, -1, 0, 0) across it lies on the sphere of "
        "((-1, -1, -1, -1), (-1, -1, -1, 0), (-1, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0))"
    )


def test_local_delaunay_refuses_a_moved_hole():
    star = delaunay_star(HEX)
    cell = star.cells[0]
    moved = replace(cell, center=tuple(c + Fraction(1, 97) for c in cell.center))
    cells = (moved,) + star.cells[1:]
    with pytest.raises(CertificationError, match="is not cospherical about its hole"):
        check_local_delaunay(HEX, cells, facets_at_zero(cells))


def test_star_verifies_the_holes_of_the_walk(monkeypatch):
    from latdel import delaunay

    built = []
    facet_map = delaunay.facet_map
    monkeypatch.setattr(delaunay, "facet_map", lambda *a: built.append(1) or facet_map(*a))
    delaunay_star(HEX)
    assert built == [1]  # one facet map for completeness and the lemma
    make = delaunay.make_cell

    def moved(vertices, center, sq_radius):
        return make(vertices, tuple(x + Fraction(1, 97) for x in center), sq_radius)

    monkeypatch.setattr(delaunay, "make_cell", moved)
    with pytest.raises(CertificationError, match="is not cospherical about its hole"):
        delaunay_star(HEX)


def test_canonical_orbit_rep():
    seg = make_cell([(1, 0), (1, 1)])
    assert canonical_orbit_rep(seg).vertices == ((0, 0), (0, 1))
    sigma4 = make_cell([(1, 0), (0, 1), (1, 1)])
    # based at its smallest vertex s2
    assert canonical_orbit_rep(sigma4).vertices == ((0, 0), (1, -1), (1, 0))
    rep = canonical_orbit_rep(sigma4)
    assert canonical_orbit_rep(rep).vertices == rep.vertices


def test_is_basic_simplex():
    sigma = make_cell([(0, 0), (1, 0), (1, 1)])
    assert is_basic_simplex(sigma)
    assert not is_basic_simplex(make_cell([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert not is_basic_simplex(make_cell([(0, 0), (2, 0), (0, 2)]))


@st.composite
def pd_forms(draw):
    # A^T A + I for a random integer matrix A is positive definite
    g = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=g, max_size=g),
            min_size=g,
            max_size=g,
        )
    )
    entries = tuple(
        tuple(
            Fraction(
                sum(rows[k][i] * rows[k][j] for k in range(g)) + (i == j)
            )
            for j in range(g)
        )
        for i in range(g)
    )
    return QuadraticForm(entries)


@settings(max_examples=25, deadline=None)
@given(pd_forms())
def test_star_cells_certified(form):
    star = delaunay_star(form)
    for cell in star.cells:
        cert = certify_cell(form, cell)
        assert cert.ok
        # equality exactly at vertices
        for v in cell.vertices:
            diff = tuple(a - c for a, c in zip(v, cell.center))
            assert evaluate(form, diff, diff) == cell.sq_radius
