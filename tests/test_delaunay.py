"""Delaunay stars, holes, empty-sphere certificates, canonical reps."""

import re
from ast import literal_eval
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdel import delaunay, geometry
from latdel.catalog import catalog, catalog_names, sample_interior
from latdel.delaunay import (
    CertificationError,
    NotCospherical,
    NotPositiveDefiniteError,
    UnsupportedRankError,
    canonical_orbit_rep,
    cell_center,
    certify_cell,
    check_star_completeness,
    check_tiling,
    delaunay_star,
    facets_at_zero,
    is_basic_simplex,
    make_cell,
    nearest_points,
    star_from_reps,
    voronoi_inequalities,
)
from latdel.exact import (
    QuadraticForm,
    SingularMatrixError,
    congruence_act,
    dot,
    evaluate,
    mat_mul,
    mat_vec,
    matrix_rank,
    shift_points,
)
from latdel.geometry import polytope_facets

from test_oracle import lemma_on_cells


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
    # the rank-0 form has no cell with a facet to walk across
    with pytest.raises(UnsupportedRankError, match="at least 1"):
        delaunay_star(form([]))


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
    check_tiling(2, star.orbit_reps)
    with pytest.raises(CertificationError, match="normalized volume 1 .* expected 2"):
        check_tiling(2, star.orbit_reps[:1])


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
    dropped, kept = delaunay_star(HEX).orbit_reps
    monkeypatch.setattr(delaunay, "_walk_reps", lambda *args: (kept,))
    with pytest.raises(CertificationError, match="not locally complete") as info:
        delaunay_star(HEX)
    # every edge class of the missing triangle is held by the other one only
    assert "class ((0, 0), (0, 1)) is held by the reps [%r]," % (kept.vertices,) in str(info.value)
    assert {(0, 0), (0, 1)} <= dropped.vertex_set()


def test_local_delaunay_accepts_the_hexagonal_star():
    cells = delaunay_star(HEX).cells
    lemma_on_cells(HEX, cells, facets_at_zero(cells))


def test_local_delaunay_refuses_a_wall_form_with_equality():
    # V1's triangulation refines the V1capV2 subdivision, so under the wall's
    # form a fused facet has the vertex across it on the sphere, not outside
    wall = sample_interior(catalog("dim4.V1capV2"))
    cells = []
    for cell in delaunay_star(sample_interior(catalog("dim4.V1"))).cells:
        center, sq_radius = cell_center(wall, cell.vertices)
        cells.append(replace(cell, center=center, sq_radius=sq_radius))
    with pytest.raises(CertificationError) as info:
        lemma_on_cells(wall, cells, facets_at_zero(cells))
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
        lemma_on_cells(HEX, cells, facets_at_zero(cells))


def test_star_verifies_the_holes_of_the_walk(monkeypatch):
    steps, step = [], delaunay._step
    monkeypatch.setattr(delaunay, "_step", lambda *a: steps.append(1) or step(*a))
    geometry._lattice_polytope.cache_clear()
    star = delaunay_star(HEX)
    # facets once per rep class, in the walk, read back from the cache by the
    # certificate, and one ratio test per rep beyond the first: the second
    # triangle holds all three edge classes of the first on the other side
    assert geometry._lattice_polytope.cache_info().misses == len(star.orbit_reps) == 2
    assert sum(len(polytope_facets(rep.vertices)) for rep in star.orbit_reps) == 6
    classes, _ = delaunay.facet_classes(star.orbit_reps)
    assert len(classes) == 3 and len(steps) == 1
    make = delaunay.make_cell

    def moved(vertices, center, sq_radius):
        return make(vertices, tuple(x + Fraction(1, 97) for x in center), sq_radius)

    monkeypatch.setattr(delaunay, "make_cell", moved)
    with pytest.raises(CertificationError, match="is not cospherical about its hole"):
        delaunay_star(HEX)


@pytest.mark.parametrize(
    "name, weights", [("dim4.K", None), ("dim4.V1", [3, 1, 4, 1, 5, 2, 6, 5, 3, 5])]
)
def test_each_ratio_test_of_the_walk_finds_a_new_rep(monkeypatch, name, weights):
    # a class is crossed only while no known cell holds its other side
    steps, step = [], delaunay._step
    monkeypatch.setattr(delaunay, "_step", lambda *a: steps.append(1) or step(*a))
    star = delaunay_star(sample_interior(catalog(name), weights))
    classes, _ = delaunay.facet_classes(star.orbit_reps)
    assert len(steps) == len(star.orbit_reps) - 1 < len(classes)


def test_reps_of_a_wall_form_are_refused_by_the_lemma():
    # V1's reps re-centred under the V1capV2 form pair up, but a fused facet
    # has the vertex across it on the sphere
    wall = sample_interior(catalog("dim4.V1capV2"))
    reps = [
        replace(rep, center=center, sq_radius=sq_radius)
        for rep in delaunay_star(sample_interior(catalog("dim4.V1"))).orbit_reps
        for center, sq_radius in [cell_center(wall, rep.vertices)]
    ]
    with pytest.raises(CertificationError, match="across it lies on the sphere of"):
        star_from_reps(wall, reps)


def test_a_dropped_rep_leaves_a_class_seen_once():
    star = delaunay_star(sample_interior(catalog("dim3.V")))
    dropped, reps = star.orbit_reps[0], star.orbit_reps[1:]
    assert star_from_reps(star.form, star.orbit_reps) == star
    with pytest.raises(CertificationError, match="not locally complete") as info:
        star_from_reps(star.form, reps)
    # the named class is a facet class of the dropped rep, held by one other rep
    named = re.search(r"facet class (.*) is held by the reps (.*), not by", str(info.value))
    facet, holders = literal_eval(named.group(1)), literal_eval(named.group(2))
    assert len(holders) == 1 and holders[0] in [rep.vertices for rep in reps]
    assert any(set(shift_points(facet, v)) <= dropped.vertex_set() for v in dropped.vertices)


def test_a_doubled_rep_breaks_the_tiling_invariant():
    # the unit square stretched to [0, 2] x [0, 1] pairs its facet classes and
    # passes the lemma, but its translates cover the plane twice
    corners = [(0, 0), (2, 0), (0, 1), (2, 1)]
    rect = make_cell(corners, *cell_center(ID2, corners))
    with pytest.raises(CertificationError, match="normalized volume 4 of the orbit .* expected 2"):
        star_from_reps(ID2, [rect])


def test_delaunay_star_certifies_through_star_from_reps(monkeypatch):
    # the certificate the tests above run on given reps is the one every star
    # runs: one call per star, the form factored once
    calls = Counter()
    for name in ("star_from_reps", "_integer_ldl", "_integer_gram"):
        original = getattr(delaunay, name)
        monkeypatch.setattr(delaunay, name, lambda *a, f=original, n=name: calls.update([n]) or f(*a))
    delaunay_star(sample_interior(catalog("dim3.V")))
    assert calls == {"star_from_reps": 1, "_integer_ldl": 1, "_integer_gram": 2}


def test_certify_cell_refuses_a_form_that_is_not_positive_definite():
    # refused before the sphere is solved: under diag(1, 0) and the zero form
    # the triangle has no sphere, under diag(1, -1) it has one
    triangle = make_cell([(0, 0), (1, 0), (0, 1)])
    for rows in ([[1, 0], [0, 0]], [[0, 0], [0, 0]], [[1, 0], [0, -1]]):
        with pytest.raises(NotPositiveDefiniteError, match="^form is not positive definite$"):
            certify_cell(form(rows), triangle)


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


def check_walk_start(form):
    # from 0, inside the Voronoi cell, a vertex in at most g ratio tests
    g = form.rank
    ineqs = [geometry._int_scaled(a, b) for a, b, _ in voronoi_inequalities(form)]
    with mock.patch.object(geometry, "_step", side_effect=geometry._step) as step:
        nums, den, tight = geometry._vertex_from_origin(ineqs, g)
    assert all(dot(a, nums) <= b * den for a, b in ineqs)
    assert tight == [i for i, (a, b) in enumerate(ineqs) if dot(a, nums) == b * den]
    assert matrix_rank([ineqs[i][0] for i in tight]) == g
    assert step.call_count <= g


def test_walk_start_reaches_a_vertex_on_the_catalog_forms():
    for name in catalog_names():
        check_walk_start(sample_interior(catalog(name)))


@settings(max_examples=50, deadline=None)
@given(pd_forms())
def test_walk_start_reaches_a_vertex(form):
    check_walk_start(form)


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


@st.composite
def unimodular_changes(draw):
    """(Q, U): a catalog sample form of rank 2-4 and a product of at most
    three elementary matrices I + m E_ij, i != j, with m = +-1."""
    name = draw(st.sampled_from([n for n in catalog_names() if n[3] in "234"]))
    form = sample_interior(catalog(name))
    g = form.rank
    u = [[int(i == j) for j in range(g)] for i in range(g)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(g)))[:2]
        step = [[int(a == b) for b in range(g)] for a in range(g)]
        step[i][j] = draw(st.sampled_from((1, -1)))
        u = mat_mul(u, step)
    return form, u


@settings(max_examples=40, deadline=None)
@given(unimodular_changes())
def test_star_is_equivariant_under_unimodular_changes_of_basis(case):
    # y is a lattice point for U^T Q U exactly when x = Uy is one for Q, at
    # the same distances, so x -> Ux maps the one star onto the other
    form, u = case
    star = delaunay_star(form)
    moved = delaunay_star(congruence_act(u, form))
    mapped = [
        make_cell([mat_vec(u, v) for v in c.vertices], tuple(mat_vec(u, c.center)), c.sq_radius)
        for c in moved.cells
    ]
    assert sorted(mapped, key=lambda cell: cell.vertices) == list(star.cells)
