"""Totally and simplicially generating decisions for cells at the origin."""

import pytest

from latdel.delaunay import make_cell
from latdel.exact import basis_sum
from latdel.generation import (
    GenerationReport,
    cone_cover_check,
    cone_rays,
    in_semigroup,
    is_simplicially_generating,
    is_totally_generating,
    parallelepiped_points,
)

ZERO2 = (0, 0)
S1, S2, S12 = (1, 0), (0, 1), (1, 1)
SIGMA1 = make_cell([ZERO2, S1, S12])
SIGMA2 = make_cell([ZERO2, S2, S12])
SIGMA3 = make_cell([ZERO2, S1, S2])
SIGMA4 = make_cell([S1, S2, S12])
SIGMA5 = make_cell([ZERO2, S1, S2, S12])


def test_cone_rays():
    assert cone_rays(SIGMA1) == (S1, S12)
    # s12 is interior to the cone of the square
    assert cone_rays(SIGMA5) == (S2, S1)
    sigma_1234 = make_cell(
        [(0, 0, 0, 0)]
        + [basis_sum(4, list(range(1, k + 1))) for k in range(1, 5)]
    )
    assert cone_rays(sigma_1234) == tuple(
        sorted(basis_sum(4, list(range(1, k + 1))) for k in range(1, 5))
    )
    assert cone_rays(make_cell([ZERO2])) == ()
    with pytest.raises(ValueError):
        cone_rays(SIGMA4)


def test_parallelepiped_points():
    assert parallelepiped_points([S1, S2]) == {ZERO2}
    assert parallelepiped_points([(1, 0), (1, 2)]) == {ZERO2, (1, 1)}
    assert parallelepiped_points([(2,)]) == {(0,), (1,)}
    with pytest.raises(ValueError):
        parallelepiped_points([(1, 0), (2, 0)])


def test_in_semigroup():
    gens = [S1, S12]
    assert in_semigroup((3, 2), gens)
    assert not in_semigroup((0, 1), gens)
    # monotone: sums of members are members
    assert in_semigroup((2, 1), gens) and in_semigroup((1, 1), gens)
    assert in_semigroup((3, 2), gens)


def test_in_semigroup_needs_a_pointed_cone():
    # the height, the sum of the facet normals, must be >= 1 on every
    # generator: a line has no facets, a half-plane one normal that is 0 on
    # (1, 0) and (-1, 0)
    for gens in ([S1, (-1, 0)], [S1, (-1, 0), S2]):
        with pytest.raises(ValueError):
            in_semigroup(S12, gens)
    # with no nonzero generators only 0 is a sum
    assert in_semigroup(ZERO2, [])
    assert not in_semigroup(S1, [])
    assert not in_semigroup(S1, [ZERO2])


def test_in_semigroup_decides_deep_points():
    # the depth of the search is the height, 2000 here: no cap to hit and no
    # recursion limit
    assert in_semigroup((2000, 0), [S1])
    assert not in_semigroup((2000, 1), [S1, (1, 2)])


def test_is_totally_generating():
    assert is_totally_generating(SIGMA1) == GenerationReport(True)
    assert is_totally_generating(SIGMA5) == GenerationReport(True)
    assert is_totally_generating(make_cell([ZERO2])) == GenerationReport(True)
    # the cube tetrahedron lists every lattice point of its hull, but the
    # parallelepiped point (1, 1, 1) of its cone at 0 is no sum of them
    cube_tetrahedron = make_cell([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    report = is_totally_generating(cube_tetrahedron)
    assert not report.totally_generating
    assert report.witness == (1, 1, 1)


def test_is_totally_generating_refuses_cells_that_break_the_cell_invariant():
    # the listed points are the semigroup generators only when they are all
    # the lattice points of the hull, 0 among its vertices: (1, 1) lies on
    # the edge from (1, 0) to (1, 2), (0, 1) on the edge from 0 to (0, 2),
    # and 0 on the edge from (-1, 0) to (1, 0)
    for vertices, point in (([(1, 0), (1, 2)], r"\(1, 1\)"), ([(2, 0), (0, 2)], r"\(0, 1\)")):
        with pytest.raises(ValueError, match="the lattice point %s of the cell" % point):
            is_totally_generating(make_cell([ZERO2] + vertices))
    with pytest.raises(ValueError, match="^0 is not a vertex of the cell$"):
        is_totally_generating(make_cell([(-1, 0), ZERO2, (1, 0), (0, 1)]))
    # a listed lattice point that is not a vertex is no cause for refusal
    segment = make_cell([ZERO2, (1, 0), (2, 0)])
    assert is_totally_generating(segment) == GenerationReport(True)


def test_is_simplicially_generating():
    report = is_simplicially_generating(SIGMA5, [SIGMA1, SIGMA2])
    assert report.totally_generating
    assert set(report.pieces) == {SIGMA1, SIGMA2}
    report = is_simplicially_generating(SIGMA5, [SIGMA3, SIGMA4])
    assert report.totally_generating
    assert set(report.pieces) == {SIGMA3}
    report = is_simplicially_generating(SIGMA1, [SIGMA1])
    assert report.totally_generating
    with pytest.raises(ValueError):
        is_simplicially_generating(SIGMA5, [SIGMA1])


def test_lower_dimensional_pieces_are_no_refinement():
    # a segment or a point does not make up the half of the square that
    # SIGMA1 leaves, whatever volume a minor would give it
    for extra in ([S2, S12], [S2], [ZERO2]):
        with pytest.raises(ValueError, match="not a refinement"):
            is_simplicially_generating(SIGMA5, [SIGMA1, make_cell(extra)])


def test_pieces_outside_the_cell_are_no_refinement():
    # the volumes add up to the square's, but (-1, 1) lies outside it
    outside = make_cell([ZERO2, S2, (-1, 1)])
    with pytest.raises(ValueError, match="not a refinement"):
        is_simplicially_generating(SIGMA5, [SIGMA1, outside])


def test_cone_cover_check():
    assert cone_cover_check(SIGMA5, [SIGMA1, SIGMA2])
    assert cone_cover_check(SIGMA5, [SIGMA3])
    assert cone_cover_check(SIGMA5, [SIGMA2, SIGMA1])  # order-independent
    assert not cone_cover_check(SIGMA5, [SIGMA1])


def test_cone_cover_check_fused_dim4():
    zero = (0, 0, 0, 0)
    s = lambda *ix: basis_sum(4, list(ix))
    sigma_1234 = make_cell([zero, s(1), s(1, 2), s(1, 2, 3), s(1, 2, 3, 4)])
    sigma_2134 = make_cell([zero, s(2), s(1, 2), s(1, 2, 3), s(1, 2, 3, 4)])
    fused = make_cell(
        [zero, s(1), s(2), s(1, 2), s(1, 2, 3), s(1, 2, 3, 4)]
    )
    assert cone_cover_check(fused, [sigma_1234, sigma_2134])


def test_cone_cover_needs_face_to_face_pieces():
    # the cones of the two triangles cover the quadrant of the square
    # [0, 2]^2, but the edge [0, s12] of one is not the edge [0, 2 s12] of
    # the other, so the facets through 0 do not pair up
    big = make_cell([ZERO2, (2, 0), (0, 2), (2, 2)])
    half_a = make_cell([ZERO2, (2, 0), (1, 1)])
    half_b = make_cell([ZERO2, (0, 2), (2, 2)])
    assert not cone_cover_check(big, [half_a, half_b])
    assert cone_cover_check(big, [make_cell([ZERO2, (2, 0), (2, 2)]), half_b])
