"""The 64 faces of the perfect cone, their graphs, orbits and types."""

from fractions import Fraction

import pytest

from latdel.catalog import catalog, catalog_names, difference_form
from latdel.exact import QuadraticForm, mat_mul
from latdel.faces import (
    BLACK,
    FORK,
    RED,
    TRIANGLE,
    TYPE_II,
    TYPE_III,
    classify_face,
    classify_named_cone,
    classify_type,
    enumerate_faces,
    face_of_cone,
    facial_certificate,
    graph_of,
    group_G,
    group_generators,
    root_permutation,
)

from test_oracle import identify_pm, identity_matrix, pm_form, voronoi_transform


def test_voronoi_transform_examples():
    # (x1 - x2)^2 becomes 4 x2^2
    img = voronoi_transform(difference_form(4, 1, 2))
    four_x2sq = QuadraticForm(
        tuple(
            tuple(Fraction(4 if i == j == 1 else 0) for j in range(4))
            for i in range(4)
        )
    )
    assert img == four_x2sq


def test_voronoi_transform_bijective_on_k():
    k = catalog("dim4.K")
    images = set()
    for g in k.generators:
        key = identify_pm(voronoi_transform(g))
        assert key is not None
        images.add(key)
    assert len(images) == 12


def test_sigma_is_involution():
    sigma = group_generators()[-1]
    assert mat_mul(sigma, sigma) == identity_matrix(4)


def test_enumerate_faces():
    faces = enumerate_faces()
    assert len(faces) == 64
    shapes = [f.graph.shape for f in faces]
    assert shapes.count(TRIANGLE) == 32
    assert shapes.count(FORK) == 32


def test_facial_certificate():
    # an all-black triangle on {1,2,3} is a face
    dropped = ((1, 2, 1), (1, 3, 1), (2, 3, 1))
    assert facial_certificate(dropped) is not None
    with pytest.raises(ValueError):
        facial_certificate(((1, 2, 1), (1, 2, -1), (3, 4, 1)))


def test_group_order():
    assert len(group_G()) == 1152
    # diag(2,1,1,1) scales the root e1+e2 to (2,1,0,0), off the root set
    with pytest.raises(RuntimeError):
        root_permutation(((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    # the half-integral matrix of all 1/2 sends e1+e2 to (1,1,1,1)
    with pytest.raises(RuntimeError):
        root_permutation(tuple((Fraction(1, 2),) * 4 for _ in range(4)))
    # (1/3) P for a signed permutation matrix P sends each root r to r/3, and
    # 2 sigma = J - 2I sends e1+e2 to (-1,-1,1,1): both are off the root set
    flip, sigma = group_generators()[0], group_generators()[-1]
    with pytest.raises(RuntimeError):
        root_permutation(tuple(tuple(Fraction(v, 3) for v in row) for row in flip))
    with pytest.raises(RuntimeError):
        root_permutation(tuple(tuple(2 * v for v in row) for row in sigma))


def test_orbit_sizes_and_all_red_triangles():
    faces = enumerate_faces()
    bf = [f for f in faces if classify_face(f.dropped) == "BF"]
    rt = [f for f in faces if classify_face(f.dropped) == "RT"]
    assert len(bf) == 48 and len(rt) == 16
    # every all-red triangle lies in the 16-orbit
    all_red_triangles = [
        f
        for f in faces
        if f.graph.shape == TRIANGLE and set(f.graph.colors) == {RED}
    ]
    assert len(all_red_triangles) == 4
    assert all(classify_face(f.dropped) == "RT" for f in all_red_triangles)
    # all-black faces, fork or triangle, lie in the 48-orbit
    all_black = [f for f in faces if set(f.graph.colors) == {BLACK}]
    assert all(classify_face(f.dropped) == "BF" for f in all_black)


def test_w0_face():
    dropped = face_of_cone(catalog("dim4.W0"))
    assert dropped == ((1, 3, 1), (1, 4, 1), (3, 4, -1))
    assert classify_face(dropped) == "RT"
    assert classify_type(dropped) == TYPE_III


def test_v1capv2_face():
    dropped = face_of_cone(catalog("dim4.V1capV2"))
    assert graph_of(dropped).shape == TRIANGLE
    assert set(graph_of(dropped).colors) == {BLACK}
    assert classify_face(dropped) == "BF"


# the K-face of each catalog cone, or the text of the error that refuses it
FACE_OF_CONE = {
    "dim4.W0": ((1, 3, 1), (1, 4, 1), (3, 4, -1)),
    "dim4.V1capV2": ((1, 3, 1), (1, 4, 1), (3, 4, 1)),
    "dim4.K": "dim4.K does not span a codim-1 face of K",
}


@pytest.mark.parametrize("name", catalog_names())
def test_face_of_cone_on_every_catalog_cone(name):
    cone = catalog(name)
    if cone.ambient_rank != 4:
        expected = "the Voronoi transformation acts on rank-4 forms"
    else:
        expected = FACE_OF_CONE.get(name, "a generator of %s is not carried onto a K ray" % name)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            face_of_cone(cone)
        assert str(info.value) == expected
    else:
        assert face_of_cone(cone) == expected


def test_classify_named_cone():
    assert classify_named_cone("dim4.V2") == TYPE_II
    assert classify_named_cone("dim4.V3") == TYPE_III
    assert classify_named_cone("dim4.V4") == TYPE_III
    with pytest.raises(KeyError):
        classify_named_cone("dim4.V1")


def test_pm_form():
    f = pm_form(1, 2, -1)
    assert f == difference_form(4, 1, 2)
    assert identify_pm(f) == (1, 2, -1)
    # scaling does not change identification
    assert identify_pm(QuadraticForm(
        tuple(tuple(3 * v for v in row) for row in f.entries)
    )) == (1, 2, -1)
