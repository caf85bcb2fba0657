"""The cone catalog: generators, sampling, membership, identities, chambers."""

from fractions import Fraction
from importlib import import_module

import pytest

from latdel.catalog import (
    E12_2,
    F12_2,
    F_1234,
    G_123,
    OMEGA,
    _chamber_cone,
    _flatten,
    catalog,
    catalog_names,
    chamber_side,
    check_generator_semidefiniteness,
    contains,
    e_generator,
    sample_interior,
    split_form,
    square_form,
    verify_matrix_identities,
)
from latdel.exact import QuadraticForm, form_add, form_scale, matrix_rank, solve_overdetermined


def form(rows):
    return QuadraticForm(tuple(tuple(Fraction(v) for v in row) for row in rows))


def chamber_coordinates(split, form: QuadraticForm):
    """Coefficients of the form in the simplicial generator basis of G_abcd: the
    former `catalog.chamber_coordinates`, which nothing in the package calls."""
    a, b, c, d = split
    pair1, pair2 = sorted([tuple(sorted((a, b))), tuple(sorted((c, d)))])
    cone = catalog("dim4.G%d%d%d%d" % (pair1 + pair2))
    *gens, flat = _flatten(*cone.generators, form)
    coeffs = solve_overdetermined(list(zip(*gens)), flat)
    return dict(zip(cone.generator_names, coeffs))


def test_catalog_dim2_generators():
    v1 = catalog("dim2.V1")
    assert set(v1.generator_names) == {"e_13", "e_23", "e_12"}
    gens = dict(zip(v1.generator_names, v1.generators))
    assert gens["e_12"] == form([[1, -1], [-1, 1]])
    assert gens["e_13"] == form([[1, 0], [0, 0]])
    assert gens["e_23"] == form([[0, 0], [0, 1]])


def test_catalog_w0_generators():
    w0 = catalog("dim4.W0")
    expected = {
        "e_13", "e_14", "e_23", "e_24",
        "e_15", "e_25", "e_35", "e_45",
        "f_1234",
    }
    assert set(w0.generator_names) == expected


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog("dim5.V1")


def test_catalog_dimensions():
    for name in ("dim4.V1", "dim4.V2", "dim4.V3", "dim4.V4", "dim4.K"):
        assert catalog(name).dimension == 10
    assert catalog("dim4.V1capV2").dimension == 9
    assert catalog("dim4.W0").dimension == 9


def test_sample_interior():
    assert sample_interior(catalog("dim2.V1")) == form([[2, -1], [-1, 2]])
    assert sample_interior(catalog("dim2.V1capV2")) == form([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        sample_interior(catalog("dim2.V1"), [1, 0, 1])
    with pytest.raises(ValueError):
        sample_interior(catalog("dim2.V1"), [1, 1])


def test_sample_interior_refuses_an_infinite_weight_with_value_error():
    with pytest.raises(ValueError, match="not a finite rational"):
        sample_interior(catalog("dim2.V1"), [1, 1, float("inf")])


def test_contains():
    k = catalog("dim4.K")
    coeffs = contains(k, OMEGA)
    assert coeffs is not None and all(c >= 0 for c in coeffs)
    assert form_add(*[form_scale(c, g) for c, g in zip(coeffs, k.generators)]) == OMEGA
    # the symmetric witness: omega is one third of the sum of all 12 rays
    third = form_scale(Fraction(1, 3), form_add(*k.generators))
    assert third == OMEGA
    w0 = catalog("dim4.W0")
    assert contains(w0, F_1234) is not None
    v1 = catalog("dim4.V1")
    minus_e15 = form_scale(-1, square_form(4, 1))
    assert contains(v1, minus_e15) is None


def test_contains_every_generator():
    for name in catalog_names():
        cone = catalog(name)
        for g in cone.generators:
            assert contains(cone, g) is not None


def test_matrix_identities():
    report = verify_matrix_identities()
    assert report == {
        "omega_third": True,
        "split_sum": True,
        "v3_cap_v4": True,
    }


def test_matrix_identity_dim2_analog():
    lhs = form_add(E12_2, F12_2)
    rhs = form_scale(2, form_add(square_form(2, 1), square_form(2, 2)))
    assert lhs == rhs


def test_matrix_identity_negative_control():
    not12_34 = [
        e_generator(4, i, j)
        for i in range(1, 4)
        for j in range(i + 1, 5)
        if (i, j) not in ((1, 2), (3, 4))
    ]
    lhs = form_add(OMEGA, split_form(3, 4, 1, 2))
    wrong = form_add(*(not12_34 + [G_123]))
    assert lhs != wrong


def test_f12_equals_v2():
    f12 = catalog("dim4.F12")
    v2 = catalog("dim4.V2")
    assert {g.entries for g in f12.generators} == {g.entries for g in v2.generators}


def test_chamber_side():
    assert chamber_side((1, 2, 3, 4), OMEGA) == "F_1234"
    assert chamber_side((1, 2, 3, 4), split_form(3, 4, 1, 2)) == "F_3412"
    assert chamber_side((1, 2, 3, 4), F_1234) == "boundary"
    for a, b in ((1, 2), (1, 3), (1, 4)):
        c, d = [i for i in (1, 2, 3, 4) if i not in (a, b)]
        assert chamber_side((a, b, c, d), split_form(a, b, c, d)) == "F_%d%d%d%d" % (
            a,
            b,
            c,
            d,
        )
    assert chamber_side((1, 2, 3, 4), e_generator(4, 1, 2)) == "outside"


def test_chamber_side_refuses_a_form_of_another_rank():
    # the 10 generators of each G_abcd span the 10 entries of a rank-4 form, so
    # the rank is the only fault, named as `contains` names it
    for name in ("dim4.G1234", "dim4.G1324", "dim4.G1423"):
        assert matrix_rank(_flatten(*catalog(name).generators)) == 10
    with pytest.raises(ValueError, match="^ambient ranks disagree$"):
        chamber_side((1, 2, 3, 4), form([[2 * (i == j) for j in range(5)] for i in range(5)]))


def test_chamber_side_solves_only_for_its_two_memberships(monkeypatch):
    # the split is looked up, not solved for: a split that names no G_abcd is a KeyError
    # before any solve, and the side costs the solves of its two memberships alone
    solves = []
    for name in ("latdel.catalog", "latdel.geometry"):
        monkeypatch.setattr(import_module(name), "solve_overdetermined",
                            lambda *a: solves.append(a) or solve_overdetermined(*a), raising=False)
    with pytest.raises(KeyError, match="unknown cone 'dim4.G1213'"):
        chamber_side((1, 2, 1, 3), OMEGA)
    assert solves == []
    for f in (OMEGA, F_1234, e_generator(4, 1, 2)):
        for split in ((1, 2, 3, 4), (3, 4, 1, 2)):
            contains(_chamber_cone(*split), f)
        memberships = len(solves)
        chamber_side((1, 2, 3, 4), f)
        assert len(solves) == 2 * memberships
        solves.clear()


def test_coefficients_are_those_of_the_form_at_every_scale():
    # the flattened Grams are taken over one common scale, so a form of scale 3
    # gets the coefficients of its entries, not those of its integer Gram
    v1 = catalog("dim4.V1")
    third = form_scale(Fraction(1, 3), sample_interior(v1))
    assert third.scale == 3
    assert contains(v1, third) == (Fraction(1, 3),) * 10
    assert contains(catalog("dim2.V1"), form([["1/2", "1/3"], ["1/3", "1/2"]])) is None
    assert contains(catalog("dim2.V1capV2"), form([["1/2", 0], [0, "1/3"]])) == (
        Fraction(1, 2), Fraction(1, 3))


def test_chamber_coordinates_reconstruct():
    coords = chamber_coordinates((1, 2, 3, 4), OMEGA)
    gens = dict(
        zip(
            catalog("dim4.G1234").generator_names,
            catalog("dim4.G1234").generators,
        )
    )
    total = form_add(*[form_scale(c, gens[n]) for n, c in coords.items() if c])
    assert total == OMEGA
    assert coords["e_12345"] == 1
    # a rank-5 form has 15 entries to the 10 of the basis: refused, not truncated
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        chamber_coordinates((1, 2, 3, 4), form([[2 * (i == j) for j in range(5)] for i in range(5)]))


def test_generators_semidefinite():
    assert check_generator_semidefiniteness() == []
