"""Exact arithmetic: rationals, forms, definiteness, linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latdel.exact import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    QuadraticForm,
    SingularMatrixError,
    _scaled_inverse,
    basis_sum,
    congruence_act,
    definiteness,
    evaluate,
    format_rational,
    matrix_rank,
    nullspace,
    parse_rational,
    solve_linear,
    solve_overdetermined,
)
from latdel.catalog import OMEGA

from test_oracle import identity_matrix


def form(rows):
    return QuadraticForm(tuple(tuple(Fraction(v) for v in row) for row in rows))


HEX = form([[2, -1], [-1, 2]])


def test_parse_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(5, 1)) == "5"
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("text", ["1e3", "1.5", "1_0", "3 / 4", "٣", "1e999999", "0x10", "/2", "1/"])
def test_parse_rational_accepts_only_the_p_over_q_encoding(text):
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: "):
        parse_rational(text)


@given(st.fractions())
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_basis_sum():
    assert basis_sum(4, [1, 2]) == (1, 1, 0, 0)
    assert basis_sum(3, []) == (0, 0, 0)
    assert basis_sum(4, [1, 2, 3, 4]) == (1, 1, 1, 1)


def test_quadratic_form_rejects_asymmetric():
    with pytest.raises(ValueError):
        form([[1, 2], [0, 1]])


def test_evaluate():
    s12 = (1, 1)
    assert evaluate(HEX, s12, s12) == 2
    s1 = (1, 0, 0, 0)
    assert evaluate(OMEGA, s1, s1) == 2


def test_definiteness():
    assert definiteness(HEX) == POSITIVE_DEFINITE
    assert definiteness(form([[1, 0], [0, 0]])) == POSITIVE_SEMIDEFINITE
    assert definiteness(form([[1, 0], [0, -1]])) == INDEFINITE
    assert definiteness(form([[0, 1], [1, 0]])) == INDEFINITE


@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_gram_matrices_never_indefinite(rows):
    # A^T A is positive semidefinite for every integer matrix A
    gram = tuple(
        tuple(
            Fraction(sum(rows[k][i] * rows[k][j] for k in range(3)))
            for j in range(3)
        )
        for i in range(3)
    )
    assert definiteness(QuadraticForm(gram)) != INDEFINITE


def test_congruence_act():
    assert congruence_act(identity_matrix(4), OMEGA) == OMEGA
    flip = ((0, 1), (1, 0))
    assert congruence_act(flip, form([[1, 0], [0, 2]])) == form([[2, 0], [0, 1]])
    with pytest.raises(SingularMatrixError):
        congruence_act(((0, 0), (0, 0)), HEX)


def test_determinant_and_rank():
    # |det M| and |det M| M^-1 from one elimination
    assert _scaled_inverse(((2, -1), (-1, 2))) == ([[2, 1], [1, 2]], 3)
    adjugate = [[4, 0, 2, 2], [0, 4, 2, 2], [2, 2, 4, 2], [2, 2, 2, 4]]
    assert _scaled_inverse(OMEGA.entries) == (adjugate, 4)
    assert _scaled_inverse(((1, 2), (2, 4))) is None
    assert matrix_rank([(1, 0), (2, 0), (0, 0)]) == 1


def test_determinant_refuses_matrices_that_are_not_square():
    # a row of a 1 x 2 matrix is no minor to report, and an empty row list
    # has no shape: a point or a segment has no normalized volume in the plane
    for m in ([(1, 0)], [(1, 0, 0), (0, 1, 0)], [(1, 0), (0,)], []):
        assert _scaled_inverse(m) is None


def test_solve_linear():
    assert solve_linear(((2, 0), (0, 3)), (4, 9)) == (Fraction(2), Fraction(3))
    with pytest.raises(SingularMatrixError):
        solve_linear(((0, 0), (0, 0)), (1, 0))


def test_solve_overdetermined():
    rows = [(1, 0), (0, 1), (1, 1)]
    assert solve_overdetermined(rows, (2, 3, 5)) == (Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        solve_overdetermined(rows, (2, 3, 6))


def test_nullspace():
    kernel = nullspace([(1, 1, 0), (0, 0, 1)])
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] + v[1] == 0 and v[2] == 0 and any(v)
