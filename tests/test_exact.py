"""Exact arithmetic: rationals, forms, definiteness, linear algebra."""

from fractions import Fraction

import pickle

import pytest
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from latdel.exact import (
    INDEFINITE,
    POSITIVE_DEFINITE,
    POSITIVE_SEMIDEFINITE,
    QuadraticForm,
    SingularMatrixError,
    _cut,
    _scaled_inverse,
    basis_sum,
    congruence_act,
    definiteness,
    dot,
    evaluate,
    format_rational,
    matrix_rank,
    nullspace,
    parse_rational,
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


@pytest.mark.parametrize("entries, gram, scale, text", [
    ([[2, -1], [-1, 2]], ((2, -1), (-1, 2)), 1, "2 -1; -1 2"),
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]], ((3, 2), (2, 6)), 6, "1/2 1/3; 1/3 1"),
    ([[0.5, 0.25], [0.25, 1.0]], ((2, 1), (1, 4)), 4, "1/2 1/4; 1/4 1"),
    ([["1/2", "-2/4"], [Fraction(-1, 2), "3"]], ((1, -1), (-1, 6)), 2, "1/2 -1/2; -1/2 3"),
    ([[Fraction(2, 2), 0], [0, "4/2"]], ((1, 0), (0, 2)), 1, "1 0; 0 2"),
    ([], (), 1, ""),
])
def test_a_form_is_its_integer_gram_and_least_scale(entries, gram, scale, text):
    # ints, Fractions, floats and "p/q" strings, denominators mixed or cancelling: the
    # form is kB with k least, so equality and hash follow the entries
    f = QuadraticForm(entries)
    assert (f.gram, f.scale, f.rank, repr(f)) == (gram, scale, len(gram), "QuadraticForm[%s]" % text)
    rational = tuple(tuple(Fraction(v) for v in row) for row in entries)
    assert f.entries == rational and all(type(v) is Fraction for row in f.entries for v in row)
    for same in (QuadraticForm(rational), QuadraticForm(f.entries), pickle.loads(pickle.dumps(f))):
        assert same == f and hash(same) == hash(f) and repr(same) == repr(f)
    with pytest.raises(AttributeError):
        f.entries = rational


def test_forms_are_equal_exactly_when_their_entries_are():
    assert QuadraticForm([[Fraction(2, 2)]]) == QuadraticForm([[1]]) == QuadraticForm([["3/3"]])
    assert hash(QuadraticForm([[Fraction(2, 2)]])) == hash(QuadraticForm([[1]]))
    assert QuadraticForm([[Fraction(1, 2)]]) != QuadraticForm([[1]])  # gram 1 at scales 2 and 1
    assert QuadraticForm([[2]]) != QuadraticForm([[1]])
    assert len({QuadraticForm([[1, "1/2"], [0.5, 1]]), form([[1, Fraction(1, 2)], [0.5, 1]])}) == 1


def test_quadratic_form_refusals_are_unchanged():
    with pytest.raises(ValueError, match="^matrix must be square$"):
        QuadraticForm([[1, 2], [3]])
    with pytest.raises(ValueError, match="^matrix must be square$"):
        QuadraticForm([[1, 2]])
    with pytest.raises(ValueError, match="^matrix must be symmetric$"):
        QuadraticForm([[1, "1/2"], [Fraction(1, 3), 1]])
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        QuadraticForm([["x"]])


def test_quadratic_form_refuses_every_non_finite_entry_with_value_error():
    # an infinity used to escape as OverflowError from Fraction()
    for value in (float("inf"), float("-inf"), float("nan"), "x"):
        with pytest.raises(ValueError):
            QuadraticForm([[value]])


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


def test_solve_overdetermined():
    rows = [(1, 0), (0, 1), (1, 1)]
    assert solve_overdetermined(rows, (2, 3, 5)) == (Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        solve_overdetermined(rows, (2, 3, 6))
    # the singular square system: unsolvable is inconsistent, solvable is singular
    with pytest.raises(ValueError, match="^inconsistent$"):
        solve_overdetermined(((0, 0), (0, 0)), (1, 0))
    with pytest.raises(SingularMatrixError):
        solve_overdetermined(((0, 0), (0, 0)), (0, 0))
    # a right side shorter than the rows is refused, not truncated to (1, 2)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        solve_overdetermined(rows, (1, 2))


def test_nullspace():
    kernel = nullspace([(1, 1, 0), (0, 0, 1)])
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] + v[1] == 0 and v[2] == 0 and any(v)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=n).filter(
            lambda rows: matrix_rank(rows) == len(rows)),
        st.tuples(*[st.integers(-3, 3)] * n),
    ))
)
def test_cut_gives_a_primitive_basis_of_the_part_orthogonal_to_the_row(case):
    basis, r = case
    cut = _cut(basis, r)
    if all(dot(r, w) == 0 for w in basis):
        assert cut == basis
        return
    # one dimension less, inside the span, orthogonal to r, primitive
    assert len(cut) == len(basis) - 1 == matrix_rank(cut or [(0,) * len(r)])
    assert matrix_rank(list(basis) + list(cut)) == len(basis)
    assert all(dot(r, w) == 0 and gcd(*w) == 1 and type(w[0]) is int for w in cut)
