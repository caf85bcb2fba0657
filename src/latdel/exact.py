"""Exact rational scalars, vectors and symmetric bilinear forms.

All arithmetic is exact, in `int` and `fractions.Fraction`; nothing in this
package ever rounds.  Vectors are plain tuples and matrices tuples of
row tuples, of ints, and of Fractions only where a value is not integral.

Row elimination lives in three routines only, all in integers: `_echelon`, a
fraction-free (Bareiss) Gauss-Jordan core under the rank, nullspace, solves and
the scaled inverse with its |det|; `_cut`, which cuts an integer kernel basis by
one row, under the facet search; and `ldl`, the fraction-free in-order symmetric
LDL^T under definiteness and the integer lattice point sweep.  A form is its
integer Gram matrix and scale (`QuadraticForm.gram` and `.scale`), which every
layer reads; its rational entries are built only for parsing and output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence, Tuple

Rational = Fraction
LatticeVector = Tuple[int, ...]
Matrix = Tuple[tuple, ...]  # row tuples of ints or Fractions

POSITIVE_DEFINITE = "positive_definite"
POSITIVE_SEMIDEFINITE = "positive_semidefinite"
INDEFINITE = "indefinite"


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a singular matrix."""


# the "p/q" encoding in ASCII digits: no decimals, exponents, underscores or inner spaces
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text) -> Fraction:
    """Parse the "p/q" (or plain "p") text encoding; an int is taken as is."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise TypeError('expected a "p/q" string or an integer, got %r' % (text,))
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError("Invalid literal for Fraction: %r" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text)


def format_rational(value) -> str:
    """Encode a rational as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def _rational(value):
    """An int or Fraction as it is, anything else through `Fraction()`; ValueError if not finite."""
    try:
        return value if isinstance(value, (int, Fraction)) else Fraction(value)
    except OverflowError:
        raise ValueError("%r is not a finite rational" % (value,))


def basis_sum(rank: int, indices: Iterable[int]) -> LatticeVector:
    """The lattice vector s_I = sum of the basis vectors s_i, i in I (1-based)."""
    coords = [0] * rank
    for i in indices:
        if not 1 <= i <= rank:
            raise ValueError("index %d out of range for rank %d" % (i, rank))
        coords[i - 1] += 1
    return tuple(coords)


def vec_sub(x: Sequence, y: Sequence) -> tuple:
    return tuple(map(sub, x, y))


def shift_points(points, t) -> tuple:
    """The points translated by the vector t, in the same order."""
    return tuple(tuple(map(add, p, t)) for p in points)


def dot(x: Sequence, y: Sequence):
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum(map(mul, x, y))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_vec(m: Matrix, x: Sequence) -> tuple:
    return tuple(dot(row, x) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


@dataclass(frozen=True, init=False)
class QuadraticForm:
    """A symmetric bilinear form B, which is its integer Gram matrix `gram` = kB and its
    `scale` k, the least positive integer making kB integral: every layer reads these.
    Entries may be ints, Fractions or anything `Fraction()` parses; as k is least,
    forms are equal exactly when their entries are."""

    gram: Tuple[Tuple[int, ...], ...]
    scale: int

    def __init__(self, entries):
        rows = [[_rational(v) for v in row] for row in entries]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        nums, k = integral([v for row in rows for v in row])
        object.__setattr__(self, "gram", tuple(tuple(nums[i * n:(i + 1) * n]) for i in range(n)))
        object.__setattr__(self, "scale", k)

    @property
    def entries(self) -> Matrix:
        """The exact rational matrix B, built on each read."""
        return tuple(tuple(Fraction(v, self.scale) for v in row) for row in self.gram)

    @property
    def rank(self) -> int:
        """Ambient rank g (the matrix size, not the linear-algebra rank)."""
        return len(self.gram)

    def __repr__(self):
        rows = "; ".join(" ".join(map(format_rational, row)) for row in self.entries)
        return "QuadraticForm[%s]" % rows


def _over(rows, k) -> QuadraticForm:
    """The form of the symmetric integer rows over k > 0, in lowest terms."""
    g = gcd(k, *[x for row in rows for x in row])
    form = object.__new__(QuadraticForm)
    object.__setattr__(form, "gram", tuple(tuple(x // g for x in row) for row in rows))
    object.__setattr__(form, "scale", k // g)
    return form


def evaluate(form: QuadraticForm, x: Sequence, y: Sequence) -> Fraction:
    """The inner product x^T B y determined by the form, x^T G y over k."""
    if len(x) != form.rank or len(y) != form.rank:
        raise ValueError("dimension mismatch")
    return Fraction(dot(x, mat_vec(form.gram, y)), form.scale)


def norm(form: QuadraticForm, x: Sequence) -> Fraction:
    """Squared length of x in the metric of the form."""
    return evaluate(form, x, x)


def form_add(*forms: QuadraticForm) -> QuadraticForm:
    ranks = {f.rank for f in forms}
    if len(ranks) != 1:
        raise ValueError("dimension mismatch")
    n, k = ranks.pop(), lcm(*[f.scale for f in forms])
    return _over([[sum(f.gram[i][j] * (k // f.scale) for f in forms) for j in range(n)]
                  for i in range(n)], k)


def form_scale(c, form: QuadraticForm) -> QuadraticForm:
    c = _rational(c)
    return _over([[c.numerator * x for x in row] for row in form.gram], c.denominator * form.scale)


def ldl(gram):
    """In-order G = U^T D U, U unit upper triangular, for an integer semidefinite G:
    Bareiss elimination (Math. Comp. 22, 1968) in index order, without row swaps.

    Returns (rows, pivots), or None when G is indefinite: a negative pivot, or a zero
    pivot whose residual row is nonzero.  A zero pivot with a zero residual row only
    lowers the rank; its row stays zero.  Row i is p_i times row i of U, and d_i =
    p_i / p_{i-1} over the nonzero pivots (p_{-1} = 1): each is a leading principal minor
    of G without the zero-pivot indices, so every update divides exactly.  The index
    order is the one the integer Fincke-Pohst sweep of `delaunay._sweep` needs."""
    n = len(gram)
    a = [list(row) for row in gram]
    pivots, prev = [], 1
    for i, row in enumerate(a):
        p = row[i]
        if p < 0 or (p == 0 and any(row[i + 1:])):
            return None
        pivots.append(p)
        if p:
            for r in range(i + 1, n):  # the upper triangle, as the residual stays symmetric
                f = row[r]
                a[r][r:] = [(p * x - f * y) // prev for x, y in zip(a[r][r:], row[r:])]
            prev = p
    return [[0] * i + row[i:] for i, row in enumerate(a)], pivots


def definiteness(form: QuadraticForm) -> str:
    """Exact classification by the pivots of `ldl` on the integer Gram."""
    factor = ldl(form.gram)
    if factor is None:
        return INDEFINITE
    return POSITIVE_DEFINITE if all(factor[1]) else POSITIVE_SEMIDEFINITE


def congruence_act(a: Matrix, form: QuadraticForm) -> QuadraticForm:
    """The congruence action B |-> A^T B A for invertible rational A, formed
    over the integers as A'^T B' A' / (s^2 t) from A = A'/s and B = B'/t."""
    n = form.rank
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError("congruence needs a square matrix of the form's rank")
    ai, s = integral([_rational(v) for row in a for v in row])
    ai = [ai[i * n:(i + 1) * n] for i in range(n)]
    if len(_echelon(ai)[1]) < n:
        raise SingularMatrixError("congruence by a singular matrix")
    return _over(mat_mul(transpose(ai), mat_mul(form.gram, ai)), s * s * form.scale)


def integral(values):
    """Rationals as (integer numerators, d) over their least common
    denominator d."""
    den = lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def _echelon(rows):
    """Fraction-free Gauss-Jordan reduction of a rational row list.

    Each row is scaled to integers by `integral`, then eliminated over the
    integers; every update is divided exactly by the previous pivot
    (Bareiss, Math. Comp. 22, 1968), so the entries stay minors of the
    scaled matrix.  Returns (a, pivots, p): the integer rows, whose first
    len(pivots) rows are p times the reduced row echelon form; the pivot
    columns; and the common pivot p, +- a maximal minor of the scaled matrix.
    """
    a = [integral(row)[0] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    prev, r = 1, 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p, top = a[r][col], a[r]
        for i, row in enumerate(a):
            if i != r:
                f = row[col]
                a[i] = [(p * v - f * t) // prev for v, t in zip(row, top)]
        pivots.append(col)
        prev = p
        r += 1
    return a, pivots, prev


def _cut(basis, r):
    """The primitive integer basis of the w in span(basis) with r.w = 0, for an independent
    integer basis, as in the double description method (Motzkin et al., 1953): with a = r.w_j
    != 0 at the first such w_j, each other w_i, b = r.w_i, becomes a w_i - b w_j over its gcd."""
    values = [dot(r, w) for w in basis]
    j = next((j for j, a in enumerate(values) if a), None)
    if j is None:
        return basis
    a, wj = values[j], basis[j]
    cut = [[a * x - b * y for x, y in zip(w, wj)]
           for i, (w, b) in enumerate(zip(basis, values)) if i != j]
    return [tuple(x // g for x in v) for v in cut for g in [gcd(*v)]]


def _scaled_inverse(m):
    """(|det M| M^-1, |det M|) in integers for a nonsingular integer square M, else
    None: one `_echelon` of [M | I] gives +-det M [I | M^-1] in its first n rows."""
    n = len(m)
    if n and all(len(row) == n for row in m):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        reduced, pivots, p = _echelon([list(r) + e for r, e in zip(m, eye)])
        if pivots[-1] < n:
            return [[x if p > 0 else -x for x in row[n:]] for row in reduced[:n]], abs(p)
    return None


def solve_overdetermined(rows: Sequence[Sequence], rhs: Sequence):
    """Solve a stacked linear system exactly.

    Returns the unique solution, raises SingularMatrixError when the rows do
    not determine one, and ValueError("inconsistent") when no solution exists.
    """
    if len(rhs) != len(rows):
        raise ValueError("dimension mismatch")
    if not rows:
        raise SingularMatrixError("singular")
    n = len(rows[0])
    a, pivots, p = _echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        raise ValueError("inconsistent")
    if len(pivots) < n:
        raise SingularMatrixError("singular")
    return tuple(Fraction(a[i][n], p) for i in range(n))


def nullspace(rows: Sequence[Sequence]) -> list:
    """The reduced basis of the right nullspace of the rows, exactly: one vector per free
    column f of their `_echelon`, with 1 at f, 0 at the other free columns and minus the
    reduced row entries at the pivot columns."""
    a, pivots, p = _echelon(rows)
    reduced, n = dict(zip(pivots, a)), len(rows[0]) if rows else 0
    return [tuple(Fraction(-reduced[c][f], p) if c in reduced else Fraction(int(c == f))
                  for c in range(n)) for f in range(n) if f not in reduced]


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[1])
