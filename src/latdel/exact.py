"""Exact rational scalars, vectors and symmetric bilinear forms.

All arithmetic is exact, in `int` and `fractions.Fraction`; nothing in this
package ever rounds.  Vectors are plain tuples (ints for lattice vectors,
Fractions for rational vectors) and matrices are tuples of row tuples.

Row elimination lives in two routines only: `_echelon`, a fraction-free
(Bareiss) Gauss-Jordan core under the rank, nullspace, solves and the scaled
inverse with its |det|, and `ldl`, the in-order symmetric LDL^T under
definiteness and the integer lattice point sweep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Sequence, Tuple

Rational = Fraction
LatticeVector = Tuple[int, ...]
RationalVector = Tuple[Fraction, ...]
Matrix = Tuple[Tuple[Fraction, ...], ...]

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


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_vec(m: Matrix, x: Sequence) -> tuple:
    return tuple(dot(row, x) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


@dataclass(frozen=True)
class QuadraticForm:
    """A symmetric bilinear form, stored as an exact rational matrix."""

    entries: Matrix

    def __post_init__(self):
        entries = as_matrix(self.entries)
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "entries", entries)

    @property
    def rank(self) -> int:
        """Ambient rank g (the matrix size, not the linear-algebra rank)."""
        return len(self.entries)

    def __repr__(self):
        rows = "; ".join(
            " ".join(format_rational(v) for v in row) for row in self.entries
        )
        return "QuadraticForm[%s]" % rows


def evaluate(form: QuadraticForm, x: Sequence, y: Sequence) -> Fraction:
    """The inner product x^T B y determined by the form."""
    if len(x) != form.rank or len(y) != form.rank:
        raise ValueError("dimension mismatch")
    return dot(x, mat_vec(form.entries, y))


def norm(form: QuadraticForm, x: Sequence) -> Fraction:
    """Squared length of x in the metric of the form."""
    return evaluate(form, x, x)


def form_add(*forms: QuadraticForm) -> QuadraticForm:
    ranks = {f.rank for f in forms}
    if len(ranks) != 1:
        raise ValueError("dimension mismatch")
    n = ranks.pop()
    return QuadraticForm(
        tuple(
            tuple(sum(f.entries[i][j] for f in forms) for j in range(n))
            for i in range(n)
        )
    )


def form_scale(c, form: QuadraticForm) -> QuadraticForm:
    c = Fraction(c)
    return QuadraticForm(tuple(tuple(c * v for v in row) for row in form.entries))


def ldl(form: QuadraticForm):
    """In-order B = U^T D U with U unit upper triangular, for semidefinite B.

    Returns (d, u), or None when B is indefinite: a negative pivot, or a zero
    pivot whose residual row is nonzero.  A zero pivot with a zero residual
    row only lowers the rank.  The pivots stay in index order, as the
    integer Fincke-Pohst sweep of `delaunay._sweep` needs: it reads d and the
    rows of U once per form, scaled to integers by `delaunay._integer_ldl`.
    """
    n = form.rank
    a = [list(row) for row in form.entries]
    d = []
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        pivot = a[i][i]
        if pivot < 0 or (pivot == 0 and any(a[i][i + 1:])):
            return None
        d.append(pivot)
        if pivot == 0:
            continue
        u[i][i + 1:] = [x / pivot for x in a[i][i + 1:]]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= u[i][r] * a[i][c]
    return d, u


def definiteness(form: QuadraticForm) -> str:
    """Exact classification by the in-order LDL^T of `ldl`."""
    factor = ldl(form)
    if factor is None:
        return INDEFINITE
    return POSITIVE_DEFINITE if all(factor[0]) else POSITIVE_SEMIDEFINITE


def congruence_act(a: Matrix, form: QuadraticForm) -> QuadraticForm:
    """The congruence action B |-> A^T B A for invertible rational A, formed
    over the integers as A'^T B' A' / (s^2 t) from A = A'/s and B = B'/t."""
    n = form.rank
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError("congruence needs a square matrix of the form's rank")
    ai, s = integral([Fraction(v) for row in a for v in row])
    bi, t = integral([v for row in form.entries for v in row])
    ai, bi = ([flat[i * n:(i + 1) * n] for i in range(n)] for flat in (ai, bi))
    if len(_echelon(ai)[1]) < n:
        raise SingularMatrixError("congruence by a singular matrix")
    c = mat_mul(transpose(ai), mat_mul(bi, ai))
    return QuadraticForm(tuple(tuple(Fraction(v, s * s * t) for v in row) for row in c))


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


def solve_linear(m: Matrix, b: Sequence) -> RationalVector:
    """Solve M x = b exactly; raises SingularMatrixError when M is singular."""
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("dimension mismatch")
    try:
        return solve_overdetermined(m, b)
    except ValueError:
        # a square system is inconsistent only when M is singular
        raise SingularMatrixError("singular")


def solve_overdetermined(rows: Sequence[Sequence], rhs: Sequence):
    """Solve a stacked linear system exactly.

    Returns the unique solution, raises SingularMatrixError when the rows do
    not determine one, and ValueError("inconsistent") when no solution exists.
    """
    if not rows:
        raise SingularMatrixError("singular")
    n = len(rows[0])
    a, pivots, p = _echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n:
        raise ValueError("inconsistent")
    if len(pivots) < n:
        raise SingularMatrixError("singular")
    return tuple(Fraction(a[i][n], p) for i in range(n))


def _kernel(rows):
    """The right kernel of a nonempty row list in integers: (basis, p), the
    basis of `nullspace` times the common pivot p of `_echelon`."""
    n = len(rows[0])
    a, pivots, p = _echelon(rows)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = p
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis, p


def nullspace(rows: Sequence[Sequence]) -> list:
    """The reduced basis of the right nullspace of the given row list, exactly.

    One vector per free column f, with 1 at f, 0 at the other free columns
    and minus the reduced row entries at the pivot columns.
    """
    if not rows:
        return []
    basis, p = _kernel(rows)
    return [tuple(Fraction(c, p) for c in v) for v in basis]


def matrix_rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[1])
