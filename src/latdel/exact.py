"""Exact rational scalars, vectors and symmetric bilinear forms.

All arithmetic is done with `fractions.Fraction`; nothing in this package
ever rounds.  Vectors are plain tuples (ints for lattice vectors, Fractions
for rational vectors) and matrices are tuples of row tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def parse_rational(text) -> Fraction:
    """Parse the "p/q" (or plain "p") text encoding; an int is taken as is."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise TypeError('expected a "p/q" string or an integer, got %r' % (text,))
    try:
        return Fraction(text.strip())
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
    return tuple(a - b for a, b in zip(x, y))


def dot(x: Sequence, y: Sequence):
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(x, y))


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


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


def definiteness(form: QuadraticForm) -> str:
    """Exact classification by LDL^T with pivoting on the diagonal.

    A zero pivot whose residual row is nonzero means the form is indefinite;
    otherwise zero pivots only reduce the rank.
    """
    n = form.rank
    a = [list(row) for row in form.entries]
    active = list(range(n))
    negative = False
    rank = 0
    while active:
        pivot = None
        for i in active:
            if a[i][i] != 0:
                pivot = i
                break
        if pivot is None:
            # all remaining diagonal entries vanish; any off-diagonal residue
            # gives a hyperbolic (indefinite) 2x2 block
            for i in active:
                for j in active:
                    if a[i][j] != 0:
                        return INDEFINITE
            break
        d = a[pivot][pivot]
        if d < 0:
            negative = True
            break
        rank += 1
        active.remove(pivot)
        factors = {i: a[i][pivot] / d for i in active}
        for i in active:
            for j in active:
                a[i][j] -= factors[i] * a[pivot][j]
        for i in active:
            a[i][pivot] = Fraction(0)
            a[pivot][i] = Fraction(0)
    if negative:
        return INDEFINITE
    return POSITIVE_DEFINITE if rank == n else POSITIVE_SEMIDEFINITE


def is_positive_definite(form: QuadraticForm) -> bool:
    return definiteness(form) == POSITIVE_DEFINITE


def congruence_act(a: Matrix, form: QuadraticForm) -> QuadraticForm:
    """The congruence action B |-> A^T B A for invertible rational A."""
    a = as_matrix(a)
    if determinant(a) == 0:
        raise SingularMatrixError("congruence by a singular matrix")
    return QuadraticForm(mat_mul(transpose(a), mat_mul(form.entries, a)))


def determinant(m: Matrix) -> Fraction:
    n = len(m)
    a = [list(Fraction(v) for v in row) for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def solve_linear(m: Matrix, b: Sequence) -> RationalVector:
    """Solve M x = b exactly; raises SingularMatrixError when M is singular."""
    n = len(m)
    if any(len(row) != n for row in m) or len(b) != n:
        raise ValueError("dimension mismatch")
    a = [[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(m, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * p for v, p in zip(a[r], a[col])]
    return tuple(row[n] for row in a)


def solve_overdetermined(rows: Sequence[Sequence], rhs: Sequence):
    """Solve a stacked linear system exactly.

    Returns the unique solution, raises SingularMatrixError when the rows do
    not determine one, and ValueError("inconsistent") when no solution exists.
    """
    if not rows:
        raise SingularMatrixError("singular")
    n = len(rows[0])
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * p for v, p in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(a)):
        if a[i][n] != 0:
            raise ValueError("inconsistent")
    if r < n:
        raise SingularMatrixError("singular")
    return tuple(a[i][n] for i in range(n))


def nullspace(rows: Sequence[Sequence]) -> list:
    """Basis of the right nullspace of the given row list, exactly."""
    if not rows:
        return []
    n = len(rows[0])
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * p for v, p in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(tuple(v))
    return basis


def matrix_rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return len(rows[0]) - len(nullspace(rows))
