"""Catalog of named cones of quadratic forms in ranks 2, 3 and 4.

The generators are built from index formulas; omega is the only literal matrix,
and tests/golden/catalog.json pins them all.  Names follow the
"dimG.NAME" scheme, e.g. "dim2.V1", "dim4.V1capV2", "dim4.K", "dim4.F12",
"dim4.G1234".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Tuple

from .exact import (
    POSITIVE_SEMIDEFINITE,
    POSITIVE_DEFINITE,
    QuadraticForm,
    _rational,
    definiteness,
    form_add,
    form_scale,
    matrix_rank,
)
from .geometry import cone_contains


@dataclass(frozen=True)
class NamedCone:
    name: str
    ambient_rank: int
    generator_names: Tuple[str, ...]
    generators: Tuple[QuadraticForm, ...]

    @property
    def dimension(self) -> int:
        return matrix_rank(_flatten(*self.generators))


def _flatten(*forms: QuadraticForm):
    """The entries i <= j of each form times the forms' common scale, as integer vectors,
    which a linear combination of the forms carries with its coefficients."""
    scale = lcm(*[f.scale for f in forms])
    return [tuple(scale // f.scale * f.gram[i][j] for i in range(f.rank) for j in range(i, f.rank))
            for f in forms]


def _vector_square(n: int, coeffs) -> QuadraticForm:
    """(sum_i coeffs[i] x_{i+1})^2."""
    return QuadraticForm(tuple(tuple(coeffs[i] * coeffs[j] for j in range(n)) for i in range(n)))


def difference_form(n: int, i: int, j: int) -> QuadraticForm:
    """(x_i - x_j)^2 as an n x n matrix (1-based indices)."""
    return _vector_square(n, [(k == i) - (k == j) for k in range(1, n + 1)])


def square_form(n: int, i: int) -> QuadraticForm:
    """x_i^2 as an n x n matrix (1-based index)."""
    return _vector_square(n, [int(k == i) for k in range(1, n + 1)])


# --- rank 2 (printed 2x2 matrices; e_13 is x_1^2, e_23 is x_2^2) -------------

E13_2 = square_form(2, 1)
E23_2 = square_form(2, 2)
E12_2 = difference_form(2, 1, 2)
F12_2 = _vector_square(2, (1, 1))

# --- rank 4 generators -------------------------------------------------------

OMEGA = QuadraticForm(
    ((2, 1, -1, -1), (1, 2, -1, -1), (-1, -1, 2, 0), (-1, -1, 0, 2))
)
F_1234 = _vector_square(4, (1, 1, -1, -1))
G_123 = _vector_square(4, (1, 1, -1, 0))
G_124 = _vector_square(4, (1, 1, 0, -1))


def e_generator(n: int, i: int, j: int) -> QuadraticForm:
    """e_ij: the difference form for j <= n, the square x_i^2 for j = n + 1."""
    if j == n + 1:
        return square_form(n, i)
    return difference_form(n, i, j)


def split_form(a: int, b: int, c: int, d: int) -> QuadraticForm:
    """e_{ab,cde}: 2 sum x_i^2 + 2 x_a x_b - 2 sum_{i in ab, j in cd} x_i x_j."""
    m = [[2 * (i == j) for j in range(4)] for i in range(4)]
    m[a - 1][b - 1] = m[b - 1][a - 1] = 1
    for i in (a, b):
        for j in (c, d):
            m[i - 1][j - 1] = m[j - 1][i - 1] = -1
    return QuadraticForm(m)


def _pairs4():
    return list(combinations(range(1, 5), 2)) + [(i, 5) for i in range(1, 5)]


def _ename(i, j):
    return "e_%d%d" % (i, j)


def _build_catalog():
    cones = {}

    def add(name, rank, named_gens):
        names, gens = zip(*named_gens)
        cones[name] = NamedCone(name, rank, tuple(names), tuple(gens))

    # rank 1
    add("dim1.V1", 1, [("e_12", square_form(1, 1))])

    # rank 2
    add("dim2.V1", 2, [("e_13", E13_2), ("e_23", E23_2), ("e_12", E12_2)])
    add("dim2.V2", 2, [("e_13", E13_2), ("e_23", E23_2), ("f_12", F12_2)])
    add("dim2.V1capV2", 2, [("e_13", E13_2), ("e_23", E23_2)])

    # rank 3: all pairs (i, j) with 1 <= i < j <= 4, index 4 meaning x_i^2
    gens3 = []
    for i, j in combinations(range(1, 5), 2):
        gens3.append(("e_%d%d" % (i, j), e_generator(3, i, j)))
    add("dim3.V", 3, gens3)

    # rank 4
    all4 = [(_ename(i, j), e_generator(4, i, j)) for i, j in _pairs4()]
    not12 = [(n, g) for n, g in all4 if n != "e_12"]
    not12_34 = [(n, g) for n, g in not12 if n != "e_34"]
    add("dim4.V1", 4, all4)
    add("dim4.V1capV2", 4, not12)
    add("dim4.V2", 4, not12 + [("e_12345", OMEGA)])
    add("dim4.V2capV3", 4, not12_34 + [("e_12345", OMEGA)])
    add("dim4.V3", 4, not12_34 + [("e_12345", OMEGA), ("f_1234", F_1234)])
    add("dim4.V4", 4, not12_34 + [("e_34125", split_form(3, 4, 1, 2)), ("f_1234", F_1234)])
    add("dim4.W0", 4, not12_34 + [("f_1234", F_1234)])
    add("dim4.K", 4, not12 + [("g_123", G_123), ("g_124", G_124), ("f_1234", F_1234)])

    # chambers F_ab and G_abcd (Igusa's notation); {c,d} complements {a,b}
    for a, b in combinations(range(1, 5), 2):
        c, d = [k for k in range(1, 5) if k not in (a, b)]
        notab = [(n, g) for n, g in all4 if n != _ename(a, b)]
        add("dim4.F%d%d" % (a, b), 4,
            notab + [("e_%d%d%d%d5" % (a, b, c, d), split_form(a, b, c, d))])
    for a, b in ((1, 2), (1, 3), (1, 4)):
        c, d = [k for k in range(1, 5) if k not in (a, b)]
        notabcd = [(n, g) for n, g in all4 if n not in (_ename(a, b), _ename(c, d))]
        add("dim4.G%d%d%d%d" % (a, b, c, d), 4, notabcd + [
            ("e_%d%d%d%d5" % (a, b, c, d), split_form(a, b, c, d)),
            ("e_%d%d%d%d5" % (c, d, a, b), split_form(c, d, a, b))])
    return cones


_CATALOG = _build_catalog()


def catalog_names():
    return sorted(_CATALOG)


def catalog(name: str) -> NamedCone:
    if name not in _CATALOG:
        raise KeyError("unknown cone %r" % name)
    return _CATALOG[name]


def sample_interior(cone: NamedCone, weights=None) -> QuadraticForm:
    """A form in the relative interior: the strictly positive generator sum."""
    if weights is None:
        weights = [1] * len(cone.generators)  # no Fraction for unit weights
    weights = [_rational(w) for w in weights]
    if len(weights) != len(cone.generators):
        raise ValueError("need one weight per generator")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be strictly positive")
    return form_add(*[form_scale(w, g) for w, g in zip(weights, cone.generators)])


def contains(cone: NamedCone, form: QuadraticForm):
    """Exact nonnegative-combination membership; returns coefficients or None."""
    if form.rank != cone.ambient_rank:
        raise ValueError("ambient ranks disagree")
    *rays, x = _flatten(*cone.generators, form)
    return cone_contains(rays, x)


def verify_matrix_identities():
    """The printed identities among the rank-4 generator matrices.

    Returns a dict name -> bool:
      omega_third   : omega = (1/3)(sum_{(i,j) != (1,2)} e_ij + f + g_123 + g_124)
      split_sum     : e_12345 + e_34125 = f_1234 + sum_{(i,j) != (1,2),(3,4)} e_ij
      v3_cap_v4     : the W0 generator set equals the V3 and V4 common part
    """
    pairs = _pairs4()
    not12 = [e_generator(4, i, j) for i, j in pairs if (i, j) != (1, 2)]
    not12_34 = [e_generator(4, i, j) for i, j in pairs if (i, j) not in ((1, 2), (3, 4))]
    omega_rhs = form_scale(Fraction(1, 3), form_add(*(not12 + [F_1234, G_123, G_124])))
    split_lhs = form_add(OMEGA, split_form(3, 4, 1, 2))
    split_rhs = form_add(*(not12_34 + [F_1234]))
    w0 = catalog("dim4.W0")
    v3 = catalog("dim4.V3")
    v4 = catalog("dim4.V4")
    common = set(v3.generator_names) & set(v4.generator_names)
    return {
        "omega_third": omega_rhs == OMEGA,
        "split_sum": split_lhs == split_rhs,
        "v3_cap_v4": set(w0.generator_names) == common,
    }


def _chamber_cone(a, b, c, d) -> NamedCone:
    """The Voronoi-type cone whose union with its mirror fills G_abcd."""
    gens = [
        (_ename(i, j), e_generator(4, i, j))
        for i, j in _pairs4()
        if (i, j) not in (tuple(sorted((a, b))), tuple(sorted((c, d))))
    ]
    gens.append(("e_%d%d%d%d5" % (a, b, c, d), split_form(a, b, c, d)))
    signs = [0] * 4
    for i in (a, b):
        signs[i - 1] = 1
    for i in (c, d):
        signs[i - 1] = -1
    gens.append(("f_%d%d%d%d" % (a, b, c, d), _vector_square(4, signs)))
    names, forms = zip(*gens)
    return NamedCone("chamber.F%d%d%d%d" % (a, b, c, d), 4, names, forms)


def chamber_side(split, form: QuadraticForm) -> str:
    """Which half-chamber of G_abcd the form lies in.

    In the 10-generator simplicial basis of G_abcd, y_ab (resp. y_cd) is the
    coefficient of e_abcde (resp. e_cdabe).  The chamber halves themselves are
    the two Voronoi-type subcones, so the side is decided by exact membership in
    them, with no solve in that basis: "F_abcd", "F_cdab", "boundary" (in both,
    i.e. y_ab = y_cd) or "outside".  The split only names the catalog's G_abcd.
    """
    a, b, c, d = split
    if form.rank != 4:
        raise ValueError("ambient ranks disagree")
    pair1, pair2 = sorted([tuple(sorted((a, b))), tuple(sorted((c, d)))])
    catalog("dim4.G%d%d%d%d" % (pair1 + pair2))  # KeyError for a split that names no G_abcd
    in_abcd = contains(_chamber_cone(a, b, c, d), form) is not None
    in_cdab = contains(_chamber_cone(c, d, a, b), form) is not None
    if in_abcd and in_cdab:
        return "boundary"
    if in_abcd:
        return "F_%d%d%d%d" % (a, b, c, d)
    if in_cdab:
        return "F_%d%d%d%d" % (c, d, a, b)
    return "outside"


def check_generator_semidefiniteness():
    """Every catalog generator must be positive semidefinite."""
    bad = []
    for name in catalog_names():
        cone = catalog(name)
        for gname, g in zip(cone.generator_names, cone.generators):
            if definiteness(g) not in (POSITIVE_SEMIDEFINITE, POSITIVE_DEFINITE):
                bad.append((name, gname))
    return bad
