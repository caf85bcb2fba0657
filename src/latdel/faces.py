"""The 64 codimension-one faces of the perfect cone K and their orbits.

After the change of variables (x1, x2, x3, x4) -> (x1+x2, x1-x2, x1-x3,
x1-x4) the twelve generators of K become the twelve forms (x_i +- x_j)^2.
The faces are the facets of the cone over all twelve, flattened, found by
`geometry.cone_facets` with primitive integer functionals; each has nine
generators, so it is bookkept by which three of them are absent.  Each
absent generator (p, q, sign) is an edge of a colored graph on {1,2,3,4}:
black for a missing (x_p + x_q)^2, red for a missing (x_p - x_q)^2.  The
faces fall into two orbits, black forks and red triangles, under a group G
of order 1152 generated by sign flips, coordinate swaps and the extra
involution x_i -> -x_i + (1/2) sum x_k.

The orbits are computed from the 11 generators alone: the orbits of a group
on a finite set equal the orbits of any generating set.  The order
|G| = 1152 is checked by an exact closure of the permutations G induces on
the 24 roots +-(e_p +- e_q) of D4, M acting by v -> M^T v.  The roots span
Q^4, so the action is faithful and the permutations count |G|.  The twelve
rays are the roots modulo sign.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, Optional, Tuple

from .catalog import NamedCone, _flatten, _vector_square, catalog
from .exact import QuadraticForm, congruence_act, integral
from .geometry import cone_facets, primitive

BLACK = "black"
RED = "red"

FORK = "fork"
TRIANGLE = "triangle"

TYPE_II = "II"
TYPE_III = "III"

# substitution x -> (x1+x2, x1-x2, x1-x3, x1-x4), acting by B -> M^T B M
VORONOI_MATRIX = (
    (1, 1, 0, 0),
    (1, -1, 0, 0),
    (1, 0, -1, 0),
    (1, 0, 0, -1),
)

SignedPair = Tuple[int, int, int]  # (p, q, sign) with p < q, sign in {+1, -1}

SIGNED_PAIRS: Tuple[SignedPair, ...] = tuple(
    (p, q, s) for p, q in combinations(range(1, 5), 2) for s in (1, -1)
)


def _pair_vector(p: int, q: int, sign: int):
    """The vector e_p + sign * e_q, whose square is the ray (x_p + sign * x_q)^2."""
    v = [0] * 4
    v[p - 1], v[q - 1] = 1, sign
    return tuple(v)


# the 24 roots of D4: root 2*i + (e < 0) is e * (e_p + sign * e_q) for the
# i-th signed pair (p, q, sign)
ROOTS = tuple(tuple(e * c for c in _pair_vector(*k)) for k in SIGNED_PAIRS for e in (1, -1))
_ROOT_INDEX = {v: i for i, v in enumerate(ROOTS)}


def pm_form(p: int, q: int, sign: int) -> QuadraticForm:
    """(x_p + sign * x_q)^2 as a rank-4 matrix."""
    return _vector_square(4, _pair_vector(p, q, sign))


PM_FORMS: Dict[SignedPair, QuadraticForm] = {k: pm_form(*k) for k in SIGNED_PAIRS}


def _primitive_form(form: QuadraticForm) -> QuadraticForm:
    ints = primitive(integral([v for row in form.entries for v in row])[0])
    g = form.rank
    return QuadraticForm(tuple(ints[i * g:(i + 1) * g] for i in range(g)))


_PM_LOOKUP = {_primitive_form(f).entries: k for k, f in PM_FORMS.items()}


def identify_pm(form: QuadraticForm) -> Optional[SignedPair]:
    """The signed pair whose form is a positive multiple of the input."""
    try:
        prim = _primitive_form(form)
    except ValueError:
        return None
    return _PM_LOOKUP.get(prim.entries)


def voronoi_transform(form: QuadraticForm) -> QuadraticForm:
    if form.rank != 4:
        raise ValueError("the Voronoi transformation acts on rank-4 forms")
    return congruence_act(VORONOI_MATRIX, form)


@dataclass(frozen=True)
class ColoredGraph:
    """Three colored edges on the vertices {1,2,3,4}."""

    edges: Tuple[Tuple[int, int, str], ...]  # (p, q, color), sorted

    @property
    def shape(self) -> str:
        degrees = Counter(v for p, q, _ in self.edges for v in (p, q))
        if len(degrees) == 3:
            return TRIANGLE
        if max(degrees.values()) == 3:
            return FORK
        return "path"

    @property
    def colors(self) -> Tuple[str, ...]:
        return tuple(c for _, _, c in self.edges)


def graph_of(dropped) -> ColoredGraph:
    edges = tuple(
        sorted((p, q, BLACK if s > 0 else RED) for p, q, s in dropped)
    )
    return ColoredGraph(edges)


@dataclass(frozen=True)
class KFace:
    """A codim-1 face of K, encoded by its three absent generators."""

    dropped: Tuple[SignedPair, ...]
    kept: Tuple[SignedPair, ...]
    graph: ColoredGraph
    functional: Tuple[int, ...]  # primitive integer functional on flattened forms


@lru_cache(maxsize=None)
def _k_facets():
    """{three dropped signed pairs: functional} for the facets of K, read from
    `cone_facets` over its twelve flattened generators as integer rays."""
    rays = [integral(_flatten(PM_FORMS[k]))[0] for k in SIGNED_PAIRS]
    return {
        tuple(sorted(k for i, k in enumerate(SIGNED_PAIRS) if i not in members)): normal
        for members, normal in cone_facets(rays)
    }


def facial_certificate(dropped):
    """A supporting functional vanishing on the kept generators.

    Returns the functional (flattened, off-diagonals counted once) that is
    zero on the nine kept generators and strictly positive on the three
    dropped ones, or None when the drop set is not a face.
    """
    dropped = tuple(sorted(dropped))
    if len(dropped) != 3 or len({(p, q) for p, q, _ in dropped}) != 3:
        raise ValueError("need three signed pairs over distinct index pairs")
    return _k_facets().get(dropped)


def enumerate_faces():
    """All 64 certified codimension-one faces of K, canonically ordered."""
    return [
        KFace(d, tuple(k for k in SIGNED_PAIRS if k not in d), graph_of(d), functional)
        for d, functional in sorted(_k_facets().items())
    ]


def group_generators():
    """The 11 generators of G as `Fraction` matrices: four sign flips, six
    coordinate swaps and the involution sigma = J/2 - I."""
    flips = [[[(-1 if r == i else 1) if r == c else 0 for c in range(4)] for r in range(4)]
             for i in range(4)]
    swaps = [[[int({r, c} == {i, j} or r == c not in (i, j)) for c in range(4)] for r in range(4)]
             for i, j in combinations(range(4), 2)]
    sigma = [[Fraction(1, 2) - (r == c) for c in range(4)] for r in range(4)]
    return [tuple(tuple(Fraction(v) for v in row) for row in m) for m in flips + swaps + [sigma]]


def root_permutation(element) -> Tuple[int, ...]:
    """The indices in `ROOTS` of the images M^T r of the roots r.

    M^T r for r = e * (e_p + sign * e_q) is e * (row p + sign * row q) of M.
    Raises RuntimeError unless M permutes the roots exactly.
    """
    perm = tuple(
        _ROOT_INDEX.get(tuple(e * (a + sign * b) for a, b in zip(element[p - 1], element[q - 1])))
        for p, q, sign in SIGNED_PAIRS for e in (1, -1)
    )
    if None in perm or len(set(perm)) != len(ROOTS):
        raise RuntimeError("group element does not permute the roots")
    return perm


# the size past which the closure of `group_G` gives up
GROUP_BOUND = 10000


def group_G():
    """G as the closure of the generators' root permutations, one per element
    as the action is faithful; order 1152.  (M N)^T = N^T M^T, so the product
    M N permutes the roots by the permutation of M, then that of N."""
    gens = [root_permutation(g) for g in group_generators()]
    identity = tuple(range(len(ROOTS)))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = tuple(map(g.__getitem__, m))
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
                    if len(elements) > GROUP_BOUND:
                        raise RuntimeError("group closure exceeded the bound")
        frontier = nxt
    return elements


def pair_permutation(element) -> Dict[SignedPair, SignedPair]:
    """How a group element permutes the twelve rays: its root permutation
    modulo sign, since M^T (v v^T) M = (M^T v)(M^T v)^T."""
    perm = root_permutation(element)
    return {key: SIGNED_PAIRS[perm[2 * i] // 2] for i, key in enumerate(SIGNED_PAIRS)}


def apply_to_face(perm, dropped):
    return tuple(sorted(perm[k] for k in dropped))


def orbit_classify(faces, generators):
    """Split the faces into the two G-orbits BF (48) and RT (16).

    Any generating set of G gives the same orbits as the whole group, so
    the 11 generators are enough.
    """
    perms = [pair_permutation(g) for g in generators]
    remaining = {f.dropped: f for f in faces}
    orbits = []
    while remaining:
        orbit, stack = set(), [next(iter(remaining))]
        while stack:
            d = stack.pop()
            if d not in orbit:
                orbit.add(d)
                stack.extend(apply_to_face(perm, d) for perm in perms)
        orbits.append(orbit)
        for d in orbit:
            remaining.pop(d)
    if len(orbits) != 2:
        raise RuntimeError("expected exactly two orbits, found %d" % len(orbits))
    orbits.sort(key=len)
    rt, bf = orbits
    return {"BF": bf, "RT": rt}


@lru_cache(maxsize=None)
def _classification():
    faces = enumerate_faces()
    return faces, orbit_classify(faces, group_generators())


def classify_face(dropped) -> str:
    _, orbits = _classification()
    dropped = tuple(sorted(dropped))
    if dropped in orbits["BF"]:
        return "BF"
    if dropped in orbits["RT"]:
        return "RT"
    raise ValueError("%r is not one of the 64 faces" % (dropped,))


def classify_type(dropped) -> str:
    """Voronoi's type of the cone spanned by the face together with omega."""
    return TYPE_II if classify_face(dropped) == "BF" else TYPE_III


def face_of_cone(cone: NamedCone):
    """The K-face obtained from a 9-dimensional catalog cone.

    The cone's generators are carried through the Voronoi transformation;
    they must land on nine distinct (x_i +- x_j)^2 rays, and the face is
    encoded by the three missing ones.
    """
    kept = set()
    for form in cone.generators:
        key = identify_pm(voronoi_transform(form))
        if key is None:
            raise ValueError(
                "a generator of %s is not carried onto a K ray" % cone.name
            )
        kept.add(key)
    if len(kept) != 9:
        raise ValueError("%s does not span a codim-1 face of K" % cone.name)
    dropped = tuple(sorted(k for k in SIGNED_PAIRS if k not in kept))
    if facial_certificate(dropped) is None:
        raise ValueError("%s is not a face of K" % cone.name)
    return dropped


def classify_named_cone(name: str) -> str:
    """Type II/III of the rank-4 Voronoi cones V2, V3, V4 via their faces."""
    face_part = {
        "dim4.V2": "dim4.V1capV2",
        "dim4.V3": "dim4.W0",
        "dim4.V4": "dim4.W0",
    }
    if name not in face_part:
        raise KeyError("no type classification for %r" % name)
    return classify_type(face_of_cone(catalog(face_part[name])))
