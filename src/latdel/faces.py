"""The 64 codimension-one faces of the perfect cone K and their orbits.

After the change of variables (x1, x2, x3, x4) -> (x1+x2, x1-x2, x1-x3,
x1-x4) the twelve generators of K become the twelve forms (x_i +- x_j)^2,
kept as integer vectors, as is a catalog generator carried to its ray (`k_ray`).
The faces are the facets of the cone over the twelve rays, found by
`geometry.cone_facets` with primitive integer functionals; each has nine
generators, so it is bookkept by which three of them are absent.  Each
absent generator (p, q, sign) is an edge of a colored graph on {1,2,3,4}:
black for a missing (x_p + x_q)^2, red for a missing (x_p - x_q)^2.  The
faces fall into two orbits, black forks and red triangles, under a group G
of order 1152 generated by sign flips, coordinate swaps and the extra
involution x_i -> -x_i + (1/2) sum x_k.

G acts on the 24 roots +-(e_p +- e_q) of D4, M by v -> M^T v, in integers;
the roots span Q^4, so the root permutations count |G|, and the twelve rays
are the roots modulo sign.  One routine, `_orbit`, gives G as the orbit of
the identity under the 11 generators' root permutations, and each face
orbit as that of a drop set under their ray permutations (a group's orbits
are those of any generating set), with no bound: G lies in Aut(D4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, Optional, Tuple

from .catalog import NamedCone, _flatten, catalog
from .exact import congruence_act, integral
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


# the twelve rays (x_p + sign * x_q)^2 of K as integer vectors, in the order of
# SIGNED_PAIRS: the entries i <= j of v v^T for the roots v = e_p + sign * e_q
K_RAYS = tuple(tuple(a * b for i, a in enumerate(v) for b in v[i:]) for v in ROOTS[::2])
_RAY_PAIR = dict(zip(K_RAYS, SIGNED_PAIRS))


def k_ray(form) -> Optional[SignedPair]:
    """The signed pair whose ray is a positive multiple of V^T B V, or None, for the form B
    and V = VORONOI_MATRIX: `exact.congruence_act`, read as the vector of its entries i <= j."""
    if form.rank != 4:
        raise ValueError("the Voronoi transformation acts on rank-4 forms")
    (image,) = _flatten(congruence_act(VORONOI_MATRIX, form))
    return _RAY_PAIR.get(primitive(image)) if any(image) else None


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
    return {
        tuple(sorted(k for i, k in enumerate(SIGNED_PAIRS) if i not in members)): normal
        for members, normal in cone_facets(K_RAYS)
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
    """The 11 generators of G as matrices: four sign flips and six coordinate swaps
    in ints, and the involution sigma = J/2 - I in `Fraction`s."""
    flips = [[[(r == c) - 2 * (r == c == i) for c in range(4)] for r in range(4)] for i in range(4)]
    swaps = [[[int({r, c} == {i, j} or r == c not in (i, j)) for c in range(4)] for r in range(4)]
             for i, j in combinations(range(4), 2)]
    sigma = [[Fraction(1 - 2 * (r == c), 2) for c in range(4)] for r in range(4)]
    return [tuple(map(tuple, m)) for m in flips + swaps + [sigma]]


def root_permutation(element) -> Tuple[int, ...]:
    """The indices in `ROOTS` of the images M^T r of the roots r.

    M^T r for r = e * (e_p + sign * e_q) is e * (row p + sign * row q) of M:
    for M = N/d, N in integers (`integral`), rows of N are compared with d r.
    Raises RuntimeError unless M permutes the roots exactly.
    """
    nums, d = integral([v for row in element for v in row])
    rows = [nums[i:i + 4] for i in range(0, len(nums), 4)]
    index = {tuple(d * c for c in r): i for i, r in enumerate(ROOTS)}
    perm = tuple(
        index.get(tuple(e * (a + sign * b) for a, b in zip(rows[p - 1], rows[q - 1])))
        for p, q, sign in SIGNED_PAIRS for e in (1, -1)
    )
    if None in perm or len(set(perm)) != len(ROOTS):
        raise RuntimeError("group element does not permute the roots")
    return perm


def _orbit(point, moves):
    """The points that the moves reach from `point`, found depth first.  The
    moves permute a finite set, so this is the orbit of the group they generate."""
    orbit, stack = {point}, [point]
    while stack:
        point = stack.pop()
        images = {move(point) for move in moves} - orbit
        orbit |= images
        stack.extend(images)
    return orbit


def group_G():
    """G as the `_orbit` of the identity under composition with the generators'
    root permutations, one per element as the action is faithful; order 1152.
    (M N)^T = N^T M^T, so M N permutes the roots by the permutation of M, then
    that of N.  `root_permutation` refuses a matrix that does not permute the
    roots, so every product preserves them: G lies in Aut(D4) = W(F4), of order
    1152 (Conway & Sloane, SPLAG, ch. 4), and the orbit ends with no bound."""
    gens = [root_permutation(g) for g in group_generators()]
    moves = [lambda m, g=g: tuple(map(g.__getitem__, m)) for g in gens]
    return _orbit(tuple(range(len(ROOTS))), moves)


def pair_permutation(element) -> Dict[SignedPair, SignedPair]:
    """How a group element permutes the twelve rays: its root permutation
    modulo sign, since M^T (v v^T) M = (M^T v)(M^T v)^T."""
    perm = root_permutation(element)
    return {key: SIGNED_PAIRS[perm[2 * i] // 2] for i, key in enumerate(SIGNED_PAIRS)}


def apply_to_face(perm, dropped):
    return tuple(sorted(perm[k] for k in dropped))


def orbit_classify(faces):
    """Split the faces into the two G-orbits BF (48) and RT (16), one `_orbit`
    each under the 11 generators: a group's orbits are those of any generating set."""
    perms = [pair_permutation(g) for g in group_generators()]
    moves = [lambda d, perm=perm: apply_to_face(perm, d) for perm in perms]
    orbits = []
    for d in sorted(f.dropped for f in faces):
        if not any(d in orbit for orbit in orbits):
            orbits.append(_orbit(d, moves))
    if len(orbits) != 2:
        raise RuntimeError("expected exactly two orbits, found %d" % len(orbits))
    rt, bf = sorted(orbits, key=len)
    return {"BF": bf, "RT": rt}


@lru_cache(maxsize=None)
def _classification():
    faces = enumerate_faces()
    return faces, orbit_classify(faces)


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

    The cone's generators are carried through the Voronoi transformation
    (`k_ray`); they must land on nine distinct (x_i +- x_j)^2 rays, and the
    face is encoded by the three missing ones.
    """
    kept = set()
    for form in cone.generators:
        key = k_ray(form)
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
