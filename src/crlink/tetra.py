"""CR ideal tetrahedra and their parameter system.

A tetrahedron is four boundary points (p1, p2, q1, q2) with a choice of
chain segment for each edge.  After carrying (p1, p2, q1) to the normal
frame (infinity, 0, (1, t)) the fourth vertex reads (z, s |z|^2), and the
twelve euclidean vertex-triangle invariants are rational expressions in z,
t, s: one family per vertex (z at p1, primed at p2, tilde at q1,
tilde-primed at q2), each family closed under x -> 1/(1-x) -> 1 - 1/x.

Faces are filled by the diverging-rays procedure: chain segments swept from
an apex vertex across an opposite edge.  Sampling and the non-certifying
disjointness check are float work in `crlink.sampler`; this module imports
it, and with it numpy, on the first sampling call only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .scalars import CycloNumber, ONE, I as I_UNIT
from .heisenberg import (
    ChainInvariantError,
    GeometryError,
    HPoint,
    INFINITY,
    cartan,
)
from .isometry import ProjIsometry, normalizer


class DegenerateTetrahedronError(GeometryError):
    """Vertex configuration violates a tetrahedron precondition."""


VERTEX_ROLES = ("p1", "p2", "q1", "q2")

# invariant family attached to each vertex
FAMILY_OF_VERTEX = {
    "p1": "plain",
    "p2": "prime",
    "q1": "tilde",
    "q2": "tilde_prime",
}

# index of the invariant at (vertex, edge towards other vertex); the cyclic
# orders at p2/q2 are mirrored against p1/q1 (opposite orientation of the
# vertex triangles)
CORNER_INDEX = {
    ("p1", "p2"): 1, ("p1", "q1"): 2, ("p1", "q2"): 3,
    ("p2", "p1"): 1, ("p2", "q2"): 2, ("p2", "q1"): 3,
    ("q1", "q2"): 1, ("q1", "p1"): 2, ("q1", "p2"): 3,
    ("q2", "q1"): 1, ("q2", "p2"): 2, ("q2", "p1"): 3,
}

_FAMILY_MARK = {
    "plain": ("", ""),
    "prime": ("", "'"),
    "tilde": ("~", ""),
    "tilde_prime": ("~", "'"),
}


def invariant_label(letter: str, family: str, index: int) -> str:
    tilde, prime = _FAMILY_MARK[family]
    return f"{letter}{tilde}{index}{prime}"


class TetraParams:
    """The invariant system z, z', z-tilde, z-tilde' with heights t, s.

    Families derive their second and third members via x2 = 1/(1-x1) and
    x3 = 1 - 1/x1.  Values are exact field elements.
    """

    __slots__ = ("z1", "z1p", "z1t", "z1tp", "t", "s")

    def __init__(self, z1, z1p, z1t, z1tp, t, s):
        for name, val in (("t", t), ("s", s)):
            if not val.is_real():
                raise DegenerateTetrahedronError(f"height {name} must be real")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z1p", z1p)
        object.__setattr__(self, "z1t", z1t)
        object.__setattr__(self, "z1tp", z1tp)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)

    def __setattr__(self, *a):
        raise AttributeError("TetraParams is immutable")

    @classmethod
    def from_zts(cls, z, t, s) -> "TetraParams":
        """Parameters of the tetrahedron (inf, 0, (1,t), (z, s|z|^2))."""
        if z.is_zero() or z == ONE:
            raise DegenerateTetrahedronError("fourth vertex parameter in {0, 1}")
        i = I_UNIT
        zb = z.conj()
        z1p = (i + t) / (zb * (i + s))
        z1t = z * (t + i - zb * (i + s)) / ((z - ONE) * (t - i))
        z1tp = (ONE / zb) * (-(i + t) + zb * (i + s)) / ((z - ONE) * (i - s))
        return cls(z, z1p, z1t, z1tp, t, s)

    _FIRST = {"plain": "z1", "prime": "z1p", "tilde": "z1t", "tilde_prime": "z1tp"}

    def first(self, family: str) -> CycloNumber:
        return getattr(self, self._FIRST[family])

    def get(self, family: str, index: int) -> CycloNumber:
        """Family member by index: x1, x2 = 1/(1-x1), x3 = 1 - 1/x1."""
        x1 = self.first(family)
        if index == 1:
            return x1
        if x1.is_zero() or x1 == ONE:
            raise DegenerateTetrahedronError(
                f"family {family} is degenerate at {x1}"
            )
        if index == 2:
            return ONE / (ONE - x1)
        if index == 3:
            return ONE - ONE / x1
        raise ValueError(f"invariant index must be 1..3, got {index}")

    def corner_value(self, vertex: str, towards: str) -> CycloNumber:
        return self.get(FAMILY_OF_VERTEX[vertex], CORNER_INDEX[(vertex, towards)])

    def is_symmetric(self) -> bool:
        return self.t == self.s

    def summary(self) -> Dict[str, str]:
        return {
            "z1": str(self.z1),
            "z1'": str(self.z1p),
            "z~1": str(self.z1t),
            "z~1'": str(self.z1tp),
            "t": str(self.t),
            "s": str(self.s),
        }

    def __repr__(self):
        return (
            f"TetraParams(z1={self.z1}, z1'={self.z1p}, z~1={self.z1t}, "
            f"z~1'={self.z1tp}, t={self.t}, s={self.s})"
        )


def ts_from_params(z, zp, zt, ztp) -> Tuple[CycloNumber, CycloNumber]:
    """Recover the heights t, s from the four first-members of the families."""
    i = I_UNIT
    t_num = z * zp - z - zt * zp + zt * zp * z
    t_den = -(z * zp) + z - zt * zp + zt * zp * z
    s_num = zp - ONE - ztp + ztp * z
    s_den = -zp + ONE - ztp + ztp * z
    if t_den.is_zero() or s_den.is_zero():
        raise DegenerateTetrahedronError(
            "degenerate configuration: height denominator vanishes"
        )
    return i * t_num / t_den, i * s_num / s_den


class Tetrahedron:
    """Four pairwise-distinct boundary points, no three on a common chain.

    `edge_flags` optionally overrides the default chain-segment choice per
    edge (frozenset of the two vertex roles -> +1 / -1 selecting the arc).
    """

    __slots__ = ("points", "edge_flags")

    def __init__(self, p1: HPoint, p2: HPoint, q1: HPoint, q2: HPoint,
                 edge_flags: Optional[Dict[frozenset, int]] = None):
        pts = {"p1": p1, "p2": p2, "q1": q1, "q2": q2}
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edge_flags", dict(edge_flags or {}))
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("Tetrahedron is immutable")

    def _validate(self):
        roles = list(VERTEX_ROLES)
        for a in range(4):
            for b in range(a + 1, 4):
                if self.points[roles[a]] == self.points[roles[b]]:
                    raise DegenerateTetrahedronError(
                        f"vertices {roles[a]} and {roles[b]} coincide"
                    )
        for skip in roles:
            triple = [self.points[r] for r in roles if r != skip]
            if cartan(*triple).is_right_angle():
                raise DegenerateTetrahedronError(
                    f"vertices {[r for r in roles if r != skip]} lie on a chain"
                )

    def __getitem__(self, role: str) -> HPoint:
        return self.points[role]

    def __repr__(self):
        inner = ", ".join(f"{r}={self.points[r]}" for r in VERTEX_ROLES)
        return f"Tetrahedron({inner})"


def realize_zts(z, t, s) -> Tetrahedron:
    """The normalized tetrahedron (inf, 0, (1, t), (z, s|z|^2))."""
    return Tetrahedron(
        INFINITY,
        HPoint(0, 0),
        HPoint(ONE, t),
        HPoint(z, s * z * z.conj()),
    )


def realize_special(direction, height) -> Tetrahedron:
    """The special symmetric tetrahedron ((0, h), (0, -h), (1, 0), (u, 0)).

    `direction` is the unit complex u = e^{i theta} (kept as a field element,
    never as a radian measure); `height` is a positive real.
    """
    u, h = direction, height
    if u * u.conj() != ONE:
        raise DegenerateTetrahedronError("direction must have unit modulus")
    if not h.is_real() or h.sign() <= 0:
        raise DegenerateTetrahedronError("height must be a positive real")
    return Tetrahedron(HPoint(0, h), HPoint(0, -h), HPoint(ONE, 0), HPoint(u, 0))


def normalizing_map(tet: Tetrahedron) -> ProjIsometry:
    """The isometry carrying (p1, p2, q1) to (infinity, 0, (1, t))."""
    return normalizer(tet["p1"], tet["p2"], tet["q1"])


def params_from_points(tet: Tetrahedron) -> TetraParams:
    """Extract the parameter system from an arbitrary tetrahedron."""
    n = normalizing_map(tet)
    t = n.act(tet["q1"]).t
    q2n = n.act(tet["q2"])
    if q2n.is_infinity:
        raise DegenerateTetrahedronError("normalization sent q2 to infinity")
    z = q2n.z
    if z.is_zero() or z == ONE:
        raise DegenerateTetrahedronError(
            f"degenerate fourth-vertex parameter z = {z}"
        )
    s = q2n.t / (z * z.conj())
    return TetraParams.from_zts(z, t, s)


def is_symmetric(tet: Tetrahedron) -> bool:
    """True iff an anti-holomorphic involution swaps p1<->p2 and q1<->q2."""
    return params_from_points(tet).is_symmetric()


def symmetry_map(tet: Tetrahedron) -> ProjIsometry:
    """The anti-holomorphic involution exchanging the two vertex pairs.

    In the normal frame the involution permuting 0 and infinity that swaps
    (1, t) with (z, t|z|^2) is pinned by the single complex parameter
    g = -z (1 + i t) / 2; the map is conjugated back to the original frame.
    """
    params = params_from_points(tet)
    if not params.is_symmetric():
        raise DegenerateTetrahedronError(
            f"tetrahedron is not symmetric: t = {params.t}, s = {params.s}"
        )
    from .isometry import Mat3, ProjIsometry as PI

    z, t = params.z1, params.t
    g = -(z * (ONE + I_UNIT * t)) / 2
    m = Mat3([[0, 0, g * g.conj()], [0, g, 0], [1, 0, 0]])
    phi = PI(m, holo=False, check=False)
    n = normalizing_map(tet)
    return n.inverse() @ phi @ n


def is_regular(tet: Tetrahedron) -> bool:
    """True iff all four triple invariants coincide: t (1 - Re z) = Im z."""
    params = params_from_points(tet)
    if not params.is_symmetric():
        raise DegenerateTetrahedronError("regularity applies to symmetric tetrahedra")
    z = params.z1
    if z.re() == ONE:
        raise DegenerateTetrahedronError("regular parametrization needs Re z != 1")
    return params.t * (ONE - z.re()) == z.im()


def special_symmetric(direction, height) -> TetraParams:
    """Parameters of the special symmetric tetrahedron, in closed form.

    z1 is the unit direction itself and the tilde-family first member is
    ((h + i)/(h - i))^2; the symmetric relations fill in the primed members
    and the common height.
    """
    u, h = direction, height
    if u * u.conj() != ONE:
        raise DegenerateTetrahedronError("direction must have unit modulus")
    if not h.is_real() or h.sign() <= 0:
        raise DegenerateTetrahedronError("height must be a positive real")
    i = I_UNIT
    z1 = u
    z1t = ((h + i) ** 2) / ((h - i) ** 2)
    z1p = z1 / (z1 * z1.conj())
    z1tp = z1t / (z1t * z1t.conj())
    t, s = ts_from_params(z1, z1p, z1t, z1tp)
    return TetraParams(z1, z1p, z1t, z1tp, t, s)


def cartan_tangents(z, t, s) -> Tuple[CycloNumber, ...]:
    """Exact tangents of the four triple invariants of (inf,0,(1,t),(z,s|z|^2)).

    Order: (p1,p2,q1), (p1,q1,q2), (p1,p2,q2), (p2,q1,q2).  Raises
    ChainInvariantError when a triple lies on a chain (tangent undefined).
    """
    if z.is_zero() or z == ONE:
        raise DegenerateTetrahedronError("tangent formulas need z outside {0, 1}")
    i = I_UNIT
    zb = z.conj()
    zz = z * zb
    first = t
    second_den = (z - ONE) * (zb - ONE)
    second = (zz * s - t + 2 * z.im()) / second_den
    third = s
    w = (s - i) * z + i - t
    fourth_den = w * w.conj()
    if fourth_den.is_zero():
        raise ChainInvariantError("fourth invariant is +-pi/2")
    fourth = (
        2 * (s - t) * z.re()
        + 2 * (ONE + t * s) * z.im()
        + t * (ONE + s * s) * zz
        - s * (ONE + t * t)
    ) / fourth_den
    return first, second, third, fourth


# ---------------------------------------------------------------------------
# faces: diverging chain rays
# ---------------------------------------------------------------------------

# apex -> swept edges, per the Z2-invariant filling procedure
FACE_RECIPE = {
    ("p1", ("q1", "q2")),
    ("p1", ("q2", "p2")),
    ("p2", ("q1", "q2")),
    ("p2", ("q1", "p1")),
}

FACES = tuple(sorted(FACE_RECIPE))


def _sampler():
    from . import sampler  # imports numpy, on the first sampling call only

    return sampler


def segment_samples(a: HPoint, b: HPoint, count: int, span: float = 8.0,
                    orientation: int = 0):
    """Chain segment between two boundary points, sampled as an (n, 3)
    float array of (Re z, Im z, t)."""
    return _sampler().segment(a.approx(), b.approx(), count, span, orientation)


@dataclass(frozen=True)
class FaceSample:
    """One diverging-rays face as polylines of Heisenberg coordinates."""

    apex: str
    edge: Tuple[str, str]
    polylines: list  # (n, 3) float arrays of (Re z, Im z, t)
    max_residual: float


def face_sample(tet: Tetrahedron, apex: str, edge: Tuple[str, str],
                count: int, ray_count: Optional[int] = None,
                span: float = 8.0) -> FaceSample:
    """Sample one face: `count` points along the swept edge, one chain ray
    from the apex to each, discretized into a polyline.

    Only the four apex/edge combinations of the filling procedure are legal.
    Residuals of the membership equation against each ray's polar vector are
    tracked (relative, float) for the orthogonality contract.
    """
    edge = tuple(edge)
    if (apex, edge) not in FACE_RECIPE:
        raise GeometryError(
            f"face ({apex}; {edge}) is not produced by the diverging-rays procedure"
        )
    polylines, worst = _sampler().face(
        tet[apex].approx(),
        tet[edge[0]].approx(),
        tet[edge[1]].approx(),
        count,
        ray_count if ray_count is not None else max(2, count),
        span,
        tet.edge_flags.get(frozenset(edge), 0),
        tet.edge_flags.get(frozenset((apex, "ray")), 0),
    )
    return FaceSample(apex, edge, polylines, worst)


def sample_all_faces(tet: Tetrahedron, count: int, span: float = 8.0):
    return [face_sample(tet, apex, edge, count, span=span) for apex, edge in FACES]


def _shared_edges(f1: FaceSample, f2: FaceSample):
    """Vertex-role edges shared by two faces of the filling procedure."""
    cells1 = {frozenset((f1.apex, v)) for v in f1.edge} | {frozenset(f1.edge)}
    cells2 = {frozenset((f2.apex, v)) for v in f2.edge} | {frozenset(f2.edge)}
    return cells1 & cells2


@dataclass(frozen=True)
class DisjointnessReport:
    """Numeric desk-scale witness for face disjointness (never a certificate)."""

    min_distance: float
    tol: float
    exclusion: float
    pair_distances: Dict[str, float]
    passed: bool


def faces_disjoint(tet: Tetrahedron, count: int = 64, tol: float = 1e-3,
                   exclusion: Optional[float] = None,
                   span: float = 8.0) -> DisjointnessReport:
    """Minimum distance between samples of distinct faces, away from shared cells.

    Every face pair of the filling procedure shares exactly one edge; samples
    within `exclusion` of the shared cells (and of any shared vertex) are
    ignored, and the remaining clouds must stay `tol` apart.  Euclidean
    distance in (Re z, Im z, t) coordinates; report only.
    """
    if count < 16:
        raise ValueError("need at least 16 samples per direction")
    exclusion = 40 * tol if exclusion is None else exclusion
    sampler = _sampler()
    faces = sample_all_faces(tet, count, span=span)
    clouds = [sampler.cloud(f.polylines) for f in faces]

    def dense_cell(cell):
        u, v = tuple(cell)
        return segment_samples(tet[u], tet[v], 4 * count, span,
                               tet.edge_flags.get(frozenset((u, v)), 0))

    result = {}
    for i in range(len(faces)):
        for j in range(i + 1, len(faces)):
            obstacles = [dense_cell(cell) for cell in _shared_edges(faces[i], faces[j])]
            key = f"({faces[i].apex};{'-'.join(faces[i].edge)})x({faces[j].apex};{'-'.join(faces[j].edge)})"
            result[key] = sampler.min_distance(clouds[i], clouds[j], obstacles, exclusion)
    overall = min(result.values())
    return DisjointnessReport(
        min_distance=overall,
        tol=tol,
        exclusion=exclusion,
        pair_distances=result,
        passed=overall > tol,
    )
