"""Boundary geometry in Heisenberg coordinates.

The boundary of complex hyperbolic 2-space, minus a point, is modelled by the
Heisenberg group: pairs (z, t) in C x R with the twisted product
(z,t)(z',t') = (z+z', t+t'+2 Im z conj(z')).  The missing point is a genuine
Infinity variant, never a large coordinate.  Points lift to null vectors for
the Hermitian form <z,w> = z1 conj(w3) + z2 conj(w2) + z3 conj(w1) of
signature (2,1); chains (C-circles) are cut out by positive polar vectors;
triples of points carry the angular invariant stored exactly as the triple
Hermitian product.

Coordinates are exact elements of Q(zeta24).  Machine numbers appear only in
`eta_approx`, the float evaluation of the triple product behind the CLI's
float cartan query and `cocycle`, whose points are float points: (z, t)
pairs of machine numbers, or None for infinity.  Mesh sampling lives in
`crlink.sampler`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from .scalars import ONE, ZERO, I, CycloNumber, parse_scalar

DEFAULT_FLOAT_TOL = 1e-9

FloatPoint = Optional[Tuple[complex, float]]

_HALF = Fraction(1, 2)


class GeometryError(ValueError):
    """Degenerate input to a geometric operation."""


class CoincidentPointsError(GeometryError):
    """Operation requires pairwise-distinct points."""


class InfinityOperandError(GeometryError):
    """Group operation applied to the point at infinity."""


class ChainInvariantError(GeometryError):
    """Cartan invariant is +-pi/2 (triple on a chain): tangent undefined."""


def _field(x) -> CycloNumber:
    """A field element from a field element, an int or a Fraction."""
    return x if isinstance(x, CycloNumber) else CycloNumber.from_rational(x)


class HPoint:
    """A boundary point: Infinity, or Finite(z, t) in Heisenberg coordinates."""

    __slots__ = ("z", "t")

    def __init__(self, z, t):
        if (z is None) != (t is None):
            raise GeometryError("both coordinates or neither")
        if z is not None:
            z, t = _field(z), _field(t)
            if not t.is_real():
                raise GeometryError(f"vertical coordinate must be real, got {t}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", t)

    def __setattr__(self, *a):
        raise AttributeError("HPoint is immutable")

    @classmethod
    def infinity(cls) -> "HPoint":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.z is None

    def approx(self) -> FloatPoint:
        """The float point (z, t) as machine numbers; None at infinity."""
        if self.is_infinity:
            return None
        return (self.z.to_complex(), self.t.to_complex().real)

    def __eq__(self, other):
        if not isinstance(other, HPoint):
            return NotImplemented
        return self.z == other.z and self.t == other.t

    def __hash__(self):
        return hash((self.z, self.t))

    def __str__(self):
        if self.is_infinity:
            return "inf"
        return f"({self.z}, {self.t})"

    def __repr__(self):
        return f"HPoint{self}"


INFINITY = HPoint.infinity()


def h_mul(p: HPoint, q: HPoint) -> HPoint:
    """Heisenberg group product of two finite points."""
    if p.is_infinity or q.is_infinity:
        raise InfinityOperandError("group law is defined on finite points")
    z = p.z + q.z
    t = p.t + q.t + 2 * (p.z * q.z.conj()).im()
    return HPoint(z, t)


def h_inv(p: HPoint) -> HPoint:
    if p.is_infinity:
        raise InfinityOperandError("group law is defined on finite points")
    return HPoint(-p.z, -p.t)


class NullVector:
    """Homogeneous coordinates in C^{2,1}; lifts of boundary points are null."""

    __slots__ = ("v1", "v2", "v3")

    def __init__(self, v1: CycloNumber, v2: CycloNumber, v3: CycloNumber):
        if v1.is_zero() and v2.is_zero() and v3.is_zero():
            raise GeometryError("zero vector is not projective")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)
        object.__setattr__(self, "v3", v3)

    def __setattr__(self, *a):
        raise AttributeError("NullVector is immutable")

    def components(self):
        return (self.v1, self.v2, self.v3)

    def scale(self, factor: CycloNumber) -> "NullVector":
        return NullVector(self.v1 * factor, self.v2 * factor, self.v3 * factor)

    def conj(self) -> "NullVector":
        return NullVector(self.v1.conj(), self.v2.conj(), self.v3.conj())

    def __repr__(self):
        return f"NullVector({self.v1}, {self.v2}, {self.v3})"


def lift(p: HPoint) -> NullVector:
    """Null lift: (z,t) -> ((-|z|^2+it)/2, z, 1); infinity -> (1,0,0)."""
    if p.is_infinity:
        return NullVector(ONE, ZERO, ZERO)
    v1 = (I * p.t - p.z * p.z.conj()) * _HALF
    return NullVector(v1, p.z, ONE)


def herm(u: NullVector, v: NullVector) -> CycloNumber:
    """The signature (2,1) Hermitian form <u,v> = u1 conj(v3) + u2 conj(v2) + u3 conj(v1)."""
    return u.v1 * v.v3.conj() + u.v2 * v.v2.conj() + u.v3 * v.v1.conj()


def signature(v: NullVector) -> int:
    """Sign of <v,v>: +1 (positive vector), 0 (null), -1 (negative)."""
    return herm(v, v).re().sign()


def point_from_null(v: NullVector) -> HPoint:
    """The boundary point a null vector represents."""
    if v.v3.is_zero():
        return INFINITY
    z = v.v2 / v.v3
    t = 2 * (v.v1 / v.v3).im()
    return HPoint(z, t)


class TripleProduct:
    """The angular invariant of a point triple, stored exactly.

    `eta` is -<p1,p2><p2,p3><p3,p1> on lifts; the invariant is arg(eta) in
    [-pi/2, pi/2].  Angles are transcendental, so all certification-grade
    comparisons go through eta: two invariants are equal iff
    eta1 * conj(eta2) is a positive real.
    """

    __slots__ = ("eta",)

    def __init__(self, eta: CycloNumber):
        if eta.is_zero():
            raise GeometryError("vanishing triple product")
        object.__setattr__(self, "eta", eta)

    def __setattr__(self, *a):
        raise AttributeError("TripleProduct is immutable")

    def tan(self) -> CycloNumber:
        """Exact tangent of the invariant; error when the invariant is +-pi/2."""
        re = self.eta.re()
        if re.is_zero():
            raise ChainInvariantError(
                "invariant is +-pi/2 (triple lies on a chain); tangent undefined"
            )
        return self.eta.im() / re

    def is_right_angle(self) -> bool:
        return self.eta.re().is_zero()

    def angle(self) -> float:
        """Float angle in [-pi/2, pi/2] (for display; never for certification)."""
        e = self.eta.to_complex()
        return math.atan2(e.imag, e.real)

    def same_as(self, other: "TripleProduct") -> bool:
        """Exact equality of invariants: eta1 conj(eta2) real positive."""
        q = self.eta * other.eta.conj()
        return q.im().is_zero() and q.re().sign() > 0

    def opposite_of(self, other: "TripleProduct") -> bool:
        """Exact opposition of invariants: eta1 * eta2 real positive."""
        q = self.eta * other.eta
        return q.im().is_zero() and q.re().sign() > 0

    def __repr__(self):
        return f"TripleProduct(eta={self.eta})"


def cartan(p1: HPoint, p2: HPoint, p3: HPoint) -> TripleProduct:
    """Angular invariant of three pairwise-distinct boundary points."""
    if p1 == p2 or p2 == p3 or p1 == p3:
        raise CoincidentPointsError("angular invariant needs distinct points")
    l1, l2, l3 = lift(p1), lift(p2), lift(p3)
    eta = -(herm(l1, l2) * herm(l2, l3) * herm(l3, l1))
    return TripleProduct(eta)


# ---------------------------------------------------------------------------
# the triple product in machine arithmetic
# ---------------------------------------------------------------------------


def _approx_equal(p: FloatPoint, q: FloatPoint, tol: float) -> bool:
    if p is None or q is None:
        return p is q
    return abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol


def _lift_approx(p: FloatPoint):
    if p is None:
        return (1 + 0j, 0j, 0j)
    z, t = complex(p[0]), p[1]
    return ((1j * t - (z * z.conjugate()).real) / 2, z, 1 + 0j)


def _herm_approx(u, v) -> complex:
    return u[0] * v[2].conjugate() + u[1] * v[1].conjugate() + u[2] * v[0].conjugate()


def eta_approx(p1: FloatPoint, p2: FloatPoint, p3: FloatPoint,
               tol: float = DEFAULT_FLOAT_TOL) -> complex:
    """The triple product -<p1,p2><p2,p3><p3,p1> of three float points.

    Points within `tol` of each other in both coordinates count as
    coincident, and a product within `tol` of zero is rejected.  For display
    and diagnostics; never for certification.
    """
    if (_approx_equal(p1, p2, tol) or _approx_equal(p2, p3, tol)
            or _approx_equal(p1, p3, tol)):
        raise CoincidentPointsError("angular invariant needs distinct points")
    l1, l2, l3 = _lift_approx(p1), _lift_approx(p2), _lift_approx(p3)
    eta = -(_herm_approx(l1, l2) * _herm_approx(l2, l3) * _herm_approx(l3, l1))
    if abs(eta) <= tol:
        raise GeometryError("vanishing triple product")
    return eta


def cocycle(p1, p2, p3, p4) -> float:
    """Alternating sum of the four triple angles, reduced mod 2pi to (-pi, pi].

    Points are HPoints or float points; the angles are evaluated in machine
    arithmetic.  Contract: zero (within float tolerance) for any four
    distinct points.
    """
    q1, q2, q3, q4 = (p.approx() if isinstance(p, HPoint) else p
                      for p in (p1, p2, p3, p4))

    def angle(a, b, c) -> float:
        e = eta_approx(a, b, c)
        return math.atan2(e.imag, e.real)

    total = -angle(q2, q3, q4) + angle(q1, q3, q4) - angle(q1, q2, q4) + angle(q1, q2, q3)
    twopi = 2 * math.pi
    r = math.fmod(total, twopi)
    if r > math.pi:
        r -= twopi
    elif r <= -math.pi:
        r += twopi
    return r


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


class Chain:
    """A C-circle: vertical line or finite chain, with its polar vector.

    The polar vector is the authoritative datum: a point q lies on the chain
    iff <lift(q), polar> = 0.  Centre/height/radius of finite chains are
    derived views.  Vertical chains consist of all (z0, t) together with
    infinity.
    """

    __slots__ = ("polar", "vertical", "center", "c", "r2")

    def __init__(self, polar: NullVector, vertical: bool, center, c, r2):
        object.__setattr__(self, "polar", polar)
        object.__setattr__(self, "vertical", vertical)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r2", r2)

    def __setattr__(self, *a):
        raise AttributeError("Chain is immutable")

    @classmethod
    def vertical_line(cls, z0: CycloNumber) -> "Chain":
        polar = NullVector(-z0.conj(), ONE, ZERO)
        return cls(polar, True, z0, None, None)

    @classmethod
    def finite(cls, center: CycloNumber, c: CycloNumber, r2: CycloNumber) -> "Chain":
        if r2.sign() <= 0:
            raise GeometryError("finite chain needs positive squared radius")
        first = (r2 - center * center.conj() + I * c) * _HALF
        polar = NullVector(first, center, ONE)
        return cls(polar, False, center, c, r2)

    def contains(self, p: HPoint) -> bool:
        if p.is_infinity:
            return self.vertical
        return herm(lift(p), self.polar).is_zero()

    def __repr__(self):
        if self.vertical:
            return f"Chain(vertical through {self.center})"
        return f"Chain(center={self.center}, c={self.c}, R^2={self.r2})"


def chain_through(p: HPoint, q: HPoint) -> Chain:
    """The unique C-circle through two distinct boundary points."""
    if p == q:
        raise CoincidentPointsError("chain through a repeated point")
    if p.is_infinity:
        return Chain.vertical_line(q.z)
    if q.is_infinity:
        return Chain.vertical_line(p.z)
    dz = p.z - q.z
    if dz.is_zero():
        return Chain.vertical_line(p.z)
    # orthogonality of both lifts to (u, m, 1): linear in conj(m), conj(u)
    p_abs2 = p.z * p.z.conj()
    rhs = (p_abs2 - I * p.t - q.z * q.z.conj() + I * q.t) * _HALF
    m_conj = rhs / dz
    u_conj = (p_abs2 - I * p.t) * _HALF - p.z * m_conj
    m = m_conj.conj()
    u = u_conj.conj()
    r2 = 2 * u.re() + m * m_conj
    c = 2 * u.im()
    if r2.sign() <= 0:
        raise GeometryError("degenerate chain: nonpositive squared radius")
    return Chain.finite(m, c, r2)


def chain_point(chain: Chain, direction) -> HPoint:
    """The chain point projecting to center + R * direction, |direction| = 1.

    The radius must lie in the field: supported when R^2 is the square of a
    rational, which covers every fixture chain, and an error otherwise.
    Sampling general chains is the float work of `crlink.sampler`.
    """
    if chain.vertical:
        raise GeometryError("vertical chain has no radial parametrization")
    direction = _field(direction)
    if direction * direction.conj() != ONE:
        raise GeometryError("direction must lie on the unit circle")
    if not chain.r2.is_rational():
        raise GeometryError("exact radial point needs a rational squared radius")
    frac = chain.r2.as_fraction()
    num = math.isqrt(frac.numerator)
    den = math.isqrt(frac.denominator)
    if num * num != frac.numerator or den * den != frac.denominator:
        raise GeometryError("exact radial point needs a rational square as squared radius")
    z = chain.center + direction * Fraction(num, den)
    # the imaginary part of the membership equation fixes the height
    t = chain.c - 2 * (z * chain.center.conj()).im()
    return HPoint(z, t)


# ---------------------------------------------------------------------------
# elementary inversions
# ---------------------------------------------------------------------------


def inversion_I(p: HPoint) -> HPoint:
    """The complex inversion (z,t) -> (z/(|z|^2 - it), -t/(|z|^4 + t^2)).

    Swaps the origin and infinity; an involution on the boundary.
    """
    if p.is_infinity:
        return HPoint(0, 0)
    if p.z.is_zero() and p.t.is_zero():
        return INFINITY
    denom = p.z * p.z.conj() - I * p.t
    z = p.z / denom
    t = -p.t / (denom * denom.conj()).re()
    return HPoint(z, t)


def iota_x(p: HPoint) -> HPoint:
    """Inversion in the x-axis: (z,t) -> (conj(z), -t); fixes infinity."""
    if p.is_infinity:
        return INFINITY
    return HPoint(p.z.conj(), -p.t)


def _point_fields(data):
    if not isinstance(data, dict) or set(data) - {"z", "t"}:
        raise GeometryError(f"bad point {data!r}: want \"inf\" or {{z, t}}")
    return data.get("z", 0), data.get("t", 0)


def hpoint_from_json(data) -> HPoint:
    """Point syntax of the input grammar: "inf" or {"z": expr, "t": expr}."""
    if data == "inf":
        return INFINITY
    z, t = _point_fields(data)
    return HPoint(parse_scalar(z), parse_scalar(t))


def approx_point_from_json(data, tol: float = DEFAULT_FLOAT_TOL) -> FloatPoint:
    """The same point syntax read as a float point.

    Expressions are parsed exactly and then rounded; JSON numbers are taken
    as machine numbers.  A height further than `tol` from the real axis is
    rejected.
    """
    if data == "inf":
        return None
    z, t = (complex(x) if isinstance(x, (int, float)) else parse_scalar(x).to_complex()
            for x in _point_fields(data))
    if abs(t.imag) > tol:
        raise GeometryError(f"vertical coordinate must be real, got {t}")
    return (z, t.real)
