"""Projective classes of form-unitary 3x3 matrices and their boundary action.

Matrices are kept in U(2,1) of the antidiagonal Hermitian form (never forced
into SU(2,1): cube roots of the determinant may leave the field), with an
anti-holomorphic flag meaning "conjugate the input coordinates entrywise,
then apply the matrix".  Equality of isometries is equality of matrices up
to a nonzero scalar.

Provides: exact verification of the form identity, boundary action,
trace-based conjugacy classification with an exact semisimplicity test,
synthesis of the unique isometry carrying one point triple to another,
unipotent translation parts, word evaluation over named generators, and
entrywise ring membership.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from .scalars import CycloNumber, Fraction, I, ONE, ZERO, in_ring
from .heisenberg import (
    CoincidentPointsError,
    GeometryError,
    HPoint,
    NullVector,
    cartan,
    h_inv,
    lift,
    point_from_null,
)


class NotUnitaryError(ValueError):
    """Matrix does not preserve the Hermitian form up to a positive factor."""


class CartanMismatchError(ValueError):
    """No isometry carries the source triple to the destination triple."""


class ClassificationError(ValueError):
    """Classification not defined for this input (e.g. anti-holomorphic)."""


class WordError(KeyError):
    """A word references an unbound generator name."""


def _entry(x) -> CycloNumber:
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNumber.from_rational(x)
    raise TypeError(f"cannot use {x!r} as an exact matrix entry")


class Mat3:
    """An exact 3x3 matrix over the cyclotomic field."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(_entry(x) for x in row) for row in rows)
        if len(rs) != 3 or any(len(r) != 3 for r in rs):
            raise ValueError("need a 3x3 matrix")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, *a):
        raise AttributeError("Mat3 is immutable")

    @classmethod
    def identity(cls) -> "Mat3":
        return cls([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @classmethod
    def diagonal(cls, a, b, c) -> "Mat3":
        return cls([[a, 0, 0], [0, b, 0], [0, 0, c]])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if isinstance(other, Mat3):
            return Mat3(
                [
                    [
                        sum(
                            (self.rows[i][k] * other.rows[k][j] for k in range(3)),
                            ZERO,
                        )
                        for j in range(3)
                    ]
                    for i in range(3)
                ]
            )
        if isinstance(other, (int, Fraction, CycloNumber)):
            s = _entry(other)
            return Mat3([[x * s for x in row] for row in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        return Mat3(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(3)]
                for i in range(3)
            ]
        )

    def matvec(self, v: Sequence[CycloNumber]) -> Tuple[CycloNumber, ...]:
        return tuple(
            sum((self.rows[i][k] * v[k] for k in range(3)), ZERO) for i in range(3)
        )

    def trace(self) -> CycloNumber:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def det(self) -> CycloNumber:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def second_invariant(self) -> CycloNumber:
        """Sum of the principal 2x2 minors (coefficient of x in char poly)."""
        r = self.rows
        return (
            (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            + (r[0][0] * r[2][2] - r[0][2] * r[2][0])
            + (r[0][0] * r[1][1] - r[0][1] * r[1][0])
        )

    def adjugate(self) -> "Mat3":
        r = self.rows

        def cof(i, j):
            rows = [k for k in range(3) if k != i]
            cols = [k for k in range(3) if k != j]
            m = (
                r[rows[0]][cols[0]] * r[rows[1]][cols[1]]
                - r[rows[0]][cols[1]] * r[rows[1]][cols[0]]
            )
            return m if (i + j) % 2 == 0 else -m

        return Mat3([[cof(j, i) for j in range(3)] for i in range(3)])

    def inverse(self) -> "Mat3":
        d = self.det()
        if d.is_zero():
            raise ZeroDivisionError("singular matrix")
        return self.adjugate() * d.inverse()

    def conj_entrywise(self) -> "Mat3":
        return Mat3([[x.conj() for x in row] for row in self.rows])

    def conj_transpose(self) -> "Mat3":
        return Mat3(
            [[self.rows[j][i].conj() for j in range(3)] for i in range(3)]
        )

    def is_scalar(self) -> Optional[CycloNumber]:
        """The scalar lambda if the matrix is lambda * Id, else None."""
        r = self.rows
        for i in range(3):
            for j in range(3):
                if i != j and not r[i][j].is_zero():
                    return None
        if r[0][0] == r[1][1] == r[2][2]:
            return r[0][0]
        return None

    def scalar_ratio(self, other: "Mat3") -> Optional[CycloNumber]:
        """lambda with self == lambda * other, or None."""
        lam = None
        for i in range(3):
            for j in range(3):
                a, b = self.rows[i][j], other.rows[i][j]
                if b.is_zero():
                    if not a.is_zero():
                        return None
                    continue
                r = a / b
                if lam is None:
                    lam = r
                elif lam != r:
                    return None
        if lam is None or lam.is_zero():
            return None
        return lam

    def __pow__(self, n: int) -> "Mat3":
        if n < 0:
            return self.inverse() ** (-n)
        result = Mat3.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_jsonable(self):
        return [[x.to_json_coeffs() for x in row] for row in self.rows]

    def pretty(self) -> str:
        cells = [[str(x) for x in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

    def __repr__(self):
        return f"Mat3({[[str(x) for x in row] for row in self.rows]})"


FORM_J = Mat3([[0, 0, 1], [0, 1, 0], [1, 0, 0]])

# swaps the origin and infinity; the standard order-2 form matrix
INVERSION_MATRIX = Mat3([[0, 0, 1], [0, -1, 0], [1, 0, 0]])


def check_unitary(m: Mat3):
    """Exact test of M* J M = lambda J with lambda a positive real.

    Returns (True, lambda) on success and (False, (i, j)) with a witness
    entry index on failure.
    """
    if m.det().is_zero():
        raise NotUnitaryError("singular matrix")
    c = m.conj_transpose() * FORM_J * m
    lam = c[0, 2]
    if not lam.is_real() or lam.sign() <= 0:
        return False, (0, 2)
    for i in range(3):
        for j in range(3):
            want = FORM_J[i, j] * lam
            if c[i, j] != want:
                return False, (i, j)
    return True, lam


class ProjIsometry:
    """A projective class of form-unitary matrices, possibly anti-holomorphic.

    Anti-holomorphic means: conjugate the input vector entrywise, then apply
    the matrix.  Composition and inversion track the flag.
    """

    __slots__ = ("matrix", "holo")

    def __init__(self, matrix: Mat3, holo: bool = True, check: bool = True):
        if check:
            ok, witness = check_unitary(matrix)
            if not ok:
                raise NotUnitaryError(
                    f"matrix does not preserve the form (entry {witness})"
                )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "holo", bool(holo))

    def __setattr__(self, *a):
        raise AttributeError("ProjIsometry is immutable")

    @classmethod
    def identity(cls) -> "ProjIsometry":
        return cls(Mat3.identity(), True, check=False)

    def __matmul__(self, other: "ProjIsometry") -> "ProjIsometry":
        if not isinstance(other, ProjIsometry):
            return NotImplemented
        if self.holo:
            m = self.matrix * other.matrix
        else:
            m = self.matrix * other.matrix.conj_entrywise()
        return ProjIsometry(m, self.holo == other.holo, check=False)

    def inverse(self) -> "ProjIsometry":
        inv = self.matrix.inverse()
        if self.holo:
            return ProjIsometry(inv, True, check=False)
        return ProjIsometry(inv.conj_entrywise(), False, check=False)

    def act_null(self, v: NullVector) -> Tuple[CycloNumber, CycloNumber, CycloNumber]:
        comps = v.components()
        if not self.holo:
            comps = tuple(c.conj() for c in comps)
        return self.matrix.matvec(comps)

    def act(self, p: HPoint) -> HPoint:
        """Boundary action."""
        return point_from_null(NullVector(*self.act_null(lift(p))))

    def same_class(self, other: "ProjIsometry") -> bool:
        if self.holo != other.holo:
            return False
        return self.matrix.scalar_ratio(other.matrix) is not None

    def unit_scalar_to(self, other: "ProjIsometry") -> Optional[CycloNumber]:
        """lambda with self = lambda * other if |lambda| = 1 exactly, else None."""
        if self.holo != other.holo:
            return None
        lam = self.matrix.scalar_ratio(other.matrix)
        if lam is None:
            return None
        if (lam * lam.conj()) == ONE:
            return lam
        return None

    def is_identity_class(self) -> bool:
        return self.holo and self.matrix.is_scalar() is not None

    def __repr__(self):
        kind = "holo" if self.holo else "anti"
        return f"ProjIsometry[{kind}]\n{self.matrix.pretty()}"


# ---------------------------------------------------------------------------
# elementary isometries
# ---------------------------------------------------------------------------


def heisenberg_translation(p: HPoint) -> ProjIsometry:
    """Left translation by a finite point, as an upper-triangular unipotent."""
    if p.is_infinity:
        raise GeometryError("translation by infinity")
    z, t = p.z, p.t
    first = (-(z * z.conj()) + I * t) * Fraction(1, 2)
    m = Mat3([[ONE, -z.conj(), first], [ZERO, ONE, z], [ZERO, ZERO, ONE]])
    return ProjIsometry(m, True, check=False)


def dilation_rotation(a: CycloNumber) -> ProjIsometry:
    """(z, t) -> (a z, |a|^2 t), the stabilizer of the origin and infinity.

    The representative diag(conj(a), 1, 1/a) keeps the form factor at exactly
    1, so compositions of elementary maps stay in honest U(2,1).
    """
    if a.is_zero():
        raise GeometryError("zero dilation factor")
    return ProjIsometry(
        Mat3.diagonal(a.conj(), ONE, a.inverse()), True, check=False
    )


def inversion() -> ProjIsometry:
    return ProjIsometry(INVERSION_MATRIX, True, check=False)


def coordinate_conjugation() -> ProjIsometry:
    """The anti-holomorphic map (z, t) -> (conj z, -t)."""
    return ProjIsometry(Mat3.identity(), False, check=False)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


IDENTITY = "Identity"
LOXODROMIC = "Loxodromic"
REGULAR_ELLIPTIC = "RegularElliptic"
PARABOLIC = "Parabolic"
SPECIAL_ELLIPTIC = "SpecialElliptic"


@dataclass(frozen=True)
class IsometryClass:
    kind: str
    discriminant: CycloNumber
    elliptic_order: Optional[int] = None

    @property
    def is_elliptic(self) -> bool:
        return self.kind in (REGULAR_ELLIPTIC, SPECIAL_ELLIPTIC)

    def __str__(self):
        if self.elliptic_order:
            return f"{self.kind}(order {self.elliptic_order})"
        return self.kind


def _poly_gcd_is_squarefree_part(chi, dchi):
    """Quotient of chi by gcd(chi, chi') over the field; both coefficient lists
    are ascending.  Returns the squarefree part (ascending, monic)."""

    def degree(p):
        d = len(p) - 1
        while d > 0 and p[d].is_zero():
            d -= 1
        return d if not p[d].is_zero() else -1

    def divmod_poly(num, den):
        num = list(num)
        dd = degree(den)
        lead = den[dd]
        q = [ZERO] * (max(degree(num) - dd, -1) + 1)
        while degree(num) >= dd and degree(num) >= 0:
            dn = degree(num)
            coef = num[dn] / lead
            q[dn - dd] = coef
            for k in range(dd + 1):
                num[dn - dd + k] = num[dn - dd + k] - coef * den[k]
        return q, num

    a, b = list(chi), list(dchi)
    while degree(b) > 0:
        _, r = divmod_poly(a, b)
        a, b = b, r
    if degree(b) == 0 and not b[0].is_zero():
        g = [ONE]
    else:
        da = degree(a)
        g = [c / a[da] for c in a[: da + 1]]
    q, _ = divmod_poly(chi, g)
    dq = degree(q)
    return [c / q[dq] for c in q[: dq + 1]]


def _eval_poly_at_matrix(coeffs, m: Mat3) -> Mat3:
    acc = Mat3([[0] * 3] * 3)
    power = Mat3.identity()
    for c in coeffs:
        acc = acc + power * c
        power = power * m
    return acc


def trace_discriminant(m: Mat3) -> CycloNumber:
    """The standard discriminant of the conjugacy type, scale-invariant.

    With tau the trace of a determinant-1 representative,
    f = |tau|^4 - 8 Re(tau^3) + 18 |tau|^2 - 27.
    |tau|^2 and tau^3 are computed scale-invariantly as |tr|^2 / lambda and
    tr^3 / det, so no cube roots are ever extracted.
    """
    ok, lam = check_unitary(m)
    if not ok:
        raise NotUnitaryError("classification needs a form-unitary matrix")
    tr = m.trace()
    a = (tr * tr.conj()) / lam  # |tau|^2, real
    tau_cubed = (tr ** 3) / m.det()
    f = a * a - 8 * tau_cubed.re() + 18 * a - 27
    return f


def classify(g: ProjIsometry, order_bound: int = 24) -> IsometryClass:
    """Conjugacy classification of a holomorphic isometry.

    Sign of the discriminant separates loxodromic / regular elliptic; at the
    boundary the exact squarefree test of the characteristic polynomial
    decides parabolic against special elliptic, with scalar matrices reported
    as the identity class.  For elliptic classes the least n <= order_bound
    with g^n scalar is reported when it exists.
    """
    if not g.holo:
        raise ClassificationError(
            "classification applies to holomorphic maps; classify g @ g instead"
        )
    m = g.matrix
    f = trace_discriminant(m)
    if m.is_scalar() is not None:
        return IsometryClass(IDENTITY, f)
    s = f.sign()
    if s > 0:
        return IsometryClass(LOXODROMIC, f)
    if s < 0:
        return IsometryClass(REGULAR_ELLIPTIC, f, _elliptic_order(m, order_bound))
    # boundary case: parabolic iff the matrix is not semisimple
    tr = m.trace()
    chi = [-m.det(), m.second_invariant(), -tr, ONE]
    dchi = [m.second_invariant(), -2 * tr, 3 * ONE]
    sqfree = _poly_gcd_is_squarefree_part(chi, dchi)
    value = _eval_poly_at_matrix(sqfree, m)
    semisimple = all(
        value.rows[i][j].is_zero() for i in range(3) for j in range(3)
    )
    if not semisimple:
        return IsometryClass(PARABOLIC, f)
    return IsometryClass(SPECIAL_ELLIPTIC, f, _elliptic_order(m, order_bound))


def _elliptic_order(m: Mat3, bound: int) -> Optional[int]:
    power = m
    for n in range(1, bound + 1):
        if power.is_scalar() is not None:
            return n
        power = power * m
    return None


# ---------------------------------------------------------------------------
# triple transport
# ---------------------------------------------------------------------------


def normalizer(p1: HPoint, p2: HPoint, p3: HPoint) -> ProjIsometry:
    """The isometry carrying (p1, p2, p3) to (infinity, 0, (1, tan A)).

    Built from elementary exact matrices: a translation and an inversion to
    send p1 to infinity, a translation fixing infinity to send p2 to the
    origin, and the (infinity, 0)-stabilizer to place p3 over 1.  Triples on
    a chain (invariant +-pi/2) are rejected: their normal form degenerates
    and the carrying isometry is not unique.
    """
    if p1 == p2 or p2 == p3 or p1 == p3:
        raise CoincidentPointsError("normalizer needs distinct points")
    n = ProjIsometry.identity()
    a = p1
    if not a.is_infinity:
        n = inversion() @ heisenberg_translation(h_inv(a))
    b = n.act(p2)
    assert not b.is_infinity
    if not (b.z.is_zero() and b.t.is_zero()):
        n = heisenberg_translation(HPoint(-b.z, -b.t)) @ n
    c = n.act(p3)
    assert not c.is_infinity
    if c.z.is_zero():
        raise CartanMismatchError(
            "triple lies on a chain (invariant +-pi/2); no unique normal form"
        )
    n = dilation_rotation(c.z.inverse()) @ n
    return n


def from_triples(
    src: Sequence[HPoint], dst: Sequence[HPoint]
) -> ProjIsometry:
    """The unique isometry with g(src_i) = dst_i.

    Holomorphic when the triples have exactly equal angular invariants,
    anti-holomorphic when the invariants are exactly opposite; otherwise no
    isometry exists and CartanMismatchError is raised.  When the invariant is
    zero both cases apply and the holomorphic map is returned.
    """
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("need two triples of points")
    eta_src = cartan(*src)
    eta_dst = cartan(*dst)
    n_src = normalizer(*src)
    n_dst = normalizer(*dst)
    if eta_src.same_as(eta_dst):
        return n_dst.inverse() @ n_src
    if eta_src.opposite_of(eta_dst):
        return n_dst.inverse() @ coordinate_conjugation() @ n_src
    raise CartanMismatchError(
        "no isometry exists: angular invariants are neither equal nor opposite"
    )


# ---------------------------------------------------------------------------
# parabolic translation parts
# ---------------------------------------------------------------------------


def translation_part(g: ProjIsometry) -> Tuple[CycloNumber, CycloNumber]:
    """(z0, t0) of a unipotent upper-triangular Heisenberg translation.

    Requires a parabolic fixing infinity whose projective class contains a
    unipotent upper-triangular representative; conjugate by the inversion
    first when the fixed point is the origin.  Contract:
    g(0,0) = (z0, t0).
    """
    if not g.holo:
        raise ClassificationError("translation part of a holomorphic map only")
    m = g.matrix
    for (i, j) in ((1, 0), (2, 0), (2, 1)):
        if not m.rows[i][j].is_zero():
            raise ClassificationError(
                "matrix is not upper-triangular: does not fix infinity as required"
            )
    pivot = m.rows[2][2]
    if pivot.is_zero():
        raise ClassificationError("degenerate representative")
    m = m * pivot.inverse()
    if m.rows[0][0] != ONE or m.rows[1][1] != ONE:
        raise ClassificationError(
            "representative is not unipotent: rotation part present"
        )
    z0 = m.rows[1][2]
    first = m.rows[0][2]
    t0 = 2 * first.im()
    if m.rows[0][1] != -z0.conj() or first.re() != -(z0 * z0.conj()) * Fraction(1, 2):
        raise ClassificationError("matrix is not a Heisenberg translation")
    return z0, t0


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

_WORD_TOKEN = _re.compile(r"^([A-Za-z_][A-Za-z0-9_']*)(?:\^(-?\d+))?$")

WordLike = Union[str, Sequence[Tuple[str, int]]]


def parse_word(text: str):
    """Whitespace-separated tokens `Name` or `Name^k` with integer k."""
    letters = []
    for token in text.split():
        m = _WORD_TOKEN.match(token)
        if not m:
            raise WordError(f"bad word token {token!r}")
        name, exp = m.group(1), m.group(2)
        letters.append((name, 1 if exp is None else int(exp)))
    return letters


def eval_word(word: WordLike, env: Dict[str, ProjIsometry]) -> ProjIsometry:
    """Exact product of named generators with integer exponents."""
    letters = parse_word(word) if isinstance(word, str) else list(word)
    result = ProjIsometry.identity()
    for name, exp in letters:
        if name not in env:
            raise WordError(f"unbound generator {name!r}")
        g = env[name]
        if exp < 0:
            g = g.inverse()
            exp = -exp
        for _ in range(exp):
            result = result @ g
    return result


def matrix_in_ring(g: ProjIsometry, ring: str) -> bool:
    """All nine entries of the given representative lie in the named ring."""
    return all(
        in_ring(g.matrix.rows[i][j], ring) for i in range(3) for j in range(3)
    )
