"""Exact arithmetic in the degree-8 cyclotomic field Q(zeta), zeta = exp(i*pi/12).

This single field contains every constant the geometry needs: the imaginary
unit i = zeta^6, the sixth root omega = exp(-i*pi/3) = zeta^20, sqrt(2) and
sqrt(3), and all their rational combinations.  Elements are stored as rational
coordinate vectors in the power basis 1, zeta, ..., zeta^7, reduced by the
minimal polynomial x^8 - x^4 + 1, so equality is coefficient equality.

Signs of real elements are decided by adaptive-precision interval evaluation;
membership in Z, Z[i] and Z[omega] by exact basis solves.  This is the only
number type of the geometry core: machine floats are refused here, and enter
the program only in `crlink.sampler` and the float evaluation of the triple
product in `crlink.heisenberg`.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Iterable, Sequence, Union


DEGREE = 8

_ENV_PRECISION_BITS = "CRH_PRECISION_BITS"
_DEFAULT_PRECISION_BITS = 4096


class NotRealError(ValueError):
    """Operation defined only for conjugation-fixed elements."""


class PrecisionError(ArithmeticError):
    """Interval refinement hit the precision cap without resolving a sign."""


class SettingError(ValueError):
    """An environment setting holds an unusable value."""


class UnknownConstantError(ValueError):
    """Name is not one of the published constants."""


class ParseError(ValueError):
    """An expression for a field element could not be parsed."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position


RationalLike = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _solve_exact(matrix, rhs):
    """Solve matrix * x = rhs over Fractions.

    `matrix` is a list of rows (m x n, m >= n expected).  Returns the unique
    solution vector or None if the system is inconsistent / underdetermined.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    row = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if len(pivots) < n:
        return None
    for r in range(row, m):
        if a[r][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = a[r][n]
    return sol


class CycloNumber:
    """An element of Q(zeta), zeta a primitive 24th root of unity.

    Stored as eight integer numerators over one positive denominator in
    lowest terms, so equality is tuple equality and arithmetic pays for a
    single gcd per operation.  Immutable; all operations return fresh values.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable):
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) != DEGREE:
            raise ValueError(f"need {DEGREE} coefficients, got {len(cs)}")
        den = 1
        for c in cs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        nums = tuple(int(c * den) for c in cs)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("CycloNumber is immutable")

    @classmethod
    def _raw(cls, nums, den: int) -> "CycloNumber":
        if den < 0:
            nums = [-n for n in nums]
            den = -den
        g = den
        for n in nums:
            if n:
                g = math.gcd(g, n)
                if g == 1:
                    break
        if g > 1:
            nums = [n // g for n in nums]
            den //= g
        self = cls.__new__(cls)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "CycloNumber":
        f = _as_fraction(x)
        return cls._raw(
            [f.numerator] + [0] * (DEGREE - 1), f.denominator
        )

    @classmethod
    def zeta_power(cls, k: int) -> "CycloNumber":
        k %= 24
        sign = 1
        if k >= 12:
            sign = -1
            k -= 12
        c = [0] * DEGREE
        if k < DEGREE:
            c[k] = sign
        else:
            # zeta^k = zeta^(k-4) - zeta^(k-8)
            c[k - 4] = sign
            c[k - 8] = -sign
        return cls._raw(c, 1)

    # -- ring/field structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return CycloNumber._raw(
                [a + b for a, b in zip(self.nums, o.nums)], self.den
            )
        return CycloNumber._raw(
            [a * o.den + b * self.den for a, b in zip(self.nums, o.nums)],
            self.den * o.den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return CycloNumber._raw(
                [a - b for a, b in zip(self.nums, o.nums)], self.den
            )
        return CycloNumber._raw(
            [a * o.den - b * self.den for a, b in zip(self.nums, o.nums)],
            self.den * o.den,
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNumber._raw([-n for n in self.nums], self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prod = [0] * (2 * DEGREE - 1)
        a = self.nums
        b = o.nums
        for i in range(DEGREE):
            ai = a[i]
            if ai:
                for j in range(DEGREE):
                    if b[j]:
                        prod[i + j] += ai * b[j]
        # fold x^d for d >= 8 using x^8 = x^4 - 1
        for d in range(2 * DEGREE - 2, DEGREE - 1, -1):
            v = prod[d]
            if v:
                prod[d - 4] += v
                prod[d - 8] -= v
                prod[d] = 0
        return CycloNumber._raw(prod[:DEGREE], self.den * o.den)

    __rmul__ = __mul__

    def galois(self, k: int) -> "CycloNumber":
        """The automorphism zeta -> zeta^k (k coprime to 24)."""
        table = _GALOIS_TABLES[k % 24]
        nums = self.nums
        return CycloNumber._raw(
            [
                sum(m * c for m, c in zip(row, nums) if m)
                for row in table
            ],
            self.den,
        )

    def inverse(self) -> "CycloNumber":
        # product of the seven nontrivial Galois conjugates over the norm
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta24)")
        cofactor = None
        for k in (5, 7, 11, 13, 17, 19, 23):
            conj_k = self.galois(k)
            cofactor = conj_k if cofactor is None else cofactor * conj_k
        norm = self * cofactor
        assert norm.is_rational()
        return CycloNumber._raw(
            [n * norm.den for n in cofactor.nums], cofactor.den * norm.nums[0]
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.nums, self.den))

    # -- conjugation and real/imaginary parts ---------------------------------

    def conj(self) -> "CycloNumber":
        return self.galois(23)  # zeta -> zeta^-1

    def re(self) -> "CycloNumber":
        c = self.conj()
        return CycloNumber._raw(
            [a + b for a, b in zip(self.nums, c.nums)], 2 * self.den
        )

    def im(self) -> "CycloNumber":
        return (self - self.conj()) * _I_DOUBLED_INVERSE

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_real(self) -> bool:
        return self.conj() == self

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise NotRealError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- numeric evaluation ----------------------------------------------------

    def real_imag_surd_coords(self):
        """Coordinates over the basis {1, sqrt2, sqrt3, sqrt6} x {1, i}.

        Returns two 4-tuples of Fractions (re, im) with
        value = re . (1, sqrt2, sqrt3, sqrt6) + i * im . (1, sqrt2, sqrt3, sqrt6).
        """
        sol = _solve_exact(_SURD_MATRIX, list(self.coeffs))
        assert sol is not None  # the surd basis spans the field
        return tuple(sol[:4]), tuple(sol[4:])

    def to_complex(self) -> complex:
        re4, im4 = self.real_imag_surd_coords()
        surds = (1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(6.0))
        re = sum(float(c) * s for c, s in zip(re4, surds))
        im = sum(float(c) * s for c, s in zip(im4, surds))
        return complex(re, im)

    # -- certified sign ---------------------------------------------------------

    def sign(self) -> int:
        """Sign of a real element: -1, 0 or +1.

        Zero is decided exactly from the coefficient vector.  Otherwise the
        element is evaluated with exact rational interval enclosures of
        sqrt2/sqrt3/sqrt6, doubling the enclosure precision until the interval
        excludes zero.  Terminates for every nonzero input; the cap (set by
        the CRH_PRECISION_BITS environment variable) is a safety net only.
        """
        if not self.is_real():
            raise NotRealError(f"sign of non-real element {self}")
        if self.is_zero():
            return 0
        re4, _ = self.real_imag_surd_coords()
        digits = 12
        cap = _precision_cap_digits()
        while digits <= cap:
            lo = re4[0]
            hi = re4[0]
            for coef, n in zip(re4[1:], (2, 3, 6)):
                if coef == 0:
                    continue
                slo, shi = _sqrt_enclosure(n, digits)
                if coef > 0:
                    lo += coef * slo
                    hi += coef * shi
                else:
                    lo += coef * shi
                    hi += coef * slo
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            digits *= 2
        raise PrecisionError(
            f"sign of {self} unresolved at {cap} digits; raise {_ENV_PRECISION_BITS}"
        )

    # -- presentation ------------------------------------------------------------

    def to_json_coeffs(self):
        """The canonical wire form: eight strings 'num/den'."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    @classmethod
    def from_json_coeffs(cls, items: Sequence[str]) -> "CycloNumber":
        return cls([Fraction(s) for s in items])

    def __str__(self):
        re4, im4 = self.real_imag_surd_coords()
        re_s = _format_surd_combo(re4)
        im_s = _format_surd_combo(im4)
        if im_s == "0":
            return re_s
        if im_s == "1":
            im_part = "i"
        elif im_s == "-1":
            im_part = "-i"
        elif "+" in im_s or "-" in im_s[1:] or "/" in im_s:
            im_part = f"i*({im_s})"
        elif im_s.startswith("-"):
            im_part = f"-i*{im_s[1:]}"
        else:
            im_part = f"i*{im_s}"
        if re_s == "0":
            return im_part
        if im_part.startswith("-"):
            return f"{re_s} - {im_part[1:]}"
        return f"{re_s} + {im_part}"

    def __repr__(self):
        return f"CycloNumber({self})"


def _format_surd_combo(coords) -> str:
    names = ("", "sqrt2", "sqrt3", "sqrt6")
    parts = []
    for c, name in zip(coords, names):
        if c == 0:
            continue
        if name == "":
            parts.append(str(c))
        elif c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _sqrt_enclosure(n: int, digits: int):
    scale = 10 ** digits
    r = math.isqrt(n * scale * scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


def _precision_cap_digits() -> int:
    raw = os.environ.get(_ENV_PRECISION_BITS, str(_DEFAULT_PRECISION_BITS))
    try:
        bits = int(raw)
    except ValueError:
        raise SettingError(
            f"{_ENV_PRECISION_BITS} must be an integer number of bits, got {raw!r}"
        ) from None
    return max(12, bits * 30103 // 100000)  # log10(2) = 0.30103


def _galois_table(k: int):
    # column j holds the reduced coordinates of zeta^(j*k)
    cols = [CycloNumber.zeta_power(j * k).coeffs for j in range(DEGREE)]
    return tuple(
        tuple(int(cols[j][i]) for j in range(DEGREE)) for i in range(DEGREE)
    )


_GALOIS_TABLES = {k: _galois_table(k) for k in (1, 5, 7, 11, 13, 17, 19, 23)}

ZERO = CycloNumber([0] * DEGREE)
ONE = CycloNumber.from_rational(1)
ZETA24 = CycloNumber.zeta_power(1)
I = CycloNumber.zeta_power(6)
_I_DOUBLED_INVERSE = -I * Fraction(1, 2)  # 1/(2i)
OMEGA = CycloNumber.zeta_power(20)          # exp(-i*pi/3)
OMEGA_BAR = CycloNumber.zeta_power(4)       # exp(+i*pi/3)
SQRT2 = CycloNumber.zeta_power(3) + CycloNumber.zeta_power(21)
SQRT3 = CycloNumber.zeta_power(2) + CycloNumber.zeta_power(22)
SQRT6 = SQRT2 * SQRT3
HALF = CycloNumber.from_rational(Fraction(1, 2))

_CONSTANTS = {
    "i": I,
    "omega": OMEGA,
    "sqrt2": SQRT2,
    "sqrt3": SQRT3,
    "sqrt6": SQRT6,  # printer shorthand for sqrt2*sqrt3
    "zeta24": ZETA24,
}

# change-of-basis matrix: columns are the zeta-coordinates of
# 1, sqrt2, sqrt3, sqrt6, i, i*sqrt2, i*sqrt3, i*sqrt6
_SURD_BASIS = [ONE, SQRT2, SQRT3, SQRT6, I, I * SQRT2, I * SQRT3, I * SQRT6]
_SURD_MATRIX = [[_SURD_BASIS[k].coeffs[row] for k in range(8)] for row in range(8)]


def constant(name: str) -> CycloNumber:
    try:
        return _CONSTANTS[name]
    except KeyError:
        raise UnknownConstantError(
            f"unknown constant {name!r}; known: {sorted(_CONSTANTS)}"
        ) from None


# ---------------------------------------------------------------------------
# subring membership
# ---------------------------------------------------------------------------

_RING_BASES = {
    "Z": (ONE,),
    "Z[i]": (ONE, I),
    "Z[omega]": (ONE, OMEGA),
}

_RING_ALIASES = {
    "z": "Z",
    "zi": "Z[i]",
    "z[i]": "Z[i]",
    "zomega": "Z[omega]",
    "z[omega]": "Z[omega]",
    "z[w]": "Z[omega]",
}


def ring_name(ring: str) -> str:
    key = ring.strip().lower()
    if key in _RING_ALIASES:
        return _RING_ALIASES[key]
    raise UnknownConstantError(f"unknown ring {ring!r}; known: Z, Z[i], Z[omega]")


def express_in_basis(x: CycloNumber, basis: Sequence[CycloNumber]):
    """Rational coordinates of x over `basis` inside Q(zeta24), or None."""
    matrix = [[b.coeffs[row] for b in basis] for row in range(DEGREE)]
    return _solve_exact(matrix, list(x.coeffs))


def in_ring(x: CycloNumber, ring: str) -> bool:
    basis = _RING_BASES[ring_name(ring)]
    coords = express_in_basis(x, basis)
    return coords is not None and all(c.denominator == 1 for c in coords)


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

_TOKEN_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(("num:" + text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name:" + text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _ExprParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> CycloNumber:
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError("trailing input", self.tokens[self.pos][1])
        return value

    def expr(self) -> CycloNumber:
        value = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> CycloNumber:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op, _ = self.next()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> CycloNumber:
        negate = False
        while self.peek() == "-":
            self.next()
            negate = not negate
        value = self.atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            while self.peek() == "-":
                self.next()
                sign = -sign
            tok, pos = self.next() if self.peek() else (None, -1)
            if tok is None or not tok.startswith("num:") or "." in tok:
                raise ParseError("exponent must be an integer", pos)
            value = value ** (sign * int(tok[4:]))
        return -value if negate else value

    def atom(self) -> CycloNumber:
        if self.peek() is None:
            raise ParseError("unexpected end of expression")
        tok, pos = self.next()
        if tok == "(":
            value = self.expr()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis", pos)
            self.next()
            return value
        if tok.startswith("num:"):
            text = tok[4:]
            if "." in text:
                whole, frac = text.split(".", 1)
                num = Fraction(int((whole or "0") + frac), 10 ** len(frac))
            else:
                num = Fraction(text)
            return CycloNumber.from_rational(num)
        if tok.startswith("name:"):
            return constant(tok[5:])
        raise ParseError(f"unexpected token {tok!r}", pos)


def parse_scalar(source) -> CycloNumber:
    """Parse a field element from the JSON input grammar.

    Accepts the coefficient wire form (a list of eight 'num/den' strings),
    integers, or expressions over the named constants combined with
    + - * / ^ and parentheses, e.g. "2+sqrt3" or "-(1+sqrt2)/2".  Machine
    floats are rejected: they are not exact.
    """
    if isinstance(source, CycloNumber):
        return source
    if isinstance(source, (list, tuple)):
        return CycloNumber.from_json_coeffs(source)
    if isinstance(source, (int, Fraction)):
        return CycloNumber.from_rational(source)
    if not isinstance(source, str):
        raise ParseError(f"cannot parse an exact scalar from {type(source).__name__}")
    tokens = _tokenize(source)
    if not tokens:
        raise ParseError("empty scalar expression")
    return _ExprParser(tokens).parse()
