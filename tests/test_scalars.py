import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crlink.scalars import (
    CycloNumber,
    I,
    NotRealError,
    OMEGA,
    OMEGA_BAR,
    ONE,
    ParseError,
    SQRT2,
    SQRT3,
    SQRT6,
    UnknownConstantError,
    ZERO,
    ZETA24,
    constant,
    in_ring,
    parse_scalar,
)

from conftest import random_cyclo


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
cyclos = st.lists(small_fracs, min_size=8, max_size=8).map(CycloNumber)


def test_zeta_power_wraps():
    assert ZETA24 ** 8 * ZETA24 ** 16 == ONE
    assert ZETA24 ** 24 == ONE
    assert ZETA24 ** 12 == -ONE


def test_sqrt3_squares_to_three():
    assert (ZETA24 ** 2 + ZETA24 ** 22) ** 2 == CycloNumber.from_rational(3)
    assert SQRT3 * SQRT3 == CycloNumber.from_rational(3)
    assert SQRT2 * SQRT2 == CycloNumber.from_rational(2)
    assert SQRT2 * SQRT3 == SQRT6


def test_omega_has_unit_modulus():
    assert OMEGA * OMEGA.conj() == ONE
    assert I * I == -ONE
    assert OMEGA == ZETA24 ** 20
    assert OMEGA_BAR == OMEGA.conj()


def test_division_and_zero():
    x = CycloNumber([1, 2, 0, 1, 0, 0, 3, 1])
    assert (x / x) == ONE
    with pytest.raises(ZeroDivisionError):
        x / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_conj_values():
    assert I.conj() == -I
    assert OMEGA.re() == CycloNumber.from_rational(Fraction(1, 2))
    assert OMEGA.im() == -(SQRT3 / 2)


@given(cyclos)
@settings(max_examples=60, deadline=None)
def test_conj_is_involution_and_re_im_real(x):
    assert x.conj().conj() == x
    assert x.re().is_real()
    assert x.im().is_real()
    assert x.re().im() == ZERO
    assert x.re() + I * x.im() == x


@given(cyclos, cyclos)
@settings(max_examples=60, deadline=None)
def test_conj_is_ring_automorphism(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()


@given(cyclos, cyclos, cyclos)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(cyclos)
@settings(max_examples=40, deadline=None)
def test_canonical_form_uniqueness(x):
    # equality is coefficient equality, so serialization round-trips
    back = CycloNumber.from_json_coeffs(x.to_json_coeffs())
    assert back == x
    if not x.is_zero():
        assert x * x.inverse() == ONE


def test_sign_examples():
    assert (2 + SQRT3).sign() == 1
    assert (SQRT2 + SQRT3 - 3).sign() == 1
    assert ZERO.sign() == 0
    assert (-(SQRT6) + 2).sign() == -1  # 2 - 2.449... < 0
    # independent float-evaluation oracle for a mix of surd combinations
    for x in (SQRT2 - 1, 3 - SQRT6, SQRT6 - SQRT3 - SQRT2 + 1,
              SQRT2 + SQRT3 - SQRT6, 7 * SQRT2 - 5 * SQRT3 + 1):
        approx = x.to_complex().real
        assert x.sign() == (0 if approx == 0 else math.copysign(1, approx))


def test_sign_rejects_non_real():
    with pytest.raises(NotRealError):
        I.sign()
    with pytest.raises(NotRealError):
        (ONE + ZETA24).sign()


def test_sign_precision_cap(monkeypatch):
    from crlink.scalars import PrecisionError, _ENV_PRECISION_BITS

    # a nonzero real within 1e-32 of zero: beyond a 12-digit enclosure
    close = Fraction(
        31462643699419723423291350657155790, 10 ** 34
    )  # 34-digit approximation of sqrt2 + sqrt3, ~8.6e-33 high
    hard = SQRT2 + SQRT3 - close
    assert hard.sign() == -1  # default cap resolves it
    monkeypatch.setenv(_ENV_PRECISION_BITS, "16")
    with pytest.raises(PrecisionError):
        hard.sign()
    monkeypatch.delenv(_ENV_PRECISION_BITS)
    easy = 2 + SQRT3
    monkeypatch.setenv(_ENV_PRECISION_BITS, "16")
    assert easy.sign() == 1  # coarse enclosures suffice away from zero


def test_constants():
    assert constant("omega") == ZETA24 ** 20
    assert constant("sqrt3") * constant("sqrt3") == CycloNumber.from_rational(3)
    assert constant("i") * constant("i") == -ONE
    with pytest.raises(UnknownConstantError):
        constant("tau")


def test_constants_match_transcendental_values():
    targets = {
        "i": 1j,
        "omega": cmath.exp(-1j * cmath.pi / 3),
        "sqrt2": math.sqrt(2),
        "sqrt3": math.sqrt(3),
        "zeta24": cmath.exp(1j * cmath.pi / 12),
    }
    for name, want in targets.items():
        assert abs(constant(name).to_complex() - want) < 1e-12


def test_in_ring_examples():
    assert in_ring(-2 * OMEGA - 1, "Z[omega]")
    assert not in_ring(SQRT3, "Z[i]")
    assert in_ring(CycloNumber.from_rational(5), "Z")
    assert in_ring(OMEGA_BAR, "Z[omega]")  # 1 - omega
    assert in_ring(3 - 7 * I, "Z[i]")
    assert not in_ring(CycloNumber.from_rational(Fraction(1, 2)), "Z")
    assert not in_ring(SQRT3, "Z[omega]")
    with pytest.raises(UnknownConstantError):
        in_ring(ONE, "Z[sqrt2]")


def test_in_ring_closed_under_operations(rng):
    for ring, unit in (("Z[i]", I), ("Z[omega]", OMEGA)):
        for _ in range(50):
            a = rng.randint(-9, 9) + rng.randint(-9, 9) * unit
            b = rng.randint(-9, 9) + rng.randint(-9, 9) * unit
            assert in_ring(a, ring) and in_ring(b, ring)
            assert in_ring(a + b, ring)
            assert in_ring(a * b, ring)


def test_scalar_backend_separation():
    # a machine float cannot enter the exact core
    from crlink.heisenberg import HPoint

    with pytest.raises(TypeError):
        SQRT2 + 1.5
    with pytest.raises(TypeError):
        SQRT2 * 1.5
    with pytest.raises(TypeError):
        HPoint(1.5, 0)
    with pytest.raises(ParseError):
        parse_scalar(1.5)
    assert (SQRT2.to_complex() + 1.5) == pytest.approx(1.5 + math.sqrt(2))


def test_scalar_float_tolerance():
    # float cartan evaluation: points within --tol of each other coincide
    from crlink.heisenberg import CoincidentPointsError, GeometryError, eta_approx

    a, c = (1.0 + 0j, 0.0), (0j, 1.0)
    with pytest.raises(CoincidentPointsError):
        eta_approx(a, (1.0 + 5e-7j, 0.0), c, tol=1e-6)
    with pytest.raises(CoincidentPointsError):
        eta_approx(None, c, None, tol=1e-6)
    assert eta_approx(a, (1.01 + 0j, 0.0), c, tol=1e-6) != 0
    with pytest.raises(GeometryError):  # |eta| within tol of zero
        eta_approx(a, (1.0001 + 0j, 0.0), c, tol=1e-6)


def test_scalar_exact_ops():
    a = SQRT3
    assert a * a == CycloNumber.from_rational(3)
    assert a.sign() == 1
    assert (-a).sign() == -1
    assert a.conj() == a


def test_parse_expressions():
    assert parse_scalar("2+sqrt3") == 2 + SQRT3
    assert parse_scalar("-(1+sqrt2)") == -(1 + SQRT2)
    assert parse_scalar("omega^2*(1+i)/2") == OMEGA ** 2 * (ONE + I) / 2
    assert parse_scalar("zeta24^-4") == ZETA24 ** -4
    assert parse_scalar("3/2") == CycloNumber.from_rational(Fraction(3, 2))
    assert parse_scalar("1.25") == CycloNumber.from_rational(Fraction(5, 4))
    coeffs = (SQRT2 / 3).to_json_coeffs()
    assert parse_scalar(coeffs) == SQRT2 / 3


def test_parse_errors():
    for bad in ("", "2+", "(1", "1 $ 2", "sqrt5", "2^i"):
        with pytest.raises((ParseError, UnknownConstantError)):
            parse_scalar(bad)


def test_float_backend_parse():
    from crlink.heisenberg import approx_point_from_json

    z, t = approx_point_from_json({"z": "sqrt2/2 + i*sqrt2/2", "t": 0.25})
    assert abs(z - cmath.exp(1j * cmath.pi / 4)) < 1e-12 and t == 0.25
    assert approx_point_from_json("inf") is None


def test_surd_printing_round_trip(rng):
    cases = [
        SQRT6 / 4 - SQRT2 / 4 + I * (ONE / 2 - SQRT3 / 7),
        I,
        -I,
        -2 * I,
        ZERO,
        ONE / 3,
        -SQRT2,
    ] + [random_cyclo(rng) for _ in range(25)]
    for x in cases:
        assert parse_scalar(str(x)) == x
