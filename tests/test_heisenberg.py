import math
import random
from fractions import Fraction

import pytest

from crlink.scalars import (
    CycloNumber,
    I,
    OMEGA,
    ONE,
    SQRT3,
    ZERO,
)
from crlink.heisenberg import (
    Chain,
    ChainInvariantError,
    CoincidentPointsError,
    GeometryError,
    HPoint,
    INFINITY,
    InfinityOperandError,
    cartan,
    chain_point,
    chain_through,
    cocycle,
    h_inv,
    h_mul,
    herm,
    hpoint_from_json,
    inversion_I,
    iota_x,
    lift,
    point_from_null,
    signature,
)

from conftest import distinct_hpoints, random_cyclo, random_hpoint


ORIGIN = HPoint(0, 0)


def test_group_law_examples():
    p = HPoint(ONE, 0)
    assert h_mul(p, ORIGIN) == p
    assert h_mul(ORIGIN, p) == p
    r = h_mul(p, HPoint(I, 0))
    assert r == HPoint(ONE + I, -2)
    a = HPoint(ZERO, 3)
    b = HPoint(ZERO, Fraction(5, 2))
    assert h_mul(a, b) == HPoint(ZERO, Fraction(11, 2))


def test_equal_points_hash_equal(rng):
    # the language contract: equal points hash equal, so sets and dict keys
    # see one point however its coordinates were computed
    for _ in range(20):
        p = random_hpoint(rng)
        q = h_mul(p, h_inv(p))
        assert q == ORIGIN and hash(q) == hash(ORIGIN)
        assert len({q, ORIGIN, HPoint(0, Fraction(0))}) == 1
    assert len({INFINITY, HPoint.infinity()}) == 1


def test_group_law_rejects_infinity():
    with pytest.raises(InfinityOperandError):
        h_mul(INFINITY, ORIGIN)
    with pytest.raises(InfinityOperandError):
        h_inv(INFINITY)


def test_group_axioms_random(rng):
    for _ in range(60):
        p, q, r = (random_hpoint(rng) for _ in range(3))
        assert h_mul(p, h_inv(p)) == ORIGIN
        assert h_mul(h_mul(p, q), r) == h_mul(p, h_mul(q, r))


def test_lift_examples():
    v = lift(INFINITY)
    assert v.components() == (ONE, ZERO, ZERO)
    v0 = lift(ORIGIN)
    assert v0.components() == (ZERO, ZERO, ONE)
    assert signature(lift(HPoint(ONE, SQRT3))) == 0


def test_signature_all_three_values():
    from crlink.heisenberg import NullVector

    neg = NullVector(-ONE / 2, ZERO, ONE)
    assert signature(neg) == -1
    pos = chain_through(HPoint(ONE, 0), HPoint(I, 0)).polar
    assert signature(pos) == 1
    assert signature(lift(ORIGIN)) == 0


def test_lift_is_null_random(rng):
    for _ in range(80):
        p = random_hpoint(rng)
        assert herm(lift(p), lift(p)).is_zero()


def test_herm_examples(rng):
    assert herm(lift(INFINITY), lift(ORIGIN)) == ONE
    for _ in range(40):
        u, v = lift(random_hpoint(rng)), lift(random_hpoint(rng))
        assert (herm(u, v) - herm(v, u).conj()).is_zero()


def test_point_null_round_trip(rng):
    for _ in range(40):
        p = random_hpoint(rng)
        assert point_from_null(lift(p)) == p


def test_cartan_tan_formula():
    tp = cartan(INFINITY, ORIGIN, HPoint(ONE, SQRT3))
    assert tp.tan() == SQRT3
    assert tp.angle() == pytest.approx(math.pi / 3)
    # invariant vanishes for height-zero third point
    for z in (ONE, I, OMEGA, 2 - 3 * I):
        tp0 = cartan(INFINITY, ORIGIN, HPoint(z, 0))
        assert tp0.tan().is_zero()
        assert tp0.angle() == pytest.approx(0.0)


def test_cartan_standard_tetra_angles():
    p1 = HPoint(ZERO, 2 + SQRT3)
    p2 = HPoint(ZERO, -(2 + SQRT3))
    q1 = HPoint(OMEGA, 0)
    q2 = HPoint(ONE, 0)
    a = cartan(q1, q2, p2)
    assert a.tan() == SQRT3 and a.angle() == pytest.approx(math.pi / 3)
    b = cartan(p1, q2, p2)
    assert b.tan() == -SQRT3 and b.angle() == pytest.approx(-math.pi / 3)


def test_cartan_rejects_coincident():
    with pytest.raises(CoincidentPointsError):
        cartan(ORIGIN, ORIGIN, INFINITY)


def test_cartan_odd_permutation_conjugates(rng):
    for _ in range(30):
        p, q, r = distinct_hpoints(rng, 3)
        try:
            a = cartan(p, q, r)
            b = cartan(q, p, r)
        except GeometryError:
            continue
        assert b.eta == a.eta.conj()
        assert a.same_as(cartan(q, r, p))  # even permutation


def test_cartan_eta_rescaling_invariance(rng):
    # rescaling each lift multiplies eta by a positive real
    for _ in range(25):
        p, q, r = distinct_hpoints(rng, 3)
        lifts = [lift(x) for x in (p, q, r)]
        scales = []
        while len(scales) < 3:
            s = random_cyclo(rng, span=2, dens=(1,))
            if not s.is_zero():
                scales.append(s)
        scaled = [v.scale(s) for v, s in zip(lifts, scales)]
        def eta(vs):
            return -(herm(vs[0], vs[1]) * herm(vs[1], vs[2]) * herm(vs[2], vs[0]))
        e1 = eta(lifts)
        e2 = eta(scaled)
        if e1.is_zero():
            continue
        ratio = e2 / e1
        assert ratio.is_real() and ratio.sign() > 0


def test_cocycle_exact_points(rng):
    checked = 0
    while checked < 60:
        pts = distinct_hpoints(rng, 4)
        try:
            res = cocycle(*pts)
        except GeometryError:
            continue
        assert abs(res) < 1e-9
        checked += 1


def test_cocycle_float_points(rng):
    checked = 0
    while checked < 200:
        pts = [
            (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(-3, 3))
            for _ in range(4)
        ]
        try:
            res = cocycle(*pts)
        except GeometryError:
            continue
        assert abs(res) < 1e-9
        checked += 1


def test_cocycle_vanishing_invariants():
    # four points on the x-axis: every triple has invariant zero
    pts = [HPoint(k, 0) for k in (1, 2, 3, 4)]
    assert cocycle(*pts) == 0.0


def test_cocycle_standard_tetra():
    pts = [
        HPoint(ZERO, 2 + SQRT3),
        HPoint(ZERO, -(2 + SQRT3)),
        HPoint(OMEGA, 0),
        HPoint(ONE, 0),
    ]
    assert abs(cocycle(*pts)) < 1e-12


def test_chain_vertical():
    ch = chain_through(INFINITY, ORIGIN)
    assert ch.vertical
    assert ch.contains(HPoint(ZERO, 7))
    assert ch.contains(INFINITY)
    assert not ch.contains(HPoint(ONE, 0))
    assert signature(ch.polar) == 1
    # two stacked finite points give the same vertical line
    ch2 = chain_through(HPoint(I, 1), HPoint(I, -2))
    assert ch2.vertical and ch2.contains(INFINITY)


def test_chain_through_orthogonality(rng):
    built = 0
    while built < 40:
        p, q = distinct_hpoints(rng, 2)
        try:
            ch = chain_through(p, q)
        except GeometryError:
            continue
        assert herm(lift(p), ch.polar).is_zero()
        assert herm(lift(q), ch.polar).is_zero()
        assert signature(ch.polar) == 1
        built += 1
    with pytest.raises(CoincidentPointsError):
        chain_through(ORIGIN, ORIGIN)


def test_chain_example_one_i():
    ch = chain_through(HPoint(ONE, 0), HPoint(I, 0))
    # polar vector has the (ic + R^2 - |m|^2)/2, m, 1 shape with the
    # orthogonality equations satisfied
    for pt in (HPoint(ONE, 0), HPoint(I, 0),
               HPoint(-ONE, 0), HPoint(-I, 0)):
        assert ch.contains(pt)
    assert ch.center.is_zero()
    assert ch.r2 == ONE


def test_chain_example_pm_one():
    ch = chain_through(HPoint(ONE, 0), HPoint(-ONE, 0))
    assert herm(lift(HPoint(ONE, 0)), ch.polar).is_zero()
    assert herm(lift(HPoint(-ONE, 0)), ch.polar).is_zero()


def test_chain_point_unit_chain():
    ch = chain_through(HPoint(ONE, 0), HPoint(I, 0))
    assert chain_point(ch, 1) == HPoint(ONE, 0)
    assert chain_point(ch, -ONE) == HPoint(-ONE, 0)
    out = chain_point(ch, I)
    assert herm(lift(out), ch.polar).is_zero()


def _float_lift(z, t):
    return ((-abs(z) ** 2 + 1j * t) / 2, z, 1)


def _float_herm(u, v):
    return sum(u[k] * v[2 - k].conjugate() for k in range(3))


def test_chain_point_float_backend(rng):
    # every sample of the numpy arc sampler lies on the chain through its
    # endpoints: its lift is orthogonal to the polar vector, computed here
    # independently as the form-dual of the cross product of the end lifts
    from crlink.sampler import segment

    for _ in range(16):
        a, b = [
            (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(-3, 3))
            for _ in range(2)
        ]
        u, v = _float_lift(*a), _float_lift(*b)
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
        polar = tuple(c.conjugate() for c in reversed(cross))
        scale = max(abs(c) for c in polar)
        pts = segment(a, b, 16, 8.0, rng.choice((-1, 1)))
        assert abs(complex(*pts[0, :2]) - a[0]) < 1e-9 and abs(pts[-1, 2] - b[1]) < 1e-9
        for x, y, t in pts:
            lifted = _float_lift(complex(x, y), t)
            assert abs(_float_herm(lifted, polar)) / scale < 1e-9


def test_chain_point_errors():
    ch = chain_through(INFINITY, ORIGIN)
    with pytest.raises(GeometryError):
        chain_point(ch, ONE)
    finite = chain_through(HPoint(ONE, 0), HPoint(I, 0))
    with pytest.raises(GeometryError):
        chain_point(finite, 2 * ONE)  # not unit modulus


def test_inversion_examples():
    assert inversion_I(ORIGIN) == INFINITY
    assert inversion_I(INFINITY) == ORIGIN
    assert inversion_I(HPoint(ONE, 0)) == HPoint(ONE, 0)
    # direct substitution: (z,t) = (i, 1) -> (i/(1-i), -1/2)
    got = inversion_I(HPoint(I, 1))
    want_z = I / (ONE - I)
    assert got.z == want_z
    assert got.t == CycloNumber.from_rational(Fraction(-1, 2))


def test_iota_x():
    assert iota_x(HPoint(I, 1)) == HPoint(-I, -1)
    assert iota_x(INFINITY) == INFINITY


def test_involutions_random(rng):
    for _ in range(40):
        p = random_hpoint(rng)
        assert iota_x(iota_x(p)) == p
        if p == ORIGIN:
            continue
        assert inversion_I(inversion_I(p)) == p


def test_hpoint_json():
    assert hpoint_from_json("inf") == INFINITY
    p = hpoint_from_json({"z": "omega", "t": "2+sqrt3"})
    assert p == HPoint(OMEGA, 2 + SQRT3)
    with pytest.raises(GeometryError):
        hpoint_from_json({"x": 1})


def test_triple_product_right_angle_flag():
    # three points on the vertical axis chain sit at invariant +-pi/2
    tp = cartan(INFINITY, ORIGIN, HPoint(ZERO, 1))
    assert tp.is_right_angle()
    with pytest.raises(ChainInvariantError):
        tp.tan()
