import math
import random
from fractions import Fraction

import pytest

from crlink.scalars import (
    CycloNumber,
    I,
    OMEGA,
    OMEGA_BAR,
    ONE,
    SQRT2,
    SQRT3,
    ZERO,
)
from crlink.heisenberg import (
    ChainInvariantError,
    GeometryError,
    HPoint,
    INFINITY,
    cartan,
)
from crlink.isometry import heisenberg_translation
from crlink.tetra import (
    DegenerateTetrahedronError,
    FACES,
    TetraParams,
    Tetrahedron,
    cartan_tangents,
    face_sample,
    faces_disjoint,
    is_regular,
    is_symmetric,
    params_from_points,
    realize_special,
    realize_zts,
    special_symmetric,
    symmetry_map,
    ts_from_params,
)

from conftest import random_rational


def standard_tetrahedron() -> Tetrahedron:
    return Tetrahedron(
        HPoint(ZERO, 2 + SQRT3),
        HPoint(ZERO, -(2 + SQRT3)),
        HPoint(OMEGA, 0),
        HPoint(ONE, 0),
    )


def whitehead_tetrahedron() -> Tetrahedron:
    return Tetrahedron(
        HPoint(ZERO, 1 + SQRT2),
        HPoint(ZERO, -(1 + SQRT2)),
        HPoint(ONE, 0),
        HPoint(I, 0),
    )


def random_zts(rng, symmetric=False):
    """A non-degenerate (z, t, s) triple for the normalized tetrahedron."""
    while True:
        z = (
            CycloNumber.from_rational(random_rational(rng, 3))
            + I * CycloNumber.from_rational(random_rational(rng, 3))
        )
        if z.is_zero() or z == ONE or z.is_real():
            continue
        t = CycloNumber.from_rational(random_rational(rng, 4))
        s = t if symmetric else CycloNumber.from_rational(random_rational(rng, 4))
        try:
            realize_zts(z, t, s)
        except (DegenerateTetrahedronError, GeometryError):
            continue
        return z, t, s


def test_params_standard_tetrahedron():
    params = params_from_points(standard_tetrahedron())
    assert params.z1 == OMEGA_BAR
    assert params.z1t == OMEGA_BAR
    assert params.t == SQRT3 and params.s == SQRT3


def test_params_whitehead_tetrahedron():
    params = params_from_points(whitehead_tetrahedron())
    assert params.z1 == I and params.z1t == I
    assert params.t == ONE and params.s == ONE


def test_params_symmetric_relations(rng):
    for _ in range(15):
        z, t, s = random_zts(rng, symmetric=True)
        p = TetraParams.from_zts(z, t, s)
        zz = z * z.conj()
        assert p.z1p == z / zz
        ztt = p.z1t * p.z1t.conj()
        if not ztt.is_zero():
            assert p.z1tp == p.z1t / ztt


def test_params_tilde_relations(rng):
    # alternate closed forms for the tilde family members; the second one
    # carries (1 - z') in the numerator, forced by consistency with the
    # symmetric relation z~1' = z~1/|z~1|^2 and the height round-trip
    i = I
    for _ in range(15):
        z, t, s = random_zts(rng)
        p = TetraParams.from_zts(z, t, s)
        zt_alt = z * (p.z1p - ONE) * (t + i) / (p.z1p * (z - ONE) * (t - i))
        ztp_alt = (ONE - p.z1p) * (i + s) / ((z - ONE) * (i - s))
        assert p.z1t == zt_alt
        assert p.z1tp == ztp_alt


def test_params_invariant_under_translation(rng):
    base = standard_tetrahedron()
    want = params_from_points(base)
    for _ in range(5):
        mover = heisenberg_translation(
            HPoint(
                CycloNumber.from_rational(random_rational(rng, 2)),
                CycloNumber.from_rational(random_rational(rng, 2)),
            )
        )
        moved = Tetrahedron(*(mover.act(base[r]) for r in ("p1", "p2", "q1", "q2")))
        got = params_from_points(moved)
        assert got.z1 == want.z1 and got.t == want.t and got.s == want.s


def test_params_degenerate_rejected():
    with pytest.raises(DegenerateTetrahedronError):
        TetraParams.from_zts(ZERO, ONE, ONE)
    with pytest.raises(DegenerateTetrahedronError):
        TetraParams.from_zts(ONE, ONE, ONE)


def test_ts_round_trip_random(rng):
    for _ in range(40):
        z, t, s = random_zts(rng)
        p = TetraParams.from_zts(z, t, s)
        tt, ss = ts_from_params(p.z1, p.z1p, p.z1t, p.z1tp)
        assert tt == t and ss == s


def test_ts_round_trip_fixtures():
    p = params_from_points(standard_tetrahedron())
    assert ts_from_params(p.z1, p.z1p, p.z1t, p.z1tp) == (SQRT3, SQRT3)
    p = params_from_points(whitehead_tetrahedron())
    assert ts_from_params(p.z1, p.z1p, p.z1t, p.z1tp) == (ONE, ONE)


def test_is_symmetric():
    assert is_symmetric(standard_tetrahedron())
    assert is_symmetric(whitehead_tetrahedron())
    asym = realize_zts(2 * I, ONE, 2 * ONE)
    assert not is_symmetric(asym)


def test_symmetry_map_swaps_pairs():
    tet = standard_tetrahedron()
    g = symmetry_map(tet)
    assert not g.holo
    assert g.act(tet["p1"]) == tet["p2"]
    assert g.act(tet["p2"]) == tet["p1"]
    assert g.act(tet["q1"]) == tet["q2"]
    assert g.act(tet["q2"]) == tet["q1"]
    assert (g @ g).is_identity_class()


def test_symmetry_map_random(rng):
    for _ in range(10):
        z, t, s = random_zts(rng, symmetric=True)
        tet = realize_zts(z, t, s)
        g = symmetry_map(tet)
        assert g.act(tet["p1"]) == tet["p2"]
        assert g.act(tet["q1"]) == tet["q2"]
        assert (g @ g).is_identity_class()


def test_symmetry_map_rejects_asymmetric():
    with pytest.raises(DegenerateTetrahedronError):
        symmetry_map(realize_zts(2 * I, ONE, 2 * ONE))


def test_is_regular():
    assert is_regular(standard_tetrahedron())
    assert is_regular(whitehead_tetrahedron())
    # symmetric but not regular: z = 2i, t = 1 (Im z / (1 - Re z) = 2 != 1)
    assert not is_regular(realize_zts(2 * I, ONE, ONE))
    with pytest.raises(DegenerateTetrahedronError):
        is_regular(realize_zts(ONE + 2 * I, ONE, ONE))  # Re z = 1


def test_special_symmetric_values():
    sp = special_symmetric(OMEGA, 2 + SQRT3)
    assert sp.z1t == OMEGA_BAR
    assert sp.t == SQRT3 and sp.s == SQRT3
    sp2 = special_symmetric(I, 1 + SQRT2)
    assert sp2.z1t == I
    assert sp2.t == ONE
    sp3 = special_symmetric(OMEGA, ONE)
    assert sp3.z1t == -ONE


def test_special_symmetric_identities():
    i = I
    h = 2 + SQRT3
    assert ((h + i) ** 2) / ((h - i) ** 2) == OMEGA_BAR
    h = 1 + SQRT2
    assert ((h + i) ** 2) / ((h - i) ** 2) == I


def test_special_symmetric_consistency_with_points():
    sp = special_symmetric(OMEGA, 2 + SQRT3)
    got = params_from_points(realize_special(OMEGA, 2 + SQRT3))
    assert (sp.z1, sp.z1p, sp.z1t, sp.z1tp, sp.t, sp.s) == (
        got.z1, got.z1p, got.z1t, got.z1tp, got.t, got.s,
    )


def test_special_symmetric_input_checks():
    with pytest.raises(DegenerateTetrahedronError):
        special_symmetric(2 * ONE, ONE)  # |u| != 1
    with pytest.raises(DegenerateTetrahedronError):
        special_symmetric(I, -ONE)  # height <= 0


def test_cartan_tangents_components():
    z = OMEGA_BAR
    tans = cartan_tangents(z, SQRT3, SQRT3)
    assert all(x == SQRT3 for x in tans)
    # third component is s for arbitrary s
    tans = cartan_tangents(2 * I, ONE, 5 * ONE)
    assert tans[0] == ONE and tans[2] == 5 * ONE


def test_cartan_tangents_match_direct(rng):
    done = 0
    while done < 30:
        z, t, s = random_zts(rng)
        try:
            tans = cartan_tangents(z, t, s)
        except (ChainInvariantError, DegenerateTetrahedronError):
            continue
        tet = realize_zts(z, t, s)
        pts = tet.points
        triples = [
            (pts["p1"], pts["p2"], pts["q1"]),
            (pts["p1"], pts["q1"], pts["q2"]),
            (pts["p1"], pts["p2"], pts["q2"]),
            (pts["p2"], pts["q1"], pts["q2"]),
        ]
        for formula, triple in zip(tans, triples):
            assert cartan(*triple).tan() == formula
        done += 1


def test_cartan_tangents_right_angle_flag():
    # (s - i) z + i - t = 0 puts the fourth triple on a chain
    t, s = ONE, ZERO
    z = (t - I) / (s - I)
    with pytest.raises(ChainInvariantError):
        cartan_tangents(z, t, s)


def test_symmetric_modulus_property(rng):
    for _ in range(25):
        z, t, s = random_zts(rng, symmetric=True)
        p = TetraParams.from_zts(z, t, s)
        assert (p.z1 * p.z1.conj()) == (p.z1t * p.z1t.conj())


def test_tetrahedron_validation():
    with pytest.raises(DegenerateTetrahedronError):
        Tetrahedron(
            HPoint(0, 0), HPoint(0, 0),
            HPoint(1, 0), HPoint(I, 0),
        )
    with pytest.raises(DegenerateTetrahedronError):
        # p1, p2, q1 on the vertical axis chain
        Tetrahedron(
            HPoint(ZERO, 1), HPoint(ZERO, -1),
            HPoint(ZERO, 2), HPoint(ONE, 0),
        )


def test_face_sample_counts_and_residuals():
    tet = standard_tetrahedron()
    fs = face_sample(tet, "p1", ("q1", "q2"), 64)
    assert len(fs.polylines) == 64
    assert fs.max_residual < 1e-9
    single = face_sample(tet, "p1", ("q1", "q2"), 1)
    assert len(single.polylines) == 1
    with pytest.raises(GeometryError):
        face_sample(tet, "q1", ("p1", "p2"), 8)


def test_face_sample_normalized_tetra_vertical_rays():
    tet = realize_zts(OMEGA_BAR, SQRT3, SQRT3)  # p1 at infinity
    fs = face_sample(tet, "p1", ("q1", "q2"), 8, span=4.0)
    # rays from infinity are vertical: constant projection, increasing height
    for pl in fs.polylines:
        assert abs(pl[0, 0] - pl[-1, 0]) < 1e-12
        assert abs(pl[0, 1] - pl[-1, 1]) < 1e-12
        assert pl[0, 2] > pl[-1, 2]  # sampled top-down toward the base point


def test_faces_disjoint_fixtures():
    rep = faces_disjoint(standard_tetrahedron(), 32, 1e-3)
    assert rep.passed and rep.min_distance > 1e-3
    rep2 = faces_disjoint(whitehead_tetrahedron(), 32, 1e-3)
    assert rep2.passed and rep2.min_distance > 1e-3


def test_faces_disjoint_no_exclusion_hits_zero():
    rep = faces_disjoint(standard_tetrahedron(), 24, 1e-3, exclusion=0.0)
    assert not rep.passed
    assert rep.min_distance < 1e-9  # shared edges coincide exactly


def test_faces_disjoint_input_check():
    with pytest.raises(ValueError):
        faces_disjoint(standard_tetrahedron(), 8, 1e-3)
