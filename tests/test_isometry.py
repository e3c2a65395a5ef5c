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
from crlink.heisenberg import HPoint, INFINITY, cartan, iota_x, lift, herm
from crlink.isometry import (
    CartanMismatchError,
    ClassificationError,
    FORM_J,
    Mat3,
    NotUnitaryError,
    PARABOLIC,
    ProjIsometry,
    WordError,
    check_unitary,
    classify,
    coordinate_conjugation,
    dilation_rotation,
    eval_word,
    from_triples,
    heisenberg_translation,
    inversion,
    matrix_in_ring,
    normalizer,
    translation_part,
)
from crlink.fixtures import fig8_golden_matrices, whitehead_golden_matrices

from conftest import distinct_hpoints, random_hpoint


ORIGIN = HPoint(0, 0)
FIG8 = fig8_golden_matrices()
WH = whitehead_golden_matrices()


def test_check_unitary_examples():
    ok, lam = check_unitary(FIG8["G1"])
    assert ok and lam == ONE
    ok, lam = check_unitary(Mat3.identity())
    assert ok and lam == ONE
    ok, witness = check_unitary(Mat3.diagonal(2, 1, 1))
    assert not ok
    with pytest.raises(NotUnitaryError):
        check_unitary(Mat3([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))


def test_form_scaled_unitaries_accepted():
    # any positive multiple of J is fine; the factor is reported
    g = ProjIsometry(Mat3.diagonal(4, 2, 1))
    assert check_unitary(g.matrix) == (True, CycloNumber.from_rational(4))


def test_act_identity_and_translation(rng):
    ident = ProjIsometry.identity()
    for _ in range(20):
        p = random_hpoint(rng)
        assert ident.act(p) == p
    tr = heisenberg_translation(HPoint(OMEGA, SQRT3))
    assert tr.act(ORIGIN) == HPoint(OMEGA, SQRT3)
    assert tr.act(INFINITY) == INFINITY


def test_h2_fixes_origin():
    h2 = ProjIsometry(FIG8["H2"], check=False)
    assert h2.act(ORIGIN) == ORIGIN


def test_act_is_group_action(rng):
    gens = [ProjIsometry(FIG8[k]) for k in ("G1", "G2", "G3")]
    for _ in range(25):
        g = gens[rng.randrange(3)] @ gens[rng.randrange(3)].inverse()
        h = gens[rng.randrange(3)]
        p = random_hpoint(rng)
        assert (g @ h).act(p) == g.act(h.act(p))


def test_act_output_lift_is_null(rng):
    g = ProjIsometry(WH["G1"]) @ ProjIsometry(WH["G2"])
    for _ in range(20):
        p = random_hpoint(rng)
        q = g.act(p)
        assert herm(lift(q), lift(q)).is_zero()


def test_holomorphic_action_preserves_eta(rng):
    gens = [ProjIsometry(FIG8[k]) for k in ("G1", "G2", "G3")]
    done = 0
    while done < 25:
        g = gens[rng.randrange(3)] @ gens[rng.randrange(3)]
        pts = distinct_hpoints(rng, 3)
        try:
            before = cartan(*pts)
            after = cartan(*(g.act(p) for p in pts))
        except Exception:
            continue
        assert before.same_as(after)
        done += 1


def test_antiholomorphic_action_reverses_eta(rng):
    conj = coordinate_conjugation()
    done = 0
    while done < 25:
        pts = distinct_hpoints(rng, 3)
        try:
            before = cartan(*pts)
            after = cartan(*(conj.act(p) for p in pts))
        except Exception:
            continue
        assert before.opposite_of(after)
        assert [conj.act(p) for p in pts] == [iota_x(p) for p in pts]
        done += 1


def test_classification_fixtures():
    assert classify(ProjIsometry(FIG8["G1"])).kind == PARABOLIC
    assert classify(ProjIsometry(FIG8["G3"])).kind == PARABOLIC
    g2 = classify(ProjIsometry(FIG8["G2"]))
    assert g2.is_elliptic
    assert classify(ProjIsometry(WH["G1"])).kind == "Loxodromic"
    wg2 = classify(ProjIsometry(WH["G2"]))
    assert wg2.kind == "SpecialElliptic" and wg2.elliptic_order == 4
    assert (WH["G2"] ** 4).is_scalar() is not None
    h1 = ProjIsometry(WH["H1"], check=False)
    assert h1.matrix.trace() == -ONE
    cls = classify(h1)
    assert cls.kind == PARABOLIC and cls.discriminant.is_zero()


def test_classify_identity_and_scalars():
    assert classify(ProjIsometry.identity()).kind == "Identity"
    scaled = ProjIsometry(Mat3.diagonal(OMEGA, OMEGA, OMEGA), check=False)
    assert classify(scaled).kind == "Identity"


def test_classify_scale_and_conjugation_invariant():
    base = ProjIsometry(WH["G1"])
    scaled = ProjIsometry(base.matrix * I, check=False)
    assert classify(scaled).kind == classify(base).kind
    conj = ProjIsometry(FIG8["G2"])
    moved = conj @ base @ conj.inverse()
    assert classify(moved).kind == classify(base).kind


def test_classify_rejects_antiholomorphic():
    with pytest.raises(ClassificationError):
        classify(coordinate_conjugation())


def test_normalizer_contract(rng):
    done = 0
    while done < 20:
        pts = distinct_hpoints(rng, 3)
        try:
            n = normalizer(*pts)
        except Exception:
            continue
        assert n.act(pts[0]) == INFINITY
        assert n.act(pts[1]) == ORIGIN
        img = n.act(pts[2])
        assert img.z == ONE
        done += 1


def test_from_triples_identity_and_roundtrip(rng):
    gens = [ProjIsometry(FIG8[k]) for k in ("G1", "G2", "G3")]
    done = 0
    while done < 10:
        src = distinct_hpoints(rng, 3)
        mover = gens[rng.randrange(3)] @ gens[rng.randrange(3)].inverse()
        dst = [mover.act(p) for p in src]
        try:
            same = from_triples(src, src)
            g = from_triples(src, dst)
        except CartanMismatchError:
            continue  # triple on a chain
        assert same.is_identity_class()
        for s, d in zip(src, dst):
            assert g.act(s) == d
        assert g.same_class(mover)
        back = from_triples(dst, src)
        assert (back @ g).is_identity_class()
        done += 1


def test_from_triples_gamma_fixture():
    p1 = HPoint(ZERO, 2 + SQRT3)
    q1 = HPoint(OMEGA, 0)
    q2 = HPoint(ONE, 0)
    gamma = from_triples(
        (INFINITY, ORIGIN, HPoint(ONE, -SQRT3)), (p1, q2, q1)
    )
    assert gamma.holo
    assert gamma.act(INFINITY) == p1
    assert gamma.act(ORIGIN) == q2


def test_from_triples_antiholomorphic():
    src = (INFINITY, ORIGIN, HPoint(ONE, SQRT3))
    dst = (INFINITY, ORIGIN, HPoint(ONE, -SQRT3))
    g = from_triples(src, dst)
    assert not g.holo
    for s, d in zip(src, dst):
        assert g.act(s) == d


def test_from_triples_mismatch():
    src = (INFINITY, ORIGIN, HPoint(ONE, SQRT3))   # invariant pi/3
    dst = (INFINITY, ORIGIN, HPoint(ONE, ONE))     # invariant pi/4
    with pytest.raises(CartanMismatchError):
        from_triples(src, dst)


def test_from_triples_chain_triple_rejected():
    src = (INFINITY, ORIGIN, HPoint(ZERO, 1))
    with pytest.raises(CartanMismatchError):
        from_triples(src, src[::-1])


def test_translation_part():
    assert translation_part(ProjIsometry.identity()) == (ZERO, ZERO)
    tr = heisenberg_translation(HPoint(-OMEGA_BAR, SQRT3))
    z0, t0 = translation_part(tr)
    assert z0 == -OMEGA_BAR and t0 == SQRT3
    inv = inversion()
    h2 = ProjIsometry(FIG8["H2"], check=False)
    z0, t0 = translation_part(inv @ h2 @ inv)
    assert z0 * z0.conj() == ONE and t0 == SQRT3
    with pytest.raises(ClassificationError):
        translation_part(dilation_rotation(CycloNumber.from_rational(2)))
    with pytest.raises(ClassificationError):
        translation_part(h2)  # fixes 0, not infinity


def test_eval_word():
    env = {"G1": ProjIsometry(FIG8["G1"]), "G2": ProjIsometry(FIG8["G2"])}
    assert eval_word("", env).is_identity_class()
    h2 = eval_word("G2^-1 G1", env)
    assert h2.matrix == FIG8["H2"]
    inv = inversion()
    assert eval_word("I I", {"I": inv}).is_identity_class()
    with pytest.raises(WordError):
        eval_word("G1 X", env)
    with pytest.raises(WordError):
        eval_word("G1^x", env)


def test_matrix_in_ring():
    for k in ("G1", "G2", "G3"):
        assert matrix_in_ring(ProjIsometry(FIG8[k]), "Z[omega]")
    for k in ("G1", "G2", "G3", "G4"):
        assert matrix_in_ring(ProjIsometry(WH[k]), "Z[i]")
    stretched = dilation_rotation(SQRT3)
    assert not matrix_in_ring(stretched, "Z[omega]")
    assert not matrix_in_ring(stretched, "Z[i]")


def test_unit_scalar_comparison():
    g = ProjIsometry(FIG8["G1"])
    scaled = ProjIsometry(g.matrix * OMEGA, check=False)
    assert scaled.unit_scalar_to(g) == OMEGA
    stretched = ProjIsometry(g.matrix * 2, check=False)
    assert stretched.unit_scalar_to(g) is None
    assert stretched.same_class(g)


def test_anti_holo_composition_flags():
    conj = coordinate_conjugation()
    inv = inversion()
    assert not (conj @ inv).holo
    assert (conj @ conj).holo
    assert (conj @ conj).is_identity_class()
    g = conj @ inv
    assert (g @ g.inverse()).is_identity_class()
