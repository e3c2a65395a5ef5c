"""Acceptance suite: every criterion at its stated tolerance.

Exact criteria admit zero tolerance; the face-disjointness witness is a
numeric desk-scale check at its stated sampling density.  Each criterion
prints one PASS/FAIL line (run with -s to watch them)."""

import math
import random
import time
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
    cocycle,
)
from crlink.isometry import (
    Mat3,
    PARABOLIC,
    ProjIsometry,
    check_unitary,
    classify,
    eval_word,
    inversion,
    matrix_in_ring,
    translation_part,
)
from crlink.tetra import (
    DegenerateTetrahedronError,
    TetraParams,
    Tetrahedron,
    cartan_tangents,
    faces_disjoint,
    params_from_points,
    realize_special,
    realize_zts,
    ts_from_params,
)
from crlink.complexes import (
    figure_eight_scheme,
    regular_params,
    symmetric_gluing_solver,
)
from crlink.fixtures import (
    PICARD_WORDS_CORRECTED,
    PICARD_WORDS_PUBLISHED,
    build_figure_eight,
    build_whitehead,
    fig8_golden_matrices,
    picard_generators,
    whitehead_golden_matrices,
)

from conftest import distinct_hpoints


def report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number}: {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_figure_eight_golden_suite():
    fx = build_figure_eight()
    ok = True
    w, wb = OMEGA, OMEGA_BAR
    displayed = {
        "G1": Mat3([[1, w, -w], [0, 1, -wb], [0, 0, 1]]),
        "G2": Mat3([[1, 1, -w], [-1, 0, -wb], [-wb, w, 1]]),
        "G3": Mat3([[1, 1, -w], [-w, wb, -1 - wb], [-wb, 0, 1 + w]]),
    }
    for k, want in displayed.items():
        ok &= fx.golden[k] == want
        unitary, lam = check_unitary(fx.golden[k])
        ok &= unitary and lam == ONE
        ok &= fx.golden[k].det() == ONE
        ok &= matrix_in_ring(ProjIsometry(fx.golden[k]), "Z[omega]")
        ok &= fx.golden_scalars[k] is not None  # geometry reproduces the display
    report(1, "figure-eight golden suite (exact)", ok)


def test_criterion_2_classifications():
    fig8 = fig8_golden_matrices()
    wh = whitehead_golden_matrices()
    i = I
    ok = classify(ProjIsometry(fig8["G1"])).kind == PARABOLIC
    ok &= classify(ProjIsometry(fig8["G3"])).kind == PARABOLIC
    ok &= classify(ProjIsometry(fig8["G2"])).is_elliptic
    for k in ("G1", "G3"):
        ok &= classify(ProjIsometry(wh[k])).kind == "Loxodromic"
        ok &= wh[k].trace() == 2 + i
    for k in ("G2", "G4"):
        ok &= classify(ProjIsometry(wh[k])).is_elliptic
        ok &= wh[k].trace() == -1 - 2 * i
        ok &= (wh[k] ** 4).is_scalar() is not None
    report(2, "trace classifications (exact)", ok)


def test_criterion_3_cusp_holonomy():
    golden = fig8_golden_matrices()
    env = {k: ProjIsometry(golden[k]) for k in ("G1", "G2", "G3")}
    h1 = eval_word("G1^-1 G3 G1^-1 G2 G3^-1 G1 G3^-1", env)
    h2 = eval_word("G2^-1 G1", env)
    ok = h2.matrix == golden["H2"]
    # the displayed H1 is the unipotent representative of the word product;
    # the product itself carries the exact unit scalar exp(2 i pi / 3)
    lam = h1.matrix.scalar_ratio(golden["H1"])
    ok &= lam is not None and lam == OMEGA_BAR * OMEGA_BAR
    pivot = h1.matrix[2, 2]
    ok &= h1.matrix * pivot.inverse() == golden["H1"]
    ok &= classify(h1).kind == PARABOLIC and classify(h2).kind == PARABOLIC
    inv = inversion()
    ok &= (inv @ h2 @ inv).matrix == golden["G1"]
    h1h2sq = h1 @ h2 @ h2
    z0, t0 = translation_part(inv @ h1h2sq @ inv)
    ok &= z0.is_zero() and t0 == 4 * SQRT3
    z1, t1 = translation_part(inv @ h1 @ inv)
    ok &= (z1 * z1.conj()) == CycloNumber.from_rational(4) and t1 == 2 * SQRT3
    z2, t2 = translation_part(inv @ h2 @ inv)
    ok &= (z2 * z2.conj()) == ONE and t2 == SQRT3
    window = range(-5, 6)
    pa = {a: h1.matrix ** a for a in window}
    pb = {b: h2.matrix ** b for b in window}
    ok &= not any(
        (pa[a] * pb[b]).is_scalar() is not None
        for a in window
        for b in window
        if (a, b) != (0, 0)
    )
    report(3, "cusp holonomy, translations and faithfulness (exact)", ok)


def test_criterion_4_picard_word_identities():
    golden = fig8_golden_matrices()
    env = picard_generators()
    env_g = {**env, "G1": ProjIsometry(golden["G1"]), "G2": ProjIsometry(golden["G2"])}
    ok = eval_word(PICARD_WORDS_PUBLISHED["G1"], env).matrix == golden["G1"]
    h2w = eval_word(PICARD_WORDS_PUBLISHED["H2"], env)
    ok &= h2w.matrix == golden["H2"]
    h1w = eval_word(PICARD_WORDS_PUBLISHED["H1"], env)
    ok &= h1w.unit_scalar_to(ProjIsometry(golden["H1"], check=False)) is not None
    # the published G2 word line carries a conjugation typo: it evaluates to
    # G1^-1 G2 G1 exactly; the corrected identity holds exactly
    g2_pub = eval_word(PICARD_WORDS_PUBLISHED["G2"], env)
    ok &= g2_pub.unit_scalar_to(eval_word("G1^-1 G2 G1", env_g)) is not None
    ok &= eval_word(PICARD_WORDS_CORRECTED["G2"], env_g).matrix == golden["G2"]
    # the published conjugator word has one transposed factor; the corrected
    # word transports I H2 I onto G3 exactly
    a_fix = eval_word(PICARD_WORDS_CORRECTED["A"], env)
    g3 = a_fix @ env["I"] @ h2w @ env["I"] @ a_fix.inverse()
    ok &= g3.matrix == golden["G3"]
    ok &= eval_word("G2^-1 G1", env_g).matrix == (env["I"] @ env_g["G1"] @ env["I"]).matrix
    report(4, "eisenstein-picard word identities (unit scalars, exact)", ok)


def test_criterion_5_whitehead_suite():
    fx = build_whitehead()
    i = I
    displayed = {
        "G1": Mat3([[1, 0, -i], [-1 - i, 1, -1 + i], [-1 - i, 1 - i, i]]),
        "G2": Mat3([[1, 1 - i, -1 + i], [-1 - i, -1, 1 - i], [-1 + i, 1 + i, -1 - 2 * i]]),
        "G3": Mat3([[i, 1 + i, -i], [1 - i, -1 - 2 * i, 2 * i], [-1 - i, -3 + i, 3 + 2 * i]]),
        "G4": Mat3([[-i, 0, 0], [-1 + i, -1, 0], [-1 + i, -1 + i, -i]]),
    }
    ok = True
    for k, want in displayed.items():
        ok &= fx.golden[k] == want
        ok &= matrix_in_ring(ProjIsometry(fx.golden[k]), "Z[i]")
        ok &= fx.golden_scalars[k] is not None
    env = fx.rep.env()
    h1 = eval_word("G3^-1 G1^-1", env)
    h1p = eval_word("G3 G1^-2 G3", env)
    ok &= h1.matrix == fx.golden["H1"]
    ok &= h1p.matrix == fx.golden["H1'"]
    ok &= h1.matrix.trace() == -ONE
    ok &= h1p.matrix.trace() == 3 * ONE
    for g in (h1, h1p):
        cls = classify(g)
        ok &= cls.kind == PARABOLIC and cls.discriminant.is_zero()
    report(5, "whitehead suite (exact, Z[i])", ok)


def test_criterion_6_parameter_formulas():
    i = I
    std = Tetrahedron(
        HPoint(ZERO, 2 + SQRT3),
        HPoint(ZERO, -(2 + SQRT3)),
        HPoint(OMEGA, 0),
        HPoint(ONE, 0),
    )
    params = params_from_points(std)
    ok = params.z1 == OMEGA_BAR and params.z1t == OMEGA_BAR
    wh = Tetrahedron(
        HPoint(ZERO, 1 + SQRT2),
        HPoint(ZERO, -(1 + SQRT2)),
        HPoint(ONE, 0),
        HPoint(i, 0),
    )
    pwh = params_from_points(wh)
    ok &= pwh.z1 == i and pwh.z1t == i
    h = 2 + SQRT3
    ok &= ((h + i) ** 2) / ((h - i) ** 2) == OMEGA_BAR
    h = 1 + SQRT2
    ok &= ((h + i) ** 2) / ((h - i) ** 2) == i
    report(6, "special-tetrahedron parameter formulas (exact)", ok)


def test_criterion_7_gluing_equations():
    scheme = figure_eight_scheme()
    eqs = scheme.edge_equations()
    ok = [eq.raw_form() for eq in eqs] == [
        "z1 w1 z~2' w3 z2 w~1",
        "z1' w1' z2' w~3' z~2 w~1'",
        "z3 w~3 z~3 w~2' z~1 w~2",
        "z~3' w3' z3' w2' z~1' w2",
    ]
    ok &= [eq.simplified for eq in eqs] == [
        "(z2-1) z~2' (w1-1) w~1",
        "(z2'-1) z~2 (w~1'-1) w1'",
        "(z~1-1) z3 (w~3-1) w~2'",
        "(z~1'-1) z3' (w3'-1) w2",
    ]
    params = regular_params(OMEGA_BAR)
    evaluated = scheme.edge_equations({"T": params, "U": params})
    ok &= all(eq.holds() for eq in evaluated)
    sol = symmetric_gluing_solver()
    ok &= sol["survivors"] == [OMEGA_BAR] and sol["unique"] == OMEGA_BAR
    report(7, "gluing equations and symmetric solver (exact)", ok)


def _random_zts(rng):
    while True:
        z = (
            CycloNumber.from_rational(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            + I * CycloNumber.from_rational(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        )
        if z.is_zero() or z == ONE or z.is_real():
            continue
        t = CycloNumber.from_rational(Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
        s = CycloNumber.from_rational(Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
        return z, t, s


def test_criterion_8_property_suites():
    rng = random.Random(240809)
    cases = 1000

    # cocycle residue below 1e-9 on random float four-tuples
    done = 0
    ok_cocycle = True
    while done < cases:
        pts = [
            (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(-3, 3))
            for _ in range(4)
        ]
        try:
            res = cocycle(*pts)
        except GeometryError:
            continue
        ok_cocycle &= abs(res) < 1e-9
        done += 1
    report(8, f"cocycle residue < 1e-9 ({cases} float cases)", ok_cocycle)

    # tangent formulas against the direct invariant, exactly
    done = 0
    ok_tan = True
    while done < cases:
        z, t, s = _random_zts(rng)
        try:
            tans = cartan_tangents(z, t, s)
            tet = realize_zts(z, t, s)
        except (ChainInvariantError, DegenerateTetrahedronError, GeometryError):
            continue
        pts = tet.points
        triples = [
            (pts["p1"], pts["p2"], pts["q1"]),
            (pts["p1"], pts["q1"], pts["q2"]),
            (pts["p1"], pts["p2"], pts["q2"]),
            (pts["p2"], pts["q1"], pts["q2"]),
        ]
        for formula, triple in zip(tans, triples):
            ok_tan &= cartan(*triple).tan() == formula
        done += 1
    report(8, f"tangent formulas match direct invariants ({cases} exact cases)", ok_tan)

    # parameter round-trip, exactly
    done = 0
    ok_rt = True
    while done < cases:
        z, t, s = _random_zts(rng)
        try:
            p = TetraParams.from_zts(z, t, s)
            tt, ss = ts_from_params(p.z1, p.z1p, p.z1t, p.z1tp)
        except (DegenerateTetrahedronError, ZeroDivisionError):
            continue
        ok_rt &= tt == t and ss == s
        done += 1
    report(8, f"height round-trip ({cases} exact cases)", ok_rt)

    # invariant equality preserved by holomorphic maps, reversed by
    # anti-holomorphic maps, exactly
    fig8 = fig8_golden_matrices()
    gens = [ProjIsometry(fig8[k]) for k in ("G1", "G2", "G3")]
    from crlink.isometry import coordinate_conjugation

    conj = coordinate_conjugation()
    done = 0
    ok_eta = True
    while done < cases:
        pts = distinct_hpoints(rng, 3)
        g = gens[rng.randrange(3)]
        if rng.random() < 0.5:
            g = g @ gens[rng.randrange(3)].inverse()
        anti = conj @ g
        try:
            before = cartan(*pts)
            after = cartan(*(g.act(p) for p in pts))
            flipped = cartan(*(anti.act(p) for p in pts))
        except GeometryError:
            continue
        ok_eta &= before.same_as(after)
        ok_eta &= before.opposite_of(flipped)
        done += 1
    report(8, f"invariant transport under (anti-)holomorphic maps ({cases} exact cases)", ok_eta)

    # symmetric tetrahedra satisfy |z1| = |z~1| exactly
    done = 0
    ok_mod = True
    while done < cases:
        z, t, _ = _random_zts(rng)
        try:
            p = TetraParams.from_zts(z, t, t)
        except DegenerateTetrahedronError:
            continue
        ok_mod &= (p.z1 * p.z1.conj()) == (p.z1t * p.z1t.conj())
        done += 1
    report(8, f"symmetric modulus identity ({cases} exact cases)", ok_mod)


def test_criterion_9_face_disjointness():
    std = realize_special(OMEGA, 2 + SQRT3)
    wh = realize_special(I, 1 + SQRT2)
    ok = True
    for name, tet in (("standard", std), ("whitehead", wh)):
        t0 = time.time()
        rep = faces_disjoint(tet, 64, 1e-3)
        elapsed = time.time() - t0
        ok &= rep.passed and rep.min_distance > 1e-3 and elapsed < 5.0
    report(9, "face disjointness witness (n=64, tol=1e-3, <5s each)", ok)
