"""Seeded inputs for the query-mix workload.

Pure Python with no crlink import: the program under test only ever sees the
JSON payloads built here.  Matrices are products of the golden generators,
computed with plain integer arithmetic over Z[i] (i^2 = -1) and Z[omega]
(omega^2 = omega - 1), so every classify input is form-unitary by
construction.  Points are Gaussian rationals with rational heights, so the
generator can decide exactly whether a triple lies on a chain and reject
degenerate tetrahedra before crlink sees them.

The gate can only check outcomes recorded at the reference commit, so a run
does not invent fresh queries: `catalogue()` builds a fixed pool from
CATALOGUE_SEED and `stream(seed)` draws the run's sequence from that pool.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

CATALOGUE_SEED = 20050316
# Seed kept out of every tuning run; quote claims on it (see README.md).
HELD_OUT_SEED = 7919

# A synthetic coverage mix, not measured user traffic: crlink has no usage
# data, and its documented examples are single small queries.  The shares
# and the shapes below are chosen to exercise each kind often enough to
# time it (word, with the widest range of shapes, most; glue, with two
# inputs, least).  run.py prints each kind's median latency beside the
# mixed figures, so a change can be judged per kind as well.
MIX = (("word", 40), ("classify", 15), ("cartan", 15), ("params", 20), ("glue", 10))
POOL_SIZES = {"word": 1600, "classify": 600, "cartan": 600, "params": 800}

_INPUTS = Path(__file__).resolve().parent / "inputs"
GLUE_FILES = ("glue_fig8.json", "glue_whitehead.json")

# ---------------------------------------------------------------------------
# Z[i] and Z[omega]: elements are pairs (a, b) meaning a + b*i or a + b*omega
# ---------------------------------------------------------------------------


def _mul(ring, x, y):
    a, b = x
    c, d = y
    if ring == "i":
        return (a * c - b * d, a * d + b * c)
    return (a * c - b * d, a * d + b * c + b * d)  # omega^2 = omega - 1


def _conj(ring, x):
    a, b = x
    return (a, -b) if ring == "i" else (a + b, -b)  # conj(omega) = 1 - omega


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def mat_mul(ring, m, n):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = (0, 0)
            for k in range(3):
                acc = _add(acc, _mul(ring, m[i][k], n[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_inverse(ring, m):
    """J M* J, the inverse of a form-unitary matrix with factor 1."""
    return [[_conj(ring, m[2 - j][2 - i]) for j in range(3)] for i in range(3)]


def _fmt(ring, x) -> str:
    a, b = x
    unit = "i" if ring == "i" else "omega"
    if b == 0:
        return str(a)
    tail = unit if abs(b) == 1 else f"{abs(b)}*{unit}"
    if a == 0:
        return tail if b > 0 else f"-{tail}"
    return f"{a}{'+' if b > 0 else '-'}{tail}"


def _golden():
    def zi(rows):
        return [[(v, 0) if isinstance(v, int) else v for v in row] for row in rows]

    w, wb = (0, 1), (1, -1)
    neg = lambda x: (-x[0], -x[1])  # noqa: E731
    fig8 = {
        "G1": zi([[1, w, neg(w)], [0, 1, neg(wb)], [0, 0, 1]]),
        "G2": zi([[1, 1, neg(w)], [-1, 0, neg(wb)], [neg(wb), w, 1]]),
        "G3": zi([[1, 1, neg(w)], [neg(w), wb, (-2, 1)], [neg(wb), 0, (1, 1)]]),
        "P": zi([[1, 1, neg(w)], [0, neg(w), w], [0, 0, 1]]),
        "Q": zi([[1, 1, neg(w)], [0, -1, 1], [0, 0, 1]]),
        "I": zi([[0, 0, 1], [0, -1, 0], [1, 0, 0]]),
    }
    whitehead = {
        "G1": zi([[1, 0, (0, -1)], [(-1, -1), 1, (-1, 1)], [(-1, -1), (1, -1), (0, 1)]]),
        "G2": zi([[1, (1, -1), (-1, 1)], [(-1, -1), -1, (1, -1)], [(-1, 1), (1, 1), (-1, -2)]]),
        "G3": zi([[(0, 1), (1, 1), (0, -1)], [(1, -1), (-1, -2), (0, 2)], [(-1, -1), (-3, 1), (3, 2)]]),
        "G4": zi([[(0, -1), 0, 0], [(-1, 1), -1, 0], [(-1, 1), (-1, 1), (0, -1)]]),
    }
    return {"omega": fig8, "i": whitehead}


GOLDEN = _golden()
WORD_LETTERS = {
    "fig8": ("G1", "G2", "G3", "P", "Q", "I"),
    "whitehead": ("G1", "G2", "G3", "G4"),
    "picard": ("P", "Q", "I"),
}

# ---------------------------------------------------------------------------
# Gaussian rationals for points: the Hermitian form and the chain test
# ---------------------------------------------------------------------------


def _lift(p):
    """Null lift ((-|z|^2 + i t)/2, z, 1), scaled by 2 d^2 to integers.

    A positive real scale multiplies eta by a positive real, so the chain
    test is unchanged."""
    if p == "inf":
        return ((1, 0), (0, 0), (0, 0))
    (re, im), t = p
    d = math.lcm(re.denominator, im.denominator, t.denominator)
    a, b = int(re * d), int(im * d)
    return ((-(a * a + b * b), int(t * d * d)), (2 * d * a, 2 * d * b), (2 * d * d, 0))


def _herm(u, v):
    acc = (0, 0)
    for a, b in zip(u, reversed(v)):
        acc = _add(acc, _mul("i", a, _conj("i", b)))
    return acc


def on_chain(p1, p2, p3) -> bool:
    """True iff the angular invariant of the triple is +-pi/2."""
    l1, l2, l3 = _lift(p1), _lift(p2), _lift(p3)
    eta = _mul("i", _mul("i", _herm(l1, l2), _herm(l2, l3)), _herm(l3, l1))
    return eta[0] == 0


def _rational(rng, span, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def _point(rng, inf_weight=0.0):
    if rng.random() < inf_weight:
        return "inf"
    return ((_rational(rng, 4), _rational(rng, 4)), _rational(rng, 6))


def _fmt_rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def point_json(p):
    if p == "inf":
        return "inf"
    (re, im), t = p
    z = _fmt_rat(re)
    if im:
        z += ("+" if im > 0 else "-") + f"{_fmt_rat(abs(im))}*i"
    return {"z": z, "t": _fmt_rat(t)}


# ---------------------------------------------------------------------------
# query kinds
# ---------------------------------------------------------------------------


def gen_word(rng):
    fixture = rng.choice(tuple(WORD_LETTERS))
    letters = WORD_LETTERS[fixture]
    tokens = []
    for _ in range(rng.randint(4, 32)):
        exp = rng.choice((1, 1, 1, -1, -1, 2, -2, 3))
        tokens.append([rng.choice(letters), exp])
    if rng.random() < 0.1:
        tok = rng.choice(tokens)
        tok[1] = rng.choice((1, -1)) * rng.randint(32, 128)
    word = " ".join(n if e == 1 else f"{n}^{e}" for n, e in tokens)
    return {"fixture": fixture, "word": word}


def gen_classify(rng):
    ring = rng.choice(("omega", "i"))
    gens = GOLDEN[ring]
    names = sorted(gens)
    ring_tag = "i" if ring == "i" else "w"
    m = None
    for _ in range(rng.randint(2, 6)):
        g = gens[rng.choice(names)]
        if rng.random() < 0.5:
            g = mat_inverse(ring_tag, g)
        m = g if m is None else mat_mul(ring_tag, m, g)
    cells = [[_fmt(ring_tag, x) for x in row] for row in m]
    return {"matrix": cells, "holo": True}


def _distinct_points(rng, count, inf_weight):
    pts = []
    while len(pts) < count:
        p = _point(rng, inf_weight)
        if p not in pts:
            pts.append(p)
    return pts


def gen_cartan(rng):
    return {"points": [point_json(p) for p in _distinct_points(rng, 3, 0.15)]}


def gen_params(rng):
    while True:
        pts = _distinct_points(rng, 4, 0.1)
        triples = [[p for k, p in enumerate(pts) if k != skip] for skip in range(4)]
        if not any(on_chain(*tr) for tr in triples):
            break
    return dict(zip(("p1", "p2", "q1", "q2"), (point_json(p) for p in pts)))


def glue_payloads():
    return [json.loads((_INPUTS / name).read_text()) for name in GLUE_FILES]


_GENERATORS = {"word": gen_word, "classify": gen_classify, "cartan": gen_cartan,
               "params": gen_params}


def catalogue(seed: int = CATALOGUE_SEED):
    """The query pool: {kind: [payload, ...]} in a fixed order."""
    rng = random.Random(seed)
    pool = {kind: [gen(rng) for _ in range(POOL_SIZES[kind])]
            for kind, gen in _GENERATORS.items()}
    pool["glue"] = glue_payloads()
    return pool


def catalogue_digest(pool) -> str:
    blob = json.dumps(pool, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def stream(seed: int, pool):
    """Endless (kind, index) sequence for one run.

    Kinds come in shuffled blocks that hold each kind in its exact MIX
    share, so runs with different seeds differ in which queries they draw,
    not in how many of each kind."""
    rng = random.Random(seed)
    step = math.gcd(*(w for _, w in MIX))
    block = [kind for kind, w in MIX for _ in range(w // step)]
    while True:
        rng.shuffle(block)
        for kind in block:
            yield kind, rng.randrange(len(pool[kind]))


def argv_for(kind: str, payload) -> list:
    inline = json.dumps(payload, separators=(",", ":"))
    return ["query", kind, "--inline", inline, "--json"]
