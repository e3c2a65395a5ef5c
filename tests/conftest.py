import random
from fractions import Fraction

import pytest

from crlink.scalars import CycloNumber, ONE
from crlink.heisenberg import HPoint


def random_cyclo(rng: random.Random, span: int = 2, dens=(1, 2)) -> CycloNumber:
    return CycloNumber(
        [Fraction(rng.randint(-span, span), rng.choice(dens)) for _ in range(8)]
    )


def random_rational(rng: random.Random, span: int = 6, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def random_complex_coord(rng: random.Random) -> CycloNumber:
    # small real/imaginary parts keep exact arithmetic fast
    from crlink.scalars import I

    return (
        CycloNumber.from_rational(random_rational(rng, 4))
        + I * CycloNumber.from_rational(random_rational(rng, 4))
    )


def random_hpoint(rng: random.Random) -> HPoint:
    z = random_complex_coord(rng)
    t = CycloNumber.from_rational(random_rational(rng))
    return HPoint(z, t)


def distinct_hpoints(rng: random.Random, count: int):
    pts = []
    while len(pts) < count:
        cand = random_hpoint(rng)
        if all(cand != p for p in pts):
            pts.append(cand)
    return pts


@pytest.fixture
def rng():
    return random.Random(20260809)
