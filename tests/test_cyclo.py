import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceguard.cyclo import (
    Cyclo,
    RootOfUnity,
    certified_sign,
    cyclotomic_poly,
    euler_phi,
    normalize_root,
)


def test_normalize_root_examples():
    assert normalize_root(2, 6).frac == Fraction(1, 3)
    assert normalize_root(0, 5).frac == Fraction(0, 1)
    assert normalize_root(9, 6).frac == Fraction(1, 2)


def test_root_multiplication_is_fraction_addition():
    a = normalize_root(1, 3)
    b = normalize_root(1, 2)
    assert (a * b).frac == Fraction(5, 6)
    assert (a * a * a).frac == 0
    assert a.inverse().frac == Fraction(2, 3)
    assert (a**-2) == a


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic_poly(35)) == euler_phi(35) + 1


def _numeric(c: Cyclo) -> complex:
    return c.complex()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12, 30])
def test_root_embedding_matches_numeric(n):
    for k in range(n):
        z = normalize_root(k, n).as_cyclo()
        expect = complex(mpmath.exp(2j * mpmath.pi * k / n))
        assert abs(_numeric(z) - expect) < 1e-9


def _random_cyclo(rng, n):
    phi = euler_phi(n)
    num = [rng.randrange(-6, 7) for _ in range(phi)]
    den = rng.randrange(1, 5)
    return Cyclo(n, num, den)


def test_ring_axioms_randomized():
    import random

    rng = random.Random(20240317)
    for _ in range(120):
        n = rng.choice([1, 2, 3, 4, 5, 6, 7, 12])
        m = rng.choice([1, 2, 3, 4, 5, 6, 7, 12])
        a = _random_cyclo(rng, n)
        b = _random_cyclo(rng, m)
        c = _random_cyclo(rng, rng.choice([n, m]))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a - a == Cyclo.zero()


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_rational_subfield(a, b, n):
    x = Cyclo.from_fraction(Fraction(a, 3))._lift(n)
    y = Cyclo.from_fraction(Fraction(b, 7))._lift(n)
    assert (x * y).to_fraction() == Fraction(a, 3) * Fraction(b, 7)
    assert (x + y).to_fraction() == Fraction(a, 3) + Fraction(b, 7)


def test_inverse():
    z = normalize_root(1, 7).as_cyclo()
    x = z * 3 + z * z - Cyclo.from_fraction(Fraction(5, 2))
    assert x * x.inverse() == Cyclo.one()
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero().inverse()


def test_cross_conductor_equality():
    z6sq = normalize_root(2, 6).as_cyclo()
    z3 = normalize_root(1, 3).as_cyclo()
    assert z6sq == z3
    assert normalize_root(3, 6).as_cyclo() == Cyclo.from_fraction(-1)


def test_hash_agrees_with_equality_across_conductors():
    z3 = normalize_root(1, 3).as_cyclo()
    lifted = z3._lift(6)
    minus_one = normalize_root(1, 2).as_cyclo()
    detour = z3 * minus_one * minus_one  # comes out at conductor 6
    assert lifted.n == detour.n == 6
    for other in (lifted, detour):
        assert other == z3 and hash(other) == hash(z3)
        assert len({z3, other}) == 1
    assert hash(Cyclo.from_fraction(Fraction(3, 4))._lift(10)) == hash(Fraction(3, 4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 6, 8, 12]), st.integers(2, 4),
       st.lists(st.integers(-5, 5), min_size=1, max_size=12))
def test_hash_survives_lifting(n, k, coeffs):
    x = Cyclo(n, (coeffs + [0] * euler_phi(n))[: euler_phi(n)], 1)
    assert hash(x._lift(n * k)) == hash(x)


def test_certified_sign():
    z = normalize_root(1, 5).as_cyclo()
    # 2*cos(2*pi/5) = z + z^-1 > 0
    assert certified_sign(z + z**-1) == 1
    # 2*cos(4*pi/5) < 0
    z2 = z * z
    assert certified_sign(z2 + z2**-1) == -1
    total = Cyclo.zero()
    for k in range(5):
        total = total + z**k
    assert certified_sign(total) == 0
    with pytest.raises(ValueError):
        certified_sign(z)  # not real


def test_rendering():
    z = normalize_root(1, 5).as_cyclo()
    x = z * Fraction(1, 2) + 2
    assert str(x) == "2 + 1/2*z5"
