import random
from fractions import Fraction

import mpmath
import pytest

from sliceguard.cyclo import Cyclo, RootOfUnity, normalize_root
from sliceguard.laurent import (
    LaurentPoly,
    RationalFn,
    RootExtractionError,
    unit_circle_roots,
)

from oracles import exact_div, numeric, poly_gcd, reduced_fraction, substitute


def P(*coeffs, low=0):
    return LaurentPoly.from_ints(list(coeffs), low)


def _numeric_eval(f: LaurentPoly, z: complex) -> complex:
    return sum(
        numeric(c) * z ** (f.low + i) for i, c in enumerate(f.coeffs)
    )


class TestSubstitute:
    def test_plain_power(self):
        f = P(1, -1, 1)
        assert substitute(f, normalize_root(0, 1), 2) == P(1, 0, -1, 0, 1)

    def test_linear_twist(self):
        g = P(-1, 1)
        out = substitute(g, normalize_root(1, 3), 1)
        z3 = Cyclo.from_root(normalize_root(1, 3))
        assert out == LaurentPoly(0, [Cyclo.from_fraction(-1), z3])

    def test_twist_against_numeric_samples(self):
        # oracle: compare f(xi^c z) with the substituted polynomial at 20
        # random unit-circle points, at high precision
        f = P(1, -1, 1)
        c = normalize_root(1, 3)
        sub = substitute(f, c, 1)
        z3 = Cyclo.from_root(normalize_root(1, 3))
        assert sub == LaurentPoly(0, [Cyclo.one(), -z3, z3 * z3])
        rng = random.Random(7)
        for _ in range(20):
            theta = rng.random()
            z = complex(mpmath.exp(2j * mpmath.pi * theta))
            xi = complex(mpmath.exp(2j * mpmath.pi / 3))
            assert abs(_numeric_eval(sub, z) - _numeric_eval(f, xi * z)) < 1e-12

    def test_composition_law(self):
        rng = random.Random(99)
        for _ in range(25):
            f = LaurentPoly(
                rng.randrange(-2, 3),
                [Cyclo.from_fraction(rng.randrange(-3, 4)) for _ in range(4)],
            )
            if f.is_zero():
                continue
            c1 = normalize_root(rng.randrange(6), 6)
            c2 = normalize_root(rng.randrange(4), 4)
            m1 = rng.randrange(1, 4)
            m2 = rng.randrange(1, 4)
            lhs = substitute(substitute(f, c1, m1), c2, m2)
            rhs = substitute(f, c1 * (c2**m1), m1 * m2)
            assert lhs == rhs


class TestRingOps:
    def test_randomized_ring_axioms(self):
        rng = random.Random(4242)
        polys = []
        for _ in range(12):
            polys.append(
                LaurentPoly(
                    rng.randrange(-3, 4),
                    [Cyclo(3, [rng.randrange(-4, 5), rng.randrange(-4, 5)], 1)
                     for _ in range(rng.randrange(1, 5))],
                )
            )
        for _ in range(40):
            a, b, c = rng.sample(polys, 3)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a

    def test_divmod_and_gcd(self):
        num = P(-1, 0, 0, 1)  # t^3 - 1
        den = P(1, 1, 1)
        assert exact_div(num, den) == P(-1, 1)
        assert poly_gcd(num, P(-1, 1)) == P(-1, 1)
        assert poly_gcd(num, P(1, 1, 1)) == P(1, 1, 1)
        coprime = poly_gcd(P(1, 1), P(1, 0, 1))
        assert coprime.span() == 0

    def test_exact_div_failure(self):
        with pytest.raises(ArithmeticError):
            exact_div(P(1, 1), P(1, 0, 1))


class TestUnits:
    def test_eq_up_to_units(self):
        f = P(1, -1, 1)
        z5 = Cyclo.from_root(normalize_root(1, 5))
        g = f.scale(z5 * Fraction(3, 2)).shift(-4)
        assert f.eq_up_to_units(g)
        assert not f.eq_up_to_units(f * P(-1, 1))

    def test_equivalence_relation(self):
        rng = random.Random(5)
        polys = [
            LaurentPoly(rng.randrange(-2, 3),
                        [Cyclo(4, [rng.randrange(-3, 4), rng.randrange(-3, 4)], 1)
                         for _ in range(3)])
            for _ in range(6)
        ]
        polys = [f for f in polys if not f.is_zero()]
        for f in polys:
            assert f.eq_up_to_units(f)
            assert f.eq_up_to_units(-f.shift(3))
            for g in polys:
                if f.eq_up_to_units(g):
                    assert g.eq_up_to_units(f)


class TestUnitCircleRoots:
    def test_examples(self):
        roots = unit_circle_roots(P(1, -1, 1), {6})
        assert roots == {
            normalize_root(1, 6): 1,
            normalize_root(5, 6): 1,
        }
        double = unit_circle_roots(P(-1, 1) * P(-1, 1), {1})
        assert double == {normalize_root(0, 1): 2}
        phi3 = unit_circle_roots(P(1, 1, 1), {3})
        assert phi3 == {normalize_root(1, 3): 1, normalize_root(2, 3): 1}

    def test_multiplicative(self):
        f = P(1, -1, 1)
        g = P(1, 1, 1) * P(-1, 1)
        fg = unit_circle_roots(f * g, {6})
        separate = dict(unit_circle_roots(f, {6}))
        for root, mult in unit_circle_roots(g, {6}).items():
            separate[root] = separate.get(root, 0) + mult
        assert fg == separate

    def test_insufficient_orders_reported(self):
        with pytest.raises(RootExtractionError):
            unit_circle_roots(P(1, 1, 1), {2})

    def test_no_circle_roots_passes(self):
        # roots 1/2 and 2 are off the circle; the residual check must accept
        assert unit_circle_roots(P(2, -5, 2), {60}) == {}


class TestRationalFn:
    def test_reduction(self):
        fn = reduced_fraction(P(-1, 0, 0, 1), P(1, 1, 1))
        assert fn.is_polynomial()
        assert fn.num == P(-1, 1)

    def test_reduction_idempotent(self):
        fn = reduced_fraction(P(1, -1, 1) * P(-1, 1), P(-1, 1) * P(-1, 1))
        again = reduced_fraction(fn.num, fn.den)
        assert again == fn and (again.num, again.den) == (P(1, -1, 1), P(-1, 1))

    def test_eq_up_to_units(self):
        a = RationalFn(P(1, 1), P(-1, 1))
        b = RationalFn(P(2, 2).shift(5), P(-1, 1))
        assert a.eq_up_to_units(b)
        assert not a.eq_up_to_units(RationalFn(P(1, 1), P(1, 1)))
