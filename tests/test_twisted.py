import itertools

import pytest

from sliceguard.covers import Character, characters
from sliceguard.cyclo import normalize_root
from sliceguard.laurent import LaurentPoly, RationalFn, unit_circle_roots
from sliceguard.twisted import (
    TorusRep,
    fox_derivative,
    rep_images,
    twisted_alex_exterior,
    twisted_alex_surgery,
    word,
)


class TestWords:
    def test_reduction(self):
        assert word((1, 2), (1, 3)) == ((1, 5),)
        assert word((1, 2), (1, -2)) == ()
        assert word((1, 1), (2, 0), (2, -1)) == ((1, 1), (2, -1))


class TestFoxDerivative:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (5, 2)])
    def test_relator_derivative_c1(self, p, q):
        relator = word((1, p), (2, -q))
        terms = fox_derivative(relator, 1)
        expected = [(1, word((1, i))) for i in range(p)]
        assert sorted(terms, key=lambda t: t[1]) == sorted(expected, key=lambda t: t[1])

    def test_independent_generator(self):
        assert fox_derivative(word((1, 1)), 2) == []

    def test_inverse_rule(self):
        assert fox_derivative(word((2, -1)), 2) == [(-1, ((2, -1),))]

    def test_product_rule_randomized(self):
        # d(uv) = du + u dv as formal sums, checked by direct expansion
        import random

        rng = random.Random(12)
        for _ in range(20):
            u = word(*[(rng.choice([1, 2]), rng.choice([-2, -1, 1, 2])) for _ in range(2)])
            v = word(*[(rng.choice([1, 2]), rng.choice([-2, -1, 1, 2])) for _ in range(2)])
            gen = rng.choice([1, 2])
            lhs = fox_derivative(word(*u, *v), gen)
            collected = {}
            for c, w in fox_derivative(u, gen):
                collected[w] = collected.get(w, 0) + c
            for c, w in fox_derivative(v, gen):
                uw = word(*u, *w)
                collected[uw] = collected.get(uw, 0) + c
            rhs = sorted((c, w) for w, c in collected.items() if c)
            assert sorted((c, w) for c, w in lhs) == [(c, w) for c, w in rhs]


class TestRepresentation:
    def test_explicit_images_2_3(self):
        chi = Character(3, (1, 2))
        c1, c2 = rep_images(2, 3, chi)
        t = LaurentPoly.t()
        z3 = normalize_root(1, 3).as_cyclo()
        assert c1[0][0].is_zero() and c1[0][1] == t
        assert c1[1][0] == t * t and c1[1][1].is_zero()
        assert c2[0][0] == LaurentPoly(1, [z3])
        assert c2[1][1] == LaurentPoly(1, [z3 * z3])

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (3, 5), (4, 3), (5, 2)])
    def test_relation_all_characters(self, p, q):
        for chi in characters(p, q):
            rep_images(p, q, chi)  # raises on any relation violation

    def test_character_validation(self):
        with pytest.raises(ValueError):
            rep_images(2, 3, Character(5, (1, 4)))


class TestTwistedPolynomials:
    def test_exterior_examples(self):
        out = twisted_alex_exterior(2, 3, Character(3, (1, 2)))
        assert out.fraction.eq_up_to_units(
            RationalFn(LaurentPoly.from_ints([-1, 1]), LaurentPoly.one())
        )
        theta = twisted_alex_exterior(2, 3, Character(3, (0, 0)))
        assert theta.fraction.eq_up_to_units(
            RationalFn(LaurentPoly.from_ints([1, 1, 1]), LaurentPoly.from_ints([-1, 1]))
        )

    def test_surgery_examples(self):
        assert twisted_alex_surgery(2, 3, Character(3, (1, 2))).is_unit()
        theta = twisted_alex_surgery(2, 3, Character(3, (0, 0)))
        assert theta.fraction.eq_up_to_units(
            RationalFn(
                LaurentPoly.from_ints([1, 1, 1]),
                LaurentPoly.from_ints([-1, 1]) ** 2,
            )
        )
        t25 = twisted_alex_surgery(2, 5, Character(5, (0, 0)))
        assert t25.fraction.eq_up_to_units(
            RationalFn(
                LaurentPoly.from_ints([1, 1, 1, 1, 1]),
                LaurentPoly.from_ints([-1, 1]) ** 2,
            )
        )

    def test_surgery_2_5_nontrivial(self):
        out = twisted_alex_surgery(2, 5, Character(5, (1, 4)))
        # (1 - t^5) / ((t xi - 1)(t xi^4 - 1)(t - 1)) reduced
        num = LaurentPoly.one() - LaurentPoly.from_ints([1], 5)
        den = LaurentPoly.one()
        for a in (1, 4):
            den = den * LaurentPoly(
                0, [-1 + 0 * normalize_root(a, 5).as_cyclo(), normalize_root(a, 5).as_cyclo()]
            )
        den = den * LaurentPoly.from_ints([-1, 1])
        assert out.fraction.eq_up_to_units(RationalFn(num, den))

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (3, 5)])
    def test_shift_covariance(self, p, q):
        for chi in characters(p, q)[: q + 2]:
            a = twisted_alex_surgery(p, q, chi)
            b = twisted_alex_surgery(p, q, chi.shift())
            assert a.fraction.eq_up_to_units(b.fraction)

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (2, 7), (3, 5)])
    def test_root_support(self, p, q):
        for chi in characters(p, q)[:6]:
            fraction = twisted_alex_surgery(p, q, chi).fraction
            allowed = {normalize_root(k, q) for k in range(q)} | {normalize_root(0, 1)}
            for side in (fraction.num, fraction.den):
                assert set(unit_circle_roots(side, {q})) <= allowed
