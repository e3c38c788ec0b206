import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceguard import fox
from sliceguard.covers import Character, characters
from sliceguard.cyclo import Cyclo, normalize_root
from sliceguard.laurent import LaurentPoly, RationalFn, unit_circle_roots
from sliceguard.twisted import rep_images, twisted_alex_exterior, twisted_alex_surgery

from oracles import (WordRep, fox_derivative, fox_numerator, monomial_companion_inverse,
                     reduced_fraction, word)


# -- dense oracle: matrices of Laurent polynomials, multiplied entry by entry


def _mat_mul(A, B):
    n = len(A)
    out = [[LaurentPoly.zero()] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a = A[i][k]
            if a.is_zero():
                continue
            for j in range(n):
                b = B[k][j]
                if not b.is_zero():
                    out[i][j] = out[i][j] + a * b
    return out


def _mat_pow(A, e):
    n = len(A)
    out = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)]
           for i in range(n)]
    base = A
    while e:
        if e & 1:
            out = _mat_mul(out, base)
        base = _mat_mul(base, base)
        e >>= 1
    return out


def _companion(p):
    """A_p(t): ones on the superdiagonal, t in the corner; A_p^p = t*id."""
    A = [[LaurentPoly.zero()] * p for _ in range(p)]
    for i in range(p - 1):
        A[i][i + 1] = LaurentPoly.one()
    A[p - 1][0] = LaurentPoly.t()
    return A


def _companion_inv(p):
    A = [[LaurentPoly.zero()] * p for _ in range(p)]
    for i in range(p - 1):
        A[i + 1][i] = LaurentPoly.one()
    A[0][p - 1] = LaurentPoly.t(-1)
    return A


def _diagonal(chi, sign):
    """t^sign * diag(xi^(sign * a_i))."""
    p, q = chi.p, chi.r
    return [[LaurentPoly(sign, [Cyclo.from_root(normalize_root(sign * a, q))]) if i == j
             else LaurentPoly.zero() for j in range(p)] for i, a in enumerate(chi.values)]


def _closed_form(p, q, chi):
    """(1 - t^q)^(p-1) and prod_i (t xi^(a_i) - 1), unreduced."""
    num = (LaurentPoly.one() - LaurentPoly.from_ints([1], q)) ** (p - 1)
    den = LaurentPoly.one()
    for a in chi.values:
        den = den * LaurentPoly(0, [Cyclo.from_fraction(-1), Cyclo.from_root(normalize_root(a, q))])
    return num, den


@st.composite
def _monomial_case(draw, max_p=6):
    p = draw(st.integers(2, max_p))
    q = draw(st.integers(2, 13).filter(lambda q: gcd(p, q) == 1))
    head = draw(st.lists(st.integers(0, q - 1), min_size=p - 1, max_size=p - 1))
    chi = Character(q, tuple(head) + ((-sum(head)) % q,))
    return p, q, chi, draw(st.integers(0, 3 * q))


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
        z3 = Cyclo.from_root(normalize_root(1, 3))
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

    @settings(max_examples=80, deadline=None)
    @given(_monomial_case())
    def test_monomial_powers_match_dense(self, case):
        p, q, chi, e = case
        rep = WordRep(p, q, chi)
        bases = [
            (fox._monomial_companion(p), _companion(p)),
            (monomial_companion_inverse(p), _companion_inv(p)),
            (rep.images[(2, 1)], _diagonal(chi, 1)),
            (rep.images[(2, -1)], _diagonal(chi, -1)),
        ]
        for mono, dense in bases:
            assert fox._dense(mono, q) == dense
            assert fox._dense(fox._mono_pow(mono, e, q), q) == _mat_pow(dense, e)
        assert fox._dense(rep.images[(1, 1)], q) == _mat_pow(_companion(p), q)
        assert fox._dense(rep.images[(1, -1)], q) == _mat_pow(_companion_inv(p), q)

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (4, 9), (5, 6), (6, 7)])
    def test_images_print_as_dense_powers(self, p, q):
        # the public images keep the entry conductors of the dense route
        chi = characters(p, q)[-1]
        c1, c2 = rep_images(p, q, chi)
        assert str(c1) == str(_mat_pow(_companion(p), q))
        assert str(c2) == str(_diagonal(chi, 1))

    def test_determinant_sign(self):
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        for n in range(1, 5):
            for perm in itertools.permutations(range(n)):
                rows = [[one if perm[i] == j else zero for j in range(n)] for i in range(n)]
                inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                assert fox._det(rows) == (-1) ** inversions


class TestTwistedPolynomials:
    def test_exterior_examples(self):
        out = twisted_alex_exterior(2, 3, Character(3, (1, 2)))
        assert out.eq_up_to_units(
            RationalFn(LaurentPoly.from_ints([-1, 1]), LaurentPoly.one())
        )
        theta = twisted_alex_exterior(2, 3, Character(3, (0, 0)))
        assert theta.eq_up_to_units(
            RationalFn(LaurentPoly.from_ints([1, 1, 1]), LaurentPoly.from_ints([-1, 1]))
        )

    def test_surgery_examples(self):
        assert twisted_alex_surgery(2, 3, Character(3, (1, 2))).is_unit()
        theta = twisted_alex_surgery(2, 3, Character(3, (0, 0)))
        assert theta.eq_up_to_units(
            RationalFn(
                LaurentPoly.from_ints([1, 1, 1]),
                LaurentPoly.from_ints([-1, 1]) ** 2,
            )
        )
        t25 = twisted_alex_surgery(2, 5, Character(5, (0, 0)))
        assert t25.eq_up_to_units(
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
                0, [-1 + 0 * Cyclo.from_root(normalize_root(a, 5)), Cyclo.from_root(normalize_root(a, 5))]
            )
        den = den * LaurentPoly.from_ints([-1, 1])
        assert out.eq_up_to_units(RationalFn(num, den))

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (3, 5)])
    def test_shift_covariance(self, p, q):
        for chi in characters(p, q)[: q + 2]:
            a = twisted_alex_surgery(p, q, chi)
            b = twisted_alex_surgery(p, q, chi.shift())
            assert a.eq_up_to_units(b)

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (2, 7), (3, 5)])
    def test_root_support(self, p, q):
        for chi in characters(p, q)[:6]:
            fraction = twisted_alex_surgery(p, q, chi)
            allowed = {normalize_root(k, q) for k in range(q)} | {normalize_root(0, 1)}
            for side in (fraction.num, fraction.den):
                assert set(unit_circle_roots(side, {q})) <= allowed


@pytest.mark.parametrize("p,q", [(2, 4), (3, 6), (2, 2)])
def test_non_torus_parameters_rejected(p, q):
    # T(p, q) with gcd(p, q) > 1 is a link: refused as input, not reported
    # as a disagreement of the two routes
    chi = Character(q, (1,) + (0,) * (p - 2) + (q - 1,))
    for fn in (rep_images, twisted_alex_exterior, twisted_alex_surgery):
        with pytest.raises(ValueError, match="not a torus knot"):
            fn(p, q, chi)


# every coprime (p, q) with q prime, p <= 6, q <= 13 and at most 500 characters
REDUCTION_GRID = [(p, q) for p in range(2, 7) for q in (2, 3, 5, 7, 11, 13)
                  if gcd(p, q) == 1 and q ** (p - 1) <= 500]


class TestReduction:
    @pytest.mark.parametrize("p,q", REDUCTION_GRID)
    def test_bookkeeping_matches_gcd_reduction(self, p, q):
        chars = characters(p, q)
        # chi = 0 has the root 1 p > p - 1 times; for p > 2 other values repeat
        assert chars[0].is_trivial()
        assert p == 2 or any(len(set(chi.values)) < p for chi in chars[1:])
        for chi in chars:
            ref = reduced_fraction(*_closed_form(p, q, chi))
            out = twisted_alex_exterior(p, q, chi)
            assert out.num == ref.num and out.den == ref.den
            assert str(out) == str(ref)
            assert (out.num.conductor, out.den.conductor) == (ref.num.conductor, ref.den.conductor)

    def test_denominator_is_checked(self, monkeypatch):
        monkeypatch.setattr(fox, "_det", lambda rows: LaurentPoly.from_ints([1, 1]))
        twisted_alex_exterior.cache_clear()
        try:
            with pytest.raises(ArithmeticError):
                twisted_alex_exterior(3, 5, Character(5, (1, 2, 2)))
        finally:
            twisted_alex_exterior.cache_clear()

    def test_permuted_character_is_checked(self, monkeypatch):
        # the reduced closed form is shared by (1, 2, 2) and its
        # permutations, but the Fox denominator check is not
        twisted_alex_exterior(3, 5, Character(5, (1, 2, 2)))
        monkeypatch.setattr(fox, "_det", lambda rows: LaurentPoly.from_ints([1, 1]))
        twisted_alex_exterior.cache_clear()
        try:
            with pytest.raises(ArithmeticError):
                twisted_alex_exterior(3, 5, Character(5, (2, 1, 2)))
            twisted_alex_surgery.cache_clear()
            with pytest.raises(ArithmeticError):
                twisted_alex_surgery(3, 5, Character(5, (2, 2, 1)))
        finally:
            twisted_alex_exterior.cache_clear()
            twisted_alex_surgery.cache_clear()


@st.composite
def _permuted_case(draw):
    p = draw(st.integers(2, 5))
    q = draw(st.sampled_from([q for q in (2, 3, 5, 7) if gcd(p, q) == 1]))
    head = draw(st.lists(st.integers(0, q - 1), min_size=p - 1, max_size=p - 1))
    values = tuple(head) + ((-sum(head)) % q,)
    return p, q, Character(q, values), Character(q, tuple(draw(st.permutations(values))))


@settings(max_examples=60, deadline=None)
@given(_permuted_case())
def test_polynomials_depend_only_on_the_value_multiset(case):
    p, q, chi, permuted = case

    def both(c):
        return str(twisted_alex_exterior(p, q, c)), str(twisted_alex_surgery(p, q, c))

    first, second = both(chi), both(permuted)
    for fn in (twisted_alex_exterior, twisted_alex_surgery, fox._closed_form,
               fox._closed_numerator):
        fn.cache_clear()
    assert first == second == both(permuted)


@settings(max_examples=60, deadline=None)
@given(_monomial_case(max_p=8))
def test_fox_routes_match_the_closed_form(case):
    # the Fox numerator, which only the tests derive, and the Fox
    # denominator that the package checks per character, against the
    # closed form
    p, q, chi, _ = case
    num, den = _closed_form(p, q, chi)
    assert fox_numerator(p, q).eq_up_to_units(num)
    assert fox._closed_numerator(p, q) == num
    c2 = rep_images(p, q, chi)[1]
    for i in range(p):
        c2[i][i] = c2[i][i] - LaurentPoly.one()
    assert fox._det(c2).eq_up_to_units(den)
    assert fox._closed_form(p, q, tuple(sorted(chi.values)))[0] == den
