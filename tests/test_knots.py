import itertools
import random

import pytest
import sympy

from sliceguard.knots import (
    IteratedTorusKnot,
    KnotCombination,
    TorusKnotSum,
    algebraically_slice,
    check_torus,
    in_sp,
    normal_form,
    prime_power_exponent,
    s_level,
    simplify,
)
from sliceguard.expr import parse

from oracles import add, mirror

J2 = "T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)"


def T(p, *qs):
    return IteratedTorusKnot(p, tuple(qs))


class TestFamilyMembership:
    def test_examples(self):
        assert in_sp(T(2, 3, 5))
        assert not in_sp(T(2, 3, 9))  # 9 not prime
        with pytest.raises(ValueError):
            T(3, 6, 5)  # gcd(6,3) != 1 is not even a valid cable

    def test_coprimality_with_final(self):
        assert not in_sp(T(2, 5, 5))
        assert in_sp(T(3, 4, 5))
        assert not in_sp(T(3, 10, 5))


class TestLevels:
    def test_paper_family_cancellation(self):
        J = parse(J2)
        assert s_level(J, 0).is_unknot()
        assert s_level(J, 1).is_unknot()
        assert s_level(J, 2).is_unknot()

    def test_survivors(self):
        K = parse("T(2,3;2,5) # -T(2,5)")
        assert s_level(K, 0).is_unknot()
        assert s_level(K, 1) == TorusKnotSum({(2, 3): 1})

    def test_additive(self):
        rng = random.Random(11)
        pool = [T(2, 3, 5), T(2, 5), T(2, 7, 5), T(2, 3), T(2, 9, 7)]
        for _ in range(20):
            t1 = {k: rng.randrange(-2, 3) for k in rng.sample(pool, 3)}
            t2 = {k: rng.randrange(-2, 3) for k in rng.sample(pool, 3)}
            K1, K2 = KnotCombination(2, t1), KnotCombination(2, t2)
            for s in range(3):
                merged = s_level(add(K1, K2), s).terms
                split = dict(s_level(K1, s).terms)
                for pq, c in s_level(K2, s).terms.items():
                    split[pq] = split.get(pq, 0) + c
                assert merged == {k: v for k, v in split.items() if v}


class TestAlgebraicSliceness:
    def test_examples(self):
        ok, witness = algebraically_slice(parse(J2))
        assert ok and witness is None
        ok, witness = algebraically_slice(parse("T(2,3)"))
        assert not ok and witness == (0, (2, 3), 1)
        ok, _ = algebraically_slice(parse("T(2,3;2,5) # -T(2,3;2,5)"))
        assert ok

    def test_mirror_symmetry(self):
        rng = random.Random(3)
        pool = [T(2, 3, 5), T(2, 5), T(2, 3, 7), T(2, 7), T(2, 11)]
        for _ in range(30):
            terms = {k: rng.randrange(-2, 3) for k in rng.sample(pool, rng.randrange(1, 5))}
            K = KnotCombination(2, terms)
            assert algebraically_slice(K)[0] == algebraically_slice(mirror(K))[0]

    def test_simplify_consistency(self):
        K = parse(J2)
        assert algebraically_slice(K)[0] == algebraically_slice(simplify(K))[0]
        assert simplify(simplify(K)) == simplify(K)

    def test_simplify_cancellation(self):
        K = parse("T(2,3;2,5) # -T(2,3;2,5) # T(2,7)")
        assert simplify(K) == parse("T(2,7)")
        assert simplify(parse(J2)) == parse(J2)
        assert simplify(
            parse("T(2,3;2,5) # -T(2,3;2,5)")
        ).is_empty()


class TestNormalForm:
    def test_r5(self):
        nf = normal_form(parse(J2), 5)
        assert nf.m == (1, 1)
        assert nf.groups[0] == (((3, 5), (5,)),)
        assert nf.groups[1] == (((7,), (3, 7)),)

    def test_r7(self):
        nf = normal_form(parse(J2), 7)
        assert nf.m == (1, 1)
        assert nf.groups[0] == (((7,), (3, 7)),)
        assert nf.groups[1] == (((3, 5), (5,)),)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            normal_form(parse("T(2,3;2,5) # -T(2,3;2,5)"), 5)  # empty
        with pytest.raises(ValueError):
            normal_form(parse(J2), 11)  # absent prime
        with pytest.raises(ValueError):
            normal_form(parse("T(2,3)"), 3)  # zero level survives

    def test_multiplicity_expansion(self):
        K = parse("2*T(2,3;2,5) # -2*T(2,5) # -T(2,3;2,7) # T(2,7) # -T(2,11;2,7) # T(2,11;2,7)")
        nf = normal_form(K, 5)
        assert nf.m1 == 2
        assert nf.groups[0] == (((3, 5), (5,)), ((3, 5), (5,)))

    def test_zero_level_pairing_brute_force(self):
        # oracle: any valid pairing must match positives to negatives with
        # equal final index; check ours is one of them
        K = parse(J2)
        for r in (5, 7):
            nf = normal_form(K, r)
            for group, prime in zip(nf.groups, nf.primes):
                for qplus, qminus in group:
                    assert qplus[-1] == prime and qminus[-1] == prime


def test_prime_power_exponent_matches_sympy():
    for n in range(-3, 400):
        factors = sympy.factorint(n) if n >= 2 else {}
        expected = next(iter(factors.values())) if len(factors) == 1 else 0
        assert prime_power_exponent(n) == expected, n


@pytest.mark.parametrize("p,q", [(1, 3), (3, 1), (2, 4), (6, 9), (2, 2)])
def test_check_torus_rejects_non_torus_parameters(p, q):
    with pytest.raises(ValueError, match=f"T\\({p},{q}\\) is not a torus knot"):
        check_torus(p, q)
    check_torus(2, 3)
