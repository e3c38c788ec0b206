import random
from fractions import Fraction
from math import gcd

import pytest

from sliceguard import covers, seifert
from sliceguard.covers import Character
from sliceguard.cyclo import normalize_root
from sliceguard.laurent import LaurentPoly, unit_circle_roots
from sliceguard.twisted import twisted_alex_surgery
from sliceguard.witt import (
    Classical,
    Twisted,
    WittClass,
    is_metabolic_classical,
    jump_of,
    split_components,
    support_of,
)


def C(p, q, num=0, den=1, power=1, coeff=1):
    return Classical(p, q, normalize_root(num, den), power, coeff)


def _classical_order(atom):
    """Delta_{T(p,q)}(xi^twist * t^power), the order the support summarises."""
    return seifert.alexander_poly(atom.p, atom.q).substitute(atom.twist, atom.power)


def _isolated_support(orders, *polys):
    """The numeric route: unit-circle roots of each polynomial, isolated by
    synthetic division and certified interval arcs."""
    return frozenset(root.frac for f in polys for root in unit_circle_roots(f, orders))


def _twisted_oracle_support(p, r, chi):
    """Roots of the reduced 0-surgery fraction (Fox route checked inside)."""
    fraction = twisted_alex_surgery(p, r, chi).fraction
    return _isolated_support({r}, fraction.num, fraction.den)


# the full part of the benchmark's twisted grid
TWISTED_GRID = [(p, q) for p in (2, 3, 4) for q in (2, 3, 5, 7) if gcd(p, q) == 1]
TWISTED_GRID += [(5, 2), (5, 3)]


class TestOrders:
    """Closed-form supports against the orders they summarise, with the
    roots of those orders isolated numerically."""

    def test_classical_untwisted(self):
        order = _classical_order(C(2, 3))
        assert order == LaurentPoly.from_ints([1, -1, 1])
        assert support_of(C(2, 3)) == _isolated_support({6}, order)

    def test_classical_twisted(self):
        out = _classical_order(C(2, 3, 1, 3))
        z3 = normalize_root(1, 3).as_cyclo()
        expected = LaurentPoly(0, [1 + 0 * z3, -z3, z3 * z3])
        assert out == expected
        rng = random.Random(5)
        for _ in range(20):
            p, q = rng.choice([(2, 3), (2, 5), (3, 4), (3, 5)])
            den = rng.choice([1, 2, 3, 5])
            atom = C(p, q, rng.randrange(den), den, power=rng.randrange(1, 4))
            orders = {p * q * den * atom.power}
            assert support_of(atom) == _isolated_support(orders, _classical_order(atom))

    def test_twisted_unit(self):
        atom = Twisted(2, 3, Character(3, (1, 2)))
        assert twisted_alex_surgery(2, 3, atom.chi).fraction.is_unit()
        assert support_of(atom) == frozenset()

    @pytest.mark.parametrize("p,r", TWISTED_GRID)
    def test_twisted_supports_match_root_isolation(self, p, r):
        for chi in covers.characters(p, r):
            assert support_of(Twisted(p, r, chi)) == _twisted_oracle_support(p, r, chi), chi


class TestJumps:
    def test_basic(self):
        assert jump_of(C(2, 3), Fraction(1, 6)) == -2
        assert jump_of(C(2, 3), Fraction(5, 6)) == 2
        assert jump_of(C(2, 3), Fraction(1, 2)) == 0
        assert jump_of(C(2, 3, coeff=-3), Fraction(1, 6)) == 6

    def test_reparametrized_support(self):
        # twist by 1/3: jumps where x + 1/3 lands on {1/6, 5/6}
        atom = C(2, 3, 1, 3)
        assert jump_of(atom, Fraction(5, 6)) == -2  # 5/6 + 1/3 = 1/6 mod 1
        assert jump_of(atom, Fraction(1, 2)) == 2
        assert support_of(atom) == frozenset({Fraction(5, 6), Fraction(1, 2)})

    def test_power_two_support(self):
        atom = C(2, 3, power=2)
        assert support_of(atom) == frozenset(
            {Fraction(1, 12), Fraction(5, 12), Fraction(7, 12), Fraction(11, 12)}
        )
        assert jump_of(atom, Fraction(1, 12)) == -2

    def test_composition_property(self):
        rng = random.Random(31)
        base = seifert.jump_function(2, 5)
        for _ in range(10):
            c = normalize_root(rng.randrange(5), 5)
            m = rng.randrange(1, 4)
            atom = C(2, 5, c.numer, c.order, power=m)
            for x0 in base:
                for j in range(m):
                    x = (Fraction(x0 - c.frac + j)) / m % 1
                    assert jump_of(atom, x) == base[x0]

    def test_rejects_twisted(self):
        with pytest.raises(TypeError):
            jump_of(Twisted(2, 3, Character(3, (0, 0))), Fraction(1, 2))


class TestSplit:
    def test_distinct_torus_knots_split(self):
        W = WittClass([C(2, 3), C(2, 5)])
        parts = split_components(W)
        assert len(parts) == 2

    def test_distinct_twists_split(self):
        W = WittClass([C(2, 3, 1, 5), C(2, 3, 2, 5)])
        assert len(split_components(W)) == 2

    def test_identical_supports_merge_coefficients(self):
        W = WittClass([C(2, 3), C(2, 3)])
        assert len(W.atoms) == 1 and W.atoms[0].coefficient == 2
        assert len(split_components(W)) == 1

    def test_mixed_twisted_classical(self):
        W = WittClass([Twisted(2, 3, Character(3, (0, 0))), C(2, 5)])
        parts = split_components(W)
        assert len(parts) == 2


class TestMetabolic:
    def test_cancelling_pair(self):
        W = WittClass([C(2, 3), C(2, 3, coeff=-1)])
        assert W.is_empty()
        assert is_metabolic_classical(W) == (True, None)

    def test_single_atom_witness(self):
        ok, witness = is_metabolic_classical(WittClass([C(2, 3)]))
        assert not ok
        assert witness == (Fraction(1, 6), -2)

    def test_disjoint_twists_survive(self):
        W = WittClass([C(2, 3, 1, 3), C(2, 3, coeff=-1)])
        ok, witness = is_metabolic_classical(W)
        assert not ok
        x, total = witness
        assert total != 0 and x in support_of(C(2, 3, 1, 3)) | support_of(C(2, 3))

    def test_group_inverse_property(self):
        rng = random.Random(17)
        for _ in range(10):
            atoms = [
                C(2, rng.choice([3, 5]), rng.randrange(3), 3,
                  power=rng.randrange(1, 3), coeff=rng.randrange(1, 3))
                for _ in range(3)
            ]
            W = WittClass(atoms)
            assert is_metabolic_classical(W + (-W))[0]

    def test_split_consistency(self):
        W = WittClass([C(2, 3), C(2, 5), C(2, 3, coeff=-1)])
        parts = split_components(W)
        total_ok = is_metabolic_classical(W)[0]
        assert total_ok == all(is_metabolic_classical(part)[0] for part in parts)

    def test_witness_even_nonzero(self):
        W = WittClass([C(3, 4, 1, 5), C(3, 4, coeff=-3)])
        ok, (x, total) = is_metabolic_classical(W)
        assert not ok and total % 2 == 0 and total != 0
