"""The package's value classes: constructors, immutability, equality,
hashing, order, validation and representations.  Set and dict orders,
and with them the output bytes, rest on each hash being that of the
field tuple."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sliceguard import metabolizers
from sliceguard.covers import Character, CoverModule
from sliceguard.knots import IndexSets, IteratedTorusKnot, NormalForm, RootOfUnity
from sliceguard.metabolizers import (CharacterChoice, FormSpace, Isometry, NotAGraph,
                                     NotSimplifiedWitness)
from sliceguard.pipeline import Certificate, Decomposition, Options, Verdict, verify_verdict
from sliceguard.presentations import CoverHomology
from sliceguard.witt import Classical, Twisted, WittClass

CHI = Character(5, (1, 3, 1))
LEVEL = {(3, 1): frozenset({0})}

# each class with its fields in order, and one field changed for inequality
CASES = [
    (RootOfUnity, dict(numer=1, order=3), ("numer", 2)),
    (IteratedTorusKnot, dict(p=2, qs=(3, 5)), ("qs", (3, 7))),
    (NormalForm, dict(p=2, r=5, primes=(5,), groups=((((3, 5), (5,)),),)), ("r", 7)),
    (IndexSets, dict(pairs=(((3, 5), (5,)),), points=((3, 1),), I1=LEVEL, I2=LEVEL,
                     I3=LEVEL, I4=LEVEL), ("I4", {})),
    (CoverModule, dict(r=5, action=((4,),), gram=((2,),)), ("gram", ((3,),))),
    (Character, dict(r=5, values=(1, 3, 1)), ("values", (0, 0, 0))),
    (FormSpace, dict(p=3, r=5, m1=1), ("m1", 2)),
    (Isometry, dict(matrix=((1,),)), ("matrix", ((4,),))),
    (NotAGraph, dict(meets_first=True, meets_second=False), ("meets_second", True)),
    (CharacterChoice, dict(case=1, chi_a=(CHI,), chi_b=(CHI,), q=3, s=1), ("case", 2)),
    (NotSimplifiedWitness, dict(k0=0, X=frozenset({1}), Y=frozenset({2})), ("k0", 1)),
    (CoverHomology, dict(p=2, q=5, n=2, divisors=(5,), order=5, module=None), ("n", 4)),
    (Classical, dict(p=2, q=5, twist=RootOfUnity(1, 3), power=1, coefficient=-1),
     ("power", 3)),
    (Twisted, dict(p=3, r=5, chi=CHI, coefficient=2), ("coefficient", -2)),
    (Options, dict(r=5, budget=6), ("budget", 7)),
    (Decomposition, dict(B1=WittClass(), B3={}, B4={}), ("B3", {(3, 1): WittClass()})),
    (Certificate, dict(basis=((1, 4),), case=1, chi_a=(CHI,), chi_b=(CHI,), q=3, s=1,
                       witness_omega=RootOfUnity(1, 10), witness_jump=2), ("witness_jump", -2)),
    (Verdict, dict(kind="NOT_SLICE", p=2, input_str="T(2,3)", algebraically_slice=True,
                   witness=None, r=5, certificates=(), reason=None), ("r", 7)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a dict field, or a WittClass
        return TypeError


@pytest.mark.parametrize("cls,fields,change", CASES, ids=IDS)
def test_value_semantics(cls, fields, change):
    value = cls(**fields)
    assert cls(*fields.values()) == value
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())
    assert _hash(value) == _hash(tuple(fields.values()))
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    name, other = change
    changed = cls(**{**fields, name: other})
    assert changed != value and not changed == value
    assert cls(**fields) == value and not cls(**fields) != value


def test_representations():
    for cls, fields, _ in CASES:
        if cls not in (RootOfUnity, IteratedTorusKnot):
            shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
            assert repr(cls(**fields)) == f"{cls.__name__}({shown})"
    assert repr(RootOfUnity(1, 3)) == "RootOfUnity(1/3)"
    assert str(RootOfUnity(1, 3)) == "1/3"
    assert repr(IteratedTorusKnot(2, (3, 5))) == str(IteratedTorusKnot(2, (3, 5))) == "T(2,3;2,5)"
    assert str(CHI) == "(1,3,1)"
    assert str(Classical(2, 5, RootOfUnity(1, 3), 3, -1)) == "-1*Bl(T(2,5))(z3^1*t^3)"
    assert str(Twisted(3, 5, CHI)) == "1*TwBl(T(3,5); chi=(1,3,1))"


def test_order_of_the_ordered_classes():
    roots = [RootOfUnity.normalized(k, 6) for k in (5, 0, 3, 1)]
    assert [r.frac for r in sorted(roots)] == [Fraction(k, 6) for k in (0, 1, 3, 5)]
    knots = [IteratedTorusKnot(3, (4, 5)), IteratedTorusKnot(2, (7,)),
             IteratedTorusKnot(2, (3, 5)), IteratedTorusKnot(2, (3,))]
    assert [str(k) for k in sorted(knots)] == ["T(2,3)", "T(2,3;2,5)", "T(2,7)", "T(3,4;3,5)"]
    assert RootOfUnity(1, 3) < RootOfUnity(1, 2)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6), st.integers(-10**9, 10**9),
       st.integers(1, 10**6), st.integers(-100, 100))
def test_root_of_unity_is_the_fraction_mod_1(k, n, j, m, e):
    # the integer pair against the Fraction class it replaced
    x, y = Fraction(k, n) % 1, Fraction(j, m) % 1
    a, b = RootOfUnity.normalized(k, n), RootOfUnity.normalized(j, m)
    assert (a.numer, a.order) == (x.numerator, x.denominator) and a.frac == x
    assert (a * b).frac == (x + y) % 1
    assert (a ** e).frac == x * e % 1
    assert a.inverse().frac == -x % 1
    assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
        x < y, x <= y, x > y, x >= y, x == y, x != y)
    assert (hash(a) == hash(b)) >= (a == b)
    assert str(a) == f"{x.numerator}/{x.denominator}"
    assert repr(a) == f"RootOfUnity({x})"


def test_defaults():
    assert Classical(2, 5, RootOfUnity.one(), 1).coefficient == 1
    assert Twisted(3, 5, CHI).coefficient == 1
    assert Options() == Options(None, 2_000_000) and Options(r=5).budget == 2_000_000
    assert Verdict("TRIVIAL_COMBINATION", 2, "0") == Verdict(
        "TRIVIAL_COMBINATION", 2, "0", None, None, None, (), None)
    # a class-level read of a field gives no number, so the defaults are constants
    assert verify_verdict.__kwdefaults__ == {"budget": 2_000_000}
    assert metabolizers.enumerate_invariant_metabolizers.__defaults__ == (2_000_000,)


@pytest.mark.parametrize("make,message", [
    (lambda: IteratedTorusKnot(1, (3,)), "at least 2"),
    (lambda: IteratedTorusKnot(2, ()), "empty cabling sequence"),
    (lambda: IteratedTorusKnot(2, (3, 0)), "must be positive"),
    (lambda: IteratedTorusKnot(2, (3, 4)), "not a torus knot cable"),
    (lambda: IteratedTorusKnot(p=6, qs=(9,)), "not a torus knot cable"),
    (lambda: Character(5, (1, 1, 1)), "do not sum to 0 mod 5"),
    (lambda: Character(5, (6, 4)), "reduced mod r"),
    (lambda: Character(r=5, values=(-1, 1)), "reduced mod r"),
    (lambda: FormSpace(3, 4, 1), "not prime"),
    (lambda: FormSpace(1, 5, 1), "at least 2"),
    (lambda: FormSpace(p=5, r=5, m1=1), "gcd"),
])
def test_validation_raises(make, message):
    with pytest.raises(ValueError, match=message):
        make()
