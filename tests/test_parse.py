import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceguard import knots
from sliceguard.knots import IteratedTorusKnot, KnotCombination
from sliceguard.expr import ParseError, parse

import oracles


class TestAccepts:
    def test_examples(self):
        K = parse("T(2,3;2,5) # -T(2,5)")
        assert K.terms == {
            IteratedTorusKnot(2, (3, 5)): 1,
            IteratedTorusKnot(2, (5,)): -1,
        }
        assert parse("2*T(3,7)").terms == {IteratedTorusKnot(3, (7,)): 2}
        assert parse("  T( 2 , 3 )  #  - 2 * T( 2, 5 ) ").terms == {
            IteratedTorusKnot(2, (3,)): 1,
            IteratedTorusKnot(2, (5,)): -2,
        }

    def test_cancellation_on_parse(self):
        assert parse("T(2,3) # -T(2,3)").is_empty()


class TestRejects:
    @pytest.mark.parametrize(
        "text",
        [
            "T(2,4)",           # gcd failure
            "T(2,3) # T(3,5)",  # mixed p
            "T(2,3;3,5)",       # mixed p inside a cable
            "T(2,3",            # unbalanced
            "T(2,)",
            "2T(2,3)",
            "T(2,3) #",
            "",
            "0*T(2,3)",
            "- T(2,0)",
        ],
    )
    def test_bad_inputs(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("text", [
        "T(2,2147483648)",
        "T(2147483648,3)",
        "2147483648*T(2,3)",
        "T(2,3;2,1000000000000000003) # -T(2,1000000000000000003)",
        pytest.param("T(2," + "9" * 5000 + ")", id="5000-digits"),
    ])
    def test_integers_must_be_below_2_31(self, text):
        # a larger index would reach the trial-division primality test
        with pytest.raises(ParseError, match=r"below 2\*\*31"):
            parse(text)

    def test_largest_index_accepted(self):
        assert parse("T(2,3;2,2147483647)").p == 2

    def test_position_reported(self):
        try:
            parse("T(2,3) # T(2,6)")
        except ParseError as exc:
            assert exc.position >= 9
        else:
            raise AssertionError("expected a parse error")


@st.composite
def combinations(draw):
    p = draw(st.sampled_from([2, 3, 4, 5]))
    admissible = [q for q in range(2, 14) if _gcd(p, q) == 1]
    n_terms = draw(st.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        length = draw(st.integers(1, 3))
        qs = tuple(draw(st.sampled_from(admissible)) for _ in range(length))
        coeff = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        terms.append((IteratedTorusKnot(p, qs), coeff))
    return KnotCombination(p, terms)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@given(combinations())
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip(K):
    if K.is_empty():
        return
    assert parse(str(K)) == K


@st.composite
def level_cancelling_texts(draw):
    """Texts whose zero level cancels.  Each prefix a with coefficient c
    gives c*T(a; r1) # -c*T(a; r2), and the sum C of the coefficients
    gives -C*T(r1) # C*T(r2), so every level cancels.  With ``broken``,
    T(x; r1) # -T(y; r1) is added for two drawn prefixes, which keeps the
    zero level and may break the others."""
    p = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    entries = [q for q in range(2, 14) if _gcd(p, q) == 1]
    r1, r2 = draw(st.lists(st.sampled_from([r for r in (2, 3, 5, 7, 11, 13) if p % r]),
                           min_size=2, max_size=2, unique=True))
    prefix = st.lists(st.sampled_from(entries), max_size=2).map(tuple)
    terms = []
    for a, c in draw(st.lists(st.tuples(prefix, st.sampled_from([-2, -1, 1, 2])),
                              min_size=1, max_size=3)):
        terms += [(c, a + (r1,)), (-c, a + (r2,))]
    total = sum(c for c, _ in terms[::2])
    if total:
        terms += [(-total, (r1,)), (total, (r2,))]
    broken = draw(st.booleans())
    if broken:
        terms += [(1, draw(prefix) + (r1,)), (-1, draw(prefix) + (r1,))]
    text = " # ".join(
        f"{'-' if c < 0 else ''}{abs(c)}*T({';'.join(f'{p},{q}' for q in qs)})"
        for c, qs in terms
    )
    return text, broken


@given(level_cancelling_texts())
@settings(max_examples=150, deadline=None)
def test_level_sums_are_the_level_coefficients(drawn):
    # I1 - I2 + I3 - I4 at (q, s) is the coefficient of T(p, q) in the
    # level-s sum, so it vanishes at every level of an algebraically slice
    # combination, which the per-prime step no longer checks
    text, broken = drawn
    K = parse(text)
    if K.is_empty():
        return
    alg_slice = knots.algebraically_slice(K)[0]
    assert alg_slice or broken
    for r in K.ending_primes():
        sets = knots.index_sets(knots.normal_form(K, r))
        for (q, s) in sets.points:
            total = oracles.level_sum(sets, q, s)
            assert total == knots.s_level(K, s).terms.get((K.p, q), 0)
            assert total == 0 or not alg_slice
