import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceguard.knots import IteratedTorusKnot, KnotCombination
from sliceguard.expr import ParseError, parse


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
