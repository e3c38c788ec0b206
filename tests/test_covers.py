import itertools

import pytest

from sliceguard import modp, seifert
from sliceguard.covers import (
    Character,
    character_from_functional,
    characters,
    evaluate_character,
    model_module,
)


class TestModelModule:
    def test_p2_examples(self):
        m = model_module(2, 3)
        assert m.dim == 1 and m.action == ((2,),)
        m5 = model_module(2, 5)
        assert m5.action == ((4,),)

    def test_p3_over_f2(self):
        m = model_module(3, 2)
        assert m.dim == 2
        assert m.action == ((0, 1), (1, 1))

    @pytest.mark.parametrize("p,r", [(2, 3), (2, 5), (3, 2), (3, 5), (4, 3), (5, 2)])
    def test_action_satisfies_norm_relation(self, p, r):
        m = model_module(p, r)
        acc = [[0] * m.dim for _ in range(m.dim)]
        power = modp.identity(m.dim)
        for _ in range(p):
            for i in range(m.dim):
                for j in range(m.dim):
                    acc[i][j] = (acc[i][j] + power[i][j]) % r
            power = modp.mat_mul(power, m.action, r)
        assert all(x == 0 for row in acc for x in row)
        assert modp.mat_eq(power, modp.identity(m.dim))

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (3, 5), (4, 3)])
    def test_gram_matches_seifert_presentation(self, p, r):
        # the defining postcondition, re-tested: pulling the cover pairing
        # through the recorded orbit reproduces the model gram
        m = model_module(p, r)
        cover = seifert.branched_cover(p, r, p).module
        orbit = m.iso_from_seifert
        for i in range(m.dim):
            for j in range(m.dim):
                val = sum(
                    orbit[i][a] * cover.gram[a][b] * orbit[j][b]
                    for a in range(m.dim)
                    for b in range(m.dim)
                ) % r
                assert val == m.gram[i][j]

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (3, 5)])
    def test_equivariance(self, p, r):
        m = model_module(p, r)
        A = m.action
        lhs = modp.mat_mul(modp.mat_mul(A, m.gram, r), tuple(zip(*A)), r)
        assert modp.mat_eq(lhs, m.gram)


class TestCharacters:
    def test_enumeration_examples(self):
        assert [c.values for c in characters(2, 3)] == [(0, 0), (1, 2), (2, 1)]
        assert len(characters(3, 2)) == 4
        assert len(characters(3, 5)) == 25
        assert characters(5, 3)[0].is_trivial()

    def test_zero_sum_enforced(self):
        with pytest.raises(ValueError):
            Character(3, (1, 1))

    def test_group_structure_closed_under_shift(self):
        chars = {c.values for c in characters(3, 5)}
        for c in characters(3, 5):
            assert c.shift().values in chars
            summed = tuple(
                (a + b) % 5 for a, b in zip(c.values, characters(3, 5)[7].values)
            )
            assert summed in chars

    def test_shift_examples(self):
        c = Character(3, (1, 2))
        assert c.shift().values == (2, 1)
        theta = Character(5, (0, 0))
        assert theta.shift().values == theta.values
        c2 = Character(5, (1, 2, 3, 4, 0))
        out = c2
        for _ in range(5):
            out = out.shift()
        assert out.values == c2.values

    def test_evaluation_pairing_bilinear_nondegenerate(self):
        m = model_module(3, 5)
        chars = characters(3, 5)
        vectors = list(itertools.product(range(5), repeat=2))
        # bilinearity in the module argument
        c = chars[7]
        for u in vectors[:8]:
            for v in vectors[:8]:
                s = tuple((a + b) % 5 for a, b in zip(u, v))
                assert (
                    evaluate_character(m, c, s)
                    == (evaluate_character(m, c, u) + evaluate_character(m, c, v)) % 5
                )
        # nondegeneracy: only the trivial character kills everything, and
        # only the zero vector is killed by every character
        for c in chars:
            if all(evaluate_character(m, c, v) == 0 for v in vectors):
                assert c.is_trivial()
        for v in vectors:
            if all(evaluate_character(m, c, v) == 0 for c in chars):
                assert v == (0, 0)

    def test_character_from_functional_roundtrip(self):
        m = model_module(3, 5)
        for func in itertools.product(range(5), repeat=2):
            chi = character_from_functional(m, func)
            assert sum(chi.values) % 5 == 0
            for v in itertools.product(range(5), repeat=2):
                direct = sum(a * b for a, b in zip(v, func)) % 5
                assert evaluate_character(m, chi, v) == direct
