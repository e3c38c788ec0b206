import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceguard import covers, modp, seifert
from sliceguard.covers import (
    Character,
    ConventionError,
    CoverModule,
    characters,
    model_module,
)
from sliceguard.expr import parse
from sliceguard.metabolizers import FormSpace, enumerate_invariant_metabolizers
from sliceguard.pipeline import Options, obstruct

import oracles
from oracles import evaluate_character, validate_module

# every shape whose Seifert import finishes within a few seconds; the Smith
# forms of (5, 7), (5, 11), (6, r >= 5) and (7, 5) do not
IMPORT_SHAPES = [
    (2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (3, 2), (3, 5), (3, 7), (3, 11),
    (3, 13), (4, 3), (4, 5), (4, 7), (4, 11), (4, 13), (5, 2), (5, 3), (5, 13),
    (7, 2), (7, 3), (8, 3), (9, 2), (10, 3), (11, 2), (11, 3),
]
# the shapes whose Seifert form is not a scalar multiple of the closed form,
# so that only a non-scalar unit carries one to the other
NEEDS_NON_SCALAR_UNIT = {(4, 5), (4, 13), (5, 13), (10, 3)}


def _unit_isometries(m, imported):
    """Every (u, s), u a coefficient vector on x_0, ..., x_{p-2} and s in
    F_r^x, with lambda(u x_0, u x_j) = s * imported[0][j] for all j, found
    by trying every u; both forms are deck equivariant, so this first row
    decides the whole form."""
    r = m.r
    units = np.array(list(itertools.product(range(r), repeat=m.dim)), dtype=np.int64)
    action = np.array(m.action, dtype=np.int64)
    ug = units @ np.array(m.gram, dtype=np.int64) % r
    first = np.empty_like(units)
    rows = units
    for j in range(m.dim):
        first[:, j] = (ug * rows).sum(axis=1) % r
        rows = rows @ action % r
    hits = []
    for s in range(1, r):
        target = np.array(imported[0], dtype=np.int64) * s % r
        hits += [(tuple(map(int, u)), s) for u in units[(first == target).all(axis=1)]]
    return hits


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
            power = oracles.mat_mul(power, m.action, r)
        assert all(x == 0 for row in acc for x in row)
        assert oracles.mat_eq(power, modp.identity(m.dim))

    @pytest.mark.parametrize("p,r", IMPORT_SHAPES)
    def test_gram_matches_seifert_presentation(self, p, r):
        # the closed form against the Seifert-presented cover: some unit u
        # of F_r[t]/(1 + ... + t^{p-1}) and scalar s have
        # lambda(u x_i, u x_j) = s * lambda_Seifert(x_i, x_j), by brute force
        m = model_module(p, r)
        imported = oracles.seifert_import(p, r)
        hits = _unit_isometries(m, imported)
        assert hits
        for u, s in hits:
            rows = [u]
            for _ in range(m.dim - 1):
                rows.append(modp.vec_mat(rows[-1], m.action, r))
            pulled = oracles.mat_mul(oracles.mat_mul(rows, m.gram, r), tuple(zip(*rows)), r)
            assert oracles.mat_eq(pulled, [[s * x % r for x in row] for row in imported])
        scalar = any(not any(u[1:]) for u, _ in hits)
        assert scalar == ((p, r) not in NEEDS_NON_SCALAR_UNIT)

    def test_metabolizers_match_seifert_form(self, monkeypatch):
        # the (4, 5) form needs a non-scalar unit, and the metabolizers of
        # lambda + -lambda still come out the same, in the same order, and
        # so does every certificate
        closed = model_module(4, 5)
        imported = CoverModule(r=5, action=closed.action,
                               gram=oracles.seifert_import(4, 5))
        text = "T(4,3;4,5) # -T(4,5) # -T(4,3;4,7) # T(4,7)"
        options = Options(r=5, budget=3_000_000)
        found, docs = [], []
        for module in (closed, imported):
            # the form space builds its module through covers.model_module
            monkeypatch.setattr(covers, "model_module", lambda p, r: module)
            found.append([L.rows for L in enumerate_invariant_metabolizers(
                FormSpace(4, 5, 1), 3_000_000)])
            docs.append(obstruct(parse(text), options).to_json())
        assert len(found[0]) == 16 and found[0] == found[1]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (3, 5)])
    def test_equivariance(self, p, r):
        m = model_module(p, r)
        A = m.action
        lhs = oracles.mat_mul(oracles.mat_mul(A, m.gram, r), tuple(zip(*A)), r)
        assert oracles.mat_eq(lhs, m.gram)


def _asymmetric(m):
    gram = [list(row) for row in m.gram]
    gram[0][1] = (gram[0][1] + 1) % m.r
    return CoverModule(m.r, m.action, tuple(map(tuple, gram)))


def _singular(m):
    return CoverModule(m.r, m.action, tuple((0,) * m.dim for _ in range(m.dim)))


def _wrong_order(m):
    # -A is still an isometry, but (-A)^3 = -1 for an odd r
    return CoverModule(m.r, tuple(tuple(-x % m.r for x in row) for row in m.action), m.gram)


class TestValidator:
    """The oracles' validator of cover modules, on the model module and on
    the Seifert-side cover module of the 3-fold cover of T(3, 5)."""

    SOURCES = {"model": lambda: model_module(3, 5),
               "cover": lambda: seifert.branched_cover(3, 5, 3).module}

    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("tamper,message", [
        (_asymmetric, "not symmetric"),
        (_singular, "singular"),
        (_wrong_order, "order dividing n"),
    ])
    def test_tampered_module_rejected(self, source, tamper, message):
        m = self.SOURCES[source]()
        assert m.dim == 2
        validate_module(m, 3)
        with pytest.raises(ConventionError, match=message):
            validate_module(tamper(m), 3)


_PRIMES_TO_47 = [r for r in range(2, 48) if all(r % d for d in range(2, r))]


@given(st.integers(2, 40), st.sampled_from(_PRIMES_TO_47))
@settings(max_examples=60, deadline=None)
def test_model_module_passes_the_validator(p, r):
    # the model is built unchecked, as no check can fail; the general
    # validator agrees on every model shape with p <= 40 and r <= 47
    if p % r == 0:
        with pytest.raises(ValueError):
            model_module(p, r)
        return
    validate_module(model_module(p, r), p)


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
            chi = Character.from_functional(5, func)
            assert sum(chi.values) % 5 == 0
            for v in itertools.product(range(5), repeat=2):
                direct = sum(a * b for a, b in zip(v, func)) % 5
                assert evaluate_character(m, chi, v) == direct
