import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceguard import (covers, fox, knots, laurent, metabolizers, modp, pipeline, presentations,
                        seifert, twisted, witt)
from sliceguard.covers import Character, ConventionError
from sliceguard.cyclo import normalize_root
from sliceguard.expr import ParseError, parse
from sliceguard.knots import RootOfUnity, index_sets
from sliceguard.metabolizers import BudgetExceeded
from sliceguard.pipeline import (
    Options,
    VerificationError,
    decompose,
    obstruct,
    verify_verdict,
)
from sliceguard.witt import Classical

import oracles

J2 = "T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)"
J3 = "T(3,4;3,5) # -T(3,5) # -T(3,4;3,7) # T(3,7)"
# p = 2, m1 = 3 at r = 5: 2 558 556 half-dimension subspaces, over the
# default budget of 2 000 000
M3 = ("T(2,3;2,5) # -T(2,3;2,11) # -3*T(2,5) # T(2,11) # 2*T(2,11;2,5) "
      "# -2*T(2,11;2,13) # 2*T(2,13)")
R13 = "T(3,4;3,13) # -T(3,13) # -T(3,4;3,17) # T(3,17)"
R17 = "T(2,3;2,17) # -T(2,17) # -T(2,3;2,19) # T(2,19)"
# p = 3, m1 = 2: NOT_SLICE at r = 5 with 756 certificates; its walk is over
# the default budget, and its document verifies under it
M12 = "T(3,2;3,5) # T(3,4;3,5) # -2*T(3,5) # -T(3,2;3,7) # -T(3,4;3,7) # 2*T(3,7)"
P2003 = "T(2003,3;2003,5) # -T(2003,5) # -T(2003,3;2003,7) # T(2003,7)"
SRC = Path(__file__).resolve().parent.parent / "src"


class TestIndexSets:
    def test_j_family_r5(self):
        nf = knots.normal_form(parse(J2), 5)
        sets = index_sets(nf)
        assert sets.I1[(3, 1)] == frozenset({0})
        assert sets.I2[(3, 1)] == frozenset()
        assert sets.I3[(3, 1)] == frozenset()
        assert sets.I4[(3, 1)] == frozenset({(1, 0)})
        assert oracles.level_sum(sets, 3, 1) == 0

    def test_vanishing_alternating_sums(self):
        for expr, r in [
            (J2, 5),
            (J2, 7),
            ("T(3,4;3,5) # -T(3,5) # -T(3,4;3,7) # T(3,7)", 5),
        ]:
            nf = knots.normal_form(parse(expr), r)
            sets = index_sets(nf)
            for (q, s) in sets.points:
                assert oracles.level_sum(sets, q, s) == 0

    def test_out_of_range_levels_absent(self):
        nf = knots.normal_form(parse(J2), 5)
        sets = index_sets(nf)
        assert all(s < 2 for (_, s) in sets.points)


class TestDecompose:
    def test_worked_example(self):
        nf = knots.normal_form(parse(J2), 5)
        chi_a = (Character(5, (1, 4)),)
        chi_b = (Character(5, (4, 1)),)
        dec = decompose(nf, chi_a, chi_b)
        b3 = dec.B3[(3, 1)]
        assert set(b3.atoms) == {
            Classical(2, 3, normalize_root(1, 5), 1, 1),
            Classical(2, 3, normalize_root(4, 5), 1, 1),
        }
        b4 = dec.B4[(3, 1)]
        assert b4.atoms == (Classical(2, 3, normalize_root(0, 1), 1, -2),)
        assert len(dec.B1.atoms) == 2

    def test_trivial_characters_cancel_b1(self):
        nf = knots.normal_form(parse(J2), 5)
        theta = (Character(5, (0, 0)),)
        dec = decompose(nf, theta, theta)
        assert dec.B1.is_empty()

    def test_twisted_vs_classical_supports_disjoint(self):
        from sliceguard import witt

        nf = knots.normal_form(parse(J2), 5)
        dec = decompose(nf, (Character(5, (1, 4)),), (Character(5, (4, 1)),))
        twisted_support = set()
        for atom in dec.B1.atoms:
            twisted_support |= oracles.support_fractions(atom)
        classical_support = set()
        for block in list(dec.B3.values()) + list(dec.B4.values()):
            for atom in block.atoms:
                classical_support |= oracles.support_fractions(atom)
        assert not (twisted_support & classical_support)

    def test_character_shape_validation(self):
        nf = knots.normal_form(parse(J2), 5)
        with pytest.raises(ValueError):
            decompose(nf, (Character(3, (1, 2)),), (Character(3, (2, 1)),))
        with pytest.raises(ValueError):
            decompose(nf, (), ())


def test_verdict_caches_stay_bounded_over_many_inputs():
    # a long-lived process that obstructs many distinct inputs keeps at
    # most maxsize level blocks, which the verdicts need a dozen of at most;
    # the other verdict-path caches are keyed by the form's shape alone
    maxsize = pipeline._lambda_block.cache_info().maxsize
    by_shape = (covers.model_module, metabolizers._block_diagonal,
                metabolizers._coordinate_subspace)
    before = [fn.cache_info().currsize for fn in by_shape]
    primes = [q for q in range(3, 1000) if q not in (5, 7)
              and all(q % d for d in range(2, int(q ** 0.5) + 1))][:120]
    pipeline._lambda_block.cache_clear()
    for q in primes:
        verdict = obstruct(parse(f"T(2,{q};2,5) # -T(2,5) # -T(2,{q};2,7) # T(2,7)"))
        assert verdict.kind == "NOT_SLICE"
    info = pipeline._lambda_block.cache_info()
    assert maxsize is not None and info.misses > maxsize and info.currsize <= maxsize
    assert all(fn.cache_info().currsize - size <= 4 for fn, size in zip(by_shape, before))


class TestObstruct:
    def test_j_family(self):
        v = obstruct(parse(J2))
        assert v.kind == "NOT_SLICE" and v.r == 5
        assert len(v.certificates) == 2
        bases = {c.basis for c in v.certificates}
        assert bases == {((1, 1),), ((1, 4),)}
        for c in v.certificates:
            assert (c.q, c.s) == (3, 1)
            assert c.witness_jump != 0 and c.witness_jump % 2 == 0

    def test_reorder_and_mirror_invariance(self):
        base = obstruct(parse(J2))
        reordered = obstruct(parse("T(2,7) # -T(2,3;2,7) # -T(2,5) # T(2,3;2,5)"))
        mirrored = obstruct(oracles.mirror(parse(J2)))
        assert base.kind == reordered.kind == mirrored.kind == "NOT_SLICE"
        assert base.r == reordered.r == mirrored.r
        assert len(base.certificates) == len(reordered.certificates)
        assert len(base.certificates) == len(mirrored.certificates)

    def test_trivial_combination(self):
        assert obstruct(parse("T(2,3;2,5) # -T(2,3;2,5)")).kind == "TRIVIAL_COMBINATION"

    def test_not_algebraically_slice(self):
        v = obstruct(parse("T(2,3)"))
        assert v.kind == "NOT_ALGEBRAICALLY_SLICE"
        assert v.witness == (0, (2, 3), 1)

    def test_forced_r(self):
        v = obstruct(parse(J2), Options(r=7))
        assert v.kind == "NOT_SLICE" and v.r == 7
        assert len(v.certificates) == 2

    def test_p3_r7_includes_eigenline_metabolizers(self):
        # over F_7 the cube roots of unity split the deck action, so the
        # cover module of T(3,7) is a hyperbolic plane with two isotropic
        # invariant eigenlines: 2 x 2 eigenline sums join the six graphs of
        # the equivariant isometries (a, 1/a) in the split commutant
        v = obstruct(parse("T(3,4;3,5) # -T(3,5) # -T(3,4;3,7) # T(3,7)"), Options(r=7))
        assert v.kind == "NOT_SLICE" and v.r == 7
        assert len(v.certificates) == 10
        cases = sorted(c.case for c in v.certificates)
        # at r=7 the positive sequences ending in 7 are the length-one ones,
        # so the eigenline metabolizers obstruct through the mirror side
        assert cases.count(3) == 6 and cases.count(2) == 4
        verify_verdict(json.loads(v.to_json()))

    def test_hypothesis_failures_reported(self):
        v = obstruct(parse("T(6,5) # -T(6,5) # T(6,7)"))
        assert v.kind == "INCONCLUSIVE"
        assert "prime power" in v.reason
        v2 = obstruct(parse("T(2,9) # -T(2,9;2,9)"))
        assert v2.kind == "INCONCLUSIVE"

    def test_final_primes_over_13_are_tried(self):
        # the budget is the one refusal rule: a prime cap once made this
        # INCONCLUSIVE, though its form has two metabolizers
        v = obstruct(parse(R17))
        assert v.kind == "NOT_SLICE" and v.r == 17
        assert len(v.certificates) == 2
        verify_verdict(json.loads(v.to_json()))

    def test_budget_paths(self):
        # J2 at r = 5 needs a budget of 6 subspaces
        v = obstruct(parse(J2), Options(budget=1))
        assert v.kind == "INCONCLUSIVE" and "exceed the budget of 1" in v.reason
        v2 = obstruct(parse(J2), Options(budget=6))
        assert v2.kind == "NOT_SLICE"


class TestBudgetSemantics:
    """The budget counts every half-dimension subspace, walked or not: the
    refused trials of the stress seed keep their reasons byte for byte."""

    @pytest.mark.parametrize("expr,reason", [
        ("2*T(3,5;3,5;3,11) # -2*T(3,5;3,5;3,13) # -2*T(3,5;3,11) # 2*T(3,5;3,13)",
         "r=11: 51007364468993670 half-dimension subspaces exceed the budget of "
         "2000000; r=13: 725512377757846342 half-dimension subspaces exceed the "
         "budget of 2000000"),
        ("2*T(3,2;3,7) # -2*T(3,2;3,13) # -2*T(3,8;3,2;3,7) # 2*T(3,8;3,2;3,13)",
         "r=7: 39709010932102 half-dimension subspaces exceed the budget of "
         "2000000; r=13: 725512377757846342 half-dimension subspaces exceed the "
         "budget of 2000000"),
        ("-2*T(3,8;3,11;3,7) # 2*T(3,8;3,11;3,13) # 2*T(3,11;3,7) # -2*T(3,11;3,13)",
         "r=7: 39709010932102 half-dimension subspaces exceed the budget of "
         "2000000; r=13: 725512377757846342 half-dimension subspaces exceed the "
         "budget of 2000000"),
    ])
    def test_refused_stress_trials(self, expr, reason):
        v = obstruct(parse(expr))
        assert v.kind == "INCONCLUSIVE"
        assert v.reason == reason

    def test_p5_refusal_does_not_hang(self):
        # the cover form of T(5, 7) once went through a Smith form that did
        # not finish; a child process turns a regression into a failure
        code = ("from sliceguard import obstruct, parse\n"
                "print(obstruct(parse('T(5,3;5,7) # -T(5,7) # -T(5,3;5,11) "
                "# T(5,11)')).to_json())")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc["verdict"] == "INCONCLUSIVE"
        assert doc["reason"] == (
            "r=7: 39709010932102 half-dimension subspaces exceed the budget of "
            "2000000; r=11: 51007364468993670 half-dimension subspaces exceed "
            "the budget of 2000000"
        )

    def test_large_p_verify_refused_before_the_module(self):
        # NOT_SLICE documents at p = 2003 and p = 2^29: a list too short for
        # the form's rows is refused before the O(p) count, a list the form
        # fits is counted and refused over the budget, and neither builds
        # the O(p^3 log p) module
        code = ("import json, sys, time\n"
                "from sliceguard import pipeline\n"
                "for doc in json.loads(sys.argv[1]):\n"
                "    start = time.perf_counter()\n"
                "    try:\n"
                "        pipeline.verify_verdict(doc)\n"
                "    except Exception as exc:\n"
                "        assert time.perf_counter() - start < 1\n"
                "        print(type(exc).__name__, exc)\n")
        j2 = json.loads(_J2_DOC)
        big = 2 ** 29
        p_big = f"T({big},3;{big},5) # -T({big},5) # -T({big},3;{big},7) # T({big},7)"
        docs = [dict(j2, input=P2003, p=2003, metabolizers=[]),
                dict(j2, input=P2003, p=2003),
                dict(j2, input=P2003, p=2003, metabolizers=[{"basis": [[1] + [0] * 4003]}]),
                dict(j2, input=p_big, p=big),
                dict(j2, input=p_big, p=big, metabolizers=[{"basis": []}])]
        done = subprocess.run([sys.executable, "-c", code, json.dumps(docs)],
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        count = metabolizers.invariant_metabolizer_count(metabolizers.FormSpace(2003, 5, 1))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "VerificationError the document lists no metabolizers",
            "VerificationError a row of metabolizer 0 is not 4004 integers",
            f"BudgetExceeded {count} invariant metabolizers exceed the budget of 2000000",
            "VerificationError a row of metabolizer 0 is not 1073741822 integers",
            "VerificationError metabolizer 0 does not span an invariant metabolizer",
        ]


class TestVerification:
    @pytest.mark.parametrize("doc", [
        [1], {"p": 2}, "NOT_SLICE", None, 3,
        {"input": 3, "p": 2, "verdict": "NOT_SLICE"},
        {"input": J2, "p": "2", "verdict": "NOT_SLICE"},
        {"input": J2, "p": True, "verdict": "NOT_SLICE"},
        {"input": J2, "p": 2, "verdict": ["NOT_SLICE"]},
        {"input": J2, "p": 2},
    ])
    def test_malformed_document_rejected(self, doc):
        with pytest.raises(VerificationError, match="not a verdict document"):
            verify_verdict(doc)

    def test_roundtrip(self):
        for expr in [J2, "T(3,4;3,5) # -T(3,5) # -T(3,4;3,7) # T(3,7)"]:
            doc = json.loads(obstruct(parse(expr)).to_json())
            verify_verdict(doc)

    def test_cheap_verdicts(self):
        verify_verdict(json.loads(obstruct(parse("T(2,3;2,5) # -T(2,3;2,5)")).to_json()))
        verify_verdict(json.loads(obstruct(parse("T(2,3)")).to_json()))

    def test_tampering_detected(self):
        doc = json.loads(obstruct(parse(J2)).to_json())
        bad = json.loads(json.dumps(doc))
        bad["metabolizers"][0]["witness"]["total_jump"] += 2
        with pytest.raises(VerificationError):
            verify_verdict(bad)
        bad2 = json.loads(json.dumps(doc))
        bad2["metabolizers"][0]["character"]["a"][0] = [2, 2]
        with pytest.raises((VerificationError, ValueError)):
            verify_verdict(bad2)
        bad3 = json.loads(json.dumps(doc))
        del bad3["metabolizers"][1]
        with pytest.raises(VerificationError):
            verify_verdict(bad3)
        bad4 = json.loads(json.dumps(doc))
        bad4["metabolizers"][0]["qs"] = [7, 1]
        with pytest.raises(VerificationError):
            verify_verdict(bad4)

    def test_budget_reaches_the_enumeration(self):
        # J2 at r = 5 scans the 6 lines of F_5^2, 2 of them invariant
        # metabolizers: the walk is refused below 6, and the document made
        # under a budget of 6 verifies under its count, 2, and not below it
        assert "exceed the budget of 5" in obstruct(parse(J2), Options(budget=5)).reason
        doc = json.loads(obstruct(parse(J2), Options(budget=6)).to_json())
        assert doc["verdict"] == "NOT_SLICE"
        verify_verdict(doc, budget=2)
        with pytest.raises(BudgetExceeded,
                           match="^2 invariant metabolizers exceed the budget of 1$"):
            verify_verdict(doc, budget=1)

    def test_m1_3_document_under_a_larger_budget(self):
        # over the default budget: produced and verified under a larger
        # one, refused with the budget's text under the default
        v = obstruct(parse(M3), Options(budget=3_000_000))
        assert v.kind == "NOT_SLICE" and v.r == 5
        assert len(v.certificates) == 312
        verify_verdict(json.loads(v.to_json()), budget=3_000_000)
        refused = obstruct(parse(M3), Options(r=5))
        assert refused.reason == (
            "r=5: 2558556 half-dimension subspaces exceed the budget of 2000000"
        )

    def test_verdict_path_uses_no_grassmannian_filter(self, monkeypatch):
        # the Grassmannian filter is the tests' brute-force oracle only: the
        # package has none, and verdicts never reach the oracle's
        def forbidden(*args, **kwargs):
            raise AssertionError("Grassmannian filter called on the verdict path")

        assert not hasattr(modp, "enumerate_subspaces")
        monkeypatch.setattr(oracles, "enumerate_subspaces", forbidden)
        for expr in [J2, J3, R13]:
            verdict = obstruct(parse(expr))
            assert verdict.kind == "NOT_SLICE"
            verify_verdict(json.loads(verdict.to_json()))

    def test_duplicated_metabolizer_rejected(self):
        doc = json.loads(obstruct(parse(J2)).to_json())
        doc["metabolizers"].append(doc["metabolizers"][0])
        with pytest.raises(VerificationError):
            verify_verdict(doc)

    def test_changed_p_rejected(self):
        doc = json.loads(obstruct(parse(J2)).to_json())
        doc["p"] = 7
        with pytest.raises(VerificationError):
            verify_verdict(doc)

    def test_changed_case_rejected(self):
        doc = json.loads(obstruct(parse(J2)).to_json())
        doc["metabolizers"][0]["case"] = 99
        with pytest.raises(VerificationError):
            verify_verdict(doc)

    @pytest.mark.parametrize("alter", [
        lambda doc: doc["axioms"].pop(),
        lambda doc: doc.update(extra=None),
        lambda doc: doc.update(algebraically_slice=1),
        lambda doc: doc.update(p=2.0),
    ], ids=["axiom-dropped", "extra-key", "one-for-true", "float-p"])
    def test_document_must_be_the_recomputation(self, alter):
        # 1 == True and 2 == 2.0, so only the serialized documents tell
        # these apart
        doc = json.loads(obstruct(parse(J2)).to_json())
        alter(doc)
        with pytest.raises(VerificationError):
            verify_verdict(doc)

    def test_verdict_path_uses_no_numeric_route(self, monkeypatch):
        # signatures, root isolation, the twisted polynomials, the
        # Seifert-presented cover and the jump table serve only the
        # inspection commands and the tests: patch every binding of them,
        # and of every definition in their route modules, to raise, and the
        # verdicts still come out and verify
        def forbidden(*args, **kwargs):
            raise AssertionError("numeric route called on the verdict path")

        lt_signature = seifert.lt_signature
        numeric = (lt_signature, laurent.unit_circle_roots,
                   twisted.twisted_alex_exterior, twisted.twisted_alex_surgery,
                   seifert.seifert_matrix, seifert.branched_cover,
                   seifert.jump_function, seifert._jump_function_cached)
        numeric += tuple(value for module in (fox, presentations)
                         for value in vars(module).values()
                         if callable(value) and getattr(value, "__module__", None) == module.__name__)
        assert presentations.seifert_matrix in numeric and fox._det in numeric
        for name, module in list(sys.modules.items()):
            if name == "sliceguard" or name.startswith("sliceguard."):
                for attr, value in list(vars(module).items()):
                    if any(value is fn for fn in numeric):
                        monkeypatch.setattr(module, attr, forbidden)
        covers.model_module.cache_clear()
        for expr in [J2, J3, R13]:
            verdict = obstruct(parse(expr))
            assert verdict.kind == "NOT_SLICE"
            verify_verdict(json.loads(verdict.to_json()))
        # the signature command's closed form needs no Seifert matrix either
        assert lt_signature(3, 4, Fraction(1, 2)) == -6

    def test_schema_fields(self):
        doc = json.loads(obstruct(parse(J2)).to_json())
        assert set(doc) >= {
            "input", "p", "r", "verdict", "algebraically_slice",
            "metabolizers", "axioms",
        }
        entry = doc["metabolizers"][0]
        assert set(entry) == {"basis", "case", "character", "qs", "witness"}
        assert set(entry["character"]) == {"a", "b"}
        assert set(entry["witness"]) == {"omega", "total_jump"}
        num, den = entry["witness"]["omega"].split("/")
        Fraction(int(num), int(den))


def _wrap_finish(monkeypatch, alter):
    """Route every call of the construction's last step through ``alter``,
    which edits its (fa, fb, q, s) before the character check runs."""
    real = metabolizers._finish

    def finish(L, F, sets, case, fa, fb, q, s):
        return real(L, F, sets, case, *alter(F, fa, fb, q, s))

    monkeypatch.setattr(metabolizers, "_finish", finish)


def _nonvanishing_functional(monkeypatch):
    # the first functional moves off the annihilator of the metabolizer
    _wrap_finish(monkeypatch, lambda F, fa, fb, q, s: (
        ((fa[0] + 1) % F.r,) + tuple(fa[1:]), fb, q, s))


def _character_not_induced(monkeypatch):
    # one value too many: no functional on the module induces it
    real = Character.from_functional

    def build(cls, r, functional):
        chi = real(r, functional)
        return cls(chi.r, chi.values + (0,))

    monkeypatch.setattr(Character, "from_functional", classmethod(build))


def _wrong_level(monkeypatch):
    # J2 has no companion level at s = 2
    _wrap_finish(monkeypatch, lambda F, fa, fb, q, s: (fa, fb, q, s + 1))


class TestCharacterCheck:
    """``metabolizers.check_characters`` runs on every certificate as it is
    built, so a faulty construction stops ``obstruct`` and
    ``verify_verdict`` alike, with the one self-check error."""

    @pytest.mark.parametrize("fault, message", [
        (_nonvanishing_functional, "do not vanish on the metabolizer"),
        (_character_not_induced, "is not induced by any functional"),
        (_wrong_level, "neither level condition"),
    ], ids=["not-vanishing", "not-induced", "wrong-level"])
    def test_fault_raises_convention_error(self, monkeypatch, fault, message):
        doc = json.loads(obstruct(parse(J2)).to_json())
        fault(monkeypatch)
        with pytest.raises(ConventionError, match=message):
            obstruct(parse(J2))
        with pytest.raises(ConventionError, match=message):
            verify_verdict(doc)


# ---------------------------------------------------------------------------
# The verifier's boundary: whatever a document holds, verify_verdict
# answers with one of its three refusals
# ---------------------------------------------------------------------------

_J2_DOC = obstruct(parse(J2)).to_json()

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False)
    | st.text(alphabet="T(),;#-*0123456789 ", max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "basis", "qs", "omega", "x"]),
                      inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    doc = json.loads(_J2_DOC)
    for _ in range(draw(st.integers(1, 3))):
        # the top-level fields are drawn as often as all positions together
        paths = list(_paths(doc))
        path = draw(st.sampled_from([p for p in paths if len(p) == 1] or paths)
                    | st.sampled_from(paths))
        if not path:
            doc = draw(_JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(_JSON)
        elif isinstance(parent, dict):
            del parent[path[-1]]
        else:
            parent.insert(path[-1], draw(_JSON))
    return doc


class TestVerifierBoundary:
    @settings(max_examples=150, deadline=None)
    @given(_mutated_documents())
    def test_mutated_document_is_refused_in_its_own_terms(self, doc):
        # a mutation can write back the value it replaced, so success is
        # allowed; any error other than the three refusals is not
        try:
            verify_verdict(doc)
        except (VerificationError, ParseError, BudgetExceeded):
            pass


@st.composite
def _malformed_metabolizer_lists(draw):
    """The J2 document with a malformed metabolizer list, and the one line
    that refuses it."""
    doc = json.loads(_J2_DOC)
    mets = doc["metabolizers"]
    i = draw(st.integers(0, len(mets) - 1))
    row = mets[i]["basis"][0]
    kind = draw(st.sampled_from(["missing", "not-a-list", "no-basis", "not-int",
                                 "row-length", "not-reduced"]))
    if kind == "missing":
        del doc["metabolizers"]
    elif kind == "not-a-list":
        doc["metabolizers"] = draw(st.none() | st.integers() | st.text(max_size=3)
                                   | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
    elif kind == "no-basis":
        mets[i] = draw(st.none() | st.integers() | st.lists(st.integers(), max_size=2)
                       | st.just({key: value for key, value in mets[i].items() if key != "basis"})
                       | st.builds(lambda basis: {**mets[i], "basis": basis},
                                   st.none() | st.integers() | st.text(max_size=3)))
    elif kind == "not-int":
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.none() | st.booleans() | st.floats() | st.text(max_size=2)
            | st.lists(st.integers(), max_size=1))
    elif kind == "row-length":
        if draw(st.booleans()):
            row.extend(draw(st.lists(st.integers(0, 4), min_size=1, max_size=2)))
        else:
            del row[draw(st.integers(0, len(row) - 1)):]
    else:
        alter = draw(st.sampled_from(["scale", "shift", "zero-row", "repeat-row"]))
        if alter == "scale":
            row[:] = [draw(st.integers(2, 4)) * x for x in row]
        elif alter == "shift":
            row[draw(st.integers(0, len(row) - 1))] += draw(st.sampled_from([-5, 5, 10]))
        else:
            mets[i]["basis"].append([0] * len(row) if alter == "zero-row" else list(row))
    reason = {
        "missing": "the document's metabolizers are not a list",
        "not-a-list": "the document's metabolizers are not a list",
        "no-basis": f"metabolizer {i} has no basis list",
        "not-int": f"a row of metabolizer {i} is not 2 integers",
        "row-length": f"a row of metabolizer {i} is not 2 integers",
        "not-reduced": f"the basis of metabolizer {i} is not reduced",
    }[kind]
    return doc, reason


@settings(max_examples=100, deadline=None)
@given(_malformed_metabolizer_lists())
def test_a_malformed_metabolizer_list_is_refused_in_one_line(case):
    doc, reason = case
    with pytest.raises(VerificationError) as exc:
        verify_verdict(doc)
    assert str(exc.value) == reason


@pytest.fixture(scope="module")
def m12_document():
    # about 7 s to obstruct; its check takes a fraction of a second
    verdict = obstruct(parse(M12), Options(budget=10**30))
    assert verdict.kind == "NOT_SLICE" and verdict.r == 5 and len(verdict.certificates) == 756
    return verdict.to_json()


class TestVerifyByCount:
    """``verify_verdict`` checks the recorded bases and their number against
    the closed-form count instead of walking the metabolizers again, so a
    walk that loses a metabolizer cannot vouch for its own document."""

    def test_the_check_never_enumerates(self, monkeypatch, m12_document):
        docs = [obstruct(parse(expr)).to_json() for expr in (J2, J3)]

        def forbidden(*args, **kwargs):
            raise AssertionError("the metabolizer enumeration ran")

        monkeypatch.setattr(metabolizers, "enumerate_invariant_metabolizers", forbidden)
        for doc in docs:
            verify_verdict(json.loads(doc))
        verify_verdict(json.loads(m12_document), budget=10**30)
        with pytest.raises(AssertionError, match="the metabolizer enumeration ran"):
            obstruct(parse(J2))

    def test_m1_2_document_verifies_under_the_default_budget(self, m12_document, tmp_path):
        # its walk visits 200525284806 subspaces, but the check reads 756
        # bases, which the budget bounds
        verify_verdict(json.loads(m12_document))
        path = tmp_path / "m12.json"
        path.write_text(m12_document)
        argv = [sys.executable, "-m", "sliceguard.cli", "obstruct", "--verify", str(path)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == 0 and "bit-for-bit" in done.stdout, done.stderr
        done = subprocess.run([*argv, "--budget", "755"], capture_output=True, text=True,
                              timeout=30, env=env)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("budget refused: 756 invariant metabolizers exceed the "
                               "budget of 755\n")

    def test_the_count_is_at_most_the_grassmannian(self):
        # so a document obstruct writes under a budget verifies under it
        for p in range(2, 8):
            for r in (2, 3, 5, 7, 11, 13):
                for m1 in (1, 2, 3):
                    if p % r:
                        F = metabolizers.FormSpace(p, r, m1)
                        total = modp.subspace_count(F.ambient_dim, F.half_dim, r)
                        assert metabolizers.invariant_metabolizer_count(F) <= total

    def test_a_dropped_metabolizer_is_refused_by_the_count(self, monkeypatch):
        # the walk loses its last metabolizer and obstruct's own count check
        # is bypassed, so obstruct writes a short document; the walk stays
        # faulty while the document is checked
        walk = metabolizers.enumerate_invariant_metabolizers
        count = metabolizers.invariant_metabolizer_count
        monkeypatch.setattr(metabolizers, "enumerate_invariant_metabolizers",
                            lambda F, budget: walk(F, budget)[:-1])
        with monkeypatch.context() as bypass:
            bypass.setattr(metabolizers, "invariant_metabolizer_count", lambda F: count(F) - 1)
            verdict = obstruct(parse(J3))
        assert verdict.kind == "NOT_SLICE" and len(verdict.certificates) == 5
        with pytest.raises(VerificationError) as exc:
            verify_verdict(json.loads(verdict.to_json()))
        assert str(exc.value) == "the document certifies 5 of the form's 6 invariant metabolizers"

    def test_the_count_checks_the_walk(self, monkeypatch):
        walk = metabolizers.enumerate_invariant_metabolizers
        monkeypatch.setattr(metabolizers, "enumerate_invariant_metabolizers",
                            lambda F, budget: walk(F, budget)[:-1])
        with pytest.raises(ConventionError,
                           match="^the enumeration found 5 invariant metabolizers, but the form has 6$"):
            obstruct(parse(J3))

    @pytest.mark.parametrize("alter, reason", [
        (lambda mets: mets.pop(), "the document certifies 1 of the form's 2 invariant metabolizers"),
        (lambda mets: mets.append(mets[0]), "metabolizer 2 does not follow metabolizer 1 in order"),
        (lambda mets: mets.reverse(), "metabolizer 1 does not follow metabolizer 0 in order"),
        (lambda mets: mets[0].update(basis=[[1, 0]]),
         "metabolizer 0 does not span an invariant metabolizer"),
        (lambda mets: mets[1].update(basis=[[1, 2]]),
         "metabolizer 1 does not span an invariant metabolizer"),
    ], ids=["dropped", "duplicated", "reordered", "not-isotropic", "foreign"])
    def test_each_fault_is_refused_in_its_own_terms(self, alter, reason):
        doc = json.loads(_J2_DOC)
        alter(doc["metabolizers"])
        with pytest.raises(VerificationError) as exc:
            verify_verdict(doc)
        assert str(exc.value) == reason


# ---------------------------------------------------------------------------
# The jump decision against its materialized route
# ---------------------------------------------------------------------------


@st.composite
def _decompositions(draw):
    """Blocks of the decomposition's shape whose supports often meet:
    companion indices that share a factor (3, 9 and 15; 5, 15 and 35;
    7 and 35) or are coprime, some sharing one with r, and twists at the
    same r-th roots."""
    p = draw(st.sampled_from([2, 3]))
    r = draw(st.sampled_from([r for r in (3, 5, 7) if r % p]))
    chars = covers.characters(p, r)
    B1 = witt.WittClass(witt.Twisted(p, r, draw(st.sampled_from(chars)), sign)
                        for sign in draw(st.lists(st.sampled_from([1, -1]), max_size=2)))
    keys = draw(st.lists(st.tuples(st.sampled_from([q for q in (3, 5, 7, 9, 11, 15, 35)
                                                    if q % p]),
                                   st.integers(1, 2)), min_size=1, max_size=3, unique=True))

    def block(q, s):
        return witt.WittClass(
            Classical(p, q, normalize_root(p ** (s - 1) * a, r), p ** (s - 1), sign)
            for a, sign in draw(st.lists(st.tuples(st.integers(0, r - 1),
                                                   st.sampled_from([1, -1])), max_size=3)))

    return pipeline.Decomposition(B1=B1, B3={key: block(*key) for key in keys},
                                  B4={key: block(*key) for key in keys})


# a block whose support misses the rest of the class, and a level (3, 2)
# block whose first jump, at 1/12, the level (15, 2) block cancels, so that
# the witness moves to 1/4: each run sees both, whatever else is drawn
_DISJOINT = pipeline.Decomposition(
    B1=witt.WittClass([witt.Twisted(2, 3, Character(3, (1, 2)))]),
    B3={(7, 1): witt.WittClass([Classical(2, 7, normalize_root(2, 3), 1, -2)])},
    B4={(7, 1): witt.WittClass()})
_MOVED = pipeline.Decomposition(
    B1=witt.WittClass(),
    B3={(3, 2): witt.WittClass(),
        (15, 2): witt.WittClass([Classical(2, 15, normalize_root(0, 3), 2, 1)]),
        (3, 1): witt.WittClass([Classical(2, 3, normalize_root(1, 3), 1, 1)])},
    B4={(3, 2): witt.WittClass([Classical(2, 3, normalize_root(2, 3), 2, 1)]),
        (15, 2): witt.WittClass(), (3, 1): witt.WittClass()})


def test_witness_matches_the_union_scan_and_the_block_alone():
    # the point rule against its materialized route everywhere, and against
    # the block's own scan wherever the supports are disjoint
    seen = set()

    @given(_decompositions())
    @example(_DISJOINT)
    @example(_MOVED)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(dec):
        for q, s in dec.B3:
            witness = pipeline._witness(dec, q, s)
            assert witness == oracles.witness_by_union_scan(dec, q, s)
            alone = witt.is_metabolic_classical(dec.B3[(q, s)] + dec.B4[(q, s)])
            if oracles.disjoint_by_intersection(dec, q, s):
                assert witness == alone
                seen.add("disjoint")
            elif witness != alone:
                seen.add("moved")

    check()
    # both the splitting hypothesis and witnesses that only the rule finds
    assert seen == {"disjoint", "moved"}


def test_another_level_cancels_the_blocks_first_jump():
    # T(2,3) twisted by 1/3 and T(2,5) twisted by 1/5 both jump by +2 at
    # 1/2, so with opposite signs at two levels they cancel there
    empty = witt.WittClass()
    dec = pipeline.Decomposition(
        B1=empty,
        B3={(3, 1): witt.WittClass([Classical(2, 3, normalize_root(1, 3), 1, 1)]),
            (5, 1): witt.WittClass([Classical(2, 5, normalize_root(1, 5), 1, -1)])},
        B4={(3, 1): empty, (5, 1): empty})
    assert witt.is_metabolic_classical(dec.B3[(3, 1)]) == (False, (RootOfUnity(1, 2), 2))
    assert pipeline._witness(dec, 3, 1) == (False, (RootOfUnity(5, 6), -2))
    assert pipeline._witness(dec, 3, 1) == oracles.witness_by_union_scan(dec, 3, 1)


def _refused_decomposition():
    """J2's B1 at r = 5 (support 2/5 and 3/5) with a level (3, 1) block
    jumping at 1/15 and 2/5, and a level (5, 1) atom cancelling it at 1/15:
    the block's only nonzero total lies in the support of B1.  Its twists
    have order 30, which p = 2 divides; a block that ``decompose`` builds,
    with twists over r, has no point there."""
    nf = knots.normal_form(parse(J2), 5)
    B1 = decompose(nf, (Character(5, (1, 4)),), (Character(5, (4, 1)),)).B1
    empty = witt.WittClass()
    return pipeline.Decomposition(
        B1=B1,
        B3={(3, 1): witt.WittClass([Classical(2, 3, normalize_root(23, 30), 1, 1)]),
            (5, 1): witt.WittClass([Classical(2, 5, normalize_root(1, 30), 1, 1)])},
        B4={(3, 1): empty, (5, 1): empty})


def test_a_block_whose_jumps_lie_in_the_twisted_support_is_refused(monkeypatch):
    dec = _refused_decomposition()
    assert oracles.support_fractions(dec.B1.atoms[0]) == {Fraction(2, 5), Fraction(3, 5)}
    assert witt.is_metabolic_classical(dec.B3[(3, 1)]) == (False, (RootOfUnity(1, 15), 2))
    assert witt.is_metabolic_classical(dec.B3[(3, 1)], dec.B3[(5, 1)].atoms) == (
        False, (RootOfUnity(2, 5), -2))
    assert pipeline._witness(dec, 3, 1) == (True, None) == oracles.witness_by_union_scan(
        dec, 3, 1)
    nf = knots.normal_form(parse(J2), 5)
    sets = index_sets(nf)
    F = metabolizers.FormSpace(2, 5, 1)
    L = next(iter(metabolizers.enumerate_invariant_metabolizers(F, 100)))
    choice = metabolizers.construct_character(L, F, sets)
    assert (choice.q, choice.s) == (3, 1)
    with pytest.raises(pipeline._Uncertified) as refused:
        pipeline._certify_metabolizer(L, F, nf, sets, {(choice.chi_a, choice.chi_b): dec})
    assert str(refused.value) == ("level (3,1) block has no jump point off the twisted "
                                  "support with a nonzero total jump")
    # every prime of J2 chooses the level (3, 1), and so meets the same block
    monkeypatch.setattr(pipeline, "decompose", lambda nf, chi_a, chi_b, sets: dec)
    verdict = obstruct(parse(J2))
    assert verdict.kind == "INCONCLUSIVE" and not verdict.certificates
    assert verdict.reason == "; ".join(f"r={r}: {refused.value}" for r in (5, 7))


def _overlapping_batch_draws(seed: int, count: int) -> list:
    """The benchmark's batch blocks (perfbench/inputs.py), keeping only the
    draws whose companion indices share a factor, which its generator
    draws again."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", SRC.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = random.Random(seed)
    strata = [(p, m1, r) for (p, m1, r), _ in inputs.STRATA if m1 <= 2 and r <= 7]
    out = []
    while len(out) < count:
        p, m1, r = rng.choice(strata)
        above = [c for c in inputs.PRIMES if c > r and c % p]
        blocks = [inputs._block(p, r, rng.choice(above), rng) for _ in range(m1)]
        heads = {q for block in blocks for qs, _ in block for q in qs[:-1]}
        if any(gcd(a, b) > 1 for a in heads for b in heads if a < b):
            out.append(inputs.combination(p, blocks, rng.choice((1, -1))))
    return out


def test_overlapping_batch_draws_obstruct_and_verify(monkeypatch):
    # the disjointness check refused some of these as INCONCLUSIVE
    witness = pipeline._witness

    def checked(dec, q, s):
        answer = witness(dec, q, s)
        assert answer == oracles.witness_by_union_scan(dec, q, s)
        return answer

    monkeypatch.setattr(pipeline, "_witness", checked)
    for text in _overlapping_batch_draws(11, 24):
        verdict = obstruct(parse(text))
        assert verdict.kind == "NOT_SLICE", verdict.reason
        verify_verdict(json.loads(verdict.to_json()))


@pytest.mark.parametrize("text,r,count", [
    ("-T(2,3;2,5) # T(2,3;2,11) # 2*T(2,5) # -T(2,9;2,5) # T(2,9;2,11) # -2*T(2,11)", 5, 12),
    ("-T(2,3;2,7) # T(2,3;2,11) # 2*T(2,7) # -T(2,9;2,7) # T(2,9;2,11) # -2*T(2,11)", 7, 16),
    ("-T(2,3;2,9;2,7) # T(2,3;2,9;2,11) # T(2,5;2,7) # -T(2,5;2,11) # -T(2,9;2,5;2,7) "
     "# T(2,9;2,5;2,11) # T(2,9;2,7) # -T(2,9;2,11)", 7, 16),
], ids=["r5", "r7", "three-deep"])
def test_overlapping_levels_obstruct_and_verify(text, r, count):
    # levels whose supports meet, once INCONCLUSIVE: "not isolated"
    verdict = obstruct(parse(text))
    assert (verdict.kind, verdict.r, len(verdict.certificates)) == ("NOT_SLICE", r, count)
    verify_verdict(json.loads(verdict.to_json()))
