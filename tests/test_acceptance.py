"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line with its runtime.  Criteria marked with a time budget
assert it.  Everything here recomputes its expected values through an
independent route (numpy eigenvalues, explicit closed forms, brute-force
subspace filters) rather than trusting the code under test.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from sliceguard import covers, knots, modp, pipeline, seifert
from sliceguard.cyclo import Cyclo, normalize_root
from sliceguard.expr import parse
from sliceguard.laurent import LaurentPoly, RationalFn
from sliceguard.metabolizers import (
    CharacterChoice,
    FormSpace,
    Isometry,
    construct_character,
    enumerate_invariant_metabolizers,
    graph_detect,
    is_invariant_metabolizer,
)
from sliceguard.knots import index_sets
from sliceguard.modp import Subspace
from sliceguard.pipeline import Options, obstruct, verify_verdict
from sliceguard.twisted import rep_images, twisted_alex_exterior, twisted_alex_surgery

import oracles
from oracles import enumerate_subspaces

J2 = "T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)"
J3 = "T(3,4;3,5) # -T(3,5) # -T(3,4;3,7) # T(3,7)"


class _Timer:
    def __init__(self, label, budget=None):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance] criterion {self.label}: {status} ({elapsed:.1f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.label} took {elapsed:.1f}s, budget {self.budget}s"
            )
        return False


def _all_characters(p, q):
    return covers.characters(p, q)


def test_criterion_01_and_02_two_route_twisted_polynomials():
    """Fox-calculus route equals the closed form up to units for every
    p in {2,3,4,5}, q in {2,3,5,7}, gcd(p,q)=1, all q^(p-1) characters:
    the numerator through the oracle's Fox route, once per (p, q), and the
    denominator inside the package for every character; dividing by
    (-1)^(p-1)(t-1) reproduces the 0-surgery fraction; the representation
    relation c1^p = c2^q holds in every case."""
    with _Timer("1+2 (two-route twisted polynomials, representation relation)",
                budget=60):
        cases = 0
        for p in (2, 3, 4, 5):
            for q in (2, 3, 5, 7):
                if gcd(p, q) != 1:
                    continue
                chars = _all_characters(p, q)
                assert len(chars) == q ** (p - 1)
                closed_num = (
                    LaurentPoly.one() - LaurentPoly.from_ints([1], q)
                ) ** (p - 1)
                assert oracles.fox_numerator(p, q).eq_up_to_units(closed_num)
                for chi in chars:
                    rep_images(p, q, chi)  # criterion 2: raises on violation
                    ext = twisted_alex_exterior(p, q, chi)  # denominator assert inside
                    sur = twisted_alex_surgery(p, q, chi)
                    # independent reconstruction of the surgery fraction,
                    # compared by cross multiplication (no reduction needed)
                    num = closed_num.scale((-1) ** (p - 1))
                    den = LaurentPoly.from_ints([-1, 1])
                    for a in chi.values:
                        den = den * LaurentPoly(
                            0,
                            [Cyclo.from_root(normalize_root(0, 1)) * -1,
                             Cyclo.from_root(normalize_root(a, q))],
                        )
                    assert (sur.num * den).eq_up_to_units(
                        num * sur.den
                    )
                    # and the surgery is the exterior divided by that unit
                    assert (
                        sur.num * ext.den * LaurentPoly.from_ints([-1, 1])
                    ).eq_up_to_units(ext.num.scale((-1) ** (p - 1)) * sur.den)
                    cases += 1
        assert cases == sum(
            q ** (p - 1)
            for p in (2, 3, 4, 5)
            for q in (2, 3, 5, 7)
            if gcd(p, q) == 1
        )


def test_criterion_03_cover_structure():
    """H_1 of the p-fold cover of T(p,q) is F_q^(p-1) with deck action
    annihilated by 1 + t + ... + t^(p-1); the cover order equals the
    Alexander value product for n in {2,3,4}."""
    with _Timer("3 (branched cover structure and order identity)", budget=30):
        for (p, q) in [(2, 3), (2, 5), (2, 7), (3, 2), (3, 5), (4, 3), (5, 2)]:
            cover = seifert.branched_cover(p, q, p)
            assert cover.divisors == tuple([q] * (p - 1))
            mod = cover.module
            assert mod is not None and mod.dim == p - 1 and mod.r == q
            acc = [[0] * mod.dim for _ in range(mod.dim)]
            power = modp.identity(mod.dim)
            for _ in range(p):
                for i in range(mod.dim):
                    for j in range(mod.dim):
                        acc[i][j] = (acc[i][j] + power[i][j]) % q
                power = modp.mat_mul(power, mod.action, q)
            assert all(x == 0 for row in acc for x in row)
            assert modp.mat_eq(power, modp.identity(mod.dim))
            for n in (2, 3, 4):
                c = seifert.branched_cover(p, q, n)
                assert c.order == oracles.cover_order_from_alexander(p, q, n)


def _numpy_signature(V, x: Fraction):
    w = np.exp(2j * np.pi * (x.numerator / x.denominator))
    A = np.array(V, dtype=np.complex128)
    H = (1 - w) * A + (1 - np.conj(w)) * A.T
    eigs = np.linalg.eigvalsh(H)
    assert np.min(np.abs(eigs)) > 1e-7
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


def test_criterion_04_signature_oracle():
    """Closed-form signatures (sums of Litherland jumps) agree with the
    interval-certified signature of the Seifert form and with a floating
    eigenvalue oracle at 100 random points per knot; jumps are even, sum
    to zero, and are supported exactly on the Alexander root set."""
    with _Timer("4 (closed-form signatures vs interval and floating oracles)", budget=60):
        rng = random.Random(20240604)
        for (p, q) in [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)]:
            V = seifert.seifert_matrix(p, q)
            roots = {r.frac for r in oracles.alexander_roots(p, q)}
            checked = 0
            while checked < 100:
                x = Fraction(rng.randrange(1, 2520), 2520)
                if x in roots:
                    continue
                expected = _numpy_signature(V, x)
                assert seifert.lt_signature(p, q, x) == expected
                assert oracles.interval_signature(p, q, x) == expected
                checked += 1
            jumps = seifert.jump_function(p, q)
            assert sum(jumps.values()) == 0
            assert all(j % 2 == 0 and j != 0 for j in jumps.values())
            assert set(jumps) == roots


def _perp(L, G, r, n):
    rows = tuple(modp.vec_mat(row, G, r) for row in L.rows)
    if not rows:
        return Subspace(modp.identity(n), r)
    return Subspace(modp.nullspace(rows, r, ncols=n), r, n)


ACCEPTANCE_FORMS = [(2, 3, 1), (2, 5, 1), (3, 2, 1), (2, 3, 2)]


def test_criterion_05_metabolizer_oracle():
    """Invariant-metabolizer enumeration equals the brute-force
    all-subspaces filter, and the graph criterion holds exhaustively."""
    with _Timer("5 (metabolizer enumeration vs brute force, graph criterion)",
                budget=120):
        for (p, r, m1) in ACCEPTANCE_FORMS:
            F = FormSpace(p, r, m1)
            ours = enumerate_invariant_metabolizers(F)
            G, A = F.gram(), F.action()
            brute = [
                L
                for L in enumerate_subspaces(F.ambient_dim, F.half_dim, F.r)
                if _perp(L, G, F.r, F.ambient_dim) == L
                and all(L.contains(modp.vec_mat(v, A, F.r)) for v in L.rows)
            ]
            assert ours == brute
            # graph criterion, both directions
            D, Gh, Ah = F.half_dim, F.half_gram(), F.half_action()
            graphs = set()
            for L in ours:
                X = [row[:D] for row in L.rows]
                Y = [row[D:] for row in L.rows]
                trivial = (modp.rank(X, F.r) == D) and (modp.rank(Y, F.r) == D)
                detected = graph_detect(L, F)
                assert trivial == isinstance(detected, Isometry)
                if trivial:
                    g = detected.matrix
                    graphs.add(g)
                    assert modp.mat_eq(
                        modp.mat_mul(modp.mat_mul(g, Gh, F.r), tuple(zip(*g)), F.r), Gh
                    )
                    assert modp.mat_eq(
                        modp.mat_mul(Ah, g, F.r), modp.mat_mul(g, Ah, F.r)
                    )
            count = 0
            for mat in itertools.product(
                itertools.product(range(F.r), repeat=D), repeat=D
            ):
                gG = modp.mat_mul(mat, Gh, F.r)
                if not modp.mat_eq(modp.mat_mul(gG, tuple(zip(*mat)), F.r), Gh):
                    continue
                if not modp.mat_eq(
                    modp.mat_mul(Ah, mat, F.r), modp.mat_mul(mat, Ah, F.r)
                ):
                    continue
                count += 1
                rows = [
                    tuple(list(modp.identity(D)[i]) + list(mat[i])) for i in range(D)
                ]
                assert is_invariant_metabolizer(Subspace(rows, F.r), F)
            assert count == len(graphs)


CONTEXTS = {
    (2, 5, 1): (J2, 5),
    (2, 3, 1): ("T(2,5;2,3) # -T(2,3) # -T(2,5;2,7) # T(2,7)", 3),
    (3, 2, 1): ("T(3,5;3,2) # -T(3,2) # -T(3,5;3,7) # T(3,7)", 2),
    (2, 3, 2): (
        "T(2,5;2,3) # T(2,11;2,3) # -2*T(2,3) # -T(2,5;2,7) # T(2,7) "
        "# -T(2,11;2,13) # T(2,13)",
        3,
    ),
}


def test_criterion_06_character_construction_soundness():
    """For every metabolizer of the criterion-5 forms, embedded in a
    level-cancelling combination, the constructed characters vanish on the
    metabolizer and meet one of the two level conditions, re-verified by
    independent evaluation."""
    with _Timer("6 (character construction soundness)"):
        for (p, r, m1), (expr, rr) in CONTEXTS.items():
            assert r == rr
            K = knots.simplify(parse(expr))
            assert knots.algebraically_slice(K)[0]
            nf = knots.normal_form(K, r)
            assert nf.m1 == m1
            sets = index_sets(nf)
            F = FormSpace(p, r, m1)
            mets = enumerate_invariant_metabolizers(F)
            assert mets
            for L in mets:
                choice = construct_character(L, F, sets)
                assert isinstance(choice, CharacterChoice)
                dim = F.block_dim
                # independent evaluation on every vector of L
                for v in oracles.subspace_vectors(L):
                    total = 0
                    for k, chi in enumerate(choice.chi_a + choice.chi_b):
                        block = v[k * dim : (k + 1) * dim]
                        total += sum(
                            b * val for b, val in zip(block, chi.values[:dim])
                        )
                    assert total % r == 0
                key = (choice.q, choice.s)
                nza = {k for k, chi in enumerate(choice.chi_a) if not chi.is_trivial()}
                nzb = {k for k, chi in enumerate(choice.chi_b) if not chi.is_trivial()}
                cond1 = not (nzb & sets.I2[key]) and bool(nza & sets.I1[key])
                cond2 = not (nza & sets.I1[key]) and bool(nzb & sets.I2[key])
                assert cond1 or cond2


def test_criterion_07_level_tables():
    """The companion levels of the working family reproduce the displayed
    cancellation pattern, and the alternating level sums vanish for the
    p = 2 and p = 3 example combinations."""
    with _Timer("7 (companion level tables and alternating sums)"):
        # the four-term pattern J = T(p,q1;p,q2) # T(p,q3) # -T(p,q1;p,q3) # -T(p,q2)
        for (p, q1, q2, q3) in [(2, 3, 5, 7), (3, 4, 5, 7), (2, 9, 5, 7)]:
            J = knots.KnotCombination(
                p,
                [
                    (knots.IteratedTorusKnot(p, (q1, q2)), 1),
                    (knots.IteratedTorusKnot(p, (q3,)), 1),
                    (knots.IteratedTorusKnot(p, (q1, q3)), -1),
                    (knots.IteratedTorusKnot(p, (q2,)), -1),
                ],
            )
            # displayed table: level 0 is T(p,q2) # T(p,q3) # -T(p,q3) # -T(p,q2),
            # level 1 is T(p,q1) # -T(p,q1), level >= 2 the unknot
            assert knots.s_level(J, 0).is_unknot()
            assert knots.s_level(J, 1).is_unknot()
            assert knots.s_level(J, 2).is_unknot()
            half = knots.KnotCombination(
                p,
                [
                    (knots.IteratedTorusKnot(p, (q1, q2)), 1),
                    (knots.IteratedTorusKnot(p, (q3,)), 1),
                ],
            )
            assert knots.s_level(half, 0) == knots.TorusKnotSum({(p, q2): 1, (p, q3): 1})
            assert knots.s_level(half, 1) == knots.TorusKnotSum({(p, q1): 1})
        # level entries before cancellation, checked on a non-cancelling sum
        K = parse("T(2,3;2,5) # T(2,7)")
        assert knots.s_level(K, 0) == knots.TorusKnotSum({(2, 5): 1, (2, 7): 1})
        assert knots.s_level(K, 1) == knots.TorusKnotSum({(2, 3): 1})
        assert knots.s_level(K, 2).is_unknot()
        # alternating sums vanish at every level for the example combinations
        for expr, rs in [(J2, (5, 7)), (J3, (5, 7))]:
            K = knots.simplify(parse(expr))
            for r in rs:
                sets = index_sets(knots.normal_form(K, r))
                assert sets.points
                for (q, s) in sets.points:
                    assert sets.alternating_sum(q, s) == 0


def test_criterion_08_end_to_end():
    """obstruct on the p=2 example gives NOT_SLICE with exactly two
    certificates at r=5 and nonzero witness jumps; verdicts are stable
    under reordering and mirroring; the cheap verdicts come out right."""
    with _Timer("8 (end-to-end obstruction)", budget=120):
        v = obstruct(parse(J2))
        assert v.kind == "NOT_SLICE" and v.r == 5
        assert len(v.certificates) == 2
        assert {c.basis for c in v.certificates} == {((1, 1),), ((1, 4),)}
        for c in v.certificates:
            assert c.witness_jump != 0
            # re-verify the recorded jump through the jump functions
            dec = pipeline.decompose(
                knots.normal_form(knots.simplify(parse(J2)), 5), c.chi_a, c.chi_b
            )
            from sliceguard import witt

            block = dec.B3[(c.q, c.s)] + dec.B4[(c.q, c.s)]
            omega = c.witness_omega
            total = sum(witt.jump_of(a, omega.numer, omega.order) for a in block.atoms)
            assert total == c.witness_jump
        reordered = obstruct(parse("T(2,7) # -T(2,3;2,7) # -T(2,5) # T(2,3;2,5)"))
        mirrored = obstruct(oracles.mirror(parse(J2)))
        assert reordered.kind == mirrored.kind == "NOT_SLICE"
        assert reordered.r == mirrored.r == 5
        assert len(reordered.certificates) == len(mirrored.certificates) == 2
        assert obstruct(parse("T(2,3;2,5) # -T(2,3;2,5)")).kind == "TRIVIAL_COMBINATION"
        bad = obstruct(parse("T(2,3)"))
        assert bad.kind == "NOT_ALGEBRAICALLY_SLICE"
        assert bad.witness == (0, (2, 3), 1)


def test_criterion_09_p3_instance():
    """The p=3 combination built from S_3 members is obstructed at r=5 with
    one re-validating certificate per invariant metabolizer of the
    four-dimensional F_5 form, whose count matches brute force."""
    with _Timer("9 (p=3 instance)", budget=600):
        v = obstruct(parse(J3))
        assert v.kind == "NOT_SLICE" and v.r == 5
        F = FormSpace(3, 5, 1)
        assert F.ambient_dim == 4
        G, A = F.gram(), F.action()
        brute = [
            L
            for L in enumerate_subspaces(4, 2, 5)
            if _perp(L, G, 5, 4) == L
            and all(L.contains(modp.vec_mat(w, A, 5)) for w in L.rows)
        ]
        assert len(v.certificates) == len(brute)
        assert {c.basis for c in v.certificates} == {L.rows for L in brute}
        verify_verdict(json.loads(v.to_json()))


def test_criterion_10_certificate_reverification():
    """A verify pass over every certificate emitted in criteria 8 and 9
    recomputes characters, index sets, and witness jumps from scratch."""
    with _Timer("10 (certificate re-verification)"):
        for expr in (J2, J3):
            doc = json.loads(obstruct(parse(expr)).to_json())
            assert doc["verdict"] == "NOT_SLICE" and doc["metabolizers"]
            verify_verdict(doc)
            # tampered copies must be rejected
            import copy

            broken = copy.deepcopy(doc)
            broken["metabolizers"][0]["witness"]["total_jump"] += 2
            with pytest.raises(pipeline.VerificationError):
                verify_verdict(broken)
