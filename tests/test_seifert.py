import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from sliceguard import seifert
from sliceguard.cyclo import normalize_root
from sliceguard.laurent import LaurentPoly, unit_circle_roots

# every coprime (p, q) with p <= 6 and q <= 11: the closed forms of the
# verdict path are checked against the numeric routes on all of them
CLOSED_FORM_PAIRS = [
    (p, q) for p in range(2, 7) for q in range(2, 12) if gcd(p, q) == 1
]


def _sympy_alexander_oracle(p, q):
    """Reference Alexander polynomial (t^{pq}-1)(t-1)/((t^p-1)(t^q-1)),
    computed with sympy, normalized to lowest coefficient first."""
    t = sympy.symbols("t")
    num = sympy.expand((t ** (p * q) - 1) * (t - 1))
    den = sympy.expand((t**p - 1) * (t**q - 1))
    quo, rem = sympy.div(num, den, t)
    assert rem == 0
    return sympy.Poly(quo, t).all_coeffs()[::-1]


def _sympy_seifert_det_oracle(V):
    t = sympy.symbols("t")
    M = sympy.Matrix(len(V), len(V), lambda i, j: V[i][j] - t * V[j][i])
    return sympy.Poly(sympy.expand(M.det()), t).all_coeffs()[::-1]


def _normalize_int_poly(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if coeffs and coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def _numpy_signature_oracle(V, x):
    w = np.exp(2j * np.pi * float(x))
    A = np.array(V, dtype=np.complex128)
    H = (1 - w) * A + (1 - np.conj(w)) * A.T
    eigs = np.linalg.eigvalsh(H)
    assert np.min(np.abs(eigs)) > 1e-8, "oracle sampled too close to a root"
    return int(np.sum(eigs > 0) - np.sum(eigs < 0))


class TestSeifertMatrix:
    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (2, 7), (3, 2), (3, 5), (4, 3), (5, 2)])
    def test_determinant_identities_against_sympy(self, p, q):
        V = seifert.seifert_matrix(p, q)
        assert len(V) == (p - 1) * (q - 1)
        J = sympy.Matrix(len(V), len(V), lambda i, j: V[i][j] - V[j][i])
        assert J.det() in (1, -1)
        ours = _normalize_int_poly(_sympy_seifert_det_oracle(V))
        ref = _normalize_int_poly(_sympy_alexander_oracle(p, q))
        assert ours == ref or ours == ref[::-1]

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            seifert.seifert_matrix(2, 4)


class TestAlexander:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (3, 5), (2, 11)])
    def test_determinant_route_against_sympy(self, p, q):
        # validates the in-house polynomial determinant itself
        V = seifert.seifert_matrix(p, q)
        ref = _normalize_int_poly(_sympy_seifert_det_oracle(V))
        ours = seifert.alexander_poly(p, q)
        got = _normalize_int_poly(
            [c.to_fraction() for c in ours.coeffs]
        )
        assert got == ref or got == ref[::-1]

    def test_small_cases(self):
        assert seifert.alexander_poly(2, 3) == LaurentPoly.from_ints([1, -1, 1])
        assert seifert.alexander_poly(2, 5) == LaurentPoly.from_ints([1, -1, 1, -1, 1])
        assert seifert.alexander_poly(3, 2) == seifert.alexander_poly(2, 3)

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5)])
    def test_root_characterization(self, p, q):
        roots = seifert.alexander_roots(p, q)
        expected = {
            normalize_root(a, p * q)
            for a in range(1, p * q)
            if a % p and a % q
        }
        assert set(roots) == expected
        assert all(m == 1 for m in roots.values())

    @pytest.mark.parametrize("p,q", CLOSED_FORM_PAIRS)
    def test_closed_form_roots_match_root_isolation(self, p, q):
        isolated = unit_circle_roots(seifert.alexander_poly(p, q), {p * q})
        assert seifert.alexander_roots(p, q) == isolated


def _midpoint_jumps(p, q):
    """The signature route to the jumps: certified signatures at the
    midpoints between consecutive Alexander roots, differenced.  The
    signature is symmetric under x -> 1 - x, and so is the set of
    midpoints, so each value is computed once."""
    roots = sorted(root.frac for root in seifert.alexander_roots(p, q))
    edges = [Fraction(0)] + roots + [Fraction(1)]
    sigma = {}
    for a, b in zip(edges, edges[1:]):
        m = (a + b) / 2
        sigma[m] = sigma[1 - m] if 1 - m in sigma else seifert.lt_signature(p, q, m, 128)
    values = list(sigma.values())
    assert values[0] == values[-1] == 0, "signature does not vanish near 1"
    return {x: d for x, d in zip(roots, (b - a for a, b in zip(values, values[1:]))) if d}


class TestSignature:
    def test_known_values(self):
        assert seifert.lt_signature(2, 3, Fraction(1, 2)) == -2
        assert seifert.lt_signature(2, 3, Fraction(1, 12)) == 0
        assert seifert.lt_signature(2, 5, Fraction(1, 2)) == -4
        # E6 and E8 anchors
        assert seifert.lt_signature(3, 4, Fraction(1, 2)) == -6
        assert seifert.lt_signature(3, 5, Fraction(1, 2)) == -8

    def test_rejects_roots(self):
        with pytest.raises(ValueError):
            seifert.lt_signature(2, 3, Fraction(1, 6))
        with pytest.raises(ValueError):
            seifert.lt_signature(2, 3, Fraction(3, 2))

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 7), (3, 4)])
    def test_against_numpy_oracle(self, p, q):
        rng = random.Random(1000 * p + q)
        V = seifert.seifert_matrix(p, q)
        roots = {r.frac for r in seifert.alexander_roots(p, q)}
        done = 0
        while done < 25:
            x = Fraction(rng.randrange(1, 840), 840)
            if x in roots or x == 0:
                continue
            assert seifert.lt_signature(p, q, x) == _numpy_signature_oracle(V, x)
            done += 1

    def test_exact_fallback_agrees(self):
        V = seifert.seifert_matrix(3, 4)
        for x in (Fraction(1, 2), Fraction(1, 5), Fraction(7, 8)):
            assert seifert._exact_signature(V, x) == seifert.lt_signature(3, 4, x)

    def test_constant_between_jumps(self):
        jumps = sorted(seifert.jump_function(2, 5))
        for a, b in zip(jumps, jumps[1:]):
            samples = [a + (b - a) * Fraction(k, 4) for k in (1, 2, 3)]
            values = {seifert.lt_signature(2, 5, s) for s in samples}
            assert len(values) == 1


class TestJumps:
    @pytest.mark.parametrize("p,q", CLOSED_FORM_PAIRS)
    def test_litherland_matches_midpoint_signatures(self, p, q):
        assert seifert.jump_function(p, q) == _midpoint_jumps(p, q)

    def test_closed_forms_reject_non_torus_parameters(self):
        for p, q in [(4, 6), (1, 3)]:
            with pytest.raises(ValueError):
                seifert.jump_function(p, q)
            with pytest.raises(ValueError):
                seifert.alexander_roots(p, q)

    def test_trefoil(self):
        assert seifert.jump_function(2, 3) == {
            Fraction(1, 6): -2,
            Fraction(5, 6): 2,
        }

    def test_cinquefoil(self):
        assert seifert.jump_function(2, 5) == {
            Fraction(1, 10): -2,
            Fraction(3, 10): -2,
            Fraction(7, 10): 2,
            Fraction(9, 10): 2,
        }

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5)])
    def test_jump_invariants(self, p, q):
        jumps = seifert.jump_function(p, q)
        assert sum(jumps.values()) == 0
        assert all(j % 2 == 0 and j != 0 for j in jumps.values())
        roots = {r.frac for r in seifert.alexander_roots(p, q)}
        assert set(jumps) <= roots


class TestBranchedCovers:
    def test_double_cover_of_trefoil(self):
        cover = seifert.branched_cover(2, 3, 2)
        assert cover.divisors == (3,)
        mod = cover.module
        assert mod.r == 3 and mod.dim == 1
        assert mod.action == ((2,),)  # deck action is -1
        assert mod.gram[0][0] in (1, 2)

    def test_double_cover_of_cinquefoil(self):
        cover = seifert.branched_cover(2, 5, 2)
        assert cover.divisors == (5,)
        assert cover.module.action == ((4,),)

    def test_triple_cover_of_trefoil_as_t32(self):
        cover = seifert.branched_cover(3, 2, 3)
        assert cover.divisors == (2, 2)
        mod = cover.module
        # deck action annihilated by 1 + t + t^2 over F_2, order 3
        from sliceguard import modp

        A = mod.action
        A2 = modp.mat_mul(A, A, 2)
        s = tuple(
            tuple((modp.identity(2)[i][j] + A[i][j] + A2[i][j]) % 2 for j in range(2))
            for i in range(2)
        )
        assert all(x == 0 for row in s for x in row)
        A3 = modp.mat_mul(A2, A, 2)
        assert modp.mat_eq(A3, modp.identity(2))

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (3, 4)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_order_identity(self, p, q, n):
        cover = seifert.branched_cover(p, q, n)
        assert cover.order == seifert.cover_order_from_alexander(p, q, n)

    def test_presentation_record(self):
        cover = seifert.branched_cover(2, 3, 2)
        size = 2 * len(seifert.seifert_matrix(2, 3))
        assert len(cover.presentation.matrix) == size
        deck = cover.presentation.deck
        assert sorted(sum(row) for row in deck) == [1] * size

    def test_nonsingularity_and_equivariance_enforced(self):
        # n = 6 is not a prime power: homology is infinite and the
        # presentation must be rejected
        with pytest.raises(seifert.ConventionError):
            seifert.branched_cover(2, 3, 6)


# ---------------------------------------------------------------------------
# Exact integer kernels against independent routes
# ---------------------------------------------------------------------------


def _fraction_inverse(rows):
    """Gauss-Jordan inverse over the rationals: the reference for the
    tracked Smith transforms and for the linking form."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _int_matrices(max_rows=5, max_cols=5, bound=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    )


@given(_int_matrices())
@settings(max_examples=150, deadline=None)
def test_smith_transforms_diagonalize_and_invert(A):
    divisors, U, Uinv, W = seifert.smith_normal_form(A)
    nrows, ncols = len(A), len(A[0])
    assert len(divisors) == min(nrows, ncols)
    diag = [[divisors[i] if i == j else 0 for j in range(ncols)] for i in range(nrows)]
    assert _mat_mul(_mat_mul(U, A), W) == diag
    assert _mat_mul(U, Uinv) == [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    assert abs(sympy.Matrix(W).det()) == 1
    assert all(d >= 0 for d in divisors)
    assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]) if a)


_int_polys = st.lists(st.integers(-3, 3), max_size=3)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_int_polys, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_poly_bareiss_matches_sympy(rows):
    t = sympy.symbols("t")
    n = len(rows)
    M = sympy.Matrix(n, n, lambda i, j: sum(c * t**e for e, c in enumerate(rows[i][j])))
    dM = DomainMatrix.from_Matrix(M)
    ref = sympy.Poly(dM.domain.to_sympy(dM.det()), t).all_coeffs()[::-1]
    while ref and ref[-1] == 0:
        ref.pop()
    trimmed = [[seifert._poly_trim(list(entry)) for entry in row] for row in rows]
    assert seifert._poly_det(trimmed) == ref
    constants = [[entry[0] if entry else 0 for entry in row] for row in rows]
    assert seifert._int_det(constants) == sympy.Matrix(constants).det()


ACCEPTANCE_COVERS = [
    (p, q, n)
    for (p, q) in [(2, 3), (2, 5), (2, 7), (3, 2), (3, 5), (4, 3), (5, 2)]
    for n in sorted({p, 2, 3, 4})
]


@pytest.mark.parametrize("p,q,n", ACCEPTANCE_COVERS)
def test_linking_form_matches_fraction_inverse_route(p, q, n):
    # the gram read off W D^-1 equals u^T Y^-1 v with Y inverted over Q,
    # and the tracked Uinv equals the rational inverse of U
    cover = seifert.branched_cover(p, q, n)
    Y, _ = seifert._symmetric_cover_presentation(seifert.seifert_matrix(p, q), n)
    divisors, U, Uinv, _ = seifert.smith_normal_form(Y)
    assert [list(map(Fraction, row)) for row in Uinv] == _fraction_inverse(U)
    if cover.module is None:
        return
    Yinv = _fraction_inverse(Y)
    N = len(Y)
    gens = [[Uinv[i][g] for i in range(N)] for g, d in enumerate(divisors) if d != 1]
    gram = tuple(
        tuple(
            int(sum(u[i] * Yinv[i][j] * v[j] for i in range(N) for j in range(N)) % 1 * q)
            for v in gens
        )
        for u in gens
    )
    assert cover.module.gram == gram
