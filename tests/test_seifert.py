import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from sliceguard import covers, modp, presentations, seifert
from sliceguard.cyclo import normalize_root
from sliceguard.laurent import LaurentPoly, unit_circle_roots

import oracles

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

    @pytest.mark.parametrize("p,q", [
        (p, q) for p in range(2, 62) for q in range(2, 62)
        if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 60
    ])
    def test_band_rule_passes_the_bareiss_check(self, p, q):
        # the matrix is built unchecked; the check it once ran, of the
        # cycle count, det(V - V^T) = +-1 and det(V - t V^T) = Delta, holds
        # on every shape with at most 60 cycles
        oracles.check_seifert_matrix(p, q, seifert.seifert_matrix(p, q))

    def test_bareiss_check_rejects_a_tampered_matrix(self):
        V = [list(row) for row in seifert.seifert_matrix(3, 4)]
        V[0][1] += 1
        with pytest.raises(covers.ConventionError, match="not a unit|does not match"):
            oracles.check_seifert_matrix(3, 4, V)
        with pytest.raises(covers.ConventionError, match="cycle count"):
            oracles.check_seifert_matrix(3, 5, V)


class TestAlexander:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (3, 5), (2, 11)])
    def test_determinant_route_against_sympy(self, p, q):
        # the Bareiss determinant that validates the Seifert matrix, and
        # the closed form alexander_poly reads, both against sympy's det
        V = seifert.seifert_matrix(p, q)
        ref = _normalize_int_poly(_sympy_seifert_det_oracle(V))
        bareiss = oracles.poly_det([[oracles.poly_trim([V[i][j], -V[j][i]])
                                     for j in range(len(V))] for i in range(len(V))])
        assert _normalize_int_poly(bareiss) == ref
        got = _normalize_int_poly(
            [c.to_fraction() for c in presentations.alexander_poly(p, q).coeffs]
        )
        assert got == ref or got == ref[::-1]

    def test_small_cases(self):
        assert presentations.alexander_poly(2, 3) == LaurentPoly.from_ints([1, -1, 1])
        assert presentations.alexander_poly(2, 5) == LaurentPoly.from_ints([1, -1, 1, -1, 1])
        assert presentations.alexander_poly(3, 2) == presentations.alexander_poly(2, 3)

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 4), (3, 5)])
    def test_root_characterization(self, p, q):
        roots = oracles.alexander_roots(p, q)
        expected = {
            normalize_root(a, p * q)
            for a in range(1, p * q)
            if a % p and a % q
        }
        assert set(roots) == expected
        assert all(m == 1 for m in roots.values())

    @pytest.mark.parametrize("p,q", CLOSED_FORM_PAIRS)
    def test_closed_form_roots_match_root_isolation(self, p, q):
        isolated = unit_circle_roots(presentations.alexander_poly(p, q), {p * q})
        assert oracles.alexander_roots(p, q) == isolated


def _midpoint_jumps(p, q):
    """The signature route to the jumps: interval-certified signatures of
    the Seifert form at the midpoints between consecutive Alexander roots,
    differenced.  The signature is symmetric under x -> 1 - x, and so is
    the set of midpoints, so each value is computed once."""
    roots = sorted(root.frac for root in oracles.alexander_roots(p, q))
    edges = [Fraction(0)] + roots + [Fraction(1)]
    sigma = {}
    for a, b in zip(edges, edges[1:]):
        m = (a + b) / 2
        sigma[m] = sigma[1 - m] if 1 - m in sigma else oracles.interval_signature(p, q, m, 128)
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
        roots = {r.frac for r in oracles.alexander_roots(p, q)}
        done = 0
        while done < 25:
            x = Fraction(rng.randrange(1, 840), 840)
            if x in roots or x == 0:
                continue
            expected = _numpy_signature_oracle(V, x)
            assert seifert.lt_signature(p, q, x) == expected
            assert oracles.interval_signature(p, q, x) == expected
            done += 1

    def test_exact_fallback_agrees(self):
        V = seifert.seifert_matrix(3, 4)
        for x in (Fraction(1, 2), Fraction(1, 5), Fraction(7, 8)):
            assert oracles.exact_signature(V, x) == seifert.lt_signature(3, 4, x)

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
                seifert.jump_at(p, q, 1, 2)

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
        roots = {r.frac for r in oracles.alexander_roots(p, q)}
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
        A2 = oracles.mat_mul(A, A, 2)
        s = tuple(
            tuple((modp.identity(2)[i][j] + A[i][j] + A2[i][j]) % 2 for j in range(2))
            for i in range(2)
        )
        assert all(x == 0 for row in s for x in row)
        A3 = oracles.mat_mul(A2, A, 2)
        assert oracles.mat_eq(A3, modp.identity(2))

    @pytest.mark.parametrize("p,q", [(2, 3), (2, 5), (3, 2), (3, 4)])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_order_identity(self, p, q, n):
        cover = seifert.branched_cover(p, q, n)
        assert cover.order == oracles.cover_order_from_alexander(p, q, n)

    def test_presentation_record(self):
        cover = oracles.seifert_cover(2, 3, 2)
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
    divisors, U, Uinv, W = oracles.smith_normal_form(A)
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
    trimmed = [[oracles.poly_trim(list(entry)) for entry in row] for row in rows]
    assert oracles.poly_det(trimmed) == ref


ACCEPTANCE_COVERS = [
    (p, q, n)
    for (p, q) in [(2, 3), (2, 5), (2, 7), (3, 2), (3, 5), (4, 3), (5, 2)]
    for n in sorted({p, 2, 3, 4})
]


@pytest.mark.parametrize("p,q,n", ACCEPTANCE_COVERS)
def test_linking_form_matches_fraction_inverse_route(p, q, n):
    # the oracle's gram read off W D^-1 equals u^T Y^-1 v with Y inverted
    # over Q, and the tracked Uinv equals the rational inverse of U
    cover = oracles.seifert_cover(p, q, n)
    Y, _ = oracles._symmetric_cover_presentation(seifert.seifert_matrix(p, q), n)
    divisors, U, Uinv, _ = oracles.smith_normal_form(Y)
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


# ---------------------------------------------------------------------------
# The closed-form group against the cyclic Alexander module's Smith form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", range(2, 10))
def test_cover_group_matches_the_alexander_smith_form(p):
    # every q <= 13 and n <= 16, composite n included, whose d x d Smith
    # form takes well under 0.1 s: d * n <= 200 for d = (p - 1)(q - 1)
    for q in range(2, 14):
        for n in range(2, 17):
            if gcd(p, q) != 1 or (p - 1) * (q - 1) * n > 200:
                continue
            g, h = gcd(p, n), gcd(q, n)
            if g > 1 and h > 1:
                # Phi_ab divides Delta and 1 + ... + t^(n-1) for a | g, b | h
                with pytest.raises(seifert.ConventionError):
                    oracles.alexander_module_divisors(p, q, n)
                with pytest.raises(seifert.ConventionError):
                    seifert.branched_cover(p, q, n)
                continue
            divisors = (q,) * (g - 1) + (p,) * (h - 1)
            assert oracles.alexander_module_divisors(p, q, n) == divisors
            assert seifert.branched_cover(p, q, n).divisors == divisors


@pytest.mark.parametrize("p,q,n", [(5, 7, 25), (8, 9, 16), (9, 8, 16), (7, 13, 14),
                                   (4, 9, 27), (11, 13, 11), (2, 3001, 3)])
def test_cover_order_beyond_the_smith_form(p, q, n):
    # shapes whose Smith form did not finish in seconds, or was refused
    assert seifert.branched_cover(p, q, n).order == oracles.cover_order_from_alexander(p, q, n)


# every (p, q, n) with p <= 5, q <= 13 and n <= 5 whose Smith route takes
# well under 0.2 s: d * n <= 72 for d = (p - 1)(q - 1)
QUICK_COVERS = [
    (p, q, n)
    for p in range(2, 6) for q in range(2, 14) for n in range(2, 6)
    if gcd(p, q) == 1 and (p - 1) * (q - 1) * n <= 72
]
# the module shapes among them, and the p-fold covers of the model imports
MODULE_COVERS = sorted(
    {(p, q, n) for (p, q, n) in QUICK_COVERS if seifert.branched_cover(p, q, n).module}
    | {(p, r, p) for (p, r) in [(3, 13), (4, 13), (5, 13), (7, 2), (7, 3), (8, 3),
                                 (9, 2), (10, 3), (11, 2), (11, 3)]}
)


@pytest.mark.parametrize("p,q,n", QUICK_COVERS)
def test_cover_divisors_match_the_smith_route(p, q, n):
    cover = seifert.branched_cover(p, q, n)
    reference = oracles.seifert_cover(p, q, n)
    assert cover.divisors == reference.divisors
    assert cover.order == reference.order == oracles.cover_order_from_alexander(p, q, n)
    assert (cover.module is None) == (reference.module is None)


def _equivariant_isometries(a, b):
    """Every row-convention matrix M with A M = M B and M G_b M^T = G_a,
    found by trying every image of a cyclic generator of ``a`` (both
    modules are cyclic over the deck action)."""
    r, dim = a.r, a.dim

    def orbit(v, action):
        rows = [tuple(v)]
        for _ in range(dim - 1):
            rows.append(modp.vec_mat(rows[-1], action, r))
        return rows

    cyclic = next(G for v in itertools.product(range(r), repeat=dim)
                  if modp.rank(G := orbit(v, a.action), r) == dim)
    hits = []
    for v in itertools.product(range(r), repeat=dim):
        M = oracles.mat_mul(modp.mat_inv(cyclic, r), orbit(v, b.action), r)
        if (modp.rank(M, r) == dim
                and oracles.mat_eq(oracles.mat_mul(a.action, M, r), oracles.mat_mul(M, b.action, r))
                and oracles.mat_eq(oracles.mat_mul(oracles.mat_mul(M, b.gram, r),
                                                   tuple(zip(*M)), r), a.gram)):
            hits.append(M)
    return hits


def _discriminant_class(gram, r):
    """det(gram) mod r up to squares: the Legendre symbol (1 for r = 2)."""
    det = int(sympy.Matrix(gram).det()) % r
    assert det
    return 1 if r == 2 else pow(det, (r - 1) // 2, r)


# n = 8 covers with g = gcd(p, n) in {4, 8}, whose t = -1 eigenline fixes
# the scalar of the model's form
EVEN_G_COVERS = [(4, 3, 8), (4, 5, 8), (8, 3, 4), (8, 5, 4)]
# every module shape with p <= 8, q in {3, 5, 7, 11, 13}, n in {2, 3, 4, 5,
# 7, 8, 9} and a presentation Y of (n-1)(p-1)(q-1) <= 300 rows: 73, on 11
# of which, such as (5, 7, 5), the tracked Smith form does not finish in 20 s
COVER_SWEEP = [
    (p, q, n)
    for p in range(2, 9) for q in (3, 5, 7, 11, 13) for n in (2, 3, 4, 5, 7, 8, 9)
    if gcd(p, q) == 1 and (n - 1) * (p - 1) * (q - 1) <= 300
    and seifert.branched_cover(p, q, n).module
]


@pytest.mark.parametrize("p,q,n", MODULE_COVERS + EVEN_G_COVERS)
def test_cover_module_matches_the_smith_route(p, q, n):
    # the kernel basis and the Smith generators differ, but the modules
    # are the same: equivariantly isometric (by brute force where the
    # module is small) and of one discriminant class everywhere
    new = seifert.branched_cover(p, q, n).module
    old = oracles.seifert_cover(p, q, n).module
    assert (new.r, new.dim) == (old.r, old.dim)
    assert _discriminant_class(new.gram, q) == _discriminant_class(old.gram, q)
    if q ** new.dim <= 3000:
        assert _equivariant_isometries(old, new)


@pytest.mark.parametrize("p,q,n", COVER_SWEEP)
def test_cover_module_matches_the_kernel_route(p, q, n):
    new = seifert.branched_cover(p, q, n).module
    old = oracles.kernel_cover(p, q, n)
    assert (new.r, new.dim) == (old.r, old.dim)
    assert _discriminant_class(new.gram, q) == _discriminant_class(old.gram, q)
    if q ** new.dim <= 3000:
        assert _equivariant_isometries(old, new)


@pytest.mark.parametrize("p,r", [(5, 7), (5, 11), (7, 5)])
def test_closed_form_matches_the_kernel_route(p, r):
    # the shapes the Smith route never finished: the closed-form model
    # agrees with the cover's form up to an equivariant unit and a scalar,
    # and so has its discriminant class
    from test_covers import _unit_isometries

    m = covers.model_module(p, r)
    assert seifert.branched_cover(p, r, p).divisors == (r,) * (p - 1)
    kernel = oracles.kernel_cover(p, r, p)
    imported = oracles.orbit_form(kernel, p)
    hits = _unit_isometries(m, imported)
    assert hits
    for u, s in hits:
        rows = [u]
        for _ in range(m.dim - 1):
            rows.append(modp.vec_mat(rows[-1], m.action, r))
        pulled = oracles.mat_mul(oracles.mat_mul(rows, m.gram, r), tuple(zip(*rows)), r)
        assert oracles.mat_eq(pulled, [[s * x % r for x in row] for row in imported])
    assert _discriminant_class(kernel.gram, r) == _discriminant_class(m.gram, r)


@st.composite
def _torus_pairs(draw):
    p = draw(st.integers(2, 13))
    return p, draw(st.integers(2, 40).filter(lambda q: gcd(p, q) == 1))


@given(_torus_pairs(), st.integers(-10**6, 10**6), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_jump_at_matches_the_table(pq, k, m):
    # every point k/(m*pq), passed unreduced, and points off the jump set
    p, q = pq
    x = Fraction(k, p * q * m)
    expected = oracles.litherland_jumps(p, q).get(x % 1, 0)
    assert seifert.jump_at(p, q, k, p * q * m) == expected
    assert seifert.jump_function(p, q).get(x % 1, 0) == expected


@given(_torus_pairs(), st.integers(2, 400).flatmap(
    lambda b: st.tuples(st.integers(1, b - 1), st.just(b))))
@settings(max_examples=200, deadline=None)
def test_lt_signature_matches_the_table_sum(pq, ab):
    p, q = pq
    x = Fraction(*ab)
    if seifert.jump_at(p, q, *ab):
        with pytest.raises(ValueError):
            seifert.lt_signature(p, q, x)
    else:
        assert seifert.lt_signature(p, q, x) == oracles.table_signature(p, q, x)
