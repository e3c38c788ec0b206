"""Seifert data of torus knots: matrices, Alexander polynomials,
Levine-Tristram signatures, and branched cyclic covers with linking forms.

The Seifert matrix comes from Seifert's algorithm on the closed positive
braid (s_1 s_2 ... s_{p-1})^q: one disk per strand, one band per letter,
and one homology cycle for each pair of consecutive bands on the same
strand pair.  Writing e(i, j) for the cycle through occurrences j and
j+1 of letter i, the linking numbers reduce to a four-line rule:

  * lk(e, e+) = -1 for every cycle (two positively twisted bands);
  * consecutive cycles on the same pair: lk(e(i,j), e(i,j+1)+) = 1
    and lk(e(i,j+1), e(i,j)+) = 0 (they meet once, in the shared band);
  * cycles on adjacent pairs never link the pushoff of the lower one
    (the pushoff leaves the slab between the disks), and the lower cycle
    links the upper pushoff by +1 or -1 according to which of the two
    interleaving patterns the four band positions form;
  * everything else is 0.

The construction is validated once per (p, q): det(V - t V^T) must give
the torus-knot Alexander polynomial, and its value at t = 1, which is
det(V - V^T), must be a unit, so a convention slip cannot propagate
silently.  The determinant is one fraction-free Bareiss elimination over
Z[t] on integer coefficient lists; every division in it is exact by
Sylvester's identity and is checked to be.  Integer determinants are the
constant case of the same elimination.

Branched covers are presented by integer matrices and reduced to Smith
normal form with both transforms tracked: U A W = diag(d), with U^-1
carried along as the inverse column operation of each row operation.
Both identities are checked exactly before the form is used.  The
linking form then needs no inverse: Y^-1 = W D^-1 U, so the pairing of
generators u and v is u . W[:, v] / d_v.

The verdict path needs only closed forms.  The Alexander roots of T(p, q)
are the points k/pq with p and q not dividing k, each simple.  The
signature jumps are Litherland's count ("Signatures of iterated torus
knots", 1979): for 0 < i < p and 0 < j < q with s = i/p + j/q, the
signature jumps by +2 at s when s < 1 and by -2 at s - 1 when s > 1.

Levine-Tristram signatures at a point serve the ``signature`` command and
the tests' oracle for those jumps.  They are computed on exact Hermitian
matrices over a cyclotomic field.  The working route is an LDL* sweep in
complex interval arithmetic whose pivot signs must be certified, raising
precision until they are; if certification keeps failing, an exact
characteristic polynomial with certified coefficient signs settles the
count (Descartes' rule is exact for polynomials with all-real roots).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from mpmath import iv

from .cyclo import Cyclo, RootOfUnity, certified_sign
from .knots import prime_power_exponent
from .laurent import LaurentPoly


class ConventionError(ArithmeticError):
    """A structural self-check failed; never guess past one of these."""


DEFAULT_PRECISION_BITS = 64


# ---------------------------------------------------------------------------
# Seifert matrices from the positive braid
# ---------------------------------------------------------------------------


def braid_word(p: int, q: int) -> list[int]:
    """The positive word (s_1 s_2 ... s_{p-1})^q on p strands."""
    return [i for _ in range(q) for i in range(1, p)]


def _band_cycles(word: list[int], strands: int):
    occurrences: dict[int, list[int]] = {i: [] for i in range(1, strands)}
    for pos, letter in enumerate(word):
        occurrences[letter].append(pos)
    cycles = []
    for letter in range(1, strands):
        pos = occurrences[letter]
        cycles.extend((letter, pos[j], pos[j + 1]) for j in range(len(pos) - 1))
    return cycles


def _seifert_matrix_raw(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    cycles = _band_cycles(braid_word(p, q), p)
    n = len(cycles)
    V = [[0] * n for _ in range(n)]
    for a in range(n):
        V[a][a] = -1
    for a, b in itertools.permutations(range(n), 2):
        (i, s, t), (k, u, v) = cycles[a], cycles[b]
        if k == i and t == u:
            V[a][b] = 1
        elif k == i + 1:
            if s < u < t < v:
                V[b][a] = 1
            elif u < s < v < t:
                V[b][a] = -1
    return tuple(tuple(row) for row in V)


def _check_torus(p: int, q: int):
    if p < 2 or q < 2:
        raise ValueError("torus knot parameters must be at least 2")
    if gcd(p, q) != 1:
        raise ValueError(f"gcd({p}, {q}) != 1")


@lru_cache(maxsize=None)
def seifert_matrix(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Validated Seifert matrix of T(p, q), size (p-1)(q-1)."""
    _check_torus(p, q)
    V = _seifert_matrix_raw(p, q)
    if len(V) != (p - 1) * (q - 1):
        raise ConventionError("unexpected cycle count in the band basis")
    delta = _seifert_alexander(V)
    # det(V - V^T) is det(V - t V^T) at t = 1
    if abs(sum(delta)) != 1:
        raise ConventionError("det(V - V^T) is not a unit")
    # det(V - t V^T) against the closed torus-knot Alexander polynomial
    ref = _torus_alexander_reference(p, q)
    while delta and not delta[0]:
        delta = delta[1:]
    if len(delta) != len(ref) or any(
        a * ref[-1] != b * delta[-1] for a, b in zip(delta, ref)
    ):
        raise ConventionError("det(V - t V^T) does not match the Alexander polynomial")
    return V


@lru_cache(maxsize=None)
def _seifert_alexander(V) -> tuple[int, ...]:
    """det(V - t V^T) as integer coefficients, lowest degree first; cached
    so that validation and alexander_poly share one elimination."""
    n = len(V)
    return tuple(_poly_det([[_poly_trim([V[i][j], -V[j][i]]) for j in range(n)]
                            for i in range(n)]))


# Integer polynomials are coefficient lists, lowest degree first, with no
# trailing zeros; the zero polynomial is the empty list.


def _poly_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _poly_sub(a: list, b: list) -> list:
    return _poly_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _poly_div_exact(a: list, b: list) -> list:
    """a / b in Z[t]; a remainder or a fractional coefficient is a
    ConventionError, since every division made here must be exact."""
    if not a:
        return []
    shift, lead = len(b) - 1, b[-1]
    a = list(a)
    out = [0] * max(len(a) - shift, 0)
    for k in range(len(out) - 1, -1, -1):
        c, rem = divmod(a[k + shift], lead)
        if rem:
            raise ConventionError("inexact division in the Bareiss elimination")
        out[k] = c
        if c:
            for j, y in enumerate(b, k):
                a[j] -= c * y
    if any(a[:shift]) or not out:
        raise ConventionError("inexact division in the Bareiss elimination")
    return out


def _poly_det(rows) -> list:
    """Determinant over Z[t] by Bareiss's fraction-free elimination: every
    division is exact by the Sylvester identity, which doubles as a
    consistency check."""
    M = [list(row) for row in rows]
    n = len(M)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return []
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot, row_k = M[k][k], M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            a_ik = row_i[k]
            for j in range(k + 1, n):
                num = _poly_sub(_poly_mul(row_i[j], pivot), _poly_mul(a_ik, row_k[j]))
                row_i[j] = _poly_div_exact(num, prev)
        prev = pivot
    out = M[n - 1][n - 1]
    return out if sign == 1 else [-c for c in out]


def _int_det(rows) -> int:
    """Integer determinant: the constant case of the Z[t] Bareiss."""
    det = _poly_det([[[x] if x else [] for x in row] for row in rows])
    return det[0] if det else 0


@lru_cache(maxsize=None)
def _torus_alexander_reference(p: int, q: int) -> list:
    # (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), exact integer division
    def cyc(k):
        return [-1] + [0] * (k - 1) + [1]

    num = _poly_mul(cyc(p * q), cyc(1))
    return _poly_div_exact(_poly_div_exact(num, cyc(p)), cyc(q))


@lru_cache(maxsize=None)
def alexander_poly(p: int, q: int) -> LaurentPoly:
    """det(V - t V^T) in monic low-0 normal form."""
    return LaurentPoly.from_ints(_seifert_alexander(seifert_matrix(p, q))).unit_normal()


def alexander_roots(p: int, q: int) -> dict:
    """Unit-circle roots of the Alexander polynomial with multiplicities:
    every k/pq with p and q not dividing k, each simple."""
    _check_torus(p, q)
    return {RootOfUnity.normalized(k, p * q): 1
            for k in range(1, p * q) if k % p and k % q}


# ---------------------------------------------------------------------------
# Levine-Tristram signatures
# ---------------------------------------------------------------------------


def _interval_ldl_signature(V, k: int, n: int, prec: int):
    """Signature of (1-w)V + (1-wbar)V^T at w = e^(2 pi i k/n), or None
    when some pivot sign cannot be certified at this precision."""
    size = len(V)
    old = iv.prec
    try:
        iv.prec = prec
        theta = 2 * iv.pi * k / n
        w = iv.mpc(iv.cos(theta), iv.sin(theta))
        wbar = iv.mpc(w.real, -w.imag)
        a = (1 - w)
        b = (1 - wbar)
        # None marks an exact zero
        H = [[a * V[i][j] + b * V[j][i] if V[i][j] or V[j][i] else None
              for j in range(size)] for i in range(size)]
        active = list(range(size))
        signature = 0
        while active:
            pivot = None
            best = None
            for i in active:
                d = H[i][i].real
                if 0 in d:
                    continue
                margin = min(abs(d.a), abs(d.b))
                if best is None or margin > best:
                    best, pivot = margin, i
            if pivot is None:
                return None
            d = H[pivot][pivot].real
            signature += 1 if d.a > 0 else -1
            active.remove(pivot)
            dinv = 1 / H[pivot][pivot]
            row_p = H[pivot]
            # the Schur complement is Hermitian and changes only on the
            # pivot row's nonzero columns: update their upper triangle and
            # mirror it
            support = [j for j in active if row_p[j] is not None]
            for x, i in enumerate(support):
                f = H[i][pivot] * dinv
                row_i = H[i]
                for j in support[x:]:
                    g = f * row_p[j]
                    row_i[j] = -g if row_i[j] is None else row_i[j] - g
                    if j != i:
                        H[j][i] = iv.mpc(row_i[j].real, -row_i[j].imag)
        return signature
    finally:
        iv.prec = old


def _exact_signature(V, x: Fraction) -> int:
    """Exact route: characteristic polynomial over the cyclotomic field,
    certified coefficient signs, Descartes count (exact for real spectra)."""
    size = len(V)
    w = RootOfUnity(x).as_cyclo()
    wbar = RootOfUnity(x).inverse().as_cyclo()
    one = Cyclo.one()
    a = one - w
    b = one - wbar
    H = [[a * V[i][j] + b * V[j][i] for j in range(size)] for i in range(size)]
    coeffs = [Cyclo.one()]
    M = [row[:] for row in H]
    for k in range(1, size + 1):
        tr = Cyclo.zero()
        for i in range(size):
            tr = tr + M[i][i]
        ck = tr * Fraction(-1, k)
        coeffs.append(ck)
        if k < size:
            for i in range(size):
                M[i][i] = M[i][i] + ck
            M = _cyclo_mat_mul(H, M)
    if coeffs[-1].is_zero():
        raise ValueError("singular Hermitian matrix: evaluation point is a root")
    signs = [certified_sign(c) for c in coeffs]
    nonzero = [s for s in signs if s != 0]
    positives = sum(1 for u, v in zip(nonzero, nonzero[1:]) if u != v)
    return 2 * positives - size


def _cyclo_mat_mul(A, B):
    n = len(A)
    out = [[Cyclo.zero()] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            aik = A[i][k]
            if aik.is_zero():
                continue
            for j in range(n):
                if not B[k][j].is_zero():
                    out[i][j] = out[i][j] + aik * B[k][j]
    return out


def lt_signature(p: int, q: int, x,
                 precision_bits: int = DEFAULT_PRECISION_BITS) -> int:
    """Levine-Tristram signature of T(p, q) at e^(2 pi i x), x in (0, 1).

    Certification starts at ``precision_bits`` and doubles on failure; the
    result does not depend on it.  Rejects evaluation at roots of the
    Alexander polynomial, where the signature is undefined.
    """
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("evaluation point must be strictly between 0 and 1")
    if RootOfUnity(x) in alexander_roots(p, q):
        raise ValueError(f"{x} is a root of the Alexander polynomial of T({p},{q})")
    V = seifert_matrix(p, q)
    prec = max(precision_bits, 8)
    for _ in range(4):
        sig = _interval_ldl_signature(V, x.numerator, x.denominator, prec)
        if sig is not None:
            return sig
        prec *= 2
    return _exact_signature(V, x)


def jump_function(p: int, q: int) -> dict:
    """Signature jumps of T(p, q) by Litherland's count; see the module
    docstring."""
    return dict(_jump_function_cached(p, q))


@lru_cache(maxsize=None)
def _jump_function_cached(p: int, q: int) -> tuple:
    _check_torus(p, q)
    # iq + jp runs over distinct residues mod pq, so no two pairs (i, j)
    # share a point and no jump cancels
    jumps = []
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            jumps.append((s, 2) if s < 1 else (s - 1, -2))
    return tuple(sorted(jumps))


# ---------------------------------------------------------------------------
# Branched cyclic covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverPresentation:
    """Block-circulant record of H_1 of the n-fold cover: the matrix of
    t*V - V^T with t acting as the n-cycle block shift."""

    n: int
    matrix: tuple
    deck: tuple


@dataclass(frozen=True)
class PrimeModule:
    """H_1 of the cover as an F_r vector space with deck action and linking
    form.  ``gram[i][j]`` means the fraction gram[i][j] / r in Q/Z.
    Vectors are rows; the action is v -> v @ action."""

    r: int
    dim: int
    action: tuple
    gram: tuple


@dataclass(frozen=True)
class CoverHomology:
    p: int
    q: int
    n: int
    presentation: CoverPresentation
    divisors: tuple
    order: int
    module: PrimeModule | None


def smith_normal_form(rows):
    """Integer Smith normal form.  Returns (divisors, U, Uinv, W) with
    U @ A @ W = diag(divisors) for unimodular U and W, and Uinv the
    inverse of U, all tracked alongside the elimination and checked
    exactly at the end.  coker(A) = ⊕ Z/d_i via x -> U x.
    """
    A = [list(map(int, r)) for r in rows]
    nrows, ncols = len(A), len(A[0])
    U = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    # the columns of Uinv and of W, kept as rows so that the column
    # operation matching each step is a row update
    Uinv_cols = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    W_cols = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        Uinv_cols[i], Uinv_cols[j] = Uinv_cols[j], Uinv_cols[i]

    def row_sub(i, j, c):
        if c:
            A[i] = [x - c * y for x, y in zip(A[i], A[j])]
            U[i] = [x - c * y for x, y in zip(U[i], U[j])]
            Uinv_cols[j] = [x + c * y for x, y in zip(Uinv_cols[j], Uinv_cols[i])]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        W_cols[i], W_cols[j] = W_cols[j], W_cols[i]

    def col_sub(j, i, c):
        for row in A:
            row[j] -= c * row[i]
        W_cols[j] = [x - c * y for x, y in zip(W_cols[j], W_cols[i])]

    def smallest_entry(t):
        # first entry of least absolute value in row-major order
        best = None
        for i in range(t, nrows):
            row = A[i]
            for j in range(t, ncols):
                if row[j] and (best is None or abs(row[j]) < best[0]):
                    best = (abs(row[j]), i, j)
                    if best[0] == 1:
                        return best
        return best

    def reduce_from(t):
        while t < min(nrows, ncols):
            best = smallest_entry(t)
            if best is None:
                return
            _, i0, j0 = best
            row_swap(t, i0)
            col_swap(t, j0)
            while True:
                dirty = False
                for i in range(t + 1, nrows):
                    if A[i][t]:
                        row_sub(i, t, A[i][t] // A[t][t])
                        if A[i][t]:
                            row_swap(t, i)
                            dirty = True
                for j in range(t + 1, ncols):
                    if A[t][j]:
                        col_sub(j, t, A[t][j] // A[t][t])
                        if A[t][j]:
                            col_swap(t, j)
                            dirty = True
                if not dirty:
                    break
            t += 1

    reduce_from(0)
    rank = min(nrows, ncols)
    # sign normalization and the divisibility chain
    while True:
        for i in range(rank):
            if A[i][i] < 0:
                A[i] = [-x for x in A[i]]
                U[i] = [-x for x in U[i]]
                Uinv_cols[i] = [-x for x in Uinv_cols[i]]
        broken = next(
            (
                i
                for i in range(rank - 1)
                if A[i][i] and A[i + 1][i + 1] % A[i][i] != 0
            ),
            None,
        )
        if broken is None:
            break
        row_sub(broken, broken + 1, -1)
        reduce_from(broken)
    divisors = tuple(A[i][i] for i in range(rank))
    if any(_dot(U[i], col) != int(i == j)
           for i in range(nrows) for j, col in enumerate(Uinv_cols)):
        raise ConventionError("tracked inverse does not invert U")
    UA = [[_dot(u, col) for col in zip(*rows)] for u in U]
    if any(_dot(UA[i], col) != (divisors[i] if i == j else 0)
           for i in range(nrows) for j, col in enumerate(W_cols)):
        raise ConventionError("U A W is not the diagonal of elementary divisors")
    return (divisors, tuple(map(tuple, U)), tuple(zip(*Uinv_cols)),
            tuple(zip(*W_cols)))


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _symmetric_cover_presentation(V, n: int):
    """The (n-1) x (n-1) block matrix with V + V^T on the diagonal, -V^T
    above, -V below: the intersection form of the pushed-in Seifert
    surface's n-fold cyclic cover, whose boundary linking form is the one
    we want.  Its inverse mod Z presents the linking form directly."""
    g2 = len(V)
    N = (n - 1) * g2
    Y = [[0] * N for _ in range(N)]
    for k in range(n - 1):
        for a in range(g2):
            for b in range(g2):
                Y[k * g2 + a][k * g2 + b] = V[a][b] + V[b][a]
                if k + 1 < n - 1:
                    Y[k * g2 + a][(k + 1) * g2 + b] = -V[b][a]
                    Y[(k + 1) * g2 + a][k * g2 + b] = -V[a][b]
    T = [[0] * N for _ in range(N)]
    for k in range(n - 2):
        for a in range(g2):
            T[(k + 1) * g2 + a][k * g2 + a] = 1
    for k in range(n - 1):
        for a in range(g2):
            T[k * g2 + a][(n - 2) * g2 + a] = -1
    return Y, T


def _circulant_presentation(V, n: int) -> CoverPresentation:
    g2 = len(V)
    N = n * g2
    M = [[0] * N for _ in range(N)]
    P = [[0] * N for _ in range(N)]
    for i in range(n):
        for a in range(g2):
            P[((i + 1) % n) * g2 + a][i * g2 + a] = 1
            for b in range(g2):
                # t*V - V^T with t the cyclic shift
                M[((i + 1) % n) * g2 + a][i * g2 + b] += V[a][b]
                M[i * g2 + a][i * g2 + b] -= V[b][a]
    return CoverPresentation(n, tuple(map(tuple, M)), tuple(map(tuple, P)))


@lru_cache(maxsize=None)
def branched_cover(p: int, q: int, n: int) -> CoverHomology:
    """Homology of the n-fold cyclic branched cover of T(p, q) with its
    deck action and linking form.

    The block-circulant presentation is recorded and its cokernel is
    cross-checked against the symmetric presentation that carries the
    linking form; a zero elementary divisor (infinite homology) is
    rejected, which catches non-prime-power n.
    """
    if n < 2:
        raise ValueError("cover degree must be at least 2")
    V = seifert_matrix(p, q)
    circ = _circulant_presentation(V, n)
    circ_div = smith_normal_form(circ.matrix)[0]
    Y, T = _symmetric_cover_presentation(V, n)
    divisors, U, Uinv, W = smith_normal_form(Y)
    if any(d == 0 for d in divisors) or any(d == 0 for d in circ_div):
        raise ConventionError(
            f"singular cover presentation for n={n}"
            + ("" if prime_power_exponent(n) else " (n is not a prime power)")
        )
    torsion = tuple(d for d in divisors if d != 1)
    circ_torsion = tuple(sorted(d for d in circ_div if d != 1))
    if tuple(sorted(torsion)) != circ_torsion:
        raise ConventionError(
            "block-circulant and symmetric presentations disagree: "
            f"{circ_torsion} vs {torsion}"
        )
    order = 1
    for d in torsion:
        order *= d
    module = None
    if prime_power_exponent(q) == 1 and torsion and all(d == q for d in torsion):
        module = _prime_module(T, divisors, U, Uinv, W, q, n)
    return CoverHomology(
        p=p, q=q, n=n, presentation=circ,
        divisors=torsion, order=order, module=module,
    )


def _prime_module(T, divisors, U, Uinv, W, r: int, n: int) -> PrimeModule:
    N = len(U)
    gen_idx = [i for i, d in enumerate(divisors) if d != 1]
    dim = len(gen_idx)
    gens = [[Uinv[i][g] for i in range(N)] for g in gen_idx]
    # U Y W = D gives Y^-1 = W D^-1 U, and U maps the generator g_v to the
    # unit vector e_v, so g_u . Y^-1 g_v = g_u . W[:, v] / d_v.
    gram = []
    for gu in gens:
        row = []
        for v in gen_idx:
            val = Fraction(_dot(gu, [W[i][v] for i in range(N)]), divisors[v]) % 1 * r
            if val.denominator != 1:
                raise ConventionError(
                    f"linking value with denominator {val.denominator} != {r}"
                )
            row.append(int(val) % r)
        gram.append(tuple(row))
    # The block-shift matrix satisfies T^tr Y T = Y, so the linking form is
    # invariant under x -> T^tr x; that transpose is the deck action in the
    # generator coordinates (row convention: v -> v @ action).
    action = []
    for g in gens:
        tg = [sum(T[j][i] * g[j] for j in range(N)) for i in range(N)]
        coords = [sum(U[k][i] * tg[i] for i in range(N)) % r for k in gen_idx]
        action.append(tuple(coords))
    module = PrimeModule(r=r, dim=dim, action=tuple(action), gram=tuple(gram))
    _validate_module(module, n)
    return module


def _validate_module(m: PrimeModule, n: int):
    from . import modp

    r, dim = m.r, m.dim
    if any(m.gram[i][j] != m.gram[j][i] for i in range(dim) for j in range(dim)):
        raise ConventionError("linking form is not symmetric")
    det = _int_det([list(row) for row in m.gram]) % r
    if det == 0:
        raise ConventionError("linking form is singular mod r")
    A = m.action
    AG = modp.mat_mul(A, m.gram, r)
    AGA = modp.mat_mul(AG, tuple(zip(*A)), r)
    if not modp.mat_eq(AGA, m.gram):
        raise ConventionError("deck action is not an isometry of the form")
    power = modp.identity(dim)
    total = [[0] * dim for _ in range(dim)]
    for _ in range(n):
        for i in range(dim):
            for j in range(dim):
                total[i][j] = (total[i][j] + power[i][j]) % r
        power = modp.mat_mul(power, A, r)
    if not modp.mat_eq(power, modp.identity(dim)):
        raise ConventionError("deck action does not have order dividing n")
    if any(x for row in total for x in row):
        raise ConventionError("deck action not annihilated by 1 + t + ... + t^{n-1}")


def cover_order_from_alexander(p: int, q: int, n: int) -> int:
    """|prod_{a=1}^{n-1} Delta(xi_n^a)|, the classical order formula for the
    homology of the n-fold branched cover; exact cyclotomic arithmetic."""
    delta = alexander_poly(p, q)
    prod = Cyclo.one()
    for a in range(1, n):
        prod = prod * delta.evaluate_root(RootOfUnity.normalized(a, n))
    value = prod.to_fraction()
    if value.denominator != 1:
        raise ConventionError("order product is not an integer")
    return abs(int(value))
