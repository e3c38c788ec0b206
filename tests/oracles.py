"""General routes that the tests hold the package's closed forms against.

The package reads the linking form of the p-fold cover of T(p, r) and the
Levine-Tristram signature of T(p, q) off closed forms, and the homology of
a branched cover off the cyclic Alexander module and the model module.
The general routes they replaced live here, as independent oracles:

* ``seifert_cover`` is the branched cover from integer Smith forms with
  tracked transforms: U Y W = diag(d) for the symmetric presentation Y,
  with U^-1 carried along and both identities checked exactly, whose
  cokernel is cross-checked against the block-circulant presentation.
  The linking form needs no inverse there: Y^-1 = W D^-1 U, so the pairing
  of generators u and v is u . W[:, v] / d_v.
* ``kernel_cover`` reads the same module off ker(Y mod q), with no
  transform tracked, for the shapes whose tracked Smith form does not
  finish.
* ``seifert_import`` pulls the linking form of that cover back to the
  model basis x_i = t^i x_0 along a matched cyclic generator.
* ``interval_signature`` is the signature of the Hermitian Seifert form:
  an LDL* sweep in complex interval arithmetic whose pivot signs must be
  certified, raising the precision until they are, and otherwise an exact
  characteristic polynomial over the cyclotomic field with certified
  coefficient signs (Descartes' rule is exact for all-real spectra).
* ``reduced_fraction`` cancels a fraction of Laurent polynomials by the
  Euclidean algorithm over the cyclotomic field, the general route that
  the twisted polynomials' root bookkeeping replaced.
* ``substitute`` is f(xi^c t^m), the classical order of a twisted and
  dilated torus-knot atom, whose roots the Witt supports count.
* ``fox_numerator`` is the numerator of the twisted polynomials by Fox
  calculus: the derivative of the relator c1^p c2^-q by c1
  (``fox_derivative`` on reduced ``word``s), its image under the
  package's representative with the inverse images added (``WordRep``),
  and the subset-DP determinant.  The package takes the closed form
  (1 - t^q)^(p-1) instead.
* ``enumerate_subspaces`` lists every k-dimensional subspace of F_r^n,
  the Grassmannian that the metabolizer walk prunes, ``subspace_vectors``
  every vector of one subspace, and ``product_walk``
  is the walk that tried every value of a row's free slots, where the
  package's walk solves the row's pairings.
* ``alexander_module_divisors`` is the divisors of that homology from the
  Smith form of multiplication by 1 + ... + t^(n-1) on Z[t]/Delta, the
  route that the closed form (Z/q)^(gcd(p,n)-1) + (Z/p)^(gcd(q,n)-1)
  replaced, and ``cover_order_from_alexander`` the classical order
  formula |prod Delta(xi_n^a)|.
* ``evaluate_character`` extends a character linearly to the model
  module.
* ``litherland_jumps`` is Litherland's double count of the torus-knot
  signature jumps, the table that ``seifert.jump_at`` replaced, and
  ``alexander_roots`` the root set it sits on.  ``pullback``,
  ``metabolic_by_union_scan`` and ``witness_by_union_scan`` are the
  materialized route of the jump decision: supports built as sets from
  the table and scanned as a sorted union.  ``disjoint_by_intersection``
  intersects them, to find where the point rule's witness must be the
  level block's own.

* ``validate_module``, ``check_seifert_matrix`` (on ``poly_det``, the
  Bareiss determinant over Z[t]), the graph isometry's identities on
  ``half_gram`` and ``half_action``, and ``level_sum`` are the run-time
  checks that the closed forms made redundant: of the model module, of
  the band rule's Seifert matrix, of a graph metabolizer's isometry, and
  of the level sums of an algebraically slice combination.

The formal sums the package has no use for, ``mirror`` and ``add`` of
knot combinations and ``negate`` of a Witt class, are kept here too.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul

from mpmath import iv

from sliceguard import fox, metabolizers, modp, presentations, seifert, witt
from sliceguard.covers import Character, ConventionError, CoverModule
from sliceguard.cyclo import Cyclo, RootOfUnity, int_poly_div_exact
from sliceguard.knots import KnotCombination, check_torus, prime_power_exponent
from sliceguard.laurent import LaurentPoly, RationalFn
from sliceguard.modp import Subspace


def numeric(c: Cyclo) -> complex:
    """c in floating point: its power-basis coordinates summed over the
    roots e^(2 pi i j / n)."""
    z = sum(coeff * cmath.exp(2j * cmath.pi * j / c.n) for j, coeff in enumerate(c.num) if coeff)
    return z / c.den


# ---------------------------------------------------------------------------
# The branched cover through Smith forms with tracked transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverPresentation:
    """Block-circulant record of H_1 of the n-fold cover: the matrix of
    t*V - V^T with t acting as the n-cycle block shift."""

    n: int
    matrix: tuple
    deck: tuple


@dataclass(frozen=True)
class SeifertCover:
    p: int
    q: int
    n: int
    presentation: CoverPresentation
    divisors: tuple
    order: int
    module: CoverModule | None


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
    while True:
        for i in range(rank):
            if A[i][i] < 0:
                A[i] = [-x for x in A[i]]
                U[i] = [-x for x in U[i]]
                Uinv_cols[i] = [-x for x in Uinv_cols[i]]
        broken = next(
            (i for i in range(rank - 1) if A[i][i] and A[i + 1][i + 1] % A[i][i] != 0),
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


def _symmetric_cover_presentation(V, n: int):
    """The (n-1) x (n-1) block matrix with V + V^T on the diagonal, -V^T
    above, -V below: the intersection form of the pushed-in Seifert
    surface's n-fold cyclic cover, whose boundary linking form is the one
    we want.  T is the block shift, with T^T Y T = Y."""
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


@lru_cache(maxsize=None)
def seifert_cover(p: int, q: int, n: int) -> SeifertCover:
    """The n-fold branched cover of T(p, q) from its Seifert presentations:
    the symmetric presentation's Smith form, cross-checked against the
    block-circulant one, with the q-torsion module read off the tracked
    transforms when every divisor is the prime q."""
    if n < 2:
        raise ValueError("cover degree must be at least 2")
    V = seifert.seifert_matrix(p, q)
    circ = _circulant_presentation(V, n)
    circ_div = smith_normal_form(circ.matrix)[0]
    Y, T = _symmetric_cover_presentation(V, n)
    divisors, U, Uinv, W = smith_normal_form(Y)
    if 0 in divisors or 0 in circ_div:
        raise ConventionError(f"singular cover presentation for n={n}")
    torsion = tuple(d for d in divisors if d != 1)
    if sorted(torsion) != sorted(d for d in circ_div if d != 1):
        raise ConventionError("block-circulant and symmetric presentations disagree")
    module = None
    if prime_power_exponent(q) == 1 and torsion and all(d == q for d in torsion):
        module = _transform_module(T, divisors, U, Uinv, W, q, n)
    return SeifertCover(p=p, q=q, n=n, presentation=circ, divisors=torsion,
                        order=prod(torsion), module=module)


def _transform_module(T, divisors, U, Uinv, W, r: int, n: int) -> CoverModule:
    N = len(U)
    gen_idx = [i for i, d in enumerate(divisors) if d != 1]
    gens = [[Uinv[i][g] for i in range(N)] for g in gen_idx]
    # U Y W = D gives Y^-1 = W D^-1 U, and U maps the generator g_v to the
    # unit vector e_v, so g_u . Y^-1 g_v = g_u . W[:, v] / d_v.
    gram = []
    for gu in gens:
        row = []
        for v in gen_idx:
            val = Fraction(_dot(gu, [W[i][v] for i in range(N)]), divisors[v]) % 1 * r
            if val.denominator != 1:
                raise ConventionError(f"linking value with denominator {val.denominator} != {r}")
            row.append(int(val) % r)
        gram.append(tuple(row))
    # T^tr Y T = Y, so x -> T^tr x is the deck action in the generator
    # coordinates (row convention: v -> v @ action)
    action = []
    for g in gens:
        tg = [sum(T[j][i] * g[j] for j in range(N)) for i in range(N)]
        action.append(tuple(sum(U[k][i] * tg[i] for i in range(N)) % r for k in gen_idx))
    module = CoverModule(r=r, action=tuple(action), gram=tuple(gram))
    validate_module(module, n)
    return module


@lru_cache(maxsize=None)
def kernel_cover(p: int, q: int, n: int) -> CoverModule:
    """The q-torsion of the n-fold cover of T(p, q), for a shape whose
    divisors are all the prime q, on a basis of ker(Y mod q) for the
    symmetric presentation Y: x -> Yx/q maps that kernel onto the
    q-torsion of coker Y, lambda(x, z) = x^T Y z / q^2, and the deck action
    a -> T^T a pulls back to x -> T^-1 x.  No transform is tracked, so it
    finishes where ``seifert_cover`` does not, as on the 5-fold cover of
    T(5, 7)."""
    Y, T = _symmetric_cover_presentation(seifert.seifert_matrix(p, q), n)
    basis, pivots = modp.rref(modp.nullspace(Y, q), q)
    # lambda(x, z) = x^T Y z / q^2 mod 1, stored times q
    Yx = [[_dot(row, x) for row in Y] for x in basis]
    gram = []
    for x in basis:
        row = []
        for y in Yx:
            value, rem = divmod(_dot(x, y), q)
            if rem:
                raise ConventionError(f"linking value x^T Y z is not divisible by {q}")
            row.append(value % q)
        gram.append(tuple(row))
    # T^T (Yx / q) = Y (T^-1 x) / q: the deck action is the inverse of the
    # block shift on the kernel, whose coordinates sit at the pivots
    shift = []
    for x in basis:
        y = [_dot(row, x) % q for row in T]
        coords = [y[c] for c in pivots]
        if list(modp.vec_mat(coords, basis, q)) != y:
            raise ConventionError(f"the block shift leaves ker(Y mod {q})")
        shift.append(coords)
    module = CoverModule(r=q, action=modp.mat_inv(shift, q), gram=tuple(gram))
    validate_module(module, n)
    return module


# ---------------------------------------------------------------------------
# The run-time checks that the closed forms made redundant
# ---------------------------------------------------------------------------


def mat_mul(a, b, r):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % r for col in bt) for row in a)


def mat_eq(a, b):
    return tuple(map(tuple, a)) == tuple(map(tuple, b))


def _mat_add(a, b, r):
    return tuple(tuple((x + y) % r for x, y in zip(row, brow)) for row, brow in zip(a, b))


def validate_module(m: CoverModule, n: int):
    """The checks every cover module passes: the form is symmetric and
    nonsingular, the deck action is an isometry of order dividing the
    cover degree n, and 1 + t + ... + t^(n-1) annihilates the module.
    The power and the sum take O(log n) products of dim-square matrices.
    ``covers.model_module`` once ran it on every model it built."""
    r, dim = m.r, m.dim
    if any(m.gram[i][j] != m.gram[j][i] for i in range(dim) for j in range(i)):
        raise ConventionError("linking form is not symmetric")
    if modp.rank(m.gram, r) < dim:
        raise ConventionError("linking form is singular mod r")
    A = m.action
    AGA = mat_mul(mat_mul(A, m.gram, r), tuple(zip(*A)), r)
    if not mat_eq(AGA, m.gram):
        raise ConventionError("deck action is not an isometry of the form")
    # t^k and S_k = 1 + ... + t^(k-1) from k = 1 to n by doubling,
    # S_2k = S_k + S_k t^k, and steps S_(k+1) = S_k + t^k
    power, total = A, modp.identity(dim)
    for bit in bin(n)[3:]:
        total = _mat_add(total, mat_mul(total, power, r), r)
        power = mat_mul(power, power, r)
        if bit == "1":
            total = _mat_add(total, power, r)
            power = mat_mul(power, A, r)
    if not mat_eq(power, modp.identity(dim)):
        raise ConventionError("deck action does not have order dividing n")
    if any(x for row in total for x in row):
        raise ConventionError("deck action not annihilated by 1 + t + ... + t^{n-1}")


# Integer polynomials are coefficient lists, lowest degree first, with no
# trailing zeros; the zero polynomial is the empty list.


def poly_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def poly_sub(a: list, b: list) -> list:
    return poly_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def poly_det(rows) -> list:
    """Determinant over Z[t] by Bareiss's fraction-free elimination: every
    division is exact by the Sylvester identity, which
    ``cyclo.int_poly_div_exact`` checks."""
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
                num = poly_sub(presentations._poly_mul(row_i[j], pivot),
                               presentations._poly_mul(a_ik, row_k[j]))
                row_i[j] = int_poly_div_exact(num, prev)
        prev = pivot
    out = M[n - 1][n - 1]
    return out if sign == 1 else [-c for c in out]


def check_seifert_matrix(p: int, q: int, V) -> None:
    """The checks ``presentations.seifert_matrix`` once ran on the band
    rule's matrix V of T(p, q): (p-1)(q-1) cycles, det(V - V^T) = +-1, and
    det(V - t V^T), by ``poly_det``, the closed Alexander polynomial up to
    units.  Raises ConventionError otherwise."""
    n = len(V)
    if n != (p - 1) * (q - 1):
        raise ConventionError("unexpected cycle count in the band basis")
    delta = poly_det([[poly_trim([V[i][j], -V[j][i]]) for j in range(n)]
                      for i in range(n)])
    # det(V - V^T) is det(V - t V^T) at t = 1
    if abs(sum(delta)) != 1:
        raise ConventionError("det(V - V^T) is not a unit")
    ref = presentations._torus_alexander_reference(p, q)
    while delta and not delta[0]:
        delta = delta[1:]
    if len(delta) != len(ref) or any(
        a * ref[-1] != b * delta[-1] for a, b in zip(delta, ref)
    ):
        raise ConventionError("det(V - t V^T) does not match the Alexander polynomial")


def half_gram(F) -> tuple:
    """Gram of lambda^m1 on one half of the form space (positive sign)."""
    return metabolizers._block_diagonal(F.module.gram, (1,) * F.m1, F.r)


def half_action(F) -> tuple:
    """The deck action on one half of the form space."""
    return metabolizers._block_diagonal(F.module.action, (1,) * F.m1, F.r)


def level_sum(sets, q: int, s: int) -> int:
    """|I1| - |I2| + |I3| - |I4| at the level (q, s) of ``knots.IndexSets``."""
    key = (q, s)
    return len(sets.I1[key]) - len(sets.I2[key]) + len(sets.I3[key]) - len(sets.I4[key])


# ---------------------------------------------------------------------------
# The cover form in the model basis
# ---------------------------------------------------------------------------


def orbit_form(mod: CoverModule, p: int) -> tuple:
    """The linking form of a p-fold cover module of dimension p - 1 on
    x_0, ..., x_{p-2}, for the lexicographically first x_0 whose deck orbit
    spans, as gram[i][j] with the value gram[i][j] / r."""
    r = mod.r
    dim = p - 1
    for cand in itertools.product(range(r), repeat=dim):
        if not any(cand):
            continue
        orbit = []
        v = cand
        for _ in range(dim):
            orbit.append(v)
            v = modp.vec_mat(v, mod.action, r)
        if modp.rank(orbit, r) == dim:
            break
    else:
        raise ConventionError("no deck orbit spans the cover module")
    full_orbit = []
    v = cand
    for _ in range(p):
        full_orbit.append(v)
        v = modp.vec_mat(v, mod.action, r)
    if any(sum(col) % r for col in zip(*full_orbit)):
        raise ConventionError("orbit does not satisfy x_0 + ... + x_{p-1} = 0")

    def pair(u, w):
        return sum(
            u[i] * mod.gram[i][j] * w[j] for i in range(dim) for j in range(dim)
        ) % r

    full = [[pair(full_orbit[i], full_orbit[j]) for j in range(p)] for i in range(p)]
    for i in range(p):
        for j in range(p):
            if full[i][j] != full[(i + 1) % p][(j + 1) % p]:
                raise ConventionError("imported form is not deck equivariant")
    return tuple(tuple(row[:dim]) for row in full[:dim])


@lru_cache(maxsize=None)
def seifert_import(p: int, r: int) -> tuple:
    """``orbit_form`` of the p-fold cover of T(p, r) through ``seifert_cover``."""
    cover = seifert_cover(p, r, p)
    if cover.module is None or cover.module.dim != p - 1:
        raise ConventionError(
            f"cover of T({p},{r}) is not F_{r}^{p-1}: divisors {cover.divisors}"
        )
    return orbit_form(cover.module, p)


# ---------------------------------------------------------------------------
# Levine-Tristram signatures of the Hermitian Seifert form
# ---------------------------------------------------------------------------


def interval_ldl_signature(V, k: int, n: int, prec: int):
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


def as_root(x: Fraction) -> RootOfUnity:
    """The RootOfUnity e^(2 pi i x) of a Fraction x, the type the package
    gives twists and witness points."""
    return RootOfUnity.normalized(x.numerator, x.denominator)


def exact_signature(V, x: Fraction) -> int:
    """Exact route: characteristic polynomial over the cyclotomic field,
    certified coefficient signs, Descartes count (exact for real spectra)."""
    size = len(V)
    w = Cyclo.from_root(as_root(x))
    wbar = Cyclo.from_root(as_root(x).inverse())
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


def certified_sign(x: Cyclo, start_prec: int = 64, max_prec: int = 4096) -> int:
    """Sign of a real cyclotomic number, certified by interval arithmetic.

    Exact zero is decided symbolically; otherwise the precision is raised
    until the enclosing interval excludes zero.  Raises if the imaginary
    part cannot be certified to vanish (the input was not real).
    """
    if x.is_zero():
        return 0
    prec = start_prec
    while prec <= max_prec:
        old = iv.prec
        try:
            iv.prec = prec
            z = x.interval()
            if not (0 in z.imag):
                raise ValueError(f"certified_sign of a non-real number {x}")
            re = z.real
            if not (0 in re):
                return 1 if re.a > 0 else -1
        finally:
            iv.prec = old
        prec *= 2
    raise ArithmeticError(
        f"could not certify sign of nonzero cyclotomic number {x} "
        f"below {max_prec} bits"
    )


def interval_signature(p: int, q: int, x, precision_bits: int = 64) -> int:
    """Levine-Tristram signature of T(p, q) at e^(2 pi i x) from its Seifert
    matrix: the interval sweep from ``precision_bits``, doubling four
    times, then the exact route."""
    x = Fraction(x)
    V = seifert.seifert_matrix(p, q)
    prec = max(precision_bits, 8)
    for _ in range(4):
        sig = interval_ldl_signature(V, x.numerator, x.denominator, prec)
        if sig is not None:
            return sig
        prec *= 2
    return exact_signature(V, x)


# ---------------------------------------------------------------------------
# Laurent polynomials: the Euclidean algorithm and substitution
# ---------------------------------------------------------------------------


def _divmod_poly(a: LaurentPoly, b: LaurentPoly):
    """Quotient and remainder with both operands shifted to low = 0, in the
    ordinary polynomial ring; the unit t^k of each operand is dropped."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    a, b = LaurentPoly._aligned(a, b)
    num, den = list(a.coeffs), list(b.coeffs)
    d = len(den) - 1
    if len(num) - 1 < d:
        return LaurentPoly.zero(), LaurentPoly(0, num)
    inv_lead = den[-1].inverse()
    quot = [Cyclo.zero()] * (len(num) - d)
    for k in range(len(num) - 1 - d, -1, -1):
        c = num[k + d] * inv_lead
        quot[k] = c
        if not c.is_zero():
            for j in range(d + 1):
                num[k + j] = num[k + j] - c * den[j]
    return LaurentPoly(0, quot), LaurentPoly(0, num)


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q, rem = _divmod_poly(a, b)
    if not rem.is_zero():
        raise ArithmeticError("non-exact polynomial division")
    return q.shift(a.low - b.low)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd with lowest exponent 0, by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, _divmod_poly(a, b)[1]
    return a.unit_normal()


def reduced_fraction(num: LaurentPoly, den: LaurentPoly) -> RationalFn:
    """num / den with their gcd cancelled."""
    if not num.is_zero() and den.span() > 0:
        g = poly_gcd(num, den)
        if g.span() > 0:
            num, den = exact_div(num, g), exact_div(den, g)
    return RationalFn(num, den)


def substitute(f: LaurentPoly, c: RootOfUnity, m: int) -> LaurentPoly:
    """f(xi^c * t^m) for a root of unity xi^c and m >= 1: each term
    a_k t^k becomes a_k xi^(c*k) t^(m*k)."""
    if m < 1:
        raise ValueError("substitution power must be a positive integer")
    if f.is_zero():
        return f
    out = [Cyclo.zero()] * (m * (len(f.coeffs) - 1) + 1)
    for i, a in enumerate(f.coeffs):
        if not a.is_zero():
            out[m * i] = a * Cyclo.from_root(c ** (f.low + i))
    return LaurentPoly(m * f.low, out)


# ---------------------------------------------------------------------------
# Fox calculus: the numerator of the twisted polynomials
# ---------------------------------------------------------------------------

Word = tuple[tuple[int, int], ...]  # ((generator, exponent), ...), reduced


def word(*pairs) -> Word:
    """Build a reduced word from (generator, exponent) pairs."""
    out: list[list[int]] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


def fox_derivative(w: Word, gen: int) -> list[tuple[int, Word]]:
    """Free Fox derivative: d(uv) = du + u dv, d(g) = 1, d(g^-1) = -g^-1.

    Returns a formal integer combination of group words; like terms are
    collected so the result is canonical.
    """
    terms: list[tuple[int, Word]] = []
    prefix: Word = ()
    for g, e in w:
        if g == gen:
            if e > 0:
                # d(g^e) = 1 + g + ... + g^(e-1)
                for i in range(e):
                    terms.append((1, word(*prefix, (g, i))))
            else:
                # d(g^e) = -(g^-1 + g^-2 + ... + g^e)
                for i in range(1, -e + 1):
                    terms.append((-1, word(*prefix, (g, -i))))
        prefix = word(*prefix, (g, e))
    collected: dict[Word, int] = {}
    for c, u in terms:
        collected[u] = collected.get(u, 0) + c
    return [(c, u) for u, c in sorted(collected.items()) if c]


def monomial_companion_inverse(p: int) -> fox.Monomial:
    """A_p(t)^-1: ones on the subdiagonal and t^-1 in the corner."""
    return ((p - 1, 0, -1),) + tuple((i, 0, 0) for i in range(p - 1))


class WordRep(fox.TorusRep):
    """The package's representative with the images of c1^-1 and c2^-1
    too, so that it takes any word in c1 and c2."""

    def __init__(self, p: int, q: int, chi: Character):
        super().__init__(p, q, chi)
        self.images[(1, -1)] = fox._mono_pow(monomial_companion_inverse(p), q, q)
        self.images[(2, -1)] = tuple((i, -a % q, -1) for i, a in enumerate(chi.values))

    def image_of_word(self, w: Word) -> fox.Monomial:
        out: fox.Monomial = tuple((i, 0, 0) for i in range(self.p))
        for g, e in w:
            base = self.images[(g, 1 if e > 0 else -1)]
            out = fox._mono_mul(out, fox._mono_pow(base, abs(e), self.q), self.q)
        return out

    def image_of_combination(self, terms):
        out = [[LaurentPoly.zero()] * self.p for _ in range(self.p)]
        for coeff, w in terms:
            m = fox._dense(self.image_of_word(w), self.q)
            for i in range(self.p):
                for j in range(self.p):
                    if not m[i][j].is_zero():
                        out[i][j] = out[i][j] + m[i][j].scale(coeff)
        return out


RELATOR_DERIVATIVE_GEN = 1  # differentiate c1^p c2^-q with respect to c1


@lru_cache(maxsize=None)
def fox_numerator(p: int, q: int) -> LaurentPoly:
    """det of the image of d(c1^p c2^-q)/d c1, by the subset-DP
    determinant; character independent since the image of c1 is."""
    rep = WordRep(p, q, Character(q, tuple([0] * p)))
    relator = word((1, p), (2, -q))
    terms = fox_derivative(relator, RELATOR_DERIVATIVE_GEN)
    return fox._det(rep.image_of_combination(terms))


# ---------------------------------------------------------------------------
# Subspaces, cover orders and characters
# ---------------------------------------------------------------------------


def enumerate_subspaces(n: int, k: int, r: int):
    """All k-dimensional subspaces of F_r^n, one echelon basis each."""
    for pivots in itertools.combinations(range(n), k):
        free_slots = [
            (i, c)
            for i in range(k)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(range(r), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, c), v in zip(free_slots, values):
                rows[i][c] = v
            yield Subspace(rows, r, n)



def subspace_vectors(S: Subspace):
    """Every vector of the subspace, coefficient tuples in product order
    over its echelon rows (small spaces only)."""
    for coeffs in itertools.product(range(S.r), repeat=S.dim):
        v = [0] * S.n
        for c, row in zip(coeffs, S.rows):
            v = [(x + c * y) % S.r for x, y in zip(v, row)]
        yield tuple(v)

def product_walk(F) -> list:
    """The isotropic echelon walk that tried every row, which
    ``metabolizers.enumerate_invariant_metabolizers`` replaced by solving
    each row's pairings: rows are filled first to last, pivots in
    combinations order and free slots in product order, and a row is kept
    if it pairs to zero with itself and the rows above it.  Its leaves go
    to ``metabolizers.is_invariant_metabolizer``, looked up at call time."""
    n, k, r, G = F.ambient_dim, F.half_dim, F.r, F.gram()
    found = []

    def walk(pivots, rows, images):
        if len(rows) == k:
            L = Subspace(rows, r, n)
            if metabolizers.is_invariant_metabolizer(L, F):
                found.append(L)
            return
        pc = pivots[len(rows)]
        free = [c for c in range(pc + 1, n) if c not in pivots]
        for values in itertools.product(range(r), repeat=len(free)):
            row = [0] * n
            row[pc] = 1
            for c, v in zip(free, values):
                row[c] = v
            if any(sum(a * b for a, b in zip(row, Gw)) % r for Gw in images):
                continue
            Grow = modp.mat_vec(G, row, r)
            if sum(a * b for a, b in zip(row, Grow)) % r:
                continue
            walk(pivots, rows + [row], images + [Grow])

    for pivots in itertools.combinations(range(n), k):
        walk(pivots, [], [])
    return found


def _norm_multiplication(p: int, q: int, n: int) -> list:
    """Multiplication by 1 + t + ... + t^(n-1) on Z[t]/Delta in the basis
    1, t, ..., t^(d-1): row j holds t^j (1 + ... + t^(n-1)) mod Delta."""
    delta = presentations._torus_alexander_reference(p, q)
    d = len(delta) - 1
    if delta[-1] != 1:
        raise ConventionError("the Alexander polynomial is not monic")

    def times_t(v):
        return [(v[i - 1] if i else 0) - v[-1] * delta[i] for i in range(d)]

    power, norm = [1] + [0] * (d - 1), [0] * d
    for _ in range(n):
        norm = [a + b for a, b in zip(norm, power)]
        power = times_t(power)
    rows = [norm]
    for _ in range(d - 1):
        rows.append(times_t(rows[-1]))
    return rows


def alexander_module_divisors(p: int, q: int, n: int) -> tuple:
    """The torsion divisors of H_1 of the n-fold branched cover of T(p, q),
    Z[t]/(Delta, 1 + ... + t^(n-1)), from the d x d Smith form of
    ``_norm_multiplication``, d = (p-1)(q-1); a zero divisor (infinite
    homology) raises ConventionError."""
    divisors = smith_normal_form(_norm_multiplication(p, q, n))[0]
    if 0 in divisors:
        raise ConventionError(f"singular cover presentation for n={n}")
    return tuple(d for d in divisors if d != 1)


def cover_order_from_alexander(p: int, q: int, n: int) -> int:
    """|prod_{a=1}^{n-1} Delta(xi_n^a)|, the classical order formula for the
    homology of the n-fold branched cover; exact cyclotomic arithmetic."""
    delta = presentations.alexander_poly(p, q)
    value = Cyclo.one()
    for a in range(1, n):
        value = value * delta.evaluate_root(RootOfUnity.normalized(a, n))
    value = value.to_fraction()
    if value.denominator != 1:
        raise ConventionError("order product is not an integer")
    return abs(int(value))


def evaluate_character(module: CoverModule, chi: Character, v) -> int:
    """chi extended linearly to a model element v = sum v_i x_i (row vector)."""
    return sum(a * b for a, b in zip(v, chi.values[: module.dim])) % module.r


# ---------------------------------------------------------------------------
# Jump tables and materialized supports
# ---------------------------------------------------------------------------


def alexander_roots(p: int, q: int) -> dict:
    """Unit-circle roots of the Alexander polynomial of T(p, q) with
    multiplicities: every k/pq with p and q not dividing k, each simple."""
    check_torus(p, q)
    return {RootOfUnity.normalized(k, p * q): 1
            for k in range(1, p * q) if k % p and k % q}


def litherland_jumps(p: int, q: int) -> dict:
    """Litherland's count: +2 at s = i/p + j/q when s < 1 and -2 at s - 1
    when s > 1, for 0 < i < p and 0 < j < q."""
    check_torus(p, q)
    jumps = {}
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            point, jump = (s, 2) if s < 1 else (s - 1, -2)
            assert point not in jumps, "two pairs (i, j) share a jump point"
            jumps[point] = jump
    return jumps


def table_signature(p: int, q: int, x: Fraction) -> int:
    """The Levine-Tristram signature as the sum of the table's jumps below x."""
    return sum(j for point, j in litherland_jumps(p, q).items() if point < x)


def pullback(atom) -> dict:
    """The classical atom's jumps, coefficient included, read off the jump
    table through the twist and dilation."""
    out = {}
    for point, jump in litherland_jumps(atom.p, atom.q).items():
        for j in range(atom.power):
            out[((point - atom.twist.frac + j) / atom.power) % 1] = atom.coefficient * jump
    return out


def support_fractions(atom) -> frozenset:
    """``witt.support_of``, its numerators read over ``atom.denominator``."""
    return frozenset(Fraction(n, atom.denominator) for n in witt.support_of(atom))


def materialized_support(atom) -> frozenset:
    """The support of an atom: the table pullback for a classical one, and
    ``witt.support_of`` for a twisted one, which the tests hold against
    root isolation."""
    if isinstance(atom, witt.Classical):
        return frozenset(pullback(atom))
    return support_fractions(atom)


def metabolic_by_union_scan(W):
    """``witt.is_metabolic_classical`` through the sorted union of the
    pulled-back supports and the table jumps."""
    tables = [pullback(atom) for atom in W.atoms]
    for x in sorted(set().union(*tables)):
        total = sum(table.get(x, 0) for table in tables)
        if total:
            return False, (as_root(x), total)
    return True, None


def witness_by_union_scan(dec, q: int, s: int):
    """The point rule's witness for the level (q, s) block of ``dec``,
    through the table pullbacks: the first point of the block, in sorted
    order and off the support of B1, at which the pulled-back jumps of
    every classical atom of B3 and B4 have a nonzero total."""
    tables = [pullback(atom) for block in (*dec.B3.values(), *dec.B4.values())
              for atom in block.atoms]
    chosen = set().union(*map(pullback, (dec.B3[(q, s)] + dec.B4[(q, s)]).atoms))
    twisted = set().union(*map(support_fractions, dec.B1.atoms))
    for x in sorted(chosen - twisted):
        total = sum(table.get(x, 0) for table in tables)
        if total:
            return False, (as_root(x), total)
    return True, None


def disjoint_by_intersection(dec, q: int, s: int) -> bool:
    """Whether the materialized support of the level (q, s) block misses
    those of B1 and every other block: the source paper's splitting
    hypothesis, under which the point rule's witness is the block's own."""
    chosen = dec.B3[(q, s)] + dec.B4[(q, s)]
    chosen_support = set().union(*map(materialized_support, chosen.atoms))
    other_support = set().union(*map(materialized_support, dec.B1.atoms))
    for key, block in (*dec.B3.items(), *dec.B4.items()):
        if key != (q, s):
            other_support |= set().union(*map(materialized_support, block.atoms))
    return not (chosen_support & other_support)


# ---------------------------------------------------------------------------
# Formal-sum helpers the package has no use for
# ---------------------------------------------------------------------------


def mirror(K: KnotCombination) -> KnotCombination:
    """The mirror image: every coefficient negated."""
    return KnotCombination(K.p, {k: -c for k, c in K.terms.items()})


def add(K1: KnotCombination, K2: KnotCombination) -> KnotCombination:
    """The formal sum of two combinations with the same p."""
    return KnotCombination(K1.p, [*K1.terms.items(), *K2.terms.items()])


def negate(W: witt.WittClass) -> witt.WittClass:
    """The Witt inverse: every coefficient negated."""
    return witt.WittClass(a._replace(coefficient=-a.coefficient) for a in W.atoms)
