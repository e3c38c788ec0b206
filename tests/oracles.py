"""General routes that the tests hold the package's closed forms against.

The package reads the linking form of the p-fold cover of T(p, r) and the
Levine-Tristram signature of T(p, q) off closed forms.  The general routes
they replaced live here, as independent oracles:

* ``seifert_import`` pulls the linking form of the Seifert-presented
  cover (``seifert.branched_cover``: Smith form with tracked transforms)
  back to the model basis x_i = t^i x_0 along a matched cyclic generator.
* ``interval_signature`` is the signature of the Hermitian Seifert form:
  an LDL* sweep in complex interval arithmetic whose pivot signs must be
  certified, raising the precision until they are, and otherwise an exact
  characteristic polynomial over the cyclotomic field with certified
  coefficient signs (Descartes' rule is exact for all-real spectra).
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache

from mpmath import iv

from sliceguard import modp, seifert
from sliceguard.covers import MatchFailure
from sliceguard.cyclo import Cyclo, RootOfUnity


def numeric(c: Cyclo) -> complex:
    """c in floating point: its power-basis coordinates summed over the
    roots e^(2 pi i j / n)."""
    z = sum(coeff * cmath.exp(2j * cmath.pi * j / c.n) for j, coeff in enumerate(c.num) if coeff)
    return z / c.den


# ---------------------------------------------------------------------------
# The cover form through the Seifert-presented branched cover
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def seifert_import(p: int, r: int) -> tuple:
    """The linking form of the Seifert-presented p-fold cover of T(p, r)
    on x_0, ..., x_{p-2}, for the lexicographically first x_0 whose deck
    orbit spans, as gram[i][j] with the value gram[i][j] / r."""
    cover = seifert.branched_cover(p, r, p)
    mod = cover.module
    if mod is None or mod.dim != p - 1:
        raise MatchFailure(
            f"cover of T({p},{r}) is not F_{r}^{p-1}: divisors {cover.divisors}"
        )
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
        raise MatchFailure("no deck orbit spans the cover module")
    full_orbit = []
    v = cand
    for _ in range(p):
        full_orbit.append(v)
        v = modp.vec_mat(v, mod.action, r)
    if any(sum(col) % r for col in zip(*full_orbit)):
        raise MatchFailure("orbit does not satisfy x_0 + ... + x_{p-1} = 0")

    def pair(u, w):
        return sum(
            u[i] * mod.gram[i][j] * w[j] for i in range(dim) for j in range(dim)
        ) % r

    full = [[pair(full_orbit[i], full_orbit[j]) for j in range(p)] for i in range(p)]
    for i in range(p):
        for j in range(p):
            if full[i][j] != full[(i + 1) % p][(j + 1) % p]:
                raise MatchFailure("imported form is not deck equivariant")
    return tuple(tuple(row[:dim]) for row in full[:dim])


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


def exact_signature(V, x: Fraction) -> int:
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
