"""Seifert matrices and Alexander polynomials of torus knots, and the
homology of their branched cyclic covers with linking forms: the routes
of ``seifert``'s entry points, imported on first use.

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
Sylvester's identity and is checked to be, by ``cyclo.int_poly_div_exact``.
``alexander_poly`` and the ``alex`` command read the closed form
(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) that this check compares against.

Branched covers serve the ``homology`` command.  The n-fold cover of
T(p, q) is Milnor's Brieskorn manifold Sigma(p, q, n); as the Alexander
module of a torus knot is cyclic, its H_1 is Z[t]/(Delta, N) with
N = 1 + ... + t^(n-1).  With g = gcd(p, n) and h = gcd(q, n) it is
infinite when g, h > 1, and else (Z/q)^(g-1) + (Z/p)^(h-1), by resultants
of cyclotomic polynomials (Apostol, 1970):
  * Delta = prod Phi_ab over a | p, b | q, a, b > 1, and N = prod Phi_e
    over e | n, e > 1; so Phi_ab divides both for a | g, b | h;
  * Res(Phi_x, Phi_y) = +-1 unless x/y is a prime power, and a power of
    l when x/y is a power of the prime l.  So at l | q (l | p is
    symmetric) no pair survives for g = 1; for g > 1, l does not divide
    n, the Phi_e split the module into the Z[zeta_e]/(Delta(zeta_e)), and
    only the pairs (Phi_(a l^m), Phi_a) with e = a | g survive;
  * differentiating Phi_a(x^l) = Phi_a(x) Phi_al(x) at zeta_a gives
    Phi_al(zeta_a) = l zeta_a^(l-1) Phi_a'(zeta_a^l) / Phi_a'(zeta_a): l
    times a unit, a ratio of Galois-conjugate generators of the
    different; Phi_(a l^m)(x) = Phi_al(x^(l^(m-1))) is conjugate to it;
  * so the l-part is the sum over a | g, a > 1, of Z[zeta_a]/(l^v),
    v = v_l(q), that is (Z/l^v)^(g-1).
For q prime and g > 1 the module is F_q[t]/(Delta, N) =
F_q[t]/(1 + ... + t^(g-1)), with deck action t, as Delta is
(1 + ... + t^(p-1))^(q-1) mod q and N is squarefree mod q: that is
``covers.model_module(g, q)``.

Its form is the model's times s = pn/b mod q, b the model's value on its
t = -1 eigenvector x_0 + x_2 + ... + x_(g-2) (1 for g = 2, -g for even
g >= 4), and s = 1 for odd g.  Each irreducible factor occurs once in the
module, so an equivariant form on it is fixed up to equivariant isometry
by its square class on the t = -1 eigenline (a factor pair carries no
invariant, a self-dual factor none as norms are onto); only even g has
the line, and there p is even, n a power of 2, and the scaled model takes
pn on it.  The cover takes the class (pn | q), by transfer, as a degree-k
cover pi gives lk(pi^! x, pi^! y) = k lk(x, y) with pi^! injective on
q-torsion for k prime to q:
  * the n-fold cover over the double cover (k = n/2) carries the double
    cover's Z/q onto the line, its involution acting by -1;
  * the double cover of T(p, q) is Milnor's Sigma(2, p, q), the p-fold
    cover of T(2, q), over the double cover of T(2, q) (k = p/2);
  * that is L(q, 1), with form 1/q: for T(2, q), V + V^T is minus the
    A_(q-1) Cartan matrix, whose inverse has corner (q-1)/q.
So the class is (n/2 | q)(p/2 | q) = (pn | q).  ``covers.model_module``
validates the model at g once: t^g = 1 there, so the order of t divides
n, and N = (n/g)(1 + ... + t^(g-1)) vanishes too.  Scaling its form by
the unit s keeps it symmetric, nonsingular and t-invariant, so the cover
is not validated again.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import gcd, prod

from .covers import ConventionError, CoverModule, model_module
from .cyclo import int_poly_div_exact
from .knots import check_torus, prime_power_exponent
from .laurent import LaurentPoly


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
                row_i[j] = int_poly_div_exact(num, prev)
        prev = pivot
    out = M[n - 1][n - 1]
    return out if sign == 1 else [-c for c in out]


@lru_cache(maxsize=None)
def _torus_alexander_reference(p: int, q: int) -> list:
    # (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), exact integer division
    def cyc(k):
        return [-1] + [0] * (k - 1) + [1]

    num = _poly_mul(cyc(p * q), cyc(1))
    return int_poly_div_exact(int_poly_div_exact(num, cyc(p)), cyc(q))


def seifert_matrix(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Validated Seifert matrix of T(p, q), size (p-1)(q-1); the body of
    the cached ``seifert.seifert_matrix``."""
    check_torus(p, q)
    V = _seifert_matrix_raw(p, q)
    n = len(V)
    if n != (p - 1) * (q - 1):
        raise ConventionError("unexpected cycle count in the band basis")
    delta = _poly_det([[_poly_trim([V[i][j], -V[j][i]]) for j in range(n)]
                       for i in range(n)])
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


def alexander_poly(p: int, q: int) -> LaurentPoly:
    """The Alexander polynomial of T(p, q) from its closed form, in monic
    low-0 normal form; ``seifert.seifert_matrix`` checks det(V - t V^T) against it."""
    check_torus(p, q)
    return LaurentPoly.from_ints(_torus_alexander_reference(p, q)).unit_normal()


# ---------------------------------------------------------------------------
# Branched cyclic covers
# ---------------------------------------------------------------------------


class CoverHomology(namedtuple("CoverHomology", "p q n divisors order module")):
    """H_1 of the n-fold branched cover of T(p, q): its torsion ``divisors``
    and ``order``, and its q-torsion ``module`` when q is prime and that is
    all the torsion, else None."""

    __slots__ = ()


def branched_cover(p: int, q: int, n: int) -> CoverHomology:
    """Homology of the n-fold cyclic branched cover of T(p, q), with its
    deck action and linking form when q is prime and divides the order;
    the body of the cached ``seifert.branched_cover``.

    The group is (Z/q)^(g-1) + (Z/p)^(h-1), g = gcd(p, n), h = gcd(q, n);
    g, h > 1 (infinite homology) is rejected.  The module is
    ``covers.model_module(g, q)`` with its form scaled by s = pn/b mod q
    for even g, b its value on x_0 + x_2 + ... + x_(g-2); see the module
    docstring.
    """
    if n < 2:
        raise ValueError("cover degree must be at least 2")
    check_torus(p, q)
    g, h = gcd(p, n), gcd(q, n)
    if g > 1 and h > 1:
        raise ConventionError(f"the {n}-fold cover of T({p},{q}) has infinite homology "
                              f"(n is not a prime power)")
    torsion = (q,) * (g - 1) + (p,) * (h - 1)
    module = None
    if g > 1 and prime_power_exponent(q) == 1:
        model = model_module(g, q)
        s = 1
        if g % 2 == 0:
            b = sum(model.gram[i][j] for i in range(0, g - 1, 2) for j in range(0, g - 1, 2))
            s = p * n * pow(b, -1, q) % q
        module = CoverModule(r=q, action=model.action,
                             gram=tuple(tuple(s * x % q for x in row) for row in model.gram))
    return CoverHomology(p=p, q=q, n=n, divisors=torsion, order=prod(torsion),
                         module=module)
