"""Signature jumps of torus knots, and the entry points of their Seifert
presentations.

The verdict path needs only closed forms, and ``jump_at`` is the one jump
rule.  Litherland ("Signatures of iterated torus knots", 1979) puts a jump
of +2 at s = i/p + j/q when s < 1 and of -2 at s - 1 when s > 1, for
0 < i < p and 0 < j < q.  As iq + jp is k or k + pq for i = k/q mod p and
j = k/p mod q, the jumps sit exactly at the Alexander roots k/pq, p and q
not dividing k, each simple, and are +2 exactly when iq + jp < pq.

``seifert_matrix`` and ``branched_cover`` import their routes from
``presentations`` on a cache miss.  ``homology`` answers or refuses in
bounded time: d = deg Delta and the N = (n-1)d rows of the cover
presentation may not exceed ``MAX_PRESENTATION_ROWS``
(``BudgetExceeded``), d before the Smith form and N before it is built.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, prod

from .covers import ConventionError
from .knots import check_torus, prime_power_exponent
from .metabolizers import BudgetExceeded

# the most rows of the Smith form (d) and of Y (N) in ``branched_cover``;
# (7, 13, 7), with N = 432, takes about 6 s on a 2-CPU x86 machine
MAX_PRESENTATION_ROWS = 500


# ---------------------------------------------------------------------------
# Seifert matrices and branched covers, from ``presentations``
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def seifert_matrix(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Validated Seifert matrix of T(p, q), size (p-1)(q-1)."""
    check_torus(p, q)
    from .presentations import _poly_det, _poly_trim, _seifert_matrix_raw, _torus_alexander_reference
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




@lru_cache(maxsize=None)
def branched_cover(p: int, q: int, n: int):
    """Homology of the n-fold cyclic branched cover of T(p, q), with its
    deck action and linking form when every divisor is the prime q, as a
    ``presentations.CoverHomology``.

    The divisors come from the cyclic Alexander module; a zero divisor
    (infinite homology) is rejected, which catches non-prime-power n, and
    d or N over ``MAX_PRESENTATION_ROWS`` raises BudgetExceeded; see the
    module docstring.
    """
    if n < 2:
        raise ValueError("cover degree must be at least 2")
    check_torus(p, q)
    d = (p - 1) * (q - 1)
    if d > MAX_PRESENTATION_ROWS:
        raise BudgetExceeded(f"the Alexander module of T({p},{q}) has rank {d}, "
                             f"over the limit of {MAX_PRESENTATION_ROWS}")
    from .presentations import CoverHomology, _norm_multiplication, _prime_module, elementary_divisors
    divisors = elementary_divisors(_norm_multiplication(p, q, n))
    if 0 in divisors:
        raise ConventionError(
            f"singular cover presentation for n={n}"
            + ("" if prime_power_exponent(n) else " (n is not a prime power)")
        )
    torsion = tuple(d for d in divisors if d != 1)
    module = None
    if prime_power_exponent(q) == 1 and torsion and all(d == q for d in torsion):
        rows = (n - 1) * d
        if rows > MAX_PRESENTATION_ROWS:
            raise BudgetExceeded(
                f"the {n}-fold cover of T({p},{q}) has a presentation of {rows} "
                f"rows, over the limit of {MAX_PRESENTATION_ROWS}"
            )
        module = _prime_module(seifert_matrix(p, q), n, q, len(torsion))
    return CoverHomology(p=p, q=q, n=n, divisors=torsion, order=prod(torsion),
                         module=module)


# ---------------------------------------------------------------------------
# Signature jumps and Levine-Tristram signatures
# ---------------------------------------------------------------------------


def jump_at(p: int, q: int, numerator: int, denominator: int) -> int:
    """The signature jump of T(p, q) at e^(2 pi i x), x = numerator /
    denominator mod 1, not necessarily reduced: at x = k/pq with p and q
    not dividing k, +2 if iq + jp < pq for i = k/q mod p and j = k/p mod q,
    else -2; elsewhere 0."""
    check_torus(p, q)
    pq = p * q
    k, rest = divmod(numerator * pq, denominator)
    k %= pq
    if rest or not (k % p and k % q):
        return 0
    i, j = k * pow(q, -1, p) % p, k * pow(p, -1, q) % q
    return 2 if i * q + j * p < pq else -2


def lt_signature(p: int, q: int, x) -> int:
    """Levine-Tristram signature of T(p, q) at e^(2 pi i x), x in (0, 1):
    the sum of the jumps below x, counted for each i of the smaller index.
    Rejects the roots of the Alexander polynomial, where it is undefined."""
    from fractions import Fraction
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("evaluation point must be strictly between 0 and 1")
    if jump_at(p, q, x.numerator, x.denominator):
        raise ValueError(f"{x} is a root of the Alexander polynomial of T({p},{q})")
    p, q = sorted((p, q))

    def below(t):
        # the number of j in 1..q-1 with j/q < t
        return min(max(ceil(q * t) - 1, 0), q - 1)

    # +2 for each s = i/p + j/q < x and -2 for each 1 < s < 1 + x; no s is
    # 1, x or 1 + x, as x is not a jump point
    return 2 * sum(below(x - u) - below(1 + x - u) + below(1 - u)
                   for u in (Fraction(i, p) for i in range(1, p)))


def jump_function(p: int, q: int) -> dict:
    """Every signature jump of T(p, q) by its point, for ``signature --jumps``."""
    return dict(_jump_function_cached(p, q))


@lru_cache(maxsize=None)
def _jump_function_cached(p: int, q: int) -> tuple:
    from fractions import Fraction
    check_torus(p, q)
    return tuple((Fraction(k, p * q), jump) for k in range(1, p * q)
                 if (jump := jump_at(p, q, k, p * q)))
