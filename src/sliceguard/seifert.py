"""Signature jumps of torus knots, and the entry points of their Seifert
presentations.

The verdict path needs only closed forms, and ``jump_at`` is the one jump
rule.  Litherland ("Signatures of iterated torus knots", 1979) puts a jump
of +2 at s = i/p + j/q when s < 1 and of -2 at s - 1 when s > 1, for
0 < i < p and 0 < j < q.  As iq + jp is k or k + pq for i = k/q mod p and
j = k/p mod q, the jumps sit exactly at the Alexander roots k/pq, p and q
not dividing k, each simple, and are +2 exactly when iq + jp < pq.

``seifert_matrix`` and ``branched_cover`` are cached entry points whose
bodies are in ``presentations``, imported on a cache miss.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil

from .covers import ConventionError  # what the routes behind the entry points raise
from .knots import check_torus


# ---------------------------------------------------------------------------
# Seifert matrices and branched covers, from ``presentations``
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def seifert_matrix(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Validated Seifert matrix of T(p, q), size (p-1)(q-1)."""
    from .presentations import seifert_matrix
    return seifert_matrix(p, q)


@lru_cache(maxsize=None)
def branched_cover(p: int, q: int, n: int):
    """Homology of the n-fold cyclic branched cover of T(p, q), as a
    ``presentations.CoverHomology``: (Z/q)^(gcd(p,n)-1) + (Z/p)^(gcd(q,n)-1),
    with the model module for prime q; see ``presentations.branched_cover``."""
    from .presentations import branched_cover
    return branched_cover(p, q, n)


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
