"""Inputs of the three workloads, as plain strings and tuples.

run.py imports this module without importing sliceguard, so nothing
here depends on the package under test.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd

J2 = "T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)"
J3 = "T(3,4;3,5) # -T(3,5) # -T(3,4;3,7) # T(3,7)"

# The fixed cold corpus: J2 and J3, the other acceptance-suite contexts,
# the mixed-depth case, the decided trials of the stress test's seed, and
# p = 3, m1 = 1 inputs whose obstruction prime is 11 and 13.
CORPUS = (
    J2,
    J3,
    "T(2,5;2,3) # -T(2,3) # -T(2,5;2,7) # T(2,7)",
    "T(3,5;3,2) # -T(3,2) # -T(3,5;3,7) # T(3,7)",
    "T(2,5;2,3) # T(2,11;2,3) # -2*T(2,3) # -T(2,5;2,7) # T(2,7) "
    "# -T(2,11;2,13) # T(2,13)",
    "T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7) # T(2,9;2,11;2,5) "
    "# -T(2,11;2,5) # -T(2,9;2,11;2,13) # T(2,11;2,13)",
    "2*T(2,3) # -2*T(2,7) # -2*T(2,11;2,3) # 2*T(2,11;2,7)",
    "T(2,5;2,7) # -T(2,5;2,11) # -T(2,9;2,5;2,7) # T(2,9;2,5;2,11)",
    "-2*T(2,5) # 2*T(2,7;2,5) # -2*T(2,7;2,13) # 2*T(2,13)",
    "T(2,5) # -T(2,7) # -T(2,9;2,5) # T(2,9;2,7)",
    "-T(2,3;2,7) # T(2,3;2,11) # T(2,7) # -T(2,11)",
    "-T(2,5;2,3) # T(2,5;2,7) # T(2,11;2,5;2,3) # -T(2,11;2,5;2,7)",
    "-2*T(2,3) # 2*T(2,5;2,3) # -2*T(2,5;2,7) # 2*T(2,7)",
    "-2*T(2,3;2,11) # 2*T(2,3;2,13) # 2*T(2,7;2,3;2,11) # -2*T(2,7;2,3;2,13)",
    "-T(2,3) # T(2,5;2,3) # -T(2,5;2,11) # T(2,11)",
    "-T(2,3) # T(2,5) # T(2,7;2,3) # -T(2,7;2,5)",
    "T(3,7;3,11) # -T(3,7;3,13) # -T(3,11) # T(3,13)",
    "T(3,4;3,11) # -T(3,11) # -T(3,4;3,13) # T(3,13)",
    "T(3,4;3,13) # -T(3,13) # -T(3,4;3,17) # T(3,17)",
)

PRIMES = (2, 3, 5, 7, 11, 13)

# Batch strata ((p, m1, r), draws per pass).  Every seed draws the same
# strata, so the mix of shapes, and with it the cost profile, is the same
# for every seed.  The draw counts put the per-input p50 inside the
# cluster of r = 5 shapes and the p90 inside the p = 2, m1 = 3 cluster,
# away from the jumps between clusters.  Shapes the default budget refuses
# (p = 3 with m1 = 2 at r >= 3, p = 2 with m1 = 3 at r >= 5) and p = 3,
# m1 = 2 at r = 2 (about 13 s per obstruct) are left out.
STRATA = (
    ((2, 1, 3), 2), ((2, 1, 5), 2), ((2, 1, 7), 2), ((2, 1, 11), 1),
    ((3, 1, 2), 2), ((2, 2, 3), 1),
    ((3, 1, 5), 2), ((2, 2, 5), 2),
    ((2, 2, 7), 2), ((3, 1, 7), 2),
    ((3, 1, 11), 2),
    ((2, 3, 3), 3),
)


def _pool(p: int, *avoid: int) -> list[int]:
    return [a for a in range(2, 13) if all(gcd(a, y) == 1 for y in (p, *avoid))]


def _term(p: int, qs, coeff: int) -> str:
    body = "T(" + ";".join(f"{p},{q}" for q in qs) + ")"
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def _block(p: int, r: int, c: int, rng: random.Random, head=None) -> list:
    """A level-cancelling block ending in r and c: the stress test's J
    block (companion a) or deep block (companions a1, a2)."""
    pool = _pool(p, r, c)
    if head is None:
        head = (rng.choice(pool),) if rng.random() < 0.6 else (
            rng.choice(pool), rng.choice(pool))
    return [(head + (r,), 1), (head[1:] + (r,), -1),
            (head + (c,), -1), (head[1:] + (c,), 1)]


def _terms(blocks, sign: int) -> dict:
    terms: dict = {}
    for block in blocks:
        for qs, s in block:
            terms[qs] = terms.get(qs, 0) + sign * s
    return {qs: c for qs, c in sorted(terms.items()) if c}


def combination(p: int, blocks, sign: int) -> str:
    return " # ".join(_term(p, qs, c) for qs, c in _terms(blocks, sign).items())


def batch_input(p: int, m1: int, r: int, rng: random.Random) -> str:
    """One input of stratum (p, m1, r): m1 blocks whose smallest final
    index is r, so obstruct works at r with m1 signed pairs.

    Draws that cancel down to fewer pairs are drawn again, and so are
    draws with two distinct companion indices sharing a factor (such as 3
    and 9): their level blocks share unit-circle roots, the splitting
    hypothesis fails, and sliceguard answers INCONCLUSIVE by design.
    """
    above = [c for c in PRIMES if c > r and c % p]
    while True:
        blocks = [_block(p, r, rng.choice(above), rng) for _ in range(m1)]
        sign = rng.choice((1, -1))
        terms = _terms(blocks, sign)
        pairs = sum(c for qs, c in terms.items() if qs[-1] == r and c > 0)
        heads = {q for block in blocks for qs, _ in block for q in qs[:-1]}
        coprime = all(gcd(a, b) == 1 for a in heads for b in heads if a < b)
        if coprime and pairs == m1:
            return combination(p, blocks, sign)


def batch_inputs(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [batch_input(p, m1, r, rng) for (p, m1, r), draws in STRATA
            for _ in range(draws)]


def warmup_inputs(seed: int) -> list[str]:
    """The warm-up pass: one draw per stratum from another seed, then one
    J block per companion index the generator can draw, so that every
    per-(p, q) cache a timed input can need is filled."""
    rng = random.Random(seed ^ 0x5EED)
    out = [batch_input(p, m1, r, rng) for (p, m1, r), _ in STRATA]
    for p in sorted({p for (p, _, _), _ in STRATA}):
        for a in _pool(p):
            r, c = [q for q in PRIMES if q % p and gcd(q, a) == 1][:2]
            out.append(combination(p, [_block(p, r, c, rng, head=(a,))], 1))
    return out


# The twisted grid: every character of each coprime (p, q) with p <= 4 and
# q in {2, 3, 5, 7}, plus (5, 2), (5, 3) and a seeded sample of (5, 7).
GRID_FULL = tuple(
    (p, q) for p in (2, 3, 4) for q in (2, 3, 5, 7) if gcd(p, q) == 1
) + ((5, 2), (5, 3))
GRID_SAMPLED = (5, 7)
GRID_SAMPLE = 200


def characters(p: int, q: int) -> list[tuple]:
    """All zero-sum character value vectors, in the order sliceguard lists
    them (sorted by value)."""
    return sorted(head + ((-sum(head)) % q,) for head in product(range(q), repeat=p - 1))


def grid(seed: int) -> list[tuple]:
    """(p, q, values) for every grid character, (5, 7) sampled by seed."""
    out = [(p, q, v) for (p, q) in GRID_FULL for v in characters(p, q)]
    p, q = GRID_SAMPLED
    sample = random.Random(seed).sample(characters(p, q), GRID_SAMPLE)
    out.extend((p, q, v) for v in sorted(sample))
    return out
