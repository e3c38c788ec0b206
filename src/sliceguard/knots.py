"""Iterated torus knots with a common cabling parameter and their formal sums.

``IteratedTorusKnot(p, (q1, ..., ql))`` denotes the knot obtained from the
(p, q1) torus knot by successive (p, qi)-cabling.  A ``KnotCombination``
is a formal integer linear combination of such knots (under connected
sum), all sharing the same p; the empty combination stands for the unknot.

The torus-knot summands of the s-th companion level drive the algebraic
sliceness test: a combination is algebraically slice exactly when every
level cancels completely, which reduces the decision to bookkeeping on
the cabling sequences.  ``RootOfUnity``, the twist of a Blanchfield
atom and the witness point of a certificate, is a value class here too,
an integer pair, so that the verdict path loads neither the cyclotomic
arithmetic of ``cyclo`` nor ``fractions``.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd


def prime_power_exponent(n: int) -> int:
    """k when n = r^k for a prime r and k >= 1, else 0; so n is prime
    exactly when this is 1."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            return k if n == 1 else 0
        d += 1
    return 1 if n >= 2 else 0


def check_torus(p: int, q: int) -> None:
    """Reject (p, q) unless T(p, q) is a torus knot: both parameters at
    least 2 and coprime."""
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise ValueError(
            f"T({p},{q}) is not a torus knot: p and q must be at least 2 and coprime"
        )


class RootOfUnity(namedtuple("RootOfUnity", "numer order")):
    """The point e^(2*pi*i*k/N) on the unit circle, as the reduced integer
    pair (k mod N, N) of the fraction k/N mod 1, which ``normalized`` builds.

    Multiplication of roots is addition of fractions mod 1.  Like every
    value class of the package it is a namedtuple: immutable and hashed
    as its field tuple; it orders by value, as the fraction does.

    >>> RootOfUnity.normalized(2, 6)
    RootOfUnity(1/3)
    >>> RootOfUnity.normalized(1, 3) * RootOfUnity.normalized(1, 2)
    RootOfUnity(5/6)
    """

    __slots__ = ()

    @staticmethod
    def normalized(k: int, n: int) -> "RootOfUnity":
        if n < 1:
            raise ValueError("root order must be positive")
        k %= n
        g = gcd(k, n)
        return RootOfUnity(k // g, n // g)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(0, 1)

    @property
    def frac(self):
        """The fraction k/N, built on read: the verdict path never reads
        it, and so never loads ``fractions``."""
        from fractions import Fraction
        return Fraction(self.numer, self.order)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.normalized(self.numer * other.order + other.numer * self.order,
                                      self.order * other.order)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity.normalized(self.numer * e, self.order)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.numer % self.order, self.order)

    def __lt__(self, other: "RootOfUnity") -> bool:
        return self.numer * other.order < other.numer * self.order

    def __gt__(self, other: "RootOfUnity") -> bool:
        return other < self

    def __le__(self, other: "RootOfUnity") -> bool:
        return not other < self

    def __ge__(self, other: "RootOfUnity") -> bool:
        return not self < other

    def __repr__(self):
        return f"RootOfUnity({self if self.numer else 0})"

    def __str__(self):
        return f"{self.numer}/{self.order}"


class IteratedTorusKnot(namedtuple("IteratedTorusKnot", "p qs")):
    """T(p, q1; ...; p, ql), ordered as its (p, qs) tuple."""

    __slots__ = ()

    def __new__(cls, p: int, qs: tuple[int, ...]):
        if p < 2:
            raise ValueError("cabling parameter p must be at least 2")
        if not qs:
            raise ValueError("empty cabling sequence")
        for q in qs:
            if q < 1:
                raise ValueError(f"cabling index {q} must be positive")
            if gcd(p, q) != 1:
                raise ValueError(f"gcd({p}, {q}) != 1: not a torus knot cable")
        return tuple.__new__(cls, (p, qs))

    @property
    def length(self) -> int:
        return len(self.qs)

    @property
    def final(self) -> int:
        """The last cabling index; prime for members of the working family."""
        return self.qs[-1]

    def __str__(self):
        return "T(" + ";".join(f"{self.p},{q}" for q in self.qs) + ")"

    __repr__ = __str__


def in_sp(knot: IteratedTorusKnot) -> bool:
    """Membership in the family S_p: the final index is prime and every
    earlier index is coprime to it (coprimality with p is enforced by the
    type)."""
    if prime_power_exponent(knot.final) != 1:
        return False
    if knot.length > 1:
        for q in knot.qs[:-1]:
            if gcd(q, knot.final) != 1:
                return False
    return True


class KnotCombination:
    """Formal sum of iterated torus knots with integer coefficients.

    Terms with the same cabling sequence are combined on construction, so
    a combination never contains a summand together with its mirror.
    """

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms):
        combined: dict[IteratedTorusKnot, int] = {}
        for knot, coeff in dict(terms).items() if isinstance(terms, dict) else terms:
            if knot.p != p:
                raise ValueError(
                    f"knot {knot} has cabling parameter {knot.p}, expected {p}"
                )
            if coeff:
                combined[knot] = combined.get(knot, 0) + coeff
        object.__setattr__(self, "p", p)
        object.__setattr__(
            self, "terms",
            {k: c for k, c in sorted(combined.items()) if c != 0},
        )

    def is_empty(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, KnotCombination) and (
            self.p == other.p and self.terms == other.terms
        )

    __hash__ = None

    def max_length(self) -> int:
        return max((k.length for k in self.terms), default=0)

    def ending_primes(self) -> list[int]:
        """Distinct final indices, candidates for the obstruction prime."""
        return sorted({k.final for k in self.terms})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for knot, coeff in self.terms.items():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = str(knot) if mag == 1 else f"{mag}*{knot}"
            parts.append((sign, body))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            out += f" # {'-' if sign == '-' else ''}{body}"
        return out

    __repr__ = __str__


class TorusKnotSum:
    """Formal sum of plain torus knots T(p, q); the empty sum is the unknot."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        combined: dict[tuple[int, int], int] = {}
        for pq, coeff in dict(terms).items() if isinstance(terms, dict) else terms:
            if coeff:
                combined[pq] = combined.get(pq, 0) + coeff
        object.__setattr__(
            self, "terms", {k: c for k, c in sorted(combined.items()) if c != 0}
        )

    def is_unknot(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, TorusKnotSum) and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "U"
        return " + ".join(f"{c}*T{pq}" for pq, c in self.terms.items())


def s_level(K: KnotCombination, s: int) -> TorusKnotSum:
    """The level-s companion sum: each term T(p, (q1..ql)) contributes its
    (l - s)-th index, or nothing when the sequence is too short."""
    if s < 0:
        raise ValueError("level must be nonnegative")
    terms: dict[tuple[int, int], int] = {}
    for knot, coeff in K.terms.items():
        idx = knot.length - s
        if idx >= 1:
            pq = (K.p, knot.qs[idx - 1])
            terms[pq] = terms.get(pq, 0) + coeff
    return TorusKnotSum(terms)


def algebraically_slice(K: KnotCombination):
    """Decide algebraic sliceness by total cancellation of every level.

    Returns ``(True, None)`` or ``(False, (s, (p, q), coefficient))`` where
    the witness is the first surviving torus-knot summand.
    """
    for s in range(K.max_length()):
        level = s_level(K, s)
        if not level.is_unknot():
            (pq, coeff) = next(iter(level.terms.items()))
            return False, (s, pq, coeff)
    return True, None


def simplify(K: KnotCombination) -> KnotCombination:
    """Cancel mirror pairs.  Combinations combine equal sequences on
    construction, so this is the identity on their terms, and the package
    calls it nowhere; it stays in the public API."""
    return KnotCombination(K.p, K.terms)


class NormalForm(namedtuple("NormalForm", "p r primes groups")):
    """A simplified, level-cancelling combination arranged into signed pairs.

    ``groups[0]`` holds the pairs whose sequences end in the chosen prime r;
    the remaining groups are the other final primes in increasing order.
    Each pair is (positive sequence, negative sequence) with both sequences
    ending in the group's prime; multiplicities are expanded to unit
    coefficient copies.
    """

    __slots__ = ()

    @property
    def m(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    @property
    def m1(self) -> int:
        return len(self.groups[0])


class IndexSets(namedtuple("IndexSets", "pairs points I1 I2 I3 I4")):
    """The level bookkeeping of a normal form: the chosen prime's signed
    ``pairs``, and for each companion level (q, s) in ``points``, which
    indices of those pairs appear positively (I1) and negatively (I2), and
    which pairs (j, i) of the remaining groups appear positively (I3) and
    negatively (I4).  Each copy of a term is one member, so
    |I1| - |I2| + |I3| - |I4| at (q, s) is the coefficient of T(p, q) in
    ``s_level(K, s)``: zero at every level of an algebraically slice K."""

    __slots__ = ()


def index_sets(nf: NormalForm) -> IndexSets:
    tables: dict = {}  # (q, s) -> the members of I1, I2, I3 and I4
    for j, group in enumerate(nf.groups):
        for i, pair in enumerate(group):
            for side, seq in enumerate(pair):
                for s in range(1, len(seq)):
                    table = tables.setdefault((seq[-(s + 1)], s), ([], [], [], []))
                    table[side if j == 0 else 2 + side].append(i if j == 0 else (j, i))
    points = tuple(sorted(tables, key=lambda qs: (qs[1], -qs[0])))
    I1, I2, I3, I4 = ({key: frozenset(tables[key][n]) for key in points} for n in range(4))
    return IndexSets(pairs=nf.groups[0], points=points, I1=I1, I2=I2, I3=I3, I4=I4)


def normal_form(K: KnotCombination, r: int) -> NormalForm:
    """Pair off positive and negative terms by final prime, r-group first.

    Requires the zero level to cancel (counts of positive and negative
    terms agree for every final index) and r to occur as a final index.
    Pairing within a group is lexicographic, which makes the result
    deterministic; any pairing is equally valid.
    """
    if K.is_empty():
        raise ValueError("empty combination has no normal form")
    positives: dict[int, list[tuple[int, ...]]] = {}
    negatives: dict[int, list[tuple[int, ...]]] = {}
    for knot, coeff in K.terms.items():
        bucket = positives if coeff > 0 else negatives
        bucket.setdefault(knot.final, []).extend([knot.qs] * abs(coeff))
    if set(positives) != set(negatives) or any(
        len(positives[e]) != len(negatives[e]) for e in positives
    ):
        raise ValueError(
            "zero level does not cancel: the combination is not algebraically slice"
        )
    if r not in positives:
        raise ValueError(f"{r} does not occur as a final index of {K}")
    primes = [r] + sorted(e for e in positives if e != r)
    groups = []
    for e in primes:
        pos = sorted(positives[e])
        neg = sorted(negatives[e])
        groups.append(tuple(zip(pos, neg)))
    return NormalForm(p=K.p, r=r, primes=tuple(primes), groups=tuple(groups))
