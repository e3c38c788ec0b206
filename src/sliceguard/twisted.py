"""Metabelian representations of torus knot groups, Fox calculus, and the
twisted Alexander polynomials they produce.

The torus knot group has the presentation <c1, c2 | c1^p = c2^q>.  For a
zero-sum character chi = (a_1, ..., a_p) over Z_q the working
representative of the metabelian representation sends

    c2 |-> t * diag(xi^(a_1), ..., xi^(a_p)),      xi = e^(2 pi i / q),
    c1 |-> A_p(t)^q,

with A_p(t) the companion-style matrix whose p-th power is t * id.  Both
images are monomial (one entry xi^a t^k per row), so words in c1, c2 are
multiplied as (column, a mod q, k) triples in integer arithmetic, and only
the results are expanded into Laurent polynomial matrices.

The twisted polynomial of the exterior is computed twice: once through
Fox calculus on the relator (a determinant quotient) and once from the
closed product formula.  The two numerators must agree up to units, and so
must the two denominators, on every call.  The closed form is reduced by
counting the roots of unity the two sides share and dividing each out
exactly, with no polynomial gcd.  Dividing by the extra (-1)^(p-1) (t - 1)
gives the polynomial of the 0-surgery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .covers import Character
from .cyclo import Cyclo, RootOfUnity
from .laurent import LaurentPoly, RationalFn

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


# ---------------------------------------------------------------------------
# The representation
# ---------------------------------------------------------------------------

# A monomial matrix over Z[xi, t^(+-1)], xi = e^(2 pi i / q): row i holds
# its single nonzero entry xi^a * t^k, in column c, as (c, a mod q, k).
Monomial = tuple[tuple[int, int, int], ...]


def _mono_mul(M: Monomial, N: Monomial, q: int) -> Monomial:
    return tuple((N[c][0], (a + N[c][1]) % q, k + N[c][2]) for c, a, k in M)


def _mono_pow(M: Monomial, e: int, q: int) -> Monomial:
    out = tuple((i, 0, 0) for i in range(len(M)))
    while e:
        if e & 1:
            out = _mono_mul(out, M, q)
        M = _mono_mul(M, M, q)
        e >>= 1
    return out


def _monomial_companion(p: int, sign: int) -> Monomial:
    """A_p(t) for sign 1, with ones on the superdiagonal and t in the
    corner, so that A_p^p = t*id; its inverse for sign -1."""
    if sign > 0:
        return tuple((i + 1, 0, 0) for i in range(p - 1)) + ((0, 0, 1),)
    return ((p - 1, 0, -1),) + tuple((i, 0, 0) for i in range(p - 1))


def _dense(M: Monomial, q: int) -> list[list[LaurentPoly]]:
    """The matrix of Laurent polynomials; each entry's coefficient is the
    reduced root xi^a, so its conductor is the order of a/q."""
    out = [[LaurentPoly.zero()] * len(M) for _ in M]
    for i, (c, a, k) in enumerate(M):
        out[i][c] = LaurentPoly(k, [RootOfUnity.normalized(a, q).as_cyclo()])
    return out


class TorusRep:
    """Images of c1, c2 (and inverses) under the working representative,
    as monomial matrices."""

    def __init__(self, p: int, q: int, chi: Character):
        if chi.p != p:
            raise ValueError("character length must equal p")
        if chi.r != q:
            raise ValueError("character modulus must equal q")
        self.p, self.q, self.chi = p, q, chi
        self.images: dict[tuple[int, int], Monomial] = {
            (1, 1): _mono_pow(_monomial_companion(p, 1), q, q),
            (1, -1): _mono_pow(_monomial_companion(p, -1), q, q),
            (2, 1): tuple((i, a, 1) for i, a in enumerate(chi.values)),
            (2, -1): tuple((i, -a % q, -1) for i, a in enumerate(chi.values)),
        }

    def image_of_word(self, w: Word) -> Monomial:
        out: Monomial = tuple((i, 0, 0) for i in range(self.p))
        for g, e in w:
            base = self.images[(g, 1 if e > 0 else -1)]
            out = _mono_mul(out, _mono_pow(base, abs(e), self.q), self.q)
        return out

    def image_of_combination(self, terms):
        out = [[LaurentPoly.zero()] * self.p for _ in range(self.p)]
        for coeff, w in terms:
            m = _dense(self.image_of_word(w), self.q)
            for i in range(self.p):
                for j in range(self.p):
                    if not m[i][j].is_zero():
                        out[i][j] = out[i][j] + m[i][j].scale(coeff)
        return out


def rep_images(p: int, q: int, chi: Character):
    """(image of c1, image of c2) as matrices of Laurent polynomials; the
    defining relation c1^p = c2^q is re-checked on the monomial forms."""
    rep = TorusRep(p, q, chi)
    c1, c2 = rep.images[(1, 1)], rep.images[(2, 1)]
    if _mono_pow(c1, p, q) != _mono_pow(c2, q, q):
        raise ArithmeticError("representation violates c1^p = c2^q")
    return _dense(c1, q), _dense(c2, q)


def _det(rows):
    """Determinant of a small matrix of Laurent polynomials (subset DP)."""
    n = len(rows)
    states = {0: LaurentPoly.one()}
    for k in range(n):
        new = {}
        for subset, acc in states.items():
            seen = 0  # chosen columns right of c: the inversions (k, c) adds
            for c in reversed(range(n)):
                bit = 1 << c
                if subset & bit:
                    seen += 1
                    continue
                entry = rows[k][c]
                if entry.is_zero():
                    continue
                term = acc * entry if seen % 2 == 0 else -(acc * entry)
                key = subset | bit
                if key in new:
                    new[key] = new[key] + term
                else:
                    new[key] = term
        states = {s: v for s, v in new.items() if not v.is_zero()}
    return states.get((1 << n) - 1, LaurentPoly.zero())


RELATOR_DERIVATIVE_GEN = 1  # differentiate c1^p c2^-q with respect to c1


@lru_cache(maxsize=None)
def _fox_numerator(p: int, q: int) -> LaurentPoly:
    """det of the image of d(c1^p c2^-q)/d c1; character independent since
    the image of c1 is."""
    rep = TorusRep(p, q, Character(q, tuple([0] * p)))
    relator = word((1, p), (2, -q))
    terms = fox_derivative(relator, RELATOR_DERIVATIVE_GEN)
    return _det(rep.image_of_combination(terms))


@dataclass(frozen=True)
class TwistedPoly:
    """The twisted polynomial as a reduced fraction, normalized up to units."""

    fraction: RationalFn

    def is_unit(self) -> bool:
        return self.fraction.is_unit()

    def __str__(self):
        return str(self.fraction)


def _disagree(p: int, q: int, chi=None) -> ArithmeticError:
    where = f"p={p}, q={q}" + ("" if chi is None else f", chi={chi}")
    return ArithmeticError(f"Fox-calculus and closed-form twisted polynomials disagree for {where}")


@lru_cache(maxsize=None)
def _closed_numerator(p: int, q: int) -> LaurentPoly:
    """(1 - t^q)^(p-1), each q-th root of unity with multiplicity p - 1,
    checked against the Fox numerator; neither depends on the character."""
    closed = (LaurentPoly.one() - LaurentPoly.from_ints([1], q)) ** (p - 1)
    if not _fox_numerator(p, q).eq_up_to_units(closed):
        raise _disagree(p, q)
    return closed


@lru_cache(maxsize=None)
def twisted_alex_exterior(p: int, q: int, chi: Character) -> TwistedPoly:
    """Twisted Alexander polynomial of the knot exterior, by both routes.

    Route one is the Fox calculus torsion quotient
    det(rep(d relator / d c1)) / det(rep(c2) - id); route two is the
    closed form (1 - t^q)^(p-1) / prod_i (t xi^(a_i) - 1).  Numerators and
    denominators must agree up to units, each on its own.  The closed form
    is then reduced by root bookkeeping: the root xi^(-a) is common to both
    sides min(#{i : a_i = a}, p - 1) times, and is divided out exactly.
    """
    c2 = _dense(TorusRep(p, q, chi).images[(2, 1)], q)
    for i in range(p):
        c2[i][i] = c2[i][i] - LaurentPoly.one()
    closed_den = LaurentPoly.one()
    for a in chi.values:
        factor = LaurentPoly(0, [Cyclo.from_fraction(-1), RootOfUnity.normalized(a, q).as_cyclo()])
        closed_den = closed_den * factor
    if not _det(c2).eq_up_to_units(closed_den):
        raise _disagree(p, q, chi)
    num, den = _closed_numerator(p, q), closed_den
    for a in sorted(set(chi.values)):
        root = RootOfUnity.normalized(-a, q)
        for _ in range(min(chi.values.count(a), p - 1)):
            num, den = num.divide_linear(root), den.divide_linear(root)
    return TwistedPoly(RationalFn.from_reduced(num, den))


@lru_cache(maxsize=None)
def twisted_alex_surgery(p: int, q: int, chi: Character) -> TwistedPoly:
    """Twisted polynomial of the 0-surgery: the exterior polynomial divided
    by (-1)^(p-1) (t - 1)."""
    ext = twisted_alex_exterior(p, q, chi).fraction
    num = ext.num.scale(1 if (p - 1) % 2 == 0 else -1)
    # the exterior fraction is reduced, so only the new (t - 1) can cancel;
    # its numerator keeps the root 1 when fewer than p - 1 values are 0
    if chi.values.count(0) < p - 1:
        return TwistedPoly(RationalFn.from_reduced(num.divide_linear(RootOfUnity.one()), ext.den))
    return TwistedPoly(
        RationalFn.from_reduced(num, ext.den * LaurentPoly.from_ints([-1, 1]))
    )
