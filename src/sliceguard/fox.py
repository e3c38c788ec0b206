"""The twisted Alexander polynomials of torus knots in closed form, with
the Fox-calculus denominator checked for every character: the bodies of
``twisted``, imported on first use.

The torus knot group has the presentation <c1, c2 | c1^p = c2^q>.  For a
zero-sum character chi = (a_1, ..., a_p) over Z_q the working
representative of the metabelian representation sends

    c2 |-> t * diag(xi^(a_1), ..., xi^(a_p)),      xi = e^(2 pi i / q),
    c1 |-> A_p(t)^q,

with A_p(t) the companion-style matrix whose p-th power is t * id.  Both
images are monomial (one entry xi^a t^k per row), so their powers are
taken as (column, a mod q, k) triples in integer arithmetic, and only the
results are expanded into Laurent polynomial matrices.

The polynomial of the exterior is the torsion quotient
det(rep(d relator / d c1)) / det(rep(c2) - id), which is the closed form
(1 - t^q)^(p-1) / prod_i (t xi^(a_i) - 1).  The numerator, the
determinant of the image of 1 + c1 + ... + c1^(p-1), does not depend on
the character, so the package takes it in closed form, and the
Fox-calculus route that derives it is the tests' oracle
(``tests/oracles.py``).  The denominator is taken in closed form too,
and det(rep(c2) - id) is checked against it for every character.

The closed form depends only on the multiset of the character's values,
so it is reduced once per multiset: by counting the roots of unity the
two sides share and dividing each out exactly, with no polynomial gcd.
Dividing by the extra (-1)^(p-1) (t - 1) gives the polynomial of the
0-surgery.
"""

from __future__ import annotations

from functools import lru_cache

from .covers import Character
from .cyclo import Cyclo, RootOfUnity
from .knots import check_torus
from .laurent import LaurentPoly, RationalFn

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


def _monomial_companion(p: int) -> Monomial:
    """A_p(t), with ones on the superdiagonal and t in the corner, so that
    A_p^p = t*id."""
    return tuple((i + 1, 0, 0) for i in range(p - 1)) + ((0, 0, 1),)


def _dense(M: Monomial, q: int) -> list[list[LaurentPoly]]:
    """The matrix of Laurent polynomials; each entry's coefficient is the
    reduced root xi^a, so its conductor is the order of a/q."""
    out = [[LaurentPoly.zero()] * len(M) for _ in M]
    for i, (c, a, k) in enumerate(M):
        out[i][c] = LaurentPoly(k, [Cyclo.from_root(RootOfUnity.normalized(a, q))])
    return out


class TorusRep:
    """Images of c1 and c2 under the working representative, as monomial
    matrices.  Every route of ``twisted`` builds one, so a (p, q) that is
    not a torus knot is rejected here."""

    def __init__(self, p: int, q: int, chi: Character):
        check_torus(p, q)
        if chi.p != p:
            raise ValueError("character length must equal p")
        if chi.r != q:
            raise ValueError("character modulus must equal q")
        self.p, self.q, self.chi = p, q, chi
        self.images: dict[tuple[int, int], Monomial] = {
            (1, 1): _mono_pow(_monomial_companion(p), q, q),
            (2, 1): tuple((i, a, 1) for i, a in enumerate(chi.values)),
        }


def rep_images(p: int, q: int, chi: Character):
    """(image of c1, image of c2) as matrices of Laurent polynomials; the
    defining relation c1^p = c2^q is re-checked on the monomial forms.  The
    body of ``twisted.rep_images``."""
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


@lru_cache(maxsize=None)
def _closed_numerator(p: int, q: int) -> LaurentPoly:
    """(1 - t^q)^(p-1), each q-th root of unity with multiplicity p - 1; it
    does not depend on the character."""
    return (LaurentPoly.one() - LaurentPoly.from_ints([1], q)) ** (p - 1)


@lru_cache(maxsize=None)
def _closed_form(p: int, q: int, values: tuple) -> tuple[LaurentPoly, RationalFn, RationalFn]:
    """The closed denominator prod_i (t xi^(a_i) - 1) and the reduced
    exterior and 0-surgery polynomials, for the sorted character values
    ``values``: none of them depends on the order of the values.

    The root xi^(-a) is common to (1 - t^q)^(p-1) and the denominator
    min(#{i : a_i = a}, p - 1) times, and is divided out exactly.  The
    reduced exterior fraction can then only cancel the new (t - 1) of the
    surgery, and its numerator keeps the root 1 when fewer than p - 1
    values are 0.
    """
    den = LaurentPoly.one()
    for a in values:
        z = Cyclo.from_root(RootOfUnity.normalized(a, q))
        den = den * LaurentPoly(0, [Cyclo.from_fraction(-1), z])
    num, red = _closed_numerator(p, q), den
    for a in sorted(set(values)):
        root = RootOfUnity.normalized(-a, q)
        for _ in range(min(values.count(a), p - 1)):
            num, red = num.divide_linear(root), red.divide_linear(root)
    ext = RationalFn(num, red)
    num = ext.num.scale(1 if (p - 1) % 2 == 0 else -1)
    if values.count(0) < p - 1:
        surgery = RationalFn(num.divide_linear(RootOfUnity.one()), ext.den)
    else:
        surgery = RationalFn(num, ext.den * LaurentPoly.from_ints([-1, 1]))
    return den, ext, surgery


def twisted_alex_exterior(p: int, q: int, chi: Character) -> RationalFn:
    """Twisted Alexander polynomial of the knot exterior in closed form,
    (1 - t^q)^(p-1) / prod_i (t xi^(a_i) - 1), reduced by root bookkeeping
    once per multiset of values (``_closed_form``); the body of the cached
    ``twisted.twisted_alex_exterior``.  The Fox-calculus denominator
    det(rep(c2) - id) must agree with the closed one up to units, for
    every character.
    """
    c2 = _dense(TorusRep(p, q, chi).images[(2, 1)], q)
    for i in range(p):
        c2[i][i] = c2[i][i] - LaurentPoly.one()
    den, exterior, _ = _closed_form(p, q, tuple(sorted(chi.values)))
    if not _det(c2).eq_up_to_units(den):
        raise ArithmeticError("Fox-calculus and closed-form twisted polynomials disagree "
                              f"for p={p}, q={q}, chi={chi}")
    return exterior
