"""Metabelian twisted Alexander polynomials of torus knots, by two routes.

The twisted polynomial of the exterior is computed twice: once through
Fox calculus on the relator (a determinant quotient) and once from the
closed product formula.  The two numerators must agree up to units, and so
must the two denominators, for every character.  Both routes are in
``fox``, which each entry point here imports on a call or a cache miss.
``laurent`` is imported the same way by ``twisted_alex_exterior``, the one
function that builds a polynomial itself; ``RationalFn`` appears here only
in annotations.
"""

from __future__ import annotations

from functools import lru_cache

from .covers import Character


def rep_images(p: int, q: int, chi: Character):
    """(image of c1, image of c2) as matrices of Laurent polynomials; the
    defining relation c1^p = c2^q is re-checked on the monomial forms."""
    from .fox import TorusRep, _dense, _mono_pow
    rep = TorusRep(p, q, chi)
    c1, c2 = rep.images[(1, 1)], rep.images[(2, 1)]
    if _mono_pow(c1, p, q) != _mono_pow(c2, q, q):
        raise ArithmeticError("representation violates c1^p = c2^q")
    return _dense(c1, q), _dense(c2, q)


@lru_cache(maxsize=None)
def twisted_alex_exterior(p: int, q: int, chi: Character) -> RationalFn:
    """Twisted Alexander polynomial of the knot exterior, by both routes.

    Route one is the Fox calculus torsion quotient
    det(rep(d relator / d c1)) / det(rep(c2) - id); route two is the
    closed form (1 - t^q)^(p-1) / prod_i (t xi^(a_i) - 1).  Numerators and
    denominators must agree up to units, each on its own, and both checks
    run for every character.  The closed form is reduced by root
    bookkeeping once per multiset of values (``_closed_form``).
    """
    from .fox import TorusRep, _closed_form, _closed_numerator, _dense, _det, _disagree
    from .laurent import LaurentPoly
    _closed_numerator(p, q)  # the numerator check, whether or not _closed_form is cached
    c2 = _dense(TorusRep(p, q, chi).images[(2, 1)], q)
    for i in range(p):
        c2[i][i] = c2[i][i] - LaurentPoly.one()
    den, exterior, _ = _closed_form(p, q, tuple(sorted(chi.values)))
    if not _det(c2).eq_up_to_units(den):
        raise _disagree(p, q, chi)
    return exterior


@lru_cache(maxsize=None)
def twisted_alex_surgery(p: int, q: int, chi: Character) -> RationalFn:
    """Twisted polynomial of the 0-surgery: the exterior polynomial divided
    by (-1)^(p-1) (t - 1).  The exterior's checks run for ``chi`` first;
    the reduced fraction is shared by every ordering of its values."""
    twisted_alex_exterior(p, q, chi)
    from .fox import _closed_form
    return _closed_form(p, q, tuple(sorted(chi.values)))[2]
