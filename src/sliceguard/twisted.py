"""Metabelian twisted Alexander polynomials of torus knots.

The twisted polynomial of the exterior is the closed product formula,
whose denominator is checked against the Fox-calculus determinant
det(rep(c2) - id) for every character.  The entry points here are thin:
their bodies are in ``fox``, which each imports on a call or a cache
miss, and ``RationalFn`` appears here only in annotations.
"""

from __future__ import annotations

from functools import lru_cache

from .covers import Character


def rep_images(p: int, q: int, chi: Character):
    """(image of c1, image of c2) as matrices of Laurent polynomials, with
    c1^p = c2^q re-checked; the body is ``fox.rep_images``."""
    from .fox import rep_images
    return rep_images(p, q, chi)


@lru_cache(maxsize=None)
def twisted_alex_exterior(p: int, q: int, chi: Character) -> RationalFn:
    """Twisted Alexander polynomial of the knot exterior in closed form,
    its denominator checked against the Fox-calculus determinant; the body
    is ``fox.twisted_alex_exterior``."""
    from .fox import twisted_alex_exterior
    return twisted_alex_exterior(p, q, chi)


@lru_cache(maxsize=None)
def twisted_alex_surgery(p: int, q: int, chi: Character) -> RationalFn:
    """Twisted polynomial of the 0-surgery: the exterior polynomial divided
    by (-1)^(p-1) (t - 1).  The exterior's check runs for ``chi`` first;
    the reduced fraction is shared by every ordering of its values."""
    twisted_alex_exterior(p, q, chi)
    from .fox import _closed_form
    return _closed_form(p, q, tuple(sorted(chi.values)))[2]
