"""Symbolic Witt classes of linking forms over the complex Laurent ring.

Two kinds of atoms occur: classical Blanchfield forms of torus knots with
a root-of-unity twist and an exponent dilation, written
Classical(p, q, twist, power) for Bl(T(p,q))(xi^twist * t^power), and
twisted forms Twisted(p, r, chi) for the metabelian pairing of T(p, r) at
the character chi.  Formal sums merge atoms of identical kind.

Classical atoms carry computable signature-jump functions (reparametrized
torus-knot jumps), and a sum of classical atoms is metabolic exactly when
the coefficient-weighted jumps cancel everywhere: that is the decision
rule used by the pipeline.  Twisted atoms only ever contribute their root
support, which is what the splitting criterion needs.

Supports and jumps are closed-form arithmetic, with no table.  A classical
atom jumps at x where T(p, q) jumps at twist + power * x
(``seifert.jump_at``), which is exactly on the atom's support, the simple
Alexander roots pulled back.  A twisted atom's order is
(1 - t^r)^(p-1) / (prod_i (t xi^(a_i) - 1) (t - 1)) up to units, the
0-surgery form of the closed product in ``twisted``: its support is the
k/r where the numerator and denominator root multiplicities differ.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from fractions import Fraction
from math import ceil

from . import seifert
# unused here: perfbench/spans.py wraps witt.unit_circle_roots by this name
from .laurent import unit_circle_roots  # noqa: F401


class Classical(namedtuple("Classical", "p q twist power coefficient", defaults=(1,))):
    """coefficient * Bl(T(p, q))(xi^twist * t^power), twist a RootOfUnity."""

    __slots__ = ()

    def key(self):
        return ("classical", self.p, self.q, self.twist.frac, self.power)

    def __str__(self):
        arg = "t" if self.power == 1 else f"t^{self.power}"
        if self.twist.frac:
            arg = f"z{self.twist.order}^{self.twist.numer}*{arg}"
        return f"{self.coefficient}*Bl(T({self.p},{self.q}))({arg})"


class Twisted(namedtuple("Twisted", "p r chi coefficient", defaults=(1,))):
    """coefficient * Bl_alpha(p, chi)(T(p, r)) for a zero-sum Character chi
    over Z_r."""

    __slots__ = ()

    def key(self):
        return ("twisted", self.p, self.r, self.chi.values)

    def __str__(self):
        return f"{self.coefficient}*TwBl(T({self.p},{self.r}); chi={self.chi})"


Atom = Classical | Twisted


class WittClass:
    """A formal integer combination of atoms; identical kinds merge and
    zero coefficients vanish, so cancellation is automatic."""

    __slots__ = ("atoms",)

    def __init__(self, atoms=()):
        merged: dict = {}
        for atom in atoms:
            k = atom.key()
            if k in merged:
                merged[k] = merged[k]._replace(
                    coefficient=merged[k].coefficient + atom.coefficient
                )
            else:
                merged[k] = atom
        cleaned = [a for a in merged.values() if a.coefficient]
        cleaned.sort(key=lambda a: a.key())
        object.__setattr__(self, "atoms", tuple(cleaned))

    def is_empty(self) -> bool:
        return not self.atoms

    def __add__(self, other: "WittClass") -> "WittClass":
        return WittClass(self.atoms + other.atoms)

    def __neg__(self) -> "WittClass":
        return WittClass(
            a._replace(coefficient=-a.coefficient) for a in self.atoms
        )

    def __eq__(self, other):
        return isinstance(other, WittClass) and self.atoms == other.atoms

    __hash__ = None

    def __str__(self):
        return " + ".join(map(str, self.atoms)) if self.atoms else "0"

    __repr__ = __str__


def _points(atom: Classical):
    """The atom's jump points x in [0, 1), lazily and in increasing order:
    twist + power * x = k/pq with p and q not dividing k."""
    pq, twist = atom.p * atom.q, atom.twist.frac
    first = ceil(twist * pq)
    return ((Fraction(k, pq) - twist) / atom.power
            for k in range(first, first + atom.power * pq) if k % atom.p and k % atom.q)


def support_of(atom: Atom) -> frozenset:
    """Unit-circle root support of the order, as fractions in [0, 1)."""
    if isinstance(atom, Classical):
        return frozenset(_points(atom))
    # the numerator has every k/r with multiplicity p - 1
    r, denominator = atom.r, [0, *((-a) % atom.r for a in atom.chi.values)]
    return frozenset(Fraction(k, r) for k in range(r) if denominator.count(k) != atom.p - 1)


def jump_of(atom: Classical, x: Fraction) -> int:
    """coefficient times the torus-knot jump at twist + power * x."""
    if not isinstance(atom, Classical):
        raise TypeError("jump functions are only computed for classical atoms")
    point = atom.twist.frac + atom.power * x
    return atom.coefficient * seifert.jump_at(atom.p, atom.q, point)


def is_metabolic_classical(W: WittClass):
    """Decide metabolicity of a sum of classical atoms by scanning its jump
    points in order; returns (True, None) or (False, (point, total)) at the
    first nonzero total."""
    for x, _ in itertools.groupby(heapq.merge(*map(_points, W.atoms))):
        total = sum(jump_of(a, x) for a in W.atoms)
        if total:
            return False, (x, total)
    return True, None
