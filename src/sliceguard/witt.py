"""Symbolic Witt classes of linking forms over the complex Laurent ring.

Two kinds of atoms occur: classical Blanchfield forms of torus knots with
a root-of-unity twist and an exponent dilation, written
Classical(p, q, twist, power) for Bl(T(p,q))(xi^twist * t^power), and
twisted forms Twisted(p, r, chi) for the metabelian pairing of T(p, r) at
the character chi.  Formal sums merge atoms of identical kind.

Classical atoms carry computable signature-jump functions (reparametrized
torus-knot jumps), and a sum of classical atoms is metabolic exactly when
the coefficient-weighted jumps cancel everywhere.  Twisted atoms only
ever contribute their root support: a form's jump is zero off the roots
of its order, so the pipeline's point rule skips those points and totals
the classical jumps at the others (``is_metabolic_classical``).

Supports and jumps are closed-form integer arithmetic, with no table: an
atom's support points are integer numerators over its ``denominator``
(pq times the twist's order times the power for a classical atom, r for a
twisted one), and the witness point is a ``RootOfUnity``, the reduced
integer pair of the first such numerator that decides the scan.  A
classical atom jumps at x where T(p, q) jumps at twist + power * x
(``seifert.jump_at``, which takes the point unreduced), which is exactly
on the atom's support, the simple Alexander roots pulled back.  A twisted
atom's order is (1 - t^r)^(p-1) / (prod_i (t xi^(a_i) - 1) (t - 1)) up to
units, the 0-surgery form of the closed product in ``twisted``: its
support is the k/r where the numerator and denominator root
multiplicities differ.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from math import lcm

from . import seifert
from .knots import RootOfUnity


def __getattr__(name):
    # unused here: perfbench/spans.py wraps witt.unit_circle_roots by this
    # name, so laurent loads when the name is first asked for, not before
    if name == "unit_circle_roots":
        from .laurent import unit_circle_roots
        return unit_circle_roots
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Classical(namedtuple("Classical", "p q twist power coefficient", defaults=(1,))):
    """coefficient * Bl(T(p, q))(xi^twist * t^power), twist a RootOfUnity."""

    __slots__ = ()

    def key(self):
        return ("classical", self.p, self.q, *self.twist, self.power)

    @property
    def denominator(self) -> int:
        return self.p * self.q * self.twist.order * self.power

    def __str__(self):
        arg = "t" if self.power == 1 else f"t^{self.power}"
        if self.twist.numer:
            arg = f"z{self.twist.order}^{self.twist.numer}*{arg}"
        return f"{self.coefficient}*Bl(T({self.p},{self.q}))({arg})"


class Twisted(namedtuple("Twisted", "p r chi coefficient", defaults=(1,))):
    """coefficient * Bl_alpha(p, chi)(T(p, r)) for a zero-sum Character chi
    over Z_r."""

    __slots__ = ()

    def key(self):
        return ("twisted", self.p, self.r, self.chi.values)

    @property
    def denominator(self) -> int:
        return self.r

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

    def __eq__(self, other):
        return isinstance(other, WittClass) and self.atoms == other.atoms

    __hash__ = None

    def __str__(self):
        return " + ".join(map(str, self.atoms)) if self.atoms else "0"

    __repr__ = __str__


def _points(atom: Classical, denominator: int):
    """The atom's jump points x in [0, 1), lazily and in increasing order,
    as numerators over a multiple of ``atom.denominator``: with the twist
    a/R, the condition twist + power * x = k/pq (p and q not dividing k)
    puts x at (kR - a pq) / (pq R power)."""
    pq, R, a = atom.p * atom.q, atom.twist.order, atom.twist.numer
    scale, first = denominator // atom.denominator, -(-a * pq // R)
    return ((k * R - a * pq) * scale
            for k in range(first, first + atom.power * pq) if k % atom.p and k % atom.q)


def _twisted_root(atom: Twisted, numerator: int, denominator: int) -> bool:
    """Whether the point numerator / denominator is a root of the twisted
    atom's order: a k/r whose multiplicity in the denominator differs from
    the numerator's, which has every k/r with multiplicity p - 1."""
    k, remainder = divmod(numerator * atom.r, denominator)
    return not remainder and [0, *((-a) % atom.r for a in atom.chi.values)].count(k) != atom.p - 1


def support_of(atom: Atom) -> frozenset:
    """Unit-circle root support of the order: the numerators over
    ``atom.denominator`` of its points in [0, 1)."""
    if isinstance(atom, Classical):
        return frozenset(_points(atom, atom.denominator))
    return frozenset(k for k in range(atom.r) if _twisted_root(atom, k, atom.r))


def jump_of(atom: Classical, numerator: int, denominator: int) -> int:
    """coefficient times the torus-knot jump at twist + power * x, for the
    point x = numerator / denominator."""
    if not isinstance(atom, Classical):
        raise TypeError("jump functions are only computed for classical atoms")
    R = atom.twist.order
    return atom.coefficient * seifert.jump_at(
        atom.p, atom.q, atom.twist.numer * denominator + atom.power * numerator * R,
        R * denominator)


def is_metabolic_classical(W: WittClass, rest=()):
    """Scan the jump points of the classical sum W in order, as numerators
    over their common denominator, for the first point off the supports of
    the twisted atoms in ``rest`` at which the jumps of W's atoms and of
    the classical atoms in ``rest`` have a nonzero total; returns
    (False, (point, total)), the point x as the RootOfUnity e^(2 pi i x),
    or (True, None) when there is none."""
    classical = [*W.atoms, *(a for a in rest if isinstance(a, Classical))]
    twisted = [a for a in rest if isinstance(a, Twisted)]
    den = lcm(*(a.denominator for a in W.atoms))
    for x, _ in itertools.groupby(heapq.merge(*(_points(a, den) for a in W.atoms))):
        if any(_twisted_root(a, x, den) for a in twisted):
            continue
        total = sum(jump_of(a, x, den) for a in classical)
        if total:
            return False, (RootOfUnity.normalized(x, den), total)
    return True, None
