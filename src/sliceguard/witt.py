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

Supports are root bookkeeping on closed forms, with no polynomial
arithmetic.  A classical atom's support is the torus-knot Alexander roots
pulled back through the twist and dilation.  A twisted atom's order is
(1 - t^r)^(p-1) / (prod_i (t xi^(a_i) - 1) (t - 1)) up to units, the
0-surgery form of the closed product in ``twisted``: its support is where
the numerator and denominator root multiplicities differ.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from . import seifert
from .covers import Character
from .cyclo import RootOfUnity
# unused here: perfbench/spans.py wraps witt.unit_circle_roots by this name
from .laurent import unit_circle_roots  # noqa: F401


@dataclass(frozen=True)
class Classical:
    """coefficient * Bl(T(p, q))(xi^twist * t^power)."""

    p: int
    q: int
    twist: RootOfUnity
    power: int
    coefficient: int = 1

    def key(self):
        return ("classical", self.p, self.q, self.twist.frac, self.power)

    def __str__(self):
        arg = "t" if self.power == 1 else f"t^{self.power}"
        if self.twist.frac:
            arg = f"z{self.twist.order}^{self.twist.numer}*{arg}"
        return f"{self.coefficient}*Bl(T({self.p},{self.q}))({arg})"


@dataclass(frozen=True)
class Twisted:
    """coefficient * Bl_alpha(p, chi)(T(p, r)) for a zero-sum chi over Z_r."""

    p: int
    r: int
    chi: Character
    coefficient: int = 1

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
                merged[k] = replace(
                    merged[k], coefficient=merged[k].coefficient + atom.coefficient
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
            replace(a, coefficient=-a.coefficient) for a in self.atoms
        )

    def __eq__(self, other):
        return isinstance(other, WittClass) and self.atoms == other.atoms

    __hash__ = None

    def __str__(self):
        return " + ".join(map(str, self.atoms)) if self.atoms else "0"

    __repr__ = __str__


def support_of(atom: Atom) -> frozenset:
    """Unit-circle root support of the order, as fractions in [0, 1)."""
    if isinstance(atom, Classical):
        points = set()
        for root in seifert.alexander_roots(atom.p, atom.q):
            for j in range(atom.power):
                points.add(((root.frac - atom.twist.frac + j) / atom.power) % 1)
        return frozenset(points)
    r = atom.r
    numerator = Counter({Fraction(k, r): atom.p - 1 for k in range(r)})
    denominator = Counter(Fraction(-a, r) % 1 for a in atom.chi.values)
    denominator[Fraction(0)] += 1
    return frozenset(x for x in numerator | denominator
                     if numerator[x] != denominator[x])


def jump_of(atom: Classical, x: Fraction) -> int:
    """coefficient times the torus-knot jump at twist + power * x."""
    if not isinstance(atom, Classical):
        raise TypeError("jump functions are only computed for classical atoms")
    jumps = seifert.jump_function(atom.p, atom.q)
    point = (atom.twist.frac + atom.power * Fraction(x)) % 1
    return atom.coefficient * jumps.get(point, 0)


def support_points(W: WittClass) -> list[Fraction]:
    points = set()
    for atom in W.atoms:
        if isinstance(atom, Classical):
            points.update(
                ((point - atom.twist.frac + j) / atom.power) % 1
                for point in seifert.jump_function(atom.p, atom.q)
                for j in range(atom.power)
            )
        else:
            raise TypeError("support_points expects a classical Witt class")
    return sorted(points)


def split_components(W: WittClass) -> list[WittClass]:
    """Partition into groups whose order root-supports are pairwise
    disjoint across groups (supports may interleave within one group)."""
    atoms = list(W.atoms)
    supports = [support_of(a) for a in atoms]
    parent = list(range(len(atoms)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if supports[i] & supports[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict = {}
    for i, atom in enumerate(atoms):
        groups.setdefault(find(i), []).append(atom)
    return [WittClass(g) for g in groups.values()]


def is_metabolic_classical(W: WittClass):
    """Decide metabolicity of a sum of classical atoms through total
    signature jumps; returns (True, None) or (False, (point, total))."""
    for atom in W.atoms:
        if not isinstance(atom, Classical):
            raise TypeError(f"non-classical atom {atom} in jump-based decision")
    for x in support_points(W):
        total = sum(jump_of(a, x) for a in W.atoms)
        if total:
            return False, (x, total)
    return True, None
