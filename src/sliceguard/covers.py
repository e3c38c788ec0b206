"""Cover modules, the explicit model of H_1 of the p-fold cover of T(p, r),
and its characters.

A ``CoverModule`` is the r-torsion of H_1 of a branched cover with its
deck action and linking form; the model below and the covers of
``seifert.branched_cover`` (the model of g = gcd(p, n), form scaled) are
both this record.  The model passes ``validate_module`` once, when it is
built; a cover scales the validated form by a unit, which keeps it
symmetric, nonsingular and invariant under the model's own action, so it
is not checked again.  Every failed self-check in the package raises the
one ``ConventionError``.

The model module is F_r^(p-1) with the deck action given by the companion
matrix of 1 + t + ... + t^(p-1); abstractly the homology is the cyclic
module F_r[t] / (1 + t + ... + t^(p-1)), with basis x_i = t^i x_0 for
i < p - 1.  The linking form is the closed-form orbit pairing
lambda(x_i, x_j) = c[(j - i) mod p] / r, the coefficients of
t - 2 + t^-1, so c = (-2, 1, 0, ..., 0, 1) for p >= 3 and c = (1, -1)
for p = 2 (cf. Borodzik-Friedl, "The unknotting number and classical
invariants I", 2015).  The tests check it against the form of the
Seifert-presented cover: the two agree up to an equivariant unit and the
scalar that ``presentations`` derives.

Characters are zero-sum vectors of length p over Z_r: the character sends
the i-th orbit generator x_i = t^i x_0 to the (i+1)-st entry.  As
x_{p-1} = -(x_0 + ... + x_{p-2}), every such vector is the character of
one functional on the model basis, its first p - 1 entries
(``Character.from_functional``).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd
import itertools

from . import modp
from .knots import prime_power_exponent


class ConventionError(ArithmeticError):
    """A self-check of a cover module, a Seifert construction, or a
    metabolizer or character built on them failed; conventions must be
    wrong somewhere, so stop rather than guess."""


class CoverModule(namedtuple("CoverModule", "r action gram")):
    """The r-torsion of H_1 of a branched cover as an F_r vector space:
    deck action (rows act on row vectors, v -> v @ action) and linking
    form gram[i][j] / r in Q/Z.  The model module of the p-fold cover of
    T(p, r) has dimension p - 1, on the basis x_0, ..., x_{p-2}."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.gram)


def validate_module(m: CoverModule, n: int):
    """The checks every cover module passes: the form is symmetric and
    nonsingular, the deck action is an isometry of order dividing the
    cover degree n, and 1 + t + ... + t^(n-1) annihilates the module.
    The power and the sum take O(log n) products of dim-square matrices."""
    r, dim = m.r, m.dim
    if any(m.gram[i][j] != m.gram[j][i] for i in range(dim) for j in range(i)):
        raise ConventionError("linking form is not symmetric")
    if modp.rank(m.gram, r) < dim:
        raise ConventionError("linking form is singular mod r")
    A = m.action
    AGA = modp.mat_mul(modp.mat_mul(A, m.gram, r), tuple(zip(*A)), r)
    if not modp.mat_eq(AGA, m.gram):
        raise ConventionError("deck action is not an isometry of the form")
    # t^k and S_k = 1 + ... + t^(k-1) from k = 1 to n by doubling,
    # S_2k = S_k + S_k t^k, and steps S_(k+1) = S_k + t^k
    power, total = A, modp.identity(dim)
    for bit in bin(n)[3:]:
        total = _mat_add(total, modp.mat_mul(total, power, r), r)
        power = modp.mat_mul(power, power, r)
        if bit == "1":
            total = _mat_add(total, power, r)
            power = modp.mat_mul(power, A, r)
    if not modp.mat_eq(power, modp.identity(dim)):
        raise ConventionError("deck action does not have order dividing n")
    if any(x for row in total for x in row):
        raise ConventionError("deck action not annihilated by 1 + t + ... + t^{n-1}")


def _mat_add(a, b, r):
    return tuple(tuple((x + y) % r for x, y in zip(row, brow)) for row, brow in zip(a, b))


class Character(namedtuple("Character", "r values")):
    """A character on H_1 of the p-fold cover of T(p, r), encoded by the
    zero-sum vector (chi(x_0), ..., chi(x_{p-1})) over Z_r."""

    __slots__ = ()

    def __new__(cls, r: int, values: tuple):
        if sum(values) % r != 0:
            raise ValueError(f"character values {values} do not sum to 0 mod {r}")
        if any(not 0 <= v < r for v in values):
            raise ValueError("character entries must be reduced mod r")
        return tuple.__new__(cls, (r, values))

    @classmethod
    def from_functional(cls, r: int, functional) -> "Character":
        """The character (f(x_0), ..., f(x_{p-1})) of a functional f given on
        the model basis x_0, ..., x_{p-2}: its values there, then
        f(x_{p-1}) = -(f(x_0) + ... + f(x_{p-2})), as t^(p-1) x_0 is minus
        the sum of the basis.

        >>> Character.from_functional(5, (1, 3))
        Character(r=5, values=(1, 3, 1))
        """
        values = tuple(x % r for x in functional)
        return cls(r, values + ((-sum(values)) % r,))

    @property
    def p(self) -> int:
        return len(self.values)

    def is_trivial(self) -> bool:
        return not any(self.values)

    def shift(self) -> "Character":
        """Precomposition with the deck action: cyclic shift of the values."""
        return Character(self.r, self.values[1:] + self.values[:1])

    def __str__(self):
        return "(" + ",".join(map(str, self.values)) + ")"


def companion_action(p: int, r: int) -> tuple:
    """Deck action on the model basis x_0 .. x_{p-2}: shift, with the last
    generator mapped to minus the sum (row convention)."""
    dim = p - 1
    rows = []
    for i in range(dim - 1):
        rows.append(tuple(1 if j == i + 1 else 0 for j in range(dim)))
    rows.append(tuple((-1) % r for _ in range(dim)))
    return tuple(rows)


def check_model_shape(p: int, r: int):
    """Reject a (p, r) with no model module: r must be prime, p at least 2
    and coprime to r."""
    if prime_power_exponent(r) != 1:
        raise ValueError(f"{r} is not prime")
    if p < 2:
        raise ValueError("cover degree must be at least 2")
    if gcd(p, r) != 1:
        raise ValueError(f"gcd({p}, {r}) != 1")


@lru_cache(maxsize=None)
def model_module(p: int, r: int) -> CoverModule:
    """The model F_r-module of the p-fold cover of T(p, r) with the
    closed-form linking form; see the module docstring."""
    check_model_shape(p, r)
    c = (1, -1) if p == 2 else (-2, 1) + (0,) * (p - 3) + (1,)
    gram = tuple(tuple(c[(j - i) % p] % r for j in range(p - 1)) for i in range(p - 1))
    module = CoverModule(r=r, action=companion_action(p, r), gram=gram)
    validate_module(module, p)
    return module


def characters(p: int, r: int) -> list[Character]:
    """All r^(p-1) zero-sum characters, trivial character first."""
    if p < 2:
        raise ValueError("cover degree must be at least 2")
    if r < 2:
        raise ValueError(f"character modulus must be at least 2, got {r}")
    out = []
    for head in itertools.product(range(r), repeat=p - 1):
        last = (-sum(head)) % r
        out.append(Character(r, head + (last,)))
    out.sort(key=lambda c: c.values)
    return out
