"""The explicit model of H_1 of the p-fold cover of T(p, r) and its characters.

The model module is F_r^(p-1) with the deck action given by the companion
matrix of 1 + t + ... + t^(p-1); abstractly the homology is the cyclic
module F_r[t] / (1 + t + ... + t^(p-1)).  The linking form is imported
from the Seifert-presented cover through an explicit isomorphism found by
matching a cyclic generator; if no deck orbit spans, the import aborts
rather than guessing.

Characters are zero-sum vectors of length p over Z_r: the character sends
the i-th orbit generator x_i = t^i x_0 to the (i+1)-st entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import itertools

from . import modp, seifert
from .knots import prime_power_exponent


class MatchFailure(ArithmeticError):
    """The Seifert-presented cover did not match the model; conventions
    must be wrong somewhere, so stop rather than guess."""


@dataclass(frozen=True)
class CoverModule:
    """F_r^(p-1) with deck action (rows act on row vectors, v -> v @ action)
    and linking form gram[i][j] / r in Q/Z."""

    p: int
    r: int
    action: tuple
    gram: tuple
    iso_from_seifert: tuple

    @property
    def dim(self) -> int:
        return self.p - 1

    def orbit_rows(self) -> tuple:
        """The rows of x_0, x_1, ..., x_{p-1} in the model basis."""
        rows = []
        v = tuple([1] + [0] * (self.dim - 1))
        for _ in range(self.p):
            rows.append(v)
            v = modp.vec_mat(v, self.action, self.r)
        return tuple(rows)


@dataclass(frozen=True)
class Character:
    """A character on H_1 of the p-fold cover of T(p, r), encoded by the
    zero-sum vector (chi(x_0), ..., chi(x_{p-1})) over Z_r."""

    r: int
    values: tuple

    def __post_init__(self):
        if sum(self.values) % self.r != 0:
            raise ValueError(f"character values {self.values} do not sum to 0 mod {self.r}")
        if any(not 0 <= v < self.r for v in self.values):
            raise ValueError("character entries must be reduced mod r")

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


@lru_cache(maxsize=None)
def model_module(p: int, r: int) -> CoverModule:
    """The model F_r-module with the linking form pulled back from the
    Seifert-presented p-fold cover of T(p, r) along a matched isomorphism."""
    if prime_power_exponent(r) != 1:
        raise ValueError(f"{r} is not prime")
    cover = seifert.branched_cover(p, r, p)
    mod = cover.module
    if mod is None or mod.dim != p - 1:
        raise MatchFailure(
            f"cover of T({p},{r}) is not F_{r}^{p-1}: divisors {cover.divisors}"
        )
    action = companion_action(p, r)
    # find a cyclic generator of the Seifert-presented module
    dim = p - 1
    for cand in itertools.product(range(r), repeat=dim):
        if not any(cand):
            continue
        orbit = []
        v = cand
        for _ in range(dim):
            orbit.append(v)
            v = modp.vec_mat(v, mod.action, r)
        if modp.rank(orbit, r) == dim:
            break
    else:
        raise MatchFailure("no deck orbit spans the cover module")
    # gram of the model basis x_i = t^i x_0 pulled through the orbit
    full_orbit = []
    v = cand
    for _ in range(p):
        full_orbit.append(v)
        v = modp.vec_mat(v, mod.action, r)
    if any(sum(col) % r for col in zip(*full_orbit)):
        raise MatchFailure("orbit does not satisfy x_0 + ... + x_{p-1} = 0")

    def pair(u, w):
        return sum(
            u[i] * mod.gram[i][j] * w[j] for i in range(dim) for j in range(dim)
        ) % r

    gram = tuple(
        tuple(pair(full_orbit[i], full_orbit[j]) for j in range(dim))
        for i in range(dim)
    )
    full = [
        [pair(full_orbit[i], full_orbit[j]) for j in range(p)] for i in range(p)
    ]
    for i in range(p):
        for j in range(p):
            if full[i][j] != full[(i + 1) % p][(j + 1) % p]:
                raise MatchFailure("imported form is not deck equivariant")
    module = CoverModule(
        p=p, r=r, action=action, gram=gram, iso_from_seifert=tuple(full_orbit)
    )
    _check_model(module)
    return module


def _check_model(m: CoverModule):
    r, dim = m.r, m.dim
    A = m.action
    AG = modp.mat_mul(A, m.gram, r)
    AGA = modp.mat_mul(AG, tuple(zip(*A)), r)
    if not modp.mat_eq(AGA, m.gram):
        raise MatchFailure("model form lost equivariance")
    if seifert._int_det([list(row) for row in m.gram]) % r == 0:
        raise MatchFailure("model form is singular")


def characters(p: int, r: int) -> list[Character]:
    """All r^(p-1) zero-sum characters, trivial character first."""
    out = []
    for head in itertools.product(range(r), repeat=p - 1):
        last = (-sum(head)) % r
        out.append(Character(r, head + (last,)))
    out.sort(key=lambda c: c.values)
    return out


def character_from_functional(module: CoverModule, functional) -> Character:
    """The character with values (f(x_0), ..., f(x_{p-1})) for a linear
    functional given by a coefficient vector on the model basis."""
    values = tuple(
        sum(a * b for a, b in zip(row, functional)) % module.r
        for row in module.orbit_rows()
    )
    return Character(module.r, values)


def evaluate_character(module: CoverModule, chi: Character, v) -> int:
    """chi extended linearly to a model element v (row vector)."""
    # v = sum v_i x_i over the basis x_0..x_{p-2}
    return sum(a * b for a, b in zip(v, chi.values[: module.dim])) % module.r
