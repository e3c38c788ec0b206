"""Metabolizers of lambda^m ⊕ -lambda^m over F_r and obstructing characters.

``FormSpace(p, r, m)`` is the one form space: m positive copies of the
model module of the p-fold cover of T(p, r) (``covers.model_module``)
followed by m negative copies; the linking form is the block sum with
signs and the deck action acts blockwise.  The shape is checked when the
space is made, and the module is built on first use, so the budget can
refuse a shape before the module costs anything.  A metabolizer is a
half-dimension subspace equal to its own orthogonal complement; since
the form is nonsingular, isotropy plus half dimension suffices.

``enumerate_invariant_metabolizers`` builds echelon bases row by row and
solves each row's pairings (``_isotropic_rows``), so only isotropic bases
reach the metabolizer test; the Grassmannian filter and the product walk
that tried every row are the tests' oracles, in ``tests/oracles.py``.

``construct_character`` realizes the three-case character construction:
when one projection of the metabolizer is proper, a functional killing it
does the job; when the metabolizer is a graph, its (anti-)isometry g is
compared against the coordinate subspaces indexed by where each torus
knot appears in a companion level, and a vector moved off the matching
subspace by g produces the character pair.  If g preserves every such
subspace the input combination was not simplified, which the caller
treats as a bug, not a verdict.  The level data is ``knots.IndexSets``.

The model basis is the orbit x_i = t^i x_0, so a character is read as
the functional given by its first p - 1 values (``Character.from_functional``
builds it).  Every character pair passes ``check_characters`` as it is
built, the one certificate check: from the values alone, each character
has modulus r and length p, the functionals vanish on the metabolizer,
and one level condition holds.  A failure is a ``ConventionError``, since
the data is the package's own.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import gcd, prod
from operator import mul

from . import covers, modp
from .covers import Character, ConventionError, CoverModule
from .knots import IndexSets
from .modp import Subspace


# the default bound on the half-dimension subspaces of one form
DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured budget: refuse, never truncate."""


class FormSpace(namedtuple("FormSpace", "p r m1")):
    """lambda^m1 ⊕ -lambda^m1 on the model module of the p-fold cover of
    T(p, r); a (p, r) with no model module is a ValueError."""

    __slots__ = ()

    def __new__(cls, p: int, r: int, m1: int):
        covers.check_model_shape(p, r)
        return tuple.__new__(cls, (p, r, m1))

    @property
    def module(self) -> CoverModule:
        # model_module is cached, so the module is built once, on first use
        return covers.model_module(self.p, self.r)

    @property
    def block_dim(self) -> int:
        return self.p - 1

    @property
    def half_dim(self) -> int:
        return self.m1 * self.block_dim

    @property
    def ambient_dim(self) -> int:
        return 2 * self.half_dim

    def gram(self) -> tuple:
        """Full Gram matrix, entries meaning value/r in Q/Z."""
        return _block_diagonal(self.module.gram, (1,) * self.m1 + (-1,) * self.m1, self.r)

    def action(self) -> tuple:
        return _block_diagonal(self.module.action, (1,) * (2 * self.m1), self.r)


@lru_cache(maxsize=None)
def _block_diagonal(block, signs, r) -> tuple:
    """One copy of ``block`` per entry of ``signs`` down the diagonal,
    each scaled by its sign, mod r.  Cached by the block itself, so the
    matrices follow the module the form space reads."""
    d = len(block)
    n = len(signs) * d
    M = [[0] * n for _ in range(n)]
    for b, sign in enumerate(signs):
        for i in range(d):
            M[b * d + i][b * d : (b + 1) * d] = [(sign * x) % r for x in block[i]]
    return tuple(map(tuple, M))


def is_invariant_metabolizer(L: Subspace, F: FormSpace) -> bool:
    """L = L^perp (isotropic of half dimension; the form is nonsingular)
    and deck invariant."""
    if L.r != F.r or L.n != F.ambient_dim:
        raise ValueError("subspace does not live in the form's ambient space")
    if L.dim != F.half_dim:
        return False
    G = F.gram()
    r = F.r
    rows = L.rows
    for i, u in enumerate(rows):
        Gu = modp.mat_vec(G, u, r)
        for v in rows[i:]:
            if sum(map(mul, v, Gu)) % r:
                return False
    A = F.action()
    return all(L.contains(modp.vec_mat(v, A, r)) for v in rows)


def invariant_metabolizer_count(F: FormSpace) -> int:
    """The number of invariant metabolizers, in closed form.

    As r does not divide p, F_r[t]/(1 + ... + t^(p-1)) splits over the
    irreducible factors of each Phi_d mod r, d | p, d > 1: phi(d)/o
    factors of degree o = ord_d(r), each with a part F_(r^o)^(2 m1), and
    the metabolizers are the direct sums of one choice per part
    (Hedden-Kirk-Livingston).  The t = -1 part
    takes a Lagrangian of a split orthogonal form, a self-dual factor
    (r^(o/2) = -1 mod d) one of a split Hermitian form over F_(r^o)
    (Taylor), and a pair (f, f*) any subspace U of V_f with ann(U).

    >>> invariant_metabolizer_count(FormSpace(3, 5, 2))
    756
    """
    p, r, m1 = F
    count = 1
    for d in (d for d in range(2, p + 1) if p % d == 0):
        o = next(e for e in range(1, d) if pow(r, e, d) == 1)
        factors = sum(gcd(a, d) == 1 for a in range(d)) // o
        if d == 2:
            count *= prod(r ** i + 1 for i in range(m1))
        elif o % 2 == 0 and pow(r, o // 2, d) == d - 1:
            count *= prod(r ** (o // 2 * (2 * i - 1)) + 1 for i in range(1, m1 + 1)) ** factors
        else:
            pair = sum(modp.subspace_count(2 * m1, k, r ** o) for k in range(2 * m1 + 1))
            count *= pair ** (factors // 2)
    return count


def enumerate_invariant_metabolizers(F: FormSpace,
                                     budget: int = DEFAULT_BUDGET) -> list[Subspace]:
    """All invariant metabolizers, in the order of the Grassmannian oracle,
    by the isotropic echelon walk: rows are filled first to last and
    pivots in combinations order.  A row's pairings with the rows above
    are linear in its free slots, so only the solutions of that system are
    visited, and each is kept if it pairs to zero with itself.  The kept
    rows are sorted, which is the product order of their free slots, so
    the leaves come as in the walk that tried every row, increasing in
    (pivots, rows); ``is_invariant_metabolizer`` checks each.

    The budget counts every half-dimension subspace, the Grassmannian the
    walk prunes, and a shape over it is refused loudly before the module
    is built.  The count is at least r^(k(n-k)); a shape whose bound alone
    has more than 4096 bits is refused from the bound, without the costly
    count."""
    n, k, r = F.ambient_dim, F.half_dim, F.r
    exponent = k * (n - k)
    if exponent * (r.bit_length() - 1) > max(4096, budget.bit_length()):
        raise BudgetExceeded(
            f"at least {r}^{exponent} half-dimension subspaces exceed the "
            f"budget of {budget}"
        )
    total = modp.subspace_count(n, k, r)
    if total > budget:
        raise BudgetExceeded(
            f"{total} half-dimension subspaces exceed the budget of {budget}"
        )
    G = F.gram()
    found = []

    def walk(pivots, rows, images):
        if len(rows) == k:
            L = Subspace(rows, r, n)
            if is_invariant_metabolizer(L, F):
                found.append(L)
            return
        pc = pivots[len(rows)]
        slots = [pc, *(c for c in range(pc + 1, n) if c not in pivots)]
        for v in _isotropic_rows([[G[i][j] for j in slots] for i in slots],
                                 [[Gw[c] for c in slots[1:]] for Gw in images],
                                 [-Gw[pc] % r for Gw in images], r):
            row = [0] * n
            for c, x in zip(slots, v):
                row[c] = x
            walk(pivots, rows + [row], images + [modp.mat_vec(G, row, r)])

    for pivots in itertools.combinations(range(n), k):
        walk(pivots, [], [])
    return found


def _isotropic_rows(B, system, rhs, r) -> list:
    """Every v = (1, x) with system @ x = rhs (the pairings with the rows
    above, linear in the free slots x) and v B v = 0, in increasing order:
    the solutions x0 + span(nullspace), each tested for its self-pairing."""
    f = len(B) - 1
    x0 = modp.solve(system, rhs, r) if system else (0,) * f
    if x0 is None:
        return []
    solutions = [(1, *x0)]
    for b in modp.nullspace(system, r, f):
        solutions = [tuple((u + c * w) % r for u, w in zip(v, (0, *b)))
                     for v in solutions for c in range(r)]
    return sorted(v for v in solutions if sum(map(mul, v, modp.mat_vec(B, v, r))) % r == 0)


class Isometry(namedtuple("Isometry", "matrix")):
    """Row-convention matrix of the equivariant isometry v -> v @ matrix
    from the positive half to the negative half."""

    __slots__ = ()


class NotAGraph(namedtuple("NotAGraph", "meets_first meets_second")):
    """A metabolizer that is no graph: which factor of the sum it meets."""

    __slots__ = ()


def graph_detect(L: Subspace, F: FormSpace):
    """Decide whether the metabolizer is the graph {(x, x g)} of an isometry
    g of the half form; returns the isometry or reports which factor meets
    L.  g is read off the basis unchecked: every L that reaches here is an
    invariant metabolizer (``is_invariant_metabolizer`` passed it, under
    the walk and the verifier alike), and on a graph isotropy under
    lambda ⊕ -lambda is exactly g G g^T = G, invariance exactly A g = g A."""
    D = F.half_dim
    Y = tuple(row[D:] for row in L.rows)
    # the basis is reduced, so X = L.rows[:, :D] has rank the number of
    # pivots below D, and is the identity when that is D: then g = Y
    rank_x = sum(pc < D for pc in L.pivots)
    rank_y = modp.rank(Y, F.r)
    if rank_x < D or rank_y < D:
        # ker(pr_1|_L) = L ∩ (0 ⊕ V2), ker(pr_2|_L) = L ∩ (V1 ⊕ 0)
        return NotAGraph(meets_first=rank_y < D, meets_second=rank_x < D)
    return Isometry(matrix=Y)


class CharacterChoice(namedtuple("CharacterChoice", "case chi_a chi_b q s")):
    """The character pair built for a metabolizer, its construction case
    and the level (q, s) it obstructs at."""

    __slots__ = ()


class NotSimplifiedWitness(namedtuple("NotSimplifiedWitness", "k0 X Y")):
    """Claim data showing the combination contained a knot and its mirror:
    contradicts the simplified precondition upstream."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _coordinate_subspace(indices, m1: int, block_dim: int, r: int) -> Subspace:
    rows = []
    n = m1 * block_dim
    for k in sorted(indices):
        for i in range(block_dim):
            row = [0] * n
            row[k * block_dim + i] = 1
            rows.append(row)
    return Subspace(rows, r, n)


def _functional_killing(space_rows, pin_vector, r, n):
    """A functional vanishing on the given rows with value 1 on pin_vector."""
    rows = [list(row) for row in space_rows] + [list(pin_vector)]
    rhs = [0] * len(space_rows) + [1]
    c = modp.solve(rows, rhs, r)
    if c is None:
        raise ConventionError("pin vector unexpectedly inside the kernel space")
    return c


def construct_character(L: Subspace, F: FormSpace, sets: IndexSets):
    """Characters (chi_a, chi_b) vanishing on L and violating metabolicity
    at some level (q, s), per the three-case construction.

    Returns a CharacterChoice, a NotSimplifiedWitness (caller bug), or None
    if no case applies (never expected for simplified level-cancelling
    input; the caller must then refuse to certify).
    """
    r = F.r
    D = F.half_dim
    d = F.block_dim
    g = graph_detect(L, F)
    if isinstance(g, NotAGraph):
        # L meets the second factor exactly when its first projection is proper
        if g.meets_second:
            choice = _proper_projection_case(L, F, sets, [row[:D] for row in L.rows], case=1)
            if choice is not None:
                return choice
        if g.meets_first:
            choice = _proper_projection_case(L, F, sets, [row[D:] for row in L.rows], case=2)
            if choice is not None:
                return choice
        return None
    ginv = modp.mat_inv(g.matrix, r)
    for (q, s) in sets.points:
        S1 = _coordinate_subspace(sets.I1[(q, s)], F.m1, d, r)
        S2 = _coordinate_subspace(sets.I2[(q, s)], F.m1, d, r)
        gS1 = S1.image(g.matrix)
        if gS1 == S2:
            continue
        choice = _graph_case(L, F, sets, g.matrix, ginv, q, s, S1, S2, gS1)
        if choice is not None:
            return choice
    return _not_simplified(sets)


def _proper_projection_case(L, F, sets, side_rows, case):
    r, D, d = F.r, F.half_dim, F.block_dim
    kernel = modp.nullspace(side_rows, r, ncols=D)
    side = sets.I1 if case == 1 else sets.I2
    for (q, s) in sets.points:
        blocks = side[(q, s)]
        if not blocks:
            continue
        coords = [k * d + i for k in sorted(blocks) for i in range(d)]
        pick = next(
            (vec for vec in kernel if any(vec[c] for c in coords)), None
        )
        if pick is None:
            continue
        theta = tuple([0] * D)
        fa, fb = (pick, theta) if case == 1 else (theta, pick)
        return _finish(L, F, sets, case, fa, fb, q, s)
    return None


def _graph_case(L, F, sets, g, ginv, q, s, S1, S2, gS1):
    r, D, d = F.r, F.half_dim, F.block_dim
    v = next((row for row in S1.rows if not S2.contains(modp.vec_mat(row, g, r))), None)
    if v is not None:
        # chi_a pins v and kills a complement containing g^{-1}(S2)
        pre = S2.image(ginv)
        ca = _functional_killing(pre.rows, v, r, D)
        cb = tuple((-x) % r for x in modp.mat_vec(ginv, ca, r))
        return _finish(L, F, sets, 3, ca, cb, q, s)
    # g(S1) properly contained in S2: the last echelon row of S2 outside it
    v = next((w for w in reversed(S2.rows) if not gS1.contains(w)), None)
    if v is None:
        return None
    cb = _functional_killing(gS1.rows, v, r, D)
    ca = tuple((-x) % r for x in modp.mat_vec(g, cb, r))
    return _finish(L, F, sets, 3, ca, cb, q, s)


def _finish(L, F, sets, case, fa, fb, q, s):
    d = F.block_dim
    chi_a, chi_b = (
        tuple(Character.from_functional(F.r, f[k * d : (k + 1) * d])
              for k in range(F.m1))
        for f in (fa, fb)
    )
    check_characters(F, L.rows, chi_a, chi_b, q, s, sets)
    return CharacterChoice(case=case, chi_a=chi_a, chi_b=chi_b, q=q, s=s)


def check_characters(F: FormSpace, basis, chi_a, chi_b, q: int, s: int,
                     sets: IndexSets) -> None:
    """The certificate check, made from the characters' values alone: each
    character has modulus r and length p, so it is induced by the
    functional of its first p - 1 values on its block; those functionals
    vanish on every basis row, and one level condition holds at (q, s):
    the characters nontrivial on one side meet that side's index set
    while the other side's nontrivial characters avoid theirs.  Raises
    ConventionError otherwise."""
    r, dim = F.r, F.block_dim
    functional = []
    for chi in (*chi_a, *chi_b):
        if chi.r != r or chi.p != F.p:
            raise ConventionError(f"character {chi} is not induced by any functional")
        functional.extend(chi.values[:dim])
    if any(sum(map(mul, row, functional)) % r for row in basis):
        raise ConventionError("the characters do not vanish on the metabolizer")
    key = (q, s)
    I1, I2 = sets.I1.get(key, frozenset()), sets.I2.get(key, frozenset())
    nontrivial_a = {k for k, chi in enumerate(chi_a) if not chi.is_trivial()}
    nontrivial_b = {k for k, chi in enumerate(chi_b) if not chi.is_trivial()}
    cond1 = not (nontrivial_b & I2) and bool(nontrivial_a & I1)
    cond2 = not (nontrivial_a & I1) and bool(nontrivial_b & I2)
    if not (cond1 or cond2):
        raise ConventionError("the characters satisfy neither level condition")


def _not_simplified(sets) -> NotSimplifiedWitness:
    if not sets.pairs:
        raise ConventionError("no signed pairs supplied with the index sets")
    best = None
    for k, (qplus, _) in enumerate(sets.pairs):
        key = (len(qplus), tuple(-x for x in qplus))
        if best is None or key > best[0]:
            best = (key, k)
    k0 = best[1]
    q0 = sets.pairs[k0][0]
    X = frozenset(k for k, (qp, _) in enumerate(sets.pairs) if qp == q0)
    Y = frozenset(k for k, (_, qm) in enumerate(sets.pairs) if qm == q0)
    return NotSimplifiedWitness(k0=k0, X=X, Y=Y)
