"""Metabolizers of lambda^m ⊕ -lambda^m over F_r and obstructing characters.

The ambient space stacks m positive copies of the cover module followed by
m negative copies; the linking form is the block sum with signs and the
deck action acts blockwise.  A metabolizer is a half-dimension subspace
equal to its own orthogonal complement; since the form is nonsingular,
isotropy plus half dimension suffices.

``construct_character`` realizes the three-case character construction:
when one projection of the metabolizer is proper, a functional killing it
does the job; when the metabolizer is a graph, its (anti-)isometry g is
compared against the coordinate subspaces indexed by where each torus
knot appears in a companion level, and a vector moved off the matching
subspace by g produces the character pair.  If g preserves every such
subspace the input combination was not simplified, which the caller
treats as a bug, not a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import modp
from .covers import Character, CoverModule, MatchFailure, character_from_functional
from .modp import Subspace


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured budget: refuse, never truncate."""


@dataclass(frozen=True)
class FormSpace:
    """lambda^m1 ⊕ -lambda^m1 built from a cover module."""

    module: CoverModule
    m1: int

    @property
    def r(self) -> int:
        return self.module.r

    @property
    def block_dim(self) -> int:
        return self.module.dim

    @property
    def half_dim(self) -> int:
        return self.m1 * self.block_dim

    @property
    def ambient_dim(self) -> int:
        return 2 * self.half_dim

    def _block_diagonal(self, block, signs) -> tuple:
        """One copy of ``block`` per entry of ``signs`` down the diagonal,
        each scaled by its sign, mod r."""
        d, r = self.block_dim, self.r
        n = len(signs) * d
        M = [[0] * n for _ in range(n)]
        for b, sign in enumerate(signs):
            for i in range(d):
                M[b * d + i][b * d : (b + 1) * d] = [(sign * x) % r for x in block[i]]
        return tuple(map(tuple, M))

    def gram(self) -> tuple:
        """Full Gram matrix, entries meaning value/r in Q/Z."""
        return self._block_diagonal(self.module.gram, (1,) * self.m1 + (-1,) * self.m1)

    def half_gram(self) -> tuple:
        """Gram of lambda^m1 on one half (positive sign)."""
        return self._block_diagonal(self.module.gram, (1,) * self.m1)

    def action(self) -> tuple:
        return self._block_diagonal(self.module.action, (1,) * (2 * self.m1))

    def half_action(self) -> tuple:
        return self._block_diagonal(self.module.action, (1,) * self.m1)


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
            if sum(a * b for a, b in zip(v, Gu)) % r:
                return False
    A = F.action()
    return all(L.contains(modp.vec_mat(v, A, r)) for v in rows)


def enumerate_invariant_metabolizers(F: FormSpace, budget: int = 2_000_000) -> list[Subspace]:
    """All invariant metabolizers, by filtering every half-dimension
    subspace in echelon order.  Refuses loudly over budget."""
    total = modp.subspace_count(F.ambient_dim, F.half_dim, F.r)
    if total > budget:
        raise BudgetExceeded(
            f"{total} half-dimension subspaces exceed the budget of {budget}"
        )
    return [
        L
        for L in modp.enumerate_subspaces(F.ambient_dim, F.half_dim, F.r)
        if is_invariant_metabolizer(L, F)
    ]


@dataclass(frozen=True)
class Isometry:
    """Row-convention matrix of the equivariant isometry v -> v @ matrix
    from the positive half to the negative half."""

    matrix: tuple


@dataclass(frozen=True)
class NotAGraph:
    meets_first: bool
    meets_second: bool


def graph_detect(L: Subspace, F: FormSpace):
    """Decide whether the metabolizer is the graph of an isometry of the
    half form; returns the isometry or reports which factor meets L."""
    D = F.half_dim
    r = F.r
    X = [row[:D] for row in L.rows]
    Y = [row[D:] for row in L.rows]
    rank_x = modp.rank(X, r)
    rank_y = modp.rank(Y, r)
    if rank_x < D or rank_y < D:
        # ker(pr_1|_L) = L ∩ (0 ⊕ V2), ker(pr_2|_L) = L ∩ (V1 ⊕ 0)
        return NotAGraph(meets_first=rank_y < D, meets_second=rank_x < D)
    g = modp.mat_mul(modp.mat_inv(X, r), Y, r)
    Gh = F.half_gram()
    gG = modp.mat_mul(g, Gh, r)
    gGg = modp.mat_mul(gG, tuple(zip(*g)), r)
    if not modp.mat_eq(gGg, Gh):
        raise MatchFailure("graph metabolizer whose map is not an isometry")
    A = F.half_action()
    if not modp.mat_eq(modp.mat_mul(A, g, r), modp.mat_mul(g, A, r)):
        raise MatchFailure("graph isometry is not deck equivariant")
    return Isometry(matrix=g)


@dataclass(frozen=True)
class ObstructionContext:
    """Index data the character construction needs: the signed pairs of the
    chosen-prime group and, per companion level (q, s), which pair indices
    contribute positively (I1) and negatively (I2)."""

    pairs: tuple
    qs_points: tuple
    I1: dict
    I2: dict


@dataclass(frozen=True)
class CharacterChoice:
    case: int
    chi_a: tuple
    chi_b: tuple
    q: int
    s: int
    functional_a: tuple
    functional_b: tuple


@dataclass(frozen=True)
class NotSimplifiedWitness:
    """Claim data showing the combination contained a knot and its mirror:
    contradicts the simplified precondition upstream."""

    k0: int
    X: frozenset
    Y: frozenset


def _blocks_support(functional, block_dim: int):
    return frozenset(
        b for b in range(len(functional) // block_dim)
        if any(functional[b * block_dim : (b + 1) * block_dim])
    )


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
        raise MatchFailure("pin vector unexpectedly inside the kernel space")
    return c


def construct_character(L: Subspace, F: FormSpace, ctx: ObstructionContext):
    """Characters (chi_a, chi_b) vanishing on L and violating metabolicity
    at some level (q, s), per the three-case construction.

    Returns a CharacterChoice, a NotSimplifiedWitness (caller bug), or None
    if no case applies (never expected for simplified level-cancelling
    input; the caller must then refuse to certify).
    """
    r = F.r
    D = F.half_dim
    d = F.block_dim
    X = [row[:D] for row in L.rows]
    Y = [row[D:] for row in L.rows]
    rank_x = modp.rank(X, r) if X else 0
    rank_y = modp.rank(Y, r) if Y else 0

    if rank_x < D:
        choice = _proper_projection_case(L, F, ctx, X, case=1)
        if choice is not None:
            return choice
    if rank_y < D:
        choice = _proper_projection_case(L, F, ctx, Y, case=2)
        if choice is not None:
            return choice
    if rank_x < D or rank_y < D:
        return None

    g = graph_detect(L, F)
    assert isinstance(g, Isometry)
    ginv = modp.mat_inv(g.matrix, r)
    for (q, s) in ctx.qs_points:
        S1 = _coordinate_subspace(ctx.I1[(q, s)], F.m1, d, r)
        S2 = _coordinate_subspace(ctx.I2[(q, s)], F.m1, d, r)
        gS1 = S1.image(g.matrix)
        if gS1 == S2:
            continue
        choice = _graph_case(L, F, ctx, g.matrix, ginv, q, s, S1, S2, gS1)
        if choice is not None:
            return choice
    return _not_simplified(ctx)


def _proper_projection_case(L, F, ctx, side_rows, case):
    r, D, d = F.r, F.half_dim, F.block_dim
    kernel = modp.nullspace(side_rows, r, ncols=D) if side_rows else modp.identity(D)
    index_sets = ctx.I1 if case == 1 else ctx.I2
    for (q, s) in ctx.qs_points:
        blocks = index_sets[(q, s)]
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
        return _finish(L, F, ctx, case, fa, fb, q, s)
    return None


def _graph_case(L, F, ctx, g, ginv, q, s, S1, S2, gS1):
    r, D, d = F.r, F.half_dim, F.block_dim
    v = next((row for row in S1.rows if not S2.contains(modp.vec_mat(row, g, r))), None)
    if v is not None:
        # chi_a pins v and kills a complement containing g^{-1}(S2)
        pre = S2.image(ginv)
        ca = _functional_killing(pre.rows, v, r, D)
        cb = tuple((-x) % r for x in modp.mat_vec(ginv, ca, r))
        return _finish(L, F, ctx, 3, ca, cb, q, s)
    # g(S1) properly contained in S2: pick v in S2 away from it
    v = next((w for w in S2.vectors() if any(w) and not gS1.contains(w)), None)
    if v is None:
        return None
    cb = _functional_killing(gS1.rows, v, r, D)
    ca = tuple((-x) % r for x in modp.mat_vec(g, cb, r))
    return _finish(L, F, ctx, 3, ca, cb, q, s)


def _finish(L, F, ctx, case, fa, fb, q, s):
    r, D, d = F.r, F.half_dim, F.block_dim
    for row in L.rows:
        x, y = row[:D], row[D:]
        val = sum(a * b for a, b in zip(x, fa)) + sum(a * b for a, b in zip(y, fb))
        if val % r:
            raise MatchFailure("constructed character does not vanish on L")
    sup_a = _blocks_support(fa, d)
    sup_b = _blocks_support(fb, d)
    cond1 = not (sup_b & ctx.I2[(q, s)]) and bool(sup_a & ctx.I1[(q, s)])
    cond2 = not (sup_a & ctx.I1[(q, s)]) and bool(sup_b & ctx.I2[(q, s)])
    if not (cond1 or cond2):
        raise MatchFailure("constructed character misses both level conditions")
    chi_a = tuple(
        character_from_functional(F.module, fa[k * d : (k + 1) * d])
        for k in range(F.m1)
    )
    chi_b = tuple(
        character_from_functional(F.module, fb[k * d : (k + 1) * d])
        for k in range(F.m1)
    )
    return CharacterChoice(
        case=case, chi_a=chi_a, chi_b=chi_b, q=q, s=s,
        functional_a=tuple(fa), functional_b=tuple(fb),
    )


def _not_simplified(ctx) -> NotSimplifiedWitness:
    if not ctx.pairs:
        raise MatchFailure("no signed pairs supplied with the index context")
    best = None
    for k, (qplus, _) in enumerate(ctx.pairs):
        key = (len(qplus), tuple(-x for x in qplus))
        if best is None or key > best[0]:
            best = (key, k)
    k0 = best[1]
    q0 = ctx.pairs[k0][0]
    X = frozenset(k for k, (qp, _) in enumerate(ctx.pairs) if qp == q0)
    Y = frozenset(k for k, (_, qm) in enumerate(ctx.pairs) if qm == q0)
    return NotSimplifiedWitness(k0=k0, X=X, Y=Y)
