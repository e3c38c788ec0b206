import functools
import itertools

import pytest

from sliceguard import knots, metabolizers, modp
from sliceguard.metabolizers import (
    BudgetExceeded,
    CharacterChoice,
    FormSpace,
    Isometry,
    NotAGraph,
    construct_character,
    enumerate_invariant_metabolizers,
    graph_detect,
    invariant_metabolizer_count,
    is_invariant_metabolizer,
)
from sliceguard.modp import Subspace
from sliceguard.expr import parse

import oracles
from oracles import enumerate_subspaces


def _perp(L: Subspace, G, r):
    """Independent orthogonal complement: right kernel of G @ L^T."""
    rows = tuple(modp.vec_mat(row, G, r) for row in L.rows)
    if not rows:
        return Subspace(modp.identity(len(G)), r)
    return Subspace(modp.nullspace(rows, r, ncols=len(G)), r, len(G))


def brute_force_invariant_metabolizers(F: FormSpace):
    """Oracle: all half-dimension subspaces with L == L^perp (computed via
    an explicit kernel) that the deck action maps into themselves."""
    G = F.gram()
    A = F.action()
    out = []
    for L in enumerate_subspaces(F.ambient_dim, F.half_dim, F.r):
        if _perp(L, G, F.r) != L:
            continue
        if all(L.contains(modp.vec_mat(v, A, F.r)) for v in L.rows):
            out.append(L)
    return out


FORMS = {
    "T(2,3)": (2, 3, 1),
    "T(2,5)": (2, 5, 1),
    "T(3,2)": (3, 2, 1),
    "T(2,3)^2": (2, 3, 2),
}


def _form(name) -> FormSpace:
    p, r, m1 = FORMS[name]
    return FormSpace(p, r, m1)


class TestEnumeration:
    def test_t23_metabolizers(self):
        mets = enumerate_invariant_metabolizers(_form("T(2,3)"))
        assert [L.rows for L in mets] == [((1, 1),), ((1, 2),)]

    def test_t25_metabolizers(self):
        mets = enumerate_invariant_metabolizers(_form("T(2,5)"))
        assert [L.rows for L in mets] == [((1, 1),), ((1, 4),)]

    def test_shape_without_a_model_module_refused(self):
        # gcd(10, 5) != 1: there is no model module to build a form on
        with pytest.raises(ValueError, match="gcd"):
            FormSpace(10, 5, 1)

    def test_zero_copies(self):
        F = FormSpace(2, 3, 0)
        mets = enumerate_invariant_metabolizers(F)
        assert len(mets) == 1 and mets[0].dim == 0

    @pytest.mark.parametrize("name", list(FORMS))
    def test_matches_brute_force(self, name):
        F = _form(name)
        assert enumerate_invariant_metabolizers(F) == brute_force_invariant_metabolizers(F)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            enumerate_invariant_metabolizers(_form("T(2,3)^2"), budget=3)

    def test_non_metabolizers_rejected(self):
        F = _form("T(2,3)")
        assert not is_invariant_metabolizer(Subspace([(1, 0)], 3), F)  # not isotropic
        assert not is_invariant_metabolizer(Subspace([(1, 0), (0, 1)], 3), F)  # too big


def _walk_shapes(limit=50_000):
    """(p, r, m1) with p in {2, 3}, prime r <= 13 prime to p and m1 <= 3
    whose Grassmannian the filter can scan within ``limit`` subspaces:
    r = 2, (3, 13, 1) and the three-row (2, 3, 3) among them."""
    shapes = []
    for p in (2, 3):
        for r in (2, 3, 5, 7, 11, 13):
            if r % p == 0:
                continue
            for m1 in (0, 1, 2, 3):
                k = m1 * (p - 1)
                if modp.subspace_count(2 * k, k, r) <= limit:
                    shapes.append((p, r, m1))
    return shapes


class TestEchelonWalk:
    """The isotropic echelon walk against the Grassmannian filter it
    replaced: the same subspaces, in the same order."""

    @pytest.mark.parametrize("p,r,m1", _walk_shapes())
    def test_walk_equals_filter(self, p, r, m1):
        F = FormSpace(p, r, m1)
        expected = [
            L for L in enumerate_subspaces(F.ambient_dim, F.half_dim, F.r)
            if is_invariant_metabolizer(L, F)
        ]
        assert enumerate_invariant_metabolizers(F) == expected

    @pytest.mark.parametrize("p,r,m1", [(3, 2, 2), (2, 3, 3), (2, 5, 2), (3, 7, 1),
                                        (4, 5, 1), (2, 11, 2)])
    def test_walk_equals_the_product_walk(self, p, r, m1, monkeypatch):
        # shapes where the Grassmannian filter is too slow; the solved walk
        # must reach the same leaves, checked in the same order
        F = FormSpace(p, r, m1)
        leaves = []
        check = metabolizers.is_invariant_metabolizer
        monkeypatch.setattr(metabolizers, "is_invariant_metabolizer",
                            lambda L, F: leaves.append(L.rows) or check(L, F))
        found = enumerate_invariant_metabolizers(F, budget=10**9)
        solved, leaves[:] = leaves[:], []
        assert found == oracles.product_walk(F) and found
        assert solved == leaves


# (p, m1, r) -> the invariant metabolizers of every shape whose walk ends
# within seconds: t = -1, paired and Hermitian factors, and r = 2
WALKED_COUNTS = {
    (2, 1, 3): 2, (2, 1, 5): 2, (2, 1, 7): 2, (2, 2, 3): 8, (2, 2, 5): 12,
    (2, 2, 7): 16, (2, 3, 3): 80, (2, 3, 5): 312, (3, 1, 2): 3, (3, 1, 5): 6,
    (3, 1, 7): 10, (3, 1, 13): 16, (3, 2, 2): 27, (3, 2, 5): 756, (4, 1, 3): 8,
    (4, 1, 5): 16, (4, 1, 7): 16, (5, 1, 2): 5, (5, 1, 3): 10,
}
# shapes the walk does not finish within 40 s: the closed form alone
FORMULA_COUNTS = {(4, 2, 3): 896, (5, 1, 11): 196, (7, 1, 2): 11, (8, 1, 3): 96,
                  (9, 1, 2): 27}


@functools.lru_cache(maxsize=None)
def _walked(p, m1, r):
    """The walk's metabolizers of a ``WALKED_COUNTS`` shape, walked once."""
    return tuple(enumerate_invariant_metabolizers(FormSpace(p, r, m1), budget=10**30))


class TestInvariantMetabolizerCount:
    """The closed-form count against the walk and the Grassmannian filter."""

    @pytest.mark.parametrize("p,m1,r", list(WALKED_COUNTS))
    def test_count_is_the_walk_length(self, p, m1, r):
        F = FormSpace(p, r, m1)
        found = _walked(p, m1, r)
        assert invariant_metabolizer_count(F) == len(found) == WALKED_COUNTS[(p, m1, r)]

    @pytest.mark.parametrize("p,r,m1", [shape for shape in _walk_shapes(limit=3000) if shape[2]])
    def test_count_is_the_filter_length(self, p, r, m1):
        F = FormSpace(p, r, m1)
        assert invariant_metabolizer_count(F) == len(brute_force_invariant_metabolizers(F))

    @pytest.mark.parametrize("p,m1,r", list(FORMULA_COUNTS))
    def test_counts_beyond_the_walk(self, p, m1, r):
        assert invariant_metabolizer_count(FormSpace(p, r, m1)) == FORMULA_COUNTS[(p, m1, r)]

    def test_zero_copies(self):
        assert invariant_metabolizer_count(FormSpace(2, 3, 0)) == 1


class TestGraphDetection:
    def test_identity_and_scaling_graphs(self):
        F = _form("T(2,5)")
        mets = enumerate_invariant_metabolizers(F)
        gs = [graph_detect(L, F) for L in mets]
        assert all(isinstance(g, Isometry) for g in gs)
        assert gs[0].matrix == ((1,),)
        assert gs[1].matrix == ((4,),)

    def test_not_a_graph(self):
        # lambda(T(2,5))^2 has the invariant isotropic vector (1, 2)
        F = FormSpace(2, 5, 2)
        L = Subspace([(1, 2, 0, 0), (0, 0, 1, 2)], 5)
        assert is_invariant_metabolizer(L, F)
        g = graph_detect(L, F)
        assert isinstance(g, NotAGraph)
        assert g.meets_first and g.meets_second

    @pytest.mark.parametrize("p,m1,r", list(WALKED_COUNTS))
    def test_isometry_is_x_inverse_y(self, p, m1, r):
        # the isometry is read off the reduced basis, whose X half is the
        # identity on a graph: it is X^-1 Y on every metabolizer walked
        F = FormSpace(p, r, m1)
        D = F.half_dim
        for L in _walked(p, m1, r):
            X = [row[:D] for row in L.rows]
            Y = [row[D:] for row in L.rows]
            rank_x, rank_y = modp.rank(X, r), modp.rank(Y, r)
            detected = graph_detect(L, F)
            if rank_x == rank_y == D:
                assert detected == Isometry(modp.mat_mul(modp.mat_inv(X, r), Y, r))
            else:
                assert detected == NotAGraph(meets_first=rank_y < D, meets_second=rank_x < D)

    @pytest.mark.parametrize("r,D,I1,I2", [(5, 3, {0}, {1, 2}), (3, 4, {0}, {1, 2, 3}),
                                           (3, 4, {0, 1}, {0, 2, 3})])
    def test_graph_case_pins_the_first_vector_of_the_scan(self, r, D, I1, I2, monkeypatch):
        # g(S1) properly inside S2: the pinned vector is the last echelon
        # row of S2 outside g(S1), the first one the scan over every
        # vector of S2 meets; g is tried with every image of S1 in S2
        from sliceguard.metabolizers import _coordinate_subspace, _graph_case

        pinned = []

        def pin(rows, vector, r, n):
            pinned.append(tuple(vector))
            raise LookupError

        monkeypatch.setattr(metabolizers, "_functional_killing", pin)
        F = FormSpace(2, r, D)
        S1 = _coordinate_subspace(frozenset(I1), D, 1, r)
        S2 = _coordinate_subspace(frozenset(I2), D, 1, r)
        images = [v for v in itertools.product(oracles.subspace_vectors(S2), repeat=S1.dim)
                  if modp.rank(v, r) == S1.dim]
        assert images
        for image in images:
            # rows of S1 go to the image, the other unit vectors stay put
            g = list(modp.identity(D))
            for row, v in zip(S1.rows, image):
                g[row.index(1)] = v
            gS1 = S1.image(g)
            assert gS1.dim < S2.dim and all(S2.contains(w) for w in gS1.rows)
            scan = next(w for w in oracles.subspace_vectors(S2)
                        if any(w) and not gS1.contains(w))
            with pytest.raises(LookupError):
                _graph_case(None, F, None, g, None, 3, 1, S1, S2, gS1)
            assert pinned.pop() == scan

    @pytest.mark.parametrize("name", list(FORMS))
    def test_graph_criterion_exhaustive(self, name):
        """Metabolizers with trivial factor intersections are exactly the
        graphs of equivariant isometries, and conversely every equivariant
        isometry graph is an invariant metabolizer."""
        F = _form(name)
        r, D = F.r, F.half_dim
        Gh = F.half_gram()
        Ah = F.half_action()
        graphs_seen = set()
        for L in enumerate_invariant_metabolizers(F):
            X = [row[:D] for row in L.rows]
            Y = [row[D:] for row in L.rows]
            trivial = modp.rank(X, r) == D and modp.rank(Y, r) == D
            detected = graph_detect(L, F)
            assert trivial == isinstance(detected, Isometry)
            if trivial:
                g = detected.matrix
                graphs_seen.add(g)
                # isometry and equivariance, re-verified directly
                assert modp.mat_eq(
                    modp.mat_mul(modp.mat_mul(g, Gh, r), tuple(zip(*g)), r), Gh
                )
                assert modp.mat_eq(modp.mat_mul(Ah, g, r), modp.mat_mul(g, Ah, r))
        # converse: every equivariant isometry's graph is a metabolizer
        count = 0
        for mat in itertools.product(
            itertools.product(range(r), repeat=D), repeat=D
        ):
            gG = modp.mat_mul(mat, Gh, r)
            if not modp.mat_eq(modp.mat_mul(gG, tuple(zip(*mat)), r), Gh):
                continue
            if not modp.mat_eq(modp.mat_mul(Ah, mat, r), modp.mat_mul(mat, Ah, r)):
                continue
            rows = [
                tuple(list(modp.identity(D)[i]) + list(mat[i])) for i in range(D)
            ]
            L = Subspace(rows, r)
            assert is_invariant_metabolizer(L, F)
            count += 1
        assert graphs_seen == set() or count == len(graphs_seen)


class TestConstructCharacter:
    def _context(self, expr, r):
        K = parse(expr)
        nf = knots.normal_form(knots.simplify(K), r)
        return nf, knots.index_sets(nf)

    def test_j_family_case3(self):
        nf, sets = self._context("T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)", 5)
        F = FormSpace(2, 5, 1)
        L1 = Subspace([(1, 1)], 5)
        choice = construct_character(L1, F, sets)
        assert isinstance(choice, CharacterChoice)
        assert choice.case == 3 and (choice.q, choice.s) == (3, 1)
        assert choice.chi_a[0].values == (1, 4)
        assert choice.chi_b[0].values == (4, 1)
        L2 = Subspace([(1, 4)], 5)
        choice2 = construct_character(L2, F, sets)
        assert choice2.case == 3
        assert choice2.chi_a[0].values == (1, 4)

    def test_vanishing_on_all_metabolizer_vectors(self):
        nf, sets = self._context("T(2,3;2,5) # -T(2,5) # -T(2,3;2,7) # T(2,7)", 5)
        F = FormSpace(2, 5, 1)
        for L in enumerate_invariant_metabolizers(F):
            choice = construct_character(L, F, sets)
            # a character is the functional of its first p - 1 values
            fa, fb = (tuple(v for chi in chis for v in chi.values[:-1])
                      for chis in (choice.chi_a, choice.chi_b))
            for v in oracles.subspace_vectors(L):
                total = sum(a * b for a, b in zip(v[:1], fa)) + sum(
                    a * b for a, b in zip(v[1:], fb)
                )
                assert total % 5 == 0

    def test_case1_on_non_graph_metabolizer(self):
        expr = ("T(2,3;2,5) # T(2,7;2,5) # -2*T(2,5) # -T(2,3;2,11) # T(2,11) "
                "# -T(2,7;2,13) # T(2,13)")
        nf, sets = self._context(expr, 5)
        F = FormSpace(2, 5, 2)
        L = Subspace([(1, 2, 0, 0), (0, 0, 1, 2)], 5)
        assert is_invariant_metabolizer(L, F)
        choice = construct_character(L, F, sets)
        assert choice.case == 1
        assert all(chi.is_trivial() for chi in choice.chi_b)
        assert any(not chi.is_trivial() for chi in choice.chi_a)
        # condition (1) at the returned level, re-verified from the sets
        key = (choice.q, choice.s)
        nza = {k for k, chi in enumerate(choice.chi_a) if not chi.is_trivial()}
        assert nza & sets.I1[key]

    def test_not_simplified_witness_data(self):
        from sliceguard.metabolizers import _not_simplified

        # synthetic non-simplified pair list: pair 0 and pair 2 repeat the
        # positive sequence, pair 1's negative matches it
        sets = knots.IndexSets(
            pairs=(((3, 5), (7, 5)), ((9, 5), (3, 5)), ((3, 5), (11, 5))),
            points=(), I1={}, I2={}, I3={}, I4={},
        )
        witness = _not_simplified(sets)
        assert witness.k0 == 0
        assert witness.X == {0, 2}
        assert witness.Y == {1}

    def test_case2_when_positive_side_unusable(self):
        # mirror of the previous input swaps the roles of the two halves
        expr = ("-T(2,3;2,5) # -T(2,7;2,5) # 2*T(2,5) # T(2,3;2,11) # -T(2,11) "
                "# T(2,7;2,13) # -T(2,13)")
        nf, sets = self._context(expr, 5)
        F = FormSpace(2, 5, 2)
        for L in enumerate_invariant_metabolizers(F):
            choice = construct_character(L, F, sets)
            assert choice is not None
            key = (choice.q, choice.s)
            nza = {k for k, chi in enumerate(choice.chi_a) if not chi.is_trivial()}
            nzb = {k for k, chi in enumerate(choice.chi_b) if not chi.is_trivial()}
            cond1 = not (nzb & sets.I2[key]) and bool(nza & sets.I1[key])
            cond2 = not (nza & sets.I1[key]) and bool(nzb & sets.I2[key])
            assert cond1 or cond2
