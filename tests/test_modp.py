import itertools

import pytest

from sliceguard import modp
from sliceguard.modp import Subspace, subspace_count

from oracles import enumerate_subspaces, subspace_vectors


def test_rref_and_rank():
    rows = ((2, 4, 1), (1, 2, 4))
    red, pivots = modp.rref(rows, 5)
    assert pivots == (0, 2)
    assert modp.rank(rows, 5) == 2
    assert modp.rank(((2, 4, 1), (1, 2, 3)), 5) == 1  # dependent mod 5
    assert modp.rank(((1, 2), (2, 4)), 5) == 1


def test_nullspace_and_solve():
    rows = ((1, 2, 0), (0, 0, 1))
    ns = modp.nullspace(rows, 5)
    assert len(ns) == 1
    v = ns[0]
    assert modp.mat_vec(rows, v, 5) == (0, 0)
    x = modp.solve(((1, 1), (1, 2)), (3, 4), 7)
    assert x is not None
    assert modp.mat_vec(((1, 1), (1, 2)), x, 7) == (3, 4)
    assert modp.solve(((1, 1), (2, 2)), (0, 1), 5) is None


def test_mat_inv():
    m = ((1, 2), (3, 4))
    inv = modp.mat_inv(m, 7)
    assert modp.mat_mul(m, inv, 7) == modp.identity(2)
    with pytest.raises(ZeroDivisionError):
        modp.mat_inv(((1, 2), (2, 4)), 5)


def test_subspace_membership_and_vectors():
    s = Subspace([(1, 0, 2), (0, 1, 1)], 3)
    assert s.dim == 2
    assert s.contains((1, 1, 0))
    assert not s.contains((0, 0, 1))
    assert len(list(subspace_vectors(s))) == 9
    zero = Subspace([], 3, n=4)
    assert zero.dim == 0 and list(subspace_vectors(zero)) == [(0, 0, 0, 0)]


@pytest.mark.parametrize("n,k,r", [(2, 1, 3), (4, 2, 3), (4, 2, 5), (3, 1, 2), (4, 2, 2)])
def test_enumeration_matches_gaussian_binomial(n, k, r):
    spaces = list(enumerate_subspaces(n, k, r))
    assert len(spaces) == subspace_count(n, k, r)
    assert len(set(spaces)) == len(spaces)
    for s in spaces:
        assert s.dim == k


def test_image():
    s = Subspace([(1, 0), (0, 1)], 5)
    m = ((2, 0), (0, 3))
    assert s.image(m) == s


def test_subspace_equality_with_other_types():
    # a comparison with anything but a Subspace raised AttributeError
    s = Subspace([(1, 0)], 3)
    assert not (s == None) and s != None  # noqa: E711
    assert s in [None, s] and [None, s].index(s) == 1
    assert s != ((1, 0),) and s != "Subspace"
    assert s == Subspace([(2, 0)], 3) and s != Subspace([(0, 1)], 3)
