"""Small dense linear algebra over a prime field F_r.

Vectors are tuples of ints in [0, r); matrices are tuples of row tuples.
The forms of the verdict path have dimension under ~20, and the
elimination is plain O(n^3) Python.  The hot use is the metabolizer walk, which solves one small system per
echelon row (``solve`` and ``nullspace``) instead of trying every row,
so products are ``sum(map(mul, ...))`` over rows and columns.
"""

from __future__ import annotations

from operator import mul


def mat_vec(a, v, r):
    return tuple(sum(map(mul, row, v)) % r for row in a)


def vec_mat(v, a, r):
    return tuple(sum(map(mul, v, col)) % r for col in zip(*a))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def rref(rows, r):
    """Reduced row echelon form; returns (rows_without_zero_rows, pivot_cols)."""
    rows = [list(row) for row in rows]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % r), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, r)
        rows[rank] = [(x * inv) % r for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % r:
                c = rows[i][col]
                rows[i] = [(x - c * y) % r for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return tuple(tuple(row) for row in rows[:rank]), tuple(pivots)


def rank(rows, r):
    return len(rref(rows, r)[0])


def nullspace(rows, r, ncols=None):
    """Basis (tuple of rows) of the right kernel {x : rows @ x = 0}."""
    if not rows:
        return identity(ncols) if ncols else ()
    ncols = len(rows[0])
    red, pivots = rref(rows, r)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][fc]) % r
        basis.append(tuple(v))
    return tuple(basis)


def solve(rows, rhs, r):
    """One solution x of rows @ x = rhs, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, r)
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[i][ncols]
    return tuple(x)


def mat_inv(a, r):
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    red, pivots = rref(aug, r)
    if list(pivots[:n]) != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return tuple(tuple(row[n:]) for row in red[:n])


class Subspace:
    """A subspace of F_r^n in canonical reduced-echelon form."""

    __slots__ = ("r", "n", "rows", "pivots")

    def __init__(self, rows, r, n=None):
        rows = tuple(tuple(x % r for x in row) for row in rows)
        if rows:
            n = len(rows[0])
        elif n is None:
            raise ValueError("ambient dimension required for the zero subspace")
        red, pivots = rref(rows, r)
        self.r = r
        self.n = n
        self.rows = red
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc] % self.r
            if c:
                v = [(x - c * y) % self.r for x, y in zip(v, row)]
        return not any(x % self.r for x in v)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.r, self.n, self.rows) == (other.r, other.n, other.rows)

    def __hash__(self):
        return hash((self.r, self.n, self.rows))

    def image(self, m) -> "Subspace":
        """Image of the subspace under the row-vector action v -> v @ m."""
        return Subspace([vec_mat(row, m, self.r) for row in self.rows], self.r, self.n)

    def __repr__(self):
        return f"Subspace(r={self.r}, dim={self.dim}, rows={self.rows})"


def subspace_count(n: int, k: int, r: int) -> int:
    """Gaussian binomial: the number of k-dimensional subspaces of F_r^n."""
    num = den = 1
    for i in range(k):
        num *= r ** (n - i) - 1
        den *= r ** (k - i) - 1
    return num // den

