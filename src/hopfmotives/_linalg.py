"""Dense Gaussian elimination over F_p. Rows are lists of ints."""

from __future__ import annotations


def rref(rows, ncols, p):
    """Row-reduce in place-ish; returns (reduced nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col] % p
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def rank(rows, ncols, p):
    return len(rref(rows, ncols, p)[0])


def kernel_basis(rows, ncols, p):
    """Basis of the right kernel of the matrix, as length-ncols vectors."""
    reduced, pivots = rref(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, pc in zip(reduced, pivots):
            v[pc] = (-r[f]) % p
        basis.append(v)
    return basis


def solve(rows, rhs, ncols, p):
    """One solution x of A x = rhs, or None. rhs is a column (list)."""
    aug = [list(r) + [b % p] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug, ncols + 1, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in zip(reduced, pivots):
        x[pc] = r[ncols] % p
    return x


class Echelon:
    """Incrementally maintained row echelon form for rank queries."""

    def __init__(self, ncols, p):
        self.ncols = ncols
        self.p = p
        self.rows = {}  # pivot column -> normalized row

    def _reduce(self, vec):
        p = self.p
        vec = [x % p for x in vec]
        for col, row in self.rows.items():
            c = vec[col]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, row)]
        return vec

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        vec = self._reduce(vec)
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        inv = pow(vec[piv], -1, self.p)
        self.rows[piv] = [x * inv % self.p for x in vec]
        return True

    def rank(self):
        return len(self.rows)
