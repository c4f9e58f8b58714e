"""Sparse Gaussian elimination over F_p.

A row is a mapping {column: coefficient}.  Inputs may be any such mapping
(a dict or a Counter), with zero, negative or >= p coefficients; every row
returned is a dict holding only nonzero coefficients in 1..p-1.  Columns
are ints in range(ncols), and a row's pivot is its least column.
"""

from __future__ import annotations


class Echelon:
    """The reduced row echelon form of the rows added so far, kept fully
    reduced one row at a time: each row has coefficient 1 at its own pivot
    and 0 at every other pivot."""

    def __init__(self, ncols, p):
        self.ncols = ncols
        self.p = p
        self.rows = {}  # pivot column -> row

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        # rows are 0 at each other's pivots, so subtracting one row leaves
        # vec's coefficients at the other pivots as they were
        p, rows = self.p, self.rows
        vec = dict(vec)
        for j in [j for j in vec if j in rows]:
            c = vec[j]
            for k, y in rows[j].items():
                vec[k] = vec.get(k, 0) - c * y
        vec = {k: x % p for k, x in vec.items() if x % p}
        if not vec:
            return False
        piv = min(vec)
        inv = pow(vec[piv], -1, p)
        new = {k: x * inv % p for k, x in vec.items()}
        for row in [r for r in rows.values() if piv in r]:
            c = row[piv]
            for k, y in new.items():
                x = (row.get(k, 0) - c * y) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
        rows[piv] = new
        return True

    def kernel(self):
        """Basis of the right kernel of the rows, one vector per non-pivot
        column f: 1 at f, and minus row r's f-coefficient at r's pivot."""
        basis = {f: {f: 1} for f in range(self.ncols) if f not in self.rows}
        for piv, row in self.rows.items():
            for f, c in row.items():
                if f != piv:
                    basis[f][piv] = -c % self.p
        return list(basis.values())


def _echelon(rows, ncols, p):
    ech = Echelon(ncols, p)
    for row in rows:
        ech.add(row)
    return ech


def rref(rows, ncols, p):
    """Reduced row echelon form: (nonzero rows by ascending pivot, pivots)."""
    ech = _echelon(rows, ncols, p)
    pivots = sorted(ech.rows)
    return [ech.rows[c] for c in pivots], pivots


def kernel_basis(rows, ncols, p):
    """Basis of the right kernel of the rows, ordered by non-pivot column."""
    return _echelon(rows, ncols, p).kernel()
