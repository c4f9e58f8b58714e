"""Sparse Gaussian elimination over F_p.

A row is a mapping {column: coefficient}.  Inputs may be any such mapping
(a dict or a Counter), with zero, negative or >= p coefficients; every row
returned is a dict holding only nonzero coefficients in 1..p-1.  Columns
are ints in range(ncols), and a row's pivot is its least column.

Elimination runs forward only: each added vector is reduced against the
pivots already held, and back-substitution waits until the reduced form is
read.  ``rref`` and ``kernel_basis`` add their rows sparsest first, which
keeps the fill of forward elimination low.  The reduced row echelon form of
a span is unique, so neither the order of the rows nor the moment of
back-substitution changes any result.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


class Echelon:
    """An echelon basis of the rows added so far.

    ``add`` keeps the rows in forward form: each has coefficient 1 at its
    own pivot and 0 at the pivots of the rows added before it.  Reading
    ``rows`` or ``kernel()`` first reduces them fully, once, in descending
    pivot order, so that each row is 0 at every other pivot."""

    def __init__(self, ncols, p):
        self.ncols = ncols
        self.p = p
        self._rows = {}  # pivot column -> row
        self._reduced = True

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        # a row holds only columns from its pivot on, so clearing the pivots
        # in ascending order never brings back one already cleared
        p, rows = self.p, self._rows
        vec = {k: x % p for k, x in vec.items() if x % p}
        heap = [k for k in vec if k in rows]
        heapify(heap)
        while heap:
            j = heappop(heap)
            c = vec.pop(j, 0)
            if not c:
                continue
            for k, y in rows[j].items():
                x = vec.get(k)
                if x is None:
                    if k != j:
                        vec[k] = -c * y % p
                        if k in rows:
                            heappush(heap, k)
                elif x := (x - c * y) % p:
                    vec[k] = x
                else:
                    del vec[k]
        if not vec:
            return False
        piv = min(vec)
        inv = pow(vec[piv], -1, p)
        rows[piv] = {k: x * inv % p for k, x in vec.items()}
        self._reduced = False
        return True

    @property
    def rows(self):
        """{pivot: row} in reduced row echelon form.  Do not mutate."""
        if not self._reduced:
            # a row is cleared by rows of larger pivot only, and those are
            # reduced already, so subtracting one changes no other pivot
            p, rows = self.p, self._rows
            for piv in sorted(rows, reverse=True):
                row = rows[piv]
                for j in [j for j in row if j != piv and j in rows]:
                    c = row.pop(j)
                    for k, y in rows[j].items():
                        if k != j:
                            if x := (row.get(k, 0) - c * y) % p:
                                row[k] = x
                            else:
                                del row[k]
            self._reduced = True
        return self._rows

    def kernel(self):
        """Basis of the right kernel of the rows, one vector per non-pivot
        column f: 1 at f, and minus row r's f-coefficient at r's pivot."""
        rows = self.rows
        basis = {f: {f: 1} for f in range(self.ncols) if f not in rows}
        for piv, row in rows.items():
            for f, c in row.items():
                if f != piv:
                    basis[f][piv] = -c % self.p
        return list(basis.values())


def _echelon(rows, ncols, p):
    ech = Echelon(ncols, p)
    for row in sorted(rows, key=len):
        ech.add(row)
    return ech


def rref(rows, ncols, p):
    """Reduced row echelon form: (nonzero rows by ascending pivot, pivots)."""
    reduced = _echelon(rows, ncols, p).rows
    pivots = sorted(reduced)
    return [reduced[c] for c in pivots], pivots


def kernel_basis(rows, ncols, p):
    """Basis of the right kernel of the rows, ordered by non-pivot column."""
    return _echelon(rows, ncols, p).kernel()
