"""Sparse Gaussian elimination over F_p.

A row is a mapping {column: coefficient}.  Inputs may be any such mapping
(a dict or a Counter), with zero, negative or >= p coefficients; every row
returned is a dict holding only nonzero coefficients in 1..p-1.  Columns
are ints in range(ncols), and a row's pivot is its least column.

``rref`` and ``kernel_basis`` choose a route by p.  At p = 2 each row is
packed into an int, one bit per column, set when the coefficient is odd;
repeated rows are dropped in first-seen order, and the rest are eliminated
by XOR, sparsest first, with one back-substitution at the end
(``_f2_echelon``).  ``kernel_basis`` reads its vectors straight off those
packed rows, and only ``rref`` unpacks them into dicts.  At any other p
the rows are added, sparsest first, to an ``Echelon``, which eliminates
forward only: each added vector is reduced against the pivots already
held, and back-substitution waits until the reduced form is read.
The reduced row echelon form of a span is unique, so neither the route,
the row order nor the moment of back-substitution changes any result.
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

    def add_closure(self, vectors, gens, multiply):
        """Add the vectors, and multiply(g, v) for each g in ``gens`` and each
        v that enlarged the span, until the span is closed under those
        products; returns the vectors that enlarged it."""
        new, todo = [], list(vectors)
        while todo:
            v = todo.pop()
            if self.add(v):
                new.append(v)
                todo += [multiply(g, v) for g in gens]
        return new

    def kernel(self):
        """Basis of the right kernel of the rows, by non-pivot column."""
        return _kernel(self.rows, self.ncols, self.p)


def _kernel(rows, ncols, p):
    """The kernel of {pivot: row} in reduced form, one vector per non-pivot
    column f: 1 at f, and minus row r's f-coefficient at r's pivot."""
    basis = {f: {f: 1} for f in range(ncols) if f not in rows}
    for piv, row in rows.items():
        for f, c in row.items():
            if f != piv:
                basis[f][piv] = -c % p
    return list(basis.values())


def _f2_echelon(rows, ncols):
    """The reduced row echelon form over F_2 as packed rows, {b: row} by
    ascending b, where column j is bit ncols - 1 - j and b is a row's bit
    length, so that its pivot column is ncols - b."""
    # a row's pivot is its highest bit, read off int.bit_length() without
    # building a new int
    packed = {}  # packed row -> None, in first-seen order
    for row in rows:
        x = 0
        for k, c in row.items():
            if c & 1:
                x |= 1 << (ncols - 1 - k)
        packed[x] = None
    held = {}  # bit length -> packed row
    for x in sorted(packed, key=int.bit_count):
        while x and (b := x.bit_length()) in held:
            x ^= held[b]
        if x:
            held[b] = x
    # in descending pivot order, XOR with a reduced row clears its pivot bit
    # and sets no other pivot bit
    pivots = sum(1 << (b - 1) for b in held)
    reduced = {}
    for b in sorted(held):
        x = held[b]
        rest = (x & pivots) ^ (1 << (b - 1))
        while rest:
            q = rest.bit_length()
            x ^= reduced[q]
            rest ^= 1 << (q - 1)
        reduced[b] = x
    return reduced


def _f2_reduced(rows, ncols):
    """{pivot: row} in reduced row echelon form over F_2, unpacked."""
    reduced = {}
    for b, x in _f2_echelon(rows, ncols).items():
        row = reduced[ncols - b] = {}
        while x:
            q = x.bit_length()
            row[ncols - q] = 1
            x ^= 1 << (q - 1)
    return reduced


def _f2_kernel(rows, ncols):
    """``_kernel`` over F_2, read straight off the packed reduced rows: each
    set bit but the pivot of a row puts 1 at that row's pivot in the vector
    of the bit's column."""
    reduced = _f2_echelon(rows, ncols)
    basis = {f: {f: 1} for f in range(ncols) if ncols - f not in reduced}
    for b, x in reduced.items():
        piv = ncols - b
        x ^= 1 << (b - 1)
        while x:
            q = x.bit_length()
            basis[ncols - q][piv] = 1
            x ^= 1 << (q - 1)
    return list(basis.values())


def _reduced(rows, ncols, p):
    if p == 2:
        return _f2_reduced(rows, ncols)
    ech = Echelon(ncols, p)
    for row in sorted(rows, key=len):
        ech.add(row)
    return ech.rows


def rref(rows, ncols, p):
    """Reduced row echelon form: (nonzero rows by ascending pivot, pivots)."""
    reduced = _reduced(rows, ncols, p)
    pivots = sorted(reduced)
    return [reduced[c] for c in pivots], pivots


def kernel_basis(rows, ncols, p):
    """Basis of the right kernel of the rows, ordered by non-pivot column."""
    if p == 2:
        return _f2_kernel(rows, ncols)
    return _kernel(_reduced(rows, ncols, p), ncols, p)
