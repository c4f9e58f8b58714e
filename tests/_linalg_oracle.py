"""Linear algebra over F_p kept apart from ``_linalg``, as the oracle of the
tests of every layer that eliminates: an echelon kept fully reduced after
every ``add``, its reduced row echelon form and kernel, and sympy's rank
over GF(p).

Rows are {column: coefficient} mappings that may hold zero, negative and
>= p coefficients.
"""

from __future__ import annotations

import sympy
from sympy.polys.matrices import DomainMatrix


class OracleEchelon:
    """The reduced row echelon form of the rows added so far, kept fully
    reduced after every ``add``: back-substitution at once, rows taken in
    the order given."""

    def __init__(self, ncols, p):
        self.ncols = ncols
        self.p = p
        self.rows = {}  # pivot column -> row

    def add(self, vec):
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
        basis = {f: {f: 1} for f in range(self.ncols) if f not in self.rows}
        for piv, row in self.rows.items():
            for f, c in row.items():
                if f != piv:
                    basis[f][piv] = -c % self.p
        return list(basis.values())


def oracle_echelon(rows, ncols, p):
    ech = OracleEchelon(ncols, p)
    for row in rows:
        ech.add(row)
    return ech


def oracle_rref(rows, ncols, p):
    """(nonzero rows of the reduced row echelon form by ascending pivot,
    pivots)."""
    ech = oracle_echelon(rows, ncols, p)
    pivots = sorted(ech.rows)
    return [ech.rows[c] for c in pivots], pivots


def oracle_kernel_basis(rows, ncols, p):
    """Basis of the right kernel of the rows, ordered by non-pivot column."""
    return oracle_echelon(rows, ncols, p).kernel()


def sympy_rank_mod_p(rows, p):
    """The rank over GF(p) of dense rows."""
    # Matrix.rank on GF(p) entries can overcount (it gives 2 for
    # [[1, 0, 2], [2, 0, 1]] at p = 3); DomainMatrix eliminates over GF(p)
    if not rows:
        return 0
    field = sympy.GF(p)
    return DomainMatrix([[field(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), field).rank()
