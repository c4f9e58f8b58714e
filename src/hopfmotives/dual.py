"""The dual algebra of a finite-dimensional bialgebra and its block structure.

H^dual carries the convolution product (f * g)(m) = (f (x) g)(Delta m); in
the dual basis {f_m} of the monomial basis the structure constants are the
coproduct coefficients of H, so everything here is exact linear algebra over
F_p.  Evaluation at a group-like element of H is an algebra character, which
is how blocks get their names: the unique block whose idempotent evaluates
to 1 on 1_H is the Tate block, and every one-dimensional block is evaluation
at some group-like.

``decompose`` finds the block (central primitive idempotent) decomposition
by Berlekamp's fixed-space method applied to the centre (Friedl--Ronyai):

1. the centre Z of H^dual is the kernel of the commutators with the dual
   basis;
2. on the commutative Z, Frobenius z -> z^p is F_p-linear, and its fixed
   space is spanned by the block idempotents;
3. the Lagrange idempotents 1 - (s - c)^(p-1) of a basis of that space split
   the unit into the block idempotents.

Every step is polynomial in dim H; nothing is enumerated or factored.

``grouplikes`` reads the group-likes of H, the characters of H^dual, off the
blocks: on a block e with residue field F_p, chi(f) e = (f e)^(p^K) once p^K
is at least the block's dimension.  A block carries at most one character
when H is cocommutative (H^dual is commutative) or connected graded (H^dual
is local); ``Bialgebra.find_grouplikes`` uses this route exactly then.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import _linalg


def poly_str(coeffs, var="y"):
    """Descending-power rendering: [0, 2, 0, 1] -> 'y^3 + 2*y'."""
    if not coeffs:
        return "0"
    bits = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        if d == 0:
            bits.append(str(c))
        else:
            t = var if d == 1 else f"{var}^{d}"
            bits.append(t if c == 1 else f"{c}*{t}")
    return " + ".join(bits)


# -- the dual algebra ----------------------------------------------------------


class DualAlgebra:
    """H^dual with the convolution product, in the dual monomial basis."""

    def __init__(self, B):
        self.B = B
        self.basis = B.basis()
        self.dim = len(self.basis)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self._tables = None

    def _table(self):
        # per basis monomial m_k: the coproduct terms as (i, j, coeff)
        if self._tables is None:
            tables = []
            for m in self.basis:
                terms = []
                for (lm, rm), c in self.B.coproduct_mono(m).terms.items():
                    terms.append((self.index[lm], self.index[rm], c))
                tables.append(terms)
            self._tables = tables
        return self._tables

    def unit(self):
        """The counit of H, which is the unit of H^dual."""
        v = [0] * self.dim
        v[self.index[self.B.unit_mono]] = 1
        return tuple(v)

    def dual_basis_vector(self, mono):
        v = [0] * self.dim
        v[self.index[tuple(mono)]] = 1
        return tuple(v)

    def multiply(self, u, v):
        p = self.B.prime
        out = [0] * self.dim
        for k, terms in enumerate(self._table()):
            acc = 0
            for i, j, c in terms:
                if u[i] and v[j]:
                    acc += u[i] * v[j] * c
            out[k] = acc % p
        return tuple(out)

    def evaluate(self, u, x):
        """Evaluate the functional u on an Element (or monomial) of H."""
        p = self.B.prime
        if hasattr(x, "terms"):
            return sum(u[self.index[m]] * c for m, c in x.terms.items()) % p
        k, nf = self.B.normalize(x)
        return u[self.index[nf]] * k % p if nf is not None else 0

    def minimal_polynomial(self, v):
        """Monic minimal polynomial of v, ascending coefficient list."""
        p = self.B.prime
        powers = [self.unit()]
        ech = _linalg.Echelon(self.dim, p)
        ech.add(list(powers[0]))
        cur = powers[0]
        while True:
            cur = self.multiply(cur, v)
            if not ech.add(list(cur)):
                rows = [[powers[i][r] for i in range(len(powers))]
                        for r in range(self.dim)]
                sol = _linalg.solve(rows, list(cur), len(powers), p)
                return [(-c) % p for c in sol] + [1]
            powers.append(cur)

    def substitute(self, coeffs, v):
        """Evaluate a polynomial (ascending coeffs) at v inside H^dual."""
        p = self.B.prime
        out = [0] * self.dim
        power = self.unit()
        for i, c in enumerate(coeffs):
            if c % p:
                out = [(x + c * y) % p for x, y in zip(out, power)]
            if i + 1 < len(coeffs):
                power = self.multiply(power, v)
        return tuple(out)


def dual_presentation(B):
    """Present H^dual as F_p[y]/(minimal polynomial) when some dual-basis
    functional generates it; returns the ascending monic coefficient list."""
    D = DualAlgebra(B)
    for m in D.basis:
        if m == B.unit_mono:
            continue
        mu = D.minimal_polynomial(D.dual_basis_vector(m))
        if len(mu) - 1 == D.dim:
            return mu
    raise ValueError("dual algebra is not generated by a single "
                     "dual-basis functional")


@dataclass
class Block:
    dim: int
    label: str
    idempotent: tuple


def _block_dim(D, e):
    # rank of f -> e*f; column m of its matrix is e*f_m, read off the table
    mat = [[0] * D.dim for _ in range(D.dim)]
    for k, terms in enumerate(D._table()):
        for i, j, c in terms:
            mat[k][j] += e[i] * c
    return _linalg.rank(mat, D.dim, D.B.prime)


def _centre(D):
    """Basis of the centre: the u with u*f_j = f_j*u for every dual-basis f_j.

    Coordinate k of u*f_j - f_j*u is sum_i u_i (c^k_ij - c^k_ji), one row per
    (j, k).  The rows of one k are reduced before the next k is read; for a
    cocommutative H they all vanish and Z is the whole dual.
    """
    p = D.B.prime
    ech = _linalg.Echelon(D.dim, p)
    for terms in D._table():
        rows = {}
        for i, j, c in terms:
            rows.setdefault(j, Counter())[i] += c
            rows.setdefault(i, Counter())[j] -= c
        for row in rows.values():
            if any(c % p for c in row.values()):
                dense = [0] * D.dim
                for i, c in row.items():
                    dense[i] = c
                ech.add(dense)
    return _linalg.kernel_basis(list(ech.rows.values()), D.dim, p)


def _power(D, v, n):
    out = D.unit()
    for _ in range(n):
        out = D.multiply(out, v)
    return out


def _block_idempotents(D):
    """Central primitive idempotents of H^dual, in no fixed order."""
    p = D.B.prime
    centre = _centre(D)
    # the fixed space of Frobenius on Z: kernel of z -> z^p - z
    moved = [[(x - y) % p for x, y in zip(_power(D, z, p), z)] for z in centre]
    fixed = [[sum(a * z[k] for a, z in zip(coeffs, centre)) % p
              for k in range(D.dim)]
             for coeffs in _linalg.kernel_basis(list(zip(*moved)),
                                                len(centre), p)]
    unit = D.unit()
    idempotents = [unit]
    for s in fixed:
        # 1 - (s - c)^(p-1) is the sum of the blocks on which s equals c
        lagrange = []
        for c in range(p):
            shifted = tuple((x - c * u) % p for x, u in zip(s, unit))
            lagrange.append(tuple((u - x) % p for u, x in
                                  zip(unit, _power(D, shifted, p - 1))))
        idempotents = [f for e in idempotents for L in lagrange
                       if any(f := D.multiply(e, L))]
    _sanity_check(D, idempotents)
    return idempotents


def _character(D, e, size):
    """The group-like g of the character on block e, or None if it has none.

    ``size`` bounds the block's dimension: chi(f) e = (f e)^(p^K) for the
    least p^K >= size, and a block whose residue field is larger than F_p
    gives no multiple of e.
    """
    p = D.B.prime
    pivot = next(k for k, x in enumerate(e) if x)
    inv = pow(e[pivot], -1, p)
    frobenius_steps = 0
    while p ** frobenius_steps < size:
        frobenius_steps += 1
    chi = []
    for m in D.basis:
        x = D.multiply(D.dual_basis_vector(m), e)
        for _ in range(frobenius_steps):
            if not any(x):
                break
            x = _power(D, x, p)
        c = x[pivot] * inv % p
        if any((y - c * z) % p for y, z in zip(x, e)):
            return None
        chi.append(c)
    return D.B.element(dict(zip(D.basis, chi)))


def characters_are_blockwise(D):
    """Whether each block of H^dual carries at most one character.

    True when H is cocommutative (H^dual is commutative: every block is local)
    or connected graded, i.e. every coproduct is degree-homogeneous (H^dual is
    graded with F_p in degree 0, hence local).  Both are read off the table.
    """
    deg = [D.B.degree_of(m) for m in D.basis]
    tables = D._table()
    return (all(Counter((i, j, c) for i, j, c in terms)
                == Counter((j, i, c) for i, j, c in terms) for terms in tables)
            or all(deg[i] + deg[j] == deg[k]
                   for k, terms in enumerate(tables) for i, j, _ in terms))


def grouplikes(D):
    """The group-likes of H, one per block of H^dual with residue field F_p,
    sorted by their terms.  Exact only where ``characters_are_blockwise``."""
    out = []
    for e in _block_idempotents(D):
        g = _character(D, e, D.dim)
        if g is None:
            continue
        if not D.B.is_grouplike(g):
            raise AssertionError(f"character {g} of a block is not group-like")
        out.append(g)
    out.sort(key=lambda g: sorted(g.terms.items()))
    return out


def _label_blocks(D, idempotents):
    """Sort blocks and name them: Tate first, then by (dim, group-like)."""
    blocks = []
    for e in idempotents:
        dim = _block_dim(D, e)
        if D.evaluate(e, D.B.one()) == 1:
            label = "tate"
        elif dim == 1:
            label = f"g:{_character(D, e, 1)}"
        else:
            label = f"dim:{dim}"
        blocks.append(Block(dim, label, tuple(e)))
    blocks.sort(key=lambda b: (not b.label == "tate", b.dim, b.label, b.idempotent))
    return blocks


def decompose(B):
    """Block decomposition of H^dual as central primitive idempotents.

    Centre, Frobenius fixed space, Lagrange split (see the module docstring);
    the result always satisfies sum(e_i) = 1, e_i e_j = 0 and is ordered with
    the Tate block first.  A one-dimensional block other than the Tate block
    is labelled by the group-like its character evaluates at.
    """
    D = DualAlgebra(B)
    return _label_blocks(D, _block_idempotents(D))


def _sanity_check(D, idempotents):
    total = [0] * D.dim
    for e in idempotents:
        total = [(x + y) % D.B.prime for x, y in zip(total, e)]
    if tuple(total) != D.unit():
        raise AssertionError("block idempotents do not sum to the unit")
    for i, e in enumerate(idempotents):
        if D.multiply(e, e) != tuple(e):
            raise AssertionError("block element is not idempotent")
        for f in idempotents[i + 1:]:
            if any(D.multiply(e, f)) or any(D.multiply(f, e)):
                raise AssertionError("block idempotents are not orthogonal")


def tate_block(blocks):
    for b in blocks:
        if b.label == "tate":
            return b
    raise ValueError("no Tate block found")
