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
blocks of its abelianization C = H^dual / H^dual [H^dual, H^dual].  C is
commutative, so each block is local and carries at most one character: on a
block e with residue field F_p, chi(f) e = (f e)^(p^K) once p^K is at least
the block's dimension.  Both run on ``TableAlgebra``, an algebra given by
its structure constants.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import _linalg


# -- the algebra kernel ---------------------------------------------------------


class TableAlgebra:
    """A finite-dimensional associative F_p-algebra with basis b_0 .. b_(dim-1):
    ``table[k]`` lists the (i, j, c) with c the b_k coefficient of b_i b_j.
    Elements are coordinate tuples; ``unit`` is the unit's."""

    def __init__(self, p, dim, unit, table):
        self.p, self.dim, self.unit, self.table = p, dim, tuple(unit), table

    def multiply(self, u, v):
        out = [0] * self.dim
        for k, terms in enumerate(self.table):
            acc = 0
            for i, j, c in terms:
                if u[i] and v[j]:
                    acc += u[i] * v[j] * c
            out[k] = acc % self.p
        return tuple(out)

    def left_multiples(self, v):
        """{m: b_m v} from one walk over the table, for each m that occurs
        in a term; a product is a dict {k: c}, c not reduced mod p."""
        out = {}
        for k, terms in enumerate(self.table):
            for i, j, c in terms:
                if v[j]:
                    row = out.setdefault(i, {})
                    row[k] = row.get(k, 0) + c * v[j]
        return out

    def power(self, v, n):
        """v^n by square-and-multiply."""
        out = self.unit
        while n:
            if n & 1:
                out = self.multiply(out, v)
            n >>= 1
            if n:
                v = self.multiply(v, v)
        return out

    def minimal_polynomial(self, v):
        """Monic minimal polynomial of v, ascending coefficient list: the one
        kernel vector of the powers 1, v, .., v^d, which is 1 at v^d."""
        powers = [self.unit]
        ech = _linalg.Echelon(self.dim, self.p)
        while ech.add(dict(enumerate(powers[-1]))):
            powers.append(self.multiply(powers[-1], v))
        rows = [{i: x[k] for i, x in enumerate(powers)} for k in range(self.dim)]
        (kernel,) = _linalg.kernel_basis(rows, len(powers), self.p)
        return [kernel.get(i, 0) for i in range(len(powers))]

    def substitute(self, coeffs, v):
        """Evaluate a polynomial (ascending coeffs) at v."""
        p = self.p
        out = [0] * self.dim
        power = self.unit
        for i, c in enumerate(coeffs):
            if c % p:
                out = [(x + c * y) % p for x, y in zip(out, power)]
            if i + 1 < len(coeffs):
                power = self.multiply(power, v)
        return tuple(out)


class DualAlgebra(TableAlgebra):
    """H^dual with the convolution product, in the dual monomial basis: the
    b_k coefficient of f_i f_j is that of m_i (x) m_j in Delta(m_k)."""

    def __init__(self, B):
        self.B = B
        self.basis = B.basis()
        self.index = {m: i for i, m in enumerate(self.basis)}
        table = [[(self.index[lm], self.index[rm], c)
                  for (lm, rm), c in B.coproduct_mono(m).terms.items()]
                 for m in self.basis]
        super().__init__(B.prime, len(table),
                         self.dual_basis_vector(B.unit_mono), table)

    def dual_basis_vector(self, mono):
        return tuple(int(m == tuple(mono)) for m in self.basis)


def _abelianization(A):
    """C = A / I for I = A [A, A], and the image in C of each basis vector of A.

    A character of A kills I.  This left ideal is two-sided, because
    [a, b] c = [a, bc] - b [a, c], so I is spanned by the b_a v for v in a
    basis of the commutators.  C's basis is the non-pivot columns of I's
    echelon; its table is A's on non-pivot pairs, each output projected mod I.
    """
    p, dim = A.p, A.dim
    commutators = {}  # (i, j) with i < j -> [b_i, b_j] as {k: c}
    for k, terms in enumerate(A.table):
        for i, j, c in terms:
            if i != j:
                pair, c = ((i, j), c) if i < j else ((j, i), -c)
                commutators.setdefault(pair, Counter())[k] += c
    ideal = _linalg.Echelon(dim, p)
    for v in _linalg.rref(list(commutators.values()), dim, p)[0]:
        for w in A.left_multiples(tuple(v.get(k, 0) for k in range(dim))).values():
            ideal.add(w)
    pos = {k: n for n, k in enumerate(k for k in range(dim) if k not in ideal.rows)}
    proj = [{pos[k]: 1} if k in pos else {} for k in range(dim)]
    for k, row in ideal.rows.items():
        proj[k] = {pos[f]: -c % p for f, c in row.items() if f != k}
    table = [Counter() for _ in pos]
    for k, terms in enumerate(A.table):
        for i, j, c in terms:
            if i in pos and j in pos:
                for n, d in proj[k].items():
                    table[n][pos[i], pos[j]] += c * d
    unit = [sum(x * proj[k].get(n, 0) for k, x in enumerate(A.unit)) % p
            for n in range(len(pos))]
    C = TableAlgebra(p, len(pos), unit,
                     [[(i, j, c % p) for (i, j), c in t.items() if c % p]
                      for t in table])
    return C, proj


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


def _block_dim(A, e):
    # rank of f -> e*f, spanned by the b_m*e as e is central
    return len(_linalg.rref(list(A.left_multiples(e).values()), A.dim, A.p)[0])


def _centre(A):
    """Basis of the centre: the u with u*b_j = b_j*u for every basis vector b_j.

    Coordinate k of u*b_j - b_j*u is sum_i u_i (c^k_ij - c^k_ji), one row per
    (j, k), to which a term with i = j adds nothing.  The rows of one k are
    reduced before the next k is read; for a commutative A they all vanish
    and Z is the whole of A.
    """
    ech = _linalg.Echelon(A.dim, A.p)
    for terms in A.table:
        rows = {}
        for i, j, c in terms:
            if i != j:
                row = rows.setdefault(j, {})
                row[i] = row.get(i, 0) + c
                row = rows.setdefault(i, {})
                row[j] = row.get(j, 0) - c
        for row in rows.values():
            ech.add(row)
    return [tuple(v.get(k, 0) for k in range(A.dim)) for v in ech.kernel()]


def _block_idempotents(A):
    """Central primitive idempotents of A, in no fixed order."""
    p = A.p
    centre = _centre(A)
    # the fixed space of Frobenius on Z: kernel of z -> z^p - z
    moved = [[(x - y) % p for x, y in zip(A.power(z, p), z)] for z in centre]
    fixed = [[sum(a * centre[n][k] for n, a in coeffs.items()) % p
              for k in range(A.dim)]
             for coeffs in _linalg.kernel_basis(
                 [dict(enumerate(row)) for row in zip(*moved)], len(centre), p)]
    idempotents = [A.unit]
    for s in fixed:
        # 1 - (s - c)^(p-1) is the sum of the blocks on which s equals c
        lagrange = []
        for c in range(p):
            shifted = tuple((x - c * u) % p for x, u in zip(s, A.unit))
            lagrange.append(tuple((u - x) % p for u, x in
                                  zip(A.unit, A.power(shifted, p - 1))))
        idempotents = [f for e in idempotents for L in lagrange
                       if any(f := A.multiply(e, L))]
    _sanity_check(A, idempotents)
    return idempotents


def _character(A, e, size):
    """The coefficients chi(b_k) of the character on block e, or None if it
    has none.

    ``size`` bounds the block's dimension: chi(f) e = (f e)^(p^K) for the
    least p^K >= size, and a block whose residue field is larger than F_p
    gives no multiple of e.
    """
    p = A.p
    pivot = next(k for k, x in enumerate(e) if x)
    inv = pow(e[pivot], -1, p)
    frobenius_steps = next(k for k in range(size + 1) if p ** k >= size)
    left = A.left_multiples(e)
    chi = []
    for m in range(A.dim):
        row = left.get(m, {})
        x = tuple(row.get(k, 0) % p for k in range(A.dim))
        for _ in range(frobenius_steps):
            if not any(x):
                break
            x = A.power(x, p)
        c = x[pivot] * inv % p
        if any((y - c * z) % p for y, z in zip(x, e)):
            return None
        chi.append(c)
    return chi


def grouplikes(B):
    """The group-likes of H, sorted by their terms: one per block of the
    abelianization C of H^dual with residue field F_p, its character pulled
    back to H^dual (see the module docstring)."""
    D = DualAlgebra(B)
    C, proj = _abelianization(D)
    out = []
    for e in _block_idempotents(C):
        chi = _character(C, e, C.dim)
        if chi is None:
            continue
        g = B.element({m: sum(d * chi[n] for n, d in proj[k].items())
                       for k, m in enumerate(D.basis)})
        if not B.is_grouplike(g):
            raise AssertionError(f"character {g} of a block is not group-like")
        out.append(g)
    out.sort(key=lambda g: sorted(g.terms.items()))
    return out


def _label_blocks(D, idempotents):
    """Sort blocks and name them: Tate first, then by (dim, group-like)."""
    blocks = []
    for e in idempotents:
        dim = _block_dim(D, e)
        if e[D.index[D.B.unit_mono]] == 1:
            label = "tate"
        elif dim == 1:
            label = f"g:{D.B.element(dict(zip(D.basis, _character(D, e, 1))))}"
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


def _sanity_check(A, idempotents):
    if tuple(sum(col) % A.p for col in zip(*idempotents)) != A.unit:
        raise AssertionError("block idempotents do not sum to the unit")
    for i, e in enumerate(idempotents):
        if A.multiply(e, e) != tuple(e):
            raise AssertionError("block element is not idempotent")
        for f in idempotents[i + 1:]:
            if any(A.multiply(e, f)) or any(A.multiply(f, e)):
                raise AssertionError("block idempotents are not orthogonal")


def tate_block(blocks):
    for b in blocks:
        if b.label == "tate":
            return b
    raise ValueError("no Tate block found")
