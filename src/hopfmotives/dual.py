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
its structure constants: ``table[i][j]`` is the nonzero product b_i b_j,
and it and every element are sparse {k: c} dicts, the row format of
``_linalg``.  Only ``Block.idempotent`` is a dense coordinate tuple.
"""

from __future__ import annotations

from . import _linalg
from .algebra import _mod_sum


# -- the algebra kernel ---------------------------------------------------------


class TableAlgebra:
    """A finite-dimensional associative F_p-algebra with basis b_0 .. b_(dim-1).

    ``table[i][j]`` is the product b_i b_j as a dict {k: c}, stored only when
    it is nonzero.  Every element, ``unit`` included, is a dict {k: c} holding
    only its nonzero coordinates, each in 1..p-1.
    """

    def __init__(self, p, dim, unit, table):
        self.p, self.dim, self.unit, self.table = p, dim, unit, table

    def multiply(self, u, v):
        p, table = self.p, self.table
        out = {}
        for i, a in u.items():
            row = table[i]
            for j, b in v.items():
                prod = row.get(j)
                if prod:
                    ab = a * b
                    for k, c in prod.items():
                        out[k] = (out.get(k, 0) + ab * c) % p
        return {k: c for k, c in out.items() if c}

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
        relation among the powers 1, v, .., v^d, which is 1 at v^d."""
        powers = [self.unit]
        ech = _linalg.Echelon(self.dim, self.p)
        while ech.add(powers[-1]):
            powers.append(self.multiply(powers[-1], v))
        (relation,) = _relations(powers, self.p)
        return [relation.get(n, 0) for n in range(len(powers))]


def _sum(p, *terms):
    """The linear combination sum c v of the (c, v) pairs, reduced mod p."""
    return _mod_sum(p, ((k, c * x) for c, v in terms for k, x in v.items()))


def _relations(vectors, p):
    """Basis of the a = {n: a_n} with sum a_n v_n = 0."""
    rows = {}  # coordinate k -> {n: k-th coordinate of v_n}
    for n, v in enumerate(vectors):
        for k, c in v.items():
            rows.setdefault(k, {})[n] = c
    return _linalg.kernel_basis(list(rows.values()), len(vectors), p)


def _commutators(A):
    """{(i, j): [b_i, b_j]} over the pairs i < j whose commutator is nonzero;
    empty exactly when A is commutative."""
    p, table = A.p, A.table
    out = {}
    for i, row in enumerate(table):
        for j, ij in row.items():
            ji = table[j].get(i)
            if i < j and ij != ji:
                out[i, j] = _sum(p, (1, ij), (-1, ji or {}))
            elif j < i and ji is None:
                out[j, i] = _sum(p, (-1, ij))
    return out


class DualAlgebra(TableAlgebra):
    """H^dual with the convolution product, in the dual monomial basis: the
    b_k coefficient of f_i f_j is that of m_i (x) m_j in Delta(m_k)."""

    def __init__(self, B):
        self.B = B
        self.basis = B.basis()
        self.index = {m: i for i, m in enumerate(self.basis)}
        table = [{} for _ in self.basis]
        for k, m in enumerate(self.basis):
            for (lm, rm), c in B.coproduct_mono(m).terms.items():
                table[self.index[lm]].setdefault(self.index[rm], {})[k] = c
        super().__init__(B.prime, len(table),
                         self.dual_basis_vector(B.unit_mono), table)

    def dual_basis_vector(self, mono):
        return {self.index[tuple(mono)]: 1}


def _abelianization(A):
    """C = A / I for I = A [A, A], and the image in C of each basis vector of A.

    A character of A kills I.  This left ideal is two-sided, because
    [a, b] c = [a, bc] - b [a, c], so I is spanned by the b_m v for v in a
    basis of the commutators.  C's basis is the non-pivot columns of I's
    echelon; its table is A's on non-pivot pairs, each product projected mod I.
    """
    p, dim = A.p, A.dim
    ideal = _linalg.Echelon(dim, p)
    for v in _linalg.rref(list(_commutators(A).values()), dim, p)[0]:
        for m in range(dim):
            ideal.add(A.multiply({m: 1}, v))
    pos = {k: n for n, k in enumerate(k for k in range(dim) if k not in ideal.rows)}
    proj = [{pos[k]: 1} if k in pos else {} for k in range(dim)]
    for k, row in ideal.rows.items():
        proj[k] = {pos[f]: -c % p for f, c in row.items() if f != k}

    def project(v):
        return _sum(p, *((c, proj[k]) for k, c in v.items()))

    table = [{} for _ in pos]
    for i, n in pos.items():
        for j, prod in A.table[i].items():
            if j in pos and (w := project(prod)):
                table[n][pos[j]] = w
    return TableAlgebra(p, len(pos), project(A.unit), table), proj


def dual_presentation(B):
    """Present H^dual as F_p[y]/(minimal polynomial) when some dual-basis
    functional generates it; returns the ascending monic coefficient list."""
    D = DualAlgebra(B)
    for m in D.basis:
        mu = D.minimal_polynomial(D.dual_basis_vector(m))
        if len(mu) - 1 == D.dim:
            return mu
    raise ValueError("dual algebra is not generated by a single "
                     "dual-basis functional")


class Block:
    def __init__(self, dim, label, idempotent):
        self.dim = dim
        self.label = label
        self.idempotent = idempotent  # dense coordinates, read by the block sort key


def _block_dim(A, e):
    # rank of f -> e*f, spanned by the b_m*e as e is central
    return len(_linalg.rref([A.multiply({m: 1}, e) for m in range(A.dim)],
                            A.dim, A.p)[0])


def _centre(A):
    """Basis of the centre: the u with u*b_j = b_j*u for every basis vector b_j.

    Coordinate k of u*b_j - b_j*u is sum_i u_i [b_i, b_j]_k: one row per
    (j, k), read off the nonzero commutators.  For a commutative A there are
    none, and Z is the whole of A.
    """
    rows = {}  # (j, k) -> {i: [b_i, b_j]_k}
    for (i, j), w in _commutators(A).items():
        for k, c in w.items():
            rows.setdefault((j, k), {})[i] = c
            rows.setdefault((i, k), {})[j] = -c
    return _linalg.kernel_basis(list(rows.values()), A.dim, A.p)


def _block_idempotents(A):
    """Central primitive idempotents of A, in no fixed order."""
    p, unit = A.p, A.unit
    centre = _centre(A)
    # the fixed space of Frobenius on Z: the relations among the z^p - z
    fixed = [_sum(p, *((a, centre[n]) for n, a in coeffs.items()))
             for coeffs in _relations([_sum(p, (1, A.power(z, p)), (-1, z))
                                       for z in centre], p)]
    idempotents = [unit]
    for s in fixed:
        # 1 - (s - c)^(p-1) is the sum of the blocks on which s equals c
        lagrange = [_sum(p, (1, unit),
                         (-1, A.power(_sum(p, (1, s), (-c, unit)), p - 1)))
                    for c in range(p)]
        idempotents = [f for e in idempotents for L in lagrange
                       if (f := A.multiply(e, L))]
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
    pivot = min(e)
    inv = pow(e[pivot], -1, p)
    frobenius_steps = next(k for k in range(size + 1) if p ** k >= size)
    chi = []
    for m in range(A.dim):
        x = A.multiply({m: 1}, e)
        for _ in range(frobenius_steps):
            if not x:
                break
            x = A.power(x, p)
        c = x.get(pivot, 0) * inv % p
        if x != _sum(p, (c, e)):
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
        if e.get(D.index[D.B.unit_mono]) == 1:
            label = "tate"
        elif dim == 1:
            label = f"g:{D.B.element(dict(zip(D.basis, _character(D, e, 1))))}"
        else:
            label = f"dim:{dim}"
        blocks.append(Block(dim, label, tuple(e.get(k, 0) for k in range(D.dim))))
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
    if _sum(A.p, *((1, e) for e in idempotents)) != A.unit:
        raise AssertionError("block idempotents do not sum to the unit")
    for i, e in enumerate(idempotents):
        if A.multiply(e, e) != e:
            raise AssertionError("block element is not idempotent")
        for f in idempotents[i + 1:]:
            if A.multiply(e, f) or A.multiply(f, e):
                raise AssertionError("block idempotents are not orthogonal")


def tate_block(blocks):
    for b in blocks:
        if b.label == "tate":
            return b
    raise ValueError("no Tate block found")
