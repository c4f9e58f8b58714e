"""The dual algebra of a finite-dimensional bialgebra and its block structure.

H^dual carries the convolution product (f * g)(m) = (f (x) g)(Delta m); in
the dual basis {f_m} of the monomial basis the structure constants are the
coproduct coefficients of H, so everything here is exact linear algebra over
F_p.  Every bialgebra, a J-quotient included, gives its table one way: from
its own coproducts of its basis monomials.  Evaluation at a group-like
element of H is an algebra character, which is how blocks get their names:
the unique block whose idempotent evaluates to 1 on 1_H is the Tate block,
and every one-dimensional block is evaluation at some group-like.

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
blocks of its abelianization C = H^dual / H^dual [H^dual, H^dual].  The
ideal is the commutator span closed under left multiplication by a
generating set G of H^dual, the basis vectors kept in index order that the
earlier ones do not generate: about dim |G| + dim I |G| products in all.  C
is commutative, so each block is local and carries at most one character: on
a block e with residue field F_p, chi(f) e = (f e)^(p^K) = f^(p^K) e once p^K
is at least the block's dimension.  Both run on ``TableAlgebra``, an algebra
given by its structure constants: ``table[i][j]`` is the nonzero product
b_i b_j, and it and every element are sparse {k: c} dicts, the row format
of ``_linalg``.  Only ``Block.idempotent`` is a dense coordinate tuple.

``coefficient_generators`` builds the same table on a Delta-closed set of
monomials instead of the basis: the dual of the subcoalgebra they span,
whose generators give the comodule equations of ``comod``.  Its answer is
kept on the bialgebra per set of monomials asked about.

What a call can already know is not computed again.  The dual table is
built once per presentation and kept on the bialgebra, as its coproducts
are, and a ``TableAlgebra`` keeps its structure: its commutators, scanned
once for both, its centre and its abelianization (C and the projection).
A commutative A is its own abelianization, so its table is not copied and
``grouplikes`` splits the very centre ``decompose`` kept.  Answers are not
kept: each call finds its own Frobenius fixed space, idempotents, block
labels and characters and runs ``_sanity_check`` and the group-like check
on them, so every answer is checked where it is given, and no caller holds
a list that a later call returns.  What stays per call is cut instead: the
Lagrange loop stops at the block count, and one Frobenius image per basis
vector serves every block's character.  The last block's dimension is
dim D less the others': the idempotents are already checked to split the
unit into orthogonal parts.
"""

from __future__ import annotations

from functools import cached_property

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

    @cached_property
    def commutators(self):
        """{(i, j): [b_i, b_j]} over the pairs i < j whose commutator is
        nonzero; empty exactly when the algebra is commutative."""
        p, table = self.p, self.table
        out = {}
        for i, row in enumerate(table):
            for j, ij in row.items():
                ji = table[j].get(i)
                if i < j and ij != ji:
                    out[i, j] = _sum(p, (1, ij), (-1, ji or {}))
                elif j < i and ji is None:
                    out[j, i] = _sum(p, (-1, ij))
        return out

    @cached_property
    def centre(self):
        """A basis of the centre, found once per algebra (``_centre``)."""
        return _centre(self)

    @cached_property
    def abelianization(self):
        """(C, proj) for C = A / A [A, A], found once per algebra
        (``_abelianization``)."""
        return _abelianization(self)

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
        """v^n by square-and-multiply, from the first factor met; the unit
        only for n = 0."""
        out = None
        while n:
            if n & 1:
                out = v if out is None else self.multiply(out, v)
            n >>= 1
            if n:
                v = self.multiply(v, v)
        return self.unit if out is None else out

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


class DualAlgebra(TableAlgebra):
    """H^dual with the convolution product, in the dual monomial basis: the
    b_k coefficient of f_i f_j is that of m_i (x) m_j in Delta(m_k), read
    off B's memoized ``coproduct_mono``.  ``_dual_algebra`` keeps one per
    bialgebra object."""

    def __init__(self, B):
        self.B = B
        self.basis = B.basis()
        self.index, table = _dual_table(B, self.basis)
        super().__init__(B.prime, len(table),
                         self.dual_basis_vector(B.unit_mono), table)

    def dual_basis_vector(self, mono):
        return {self.index[tuple(mono)]: 1}


def _dual_table(B, monos):
    """({monomial: index}, table) of the dual of span(monos), which must be
    closed under Delta: the b_k coefficient of f_i f_j is that of
    m_i (x) m_j in Delta(m_k)."""
    index, table = {m: i for i, m in enumerate(monos)}, [{} for _ in monos]
    for k, m in enumerate(monos):
        for (lm, rm), c in B.coproduct_mono(m).terms.items():
            table[index[lm]].setdefault(index[rm], {})[k] = c
    return index, table


def _dual_algebra(B):
    """B's dual algebra, built on first use and kept on B beside its
    coproduct and product tables: B's coproducts never change."""
    if B._dual is None:
        B._dual = DualAlgebra(B)
    return B._dual


def _generators(A):
    """The b_m, in index order, that are not in the subalgebra generated by
    the b_m kept before them: a generating set of A.

    That subalgebra is the span of the unit closed under left multiplication
    by the kept b_m, so each of its basis vectors is multiplied by each
    generator once: about dim |G| products.
    """
    sub, gens = _linalg.Echelon(A.dim, A.p), []
    spanned = sub.add_closure([A.unit], gens, A.multiply)
    for m in range(A.dim):
        if len(spanned) == A.dim:
            break
        b = {m: 1}
        if new := sub.add_closure([b], gens, A.multiply):
            gens.append(b)
            spanned += new
            spanned += sub.add_closure([A.multiply(b, v) for v in spanned],
                                       gens, A.multiply)
    return gens


def coefficient_generators(B, monos):
    """1 and the monomials h whose f_h generate the dual of C, as a frozenset:
    C is the subcoalgebra spanned by the closure of ``monos`` and 1 under
    taking both factors of each coproduct term.

    C's dual is built on that closure alone, never on B's basis, with unit
    f_1 (the counit is the coefficient of 1), and ``_generators`` picks G in
    (degree, monomial) order.  A comodule whose coaction lies in C (x) M is
    a module over C^dual, so G and the unit give all its equations.  The
    answer is kept on B per set of monomials, as B's dual is.
    """
    key = frozenset(monos)
    if key in B._coefficient_generators:
        return B._coefficient_generators[key]
    unit = B.unit_mono
    closed = {unit, *key}
    todo = list(closed)
    while todo:
        for pair in B.coproduct_mono(todo.pop()).terms:
            for m in pair:
                if m not in closed:
                    closed.add(m)
                    todo.append(m)
    order = sorted(closed, key=lambda m: (B.degree_of(m), m))
    index, table = _dual_table(B, order)
    A = TableAlgebra(B.prime, len(order), {index[unit]: 1}, table)
    out = B._coefficient_generators[key] = frozenset(
        [unit] + [order[k] for g in _generators(A) for k in g])
    return out


def _abelianization(A):
    """C = A / I for I = A [A, A], and the image in C of each basis vector of A.

    A character of A kills I.  This left ideal is two-sided, because
    [a, b] c = [a, bc] - b [a, c], so I is the span of the commutators
    closed under left multiplication by a generating set G of A
    (``_generators``), which takes about dim |G| + dim I |G| products.  C's
    basis is the non-pivot columns of I's echelon; its table is A's on
    non-pivot pairs, each product projected mod I.  A commutative A has
    I = 0, so C is A itself and each b_k maps to itself.
    """
    p, dim = A.p, A.dim
    if not A.commutators:
        return A, [{k: 1} for k in range(dim)]
    ideal = _linalg.Echelon(dim, p)
    ideal.add_closure(_linalg.rref(list(A.commutators.values()), dim, p)[0],
                      _generators(A), A.multiply)
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
    D = _dual_algebra(B)
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
    for (i, j), w in A.commutators.items():
        for k, c in w.items():
            rows.setdefault((j, k), {})[i] = c
            rows.setdefault((i, k), {})[j] = -c
    return _linalg.kernel_basis(list(rows.values()), A.dim, A.p)


def _block_idempotents(A):
    """Central primitive idempotents of A, in no fixed order.

    The centre Z is the direct sum of its local blocks Z e, and on each the
    solutions of z^p = z are the line F_p e: such a z less c e, for c its
    residue (in F_p, as c^p = c), is fixed and in the maximal ideal, hence
    nilpotent and equal to its own p^n-th power, 0.  So the fixed space has
    one dimension per block (Berlekamp).  Once the split holds that many
    idempotents, every later s is constant on each block and splits
    nothing, so the loop stops there with the same list in the same order.
    """
    p, unit = A.p, A.unit
    centre = A.centre
    # the fixed space of Frobenius on Z: the relations among the z^p - z
    fixed = [_sum(p, *((a, centre[n]) for n, a in coeffs.items()))
             for coeffs in _relations([_sum(p, (1, A.power(z, p)), (-1, z))
                                       for z in centre], p)]
    idempotents = [unit]
    for s in fixed:
        if len(idempotents) == len(fixed):
            break
        # 1 - (s - c)^(p-1) is the sum of the blocks on which s equals c
        lagrange = [_sum(p, (1, unit),
                         (-1, A.power(_sum(p, (1, s), (-c, unit)), p - 1)))
                    for c in range(p)]
        idempotents = [f for e in idempotents for L in lagrange
                       if (f := A.multiply(e, L))]
    _sanity_check(A, idempotents)
    return idempotents


def _frobenius_images(A, size):
    """Phi(b_m) = b_m^(p^K) for each basis vector, for the least p^K >= size
    (p-th powers K times, stopping at 0)."""
    p = A.p
    steps = next(k for k in range(size + 1) if p ** k >= size)
    out = []
    for m in range(A.dim):
        x = {m: 1}
        for _ in range(steps):
            if not x:
                break
            x = A.power(x, p)
        out.append(x)
    return out


def _character(A, e, images):
    """The coefficients chi(b_k) of the character on block e, or None if it
    has none: ``images[k] e`` must be chi(b_k) e.

    On a commutative A, ``images`` comes from ``_frobenius_images(A, size)``
    with size at least the block's dimension.  Frobenius is then a ring
    endomorphism and e^p = e, so Phi(b_k) e = (b_k e)^(p^K): one image per
    basis vector serves every block.  If the block's residue field is F_p,
    b_k e = chi(b_k) e + n with n nilpotent of index at most p^K, and the
    power is chi(b_k) e; if it is larger, some b_k has a residue outside
    F_p and its power is no multiple of e.  The unit vectors as ``images``
    (K = 0) read chi off b_k e, which is exact on a one-dimensional block of
    any A.
    """
    p = A.p
    pivot = min(e)
    inv = pow(e[pivot], -1, p)
    chi = []
    for x in images:
        x = A.multiply(x, e)
        c = x.get(pivot, 0) * inv % p
        if x != _sum(p, (c, e)):
            return None
        chi.append(c)
    return chi


def grouplikes(B):
    """The group-likes of H, sorted by their terms: one per block of the
    abelianization C of H^dual with residue field F_p, its character pulled
    back to H^dual (see the module docstring)."""
    D = _dual_algebra(B)
    C, proj = D.abelianization
    images = _frobenius_images(C, C.dim)
    out = []
    for e in _block_idempotents(C):
        chi = _character(C, e, images)
        if chi is None:
            continue
        g = B.element({m: sum(d * chi[n] for n, d in proj[k].items())
                       for k, m in enumerate(D.basis)})
        if not B.is_grouplike(g):
            raise AssertionError(  # pragma: no cover - invariant: characters are group-like
                f"character {g} of a block is not group-like")
        out.append(g)
    out.sort(key=lambda g: sorted(g.terms.items()))
    return out


def _label_blocks(D, idempotents):
    """Sort blocks and name them: Tate first, then by (dim, group-like).

    ``_sanity_check`` has shown the e_i orthogonal idempotents summing to 1,
    so D is the direct sum of the D e_i, and the last block's dimension is
    D.dim less the others'.
    """
    dims = [_block_dim(D, e) for e in idempotents[:-1]]
    dims.append(D.dim - sum(dims))
    blocks = []
    for e, dim in zip(idempotents, dims):
        if e.get(D.index[D.B.unit_mono]) == 1:
            label = "tate"
        elif dim == 1:
            chi = _character(D, e, [{m: 1} for m in range(D.dim)])
            label = f"g:{D.B.element(dict(zip(D.basis, chi)))}"
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
    D = _dual_algebra(B)
    return _label_blocks(D, _block_idempotents(D))


def _sanity_check(A, idempotents):
    if _sum(A.p, *((1, e) for e in idempotents)) != A.unit:
        raise AssertionError(  # pragma: no cover - invariant: the split keeps the sum
            "block idempotents do not sum to the unit")
    for i, e in enumerate(idempotents):
        if A.multiply(e, e) != e:
            raise AssertionError(  # pragma: no cover - invariant: e^2 = e for each block
                "block element is not idempotent")
        for f in idempotents[i + 1:]:
            if A.multiply(e, f) or A.multiply(f, e):
                raise AssertionError(  # pragma: no cover - invariant: e f = 0 for distinct blocks
                    "block idempotents are not orthogonal")


def tate_block(blocks):
    for b in blocks:
        if b.label == "tate":
            return b
    raise ValueError("no Tate block found")
