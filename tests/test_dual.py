"""Dual algebras: minimal polynomials, idempotent block decompositions and
group-likes.

Minimal polynomials are cross-checked against sympy ranks; blocks and
group-likes against exhaustive searches over F_p^dim, run where that space
is small.
"""

from __future__ import annotations

import itertools

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from hopfmotives import catalog
from hopfmotives.algebra import (Bialgebra, Element, GeneratorDecl,
                                 TensorElement)
from hopfmotives._linalg import kernel_basis
from hopfmotives.dual import (DualAlgebra, _abelianization, decompose,
                              dual_presentation, tate_block)
from hopfmotives.jinv import quotient_bialgebra


# -- dual algebra structure -------------------------------------------------------

def sympy_rank_mod_p(rows, p):
    # Matrix.rank on GF(p) entries can overcount (it gives 2 for
    # [[1, 0, 2], [2, 0, 1]] at p = 3); DomainMatrix eliminates over GF(p)
    if not rows:
        return 0
    field = sympy.GF(p)
    return DomainMatrix([[field(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), field).rank()


def brute_minpoly(D, v):
    """Minimal polynomial of v by stacking powers until they go dependent
    (rank over GF(p) computed by sympy), then brute-forcing the dependency.
    The catalog duals used here are tiny, so p^k search is instant."""
    p = D.B.prime
    rows = [list(D.unit)]
    power = D.unit
    while True:
        power = D.multiply(power, v)
        if sympy_rank_mod_p(rows + [list(power)], p) == len(rows):
            break
        rows.append(list(power))
    k = len(rows)
    for cand in itertools.product(range(p), repeat=k):
        combo = [0] * D.dim
        for c, row in zip(cand, rows):
            combo = [(x + c * y) % p for x, y in zip(combo, row)]
        if combo == [x % p for x in power]:
            return [(-c) % p for c in cand] + [1]
    raise AssertionError("dependency must exist at the break point")


@pytest.mark.parametrize("key", ["k0.pgl3", "morava.rost.mod2",
                                 "k2.e8.mod3.a1", "k2.e8.mod3.a2"])
def test_minimal_polynomial_against_power_dependence(key):
    B = catalog.get(key)
    D = DualAlgebra(B)
    for mono in B.basis():
        v = D.dual_basis_vector(mono)
        mp = D.minimal_polynomial(v)
        assert D.substitute(mp, v) == tuple([0] * D.dim)
        assert list(mp) == brute_minpoly(D, v)


def test_dual_multiplication_is_commutative_and_unital():
    B = catalog.get("e8.mod3")
    D = DualAlgebra(B)
    basis = B.basis()
    u = D.dual_basis_vector(basis[1])
    v = D.dual_basis_vector(basis[3])
    assert D.multiply(u, v) == D.multiply(v, u)
    assert D.multiply(D.unit, u) == u


def test_dual_presentation_of_a_k_theory_entry():
    minpoly = dual_presentation(catalog.get("k0.pgl3"))
    assert len(minpoly) - 1 == 3
    # F_3[y]/(y^3 - y): split semisimple, as the group algebra of Z/3 must be
    assert list(minpoly) == [0, 2, 0, 1]


def test_dual_presentation_can_fail():
    with pytest.raises(ValueError, match="single"):
        dual_presentation(catalog.get("e8.mod3"))


# -- block decompositions ---------------------------------------------------------

def test_rost_blocks():
    blocks = decompose(catalog.get("morava.rost.mod2"))
    assert [(b.dim, b.label) for b in blocks] == \
        [(1, "tate"), (1, "g:1 + x")]


def test_trivial_bialgebra_has_only_the_tate_block():
    blocks = decompose(catalog.get("k0.sc.mod2"))
    assert [(b.dim, b.label) for b in blocks] == [(1, "tate")]


@pytest.mark.parametrize("p,key", [(2, "k0.pgl2"), (3, "k0.pgl3"),
                                   (5, "k0.pgl5")])
def test_pgl_blocks_are_all_one_dimensional(p, key):
    blocks = decompose(catalog.get(key))
    assert len(blocks) == p
    assert all(b.dim == 1 for b in blocks)
    assert blocks[0].label == "tate"
    assert all(b.label.startswith("g:") for b in blocks[1:])


def test_e8_mod3_block_shapes_depend_on_the_parameter():
    a1 = decompose(catalog.get("k2.e8.mod3.a1"))
    assert [(b.dim, b.label) for b in a1] == [(1, "tate"), (2, "dim:2")]
    a2 = decompose(catalog.get("k2.e8.mod3.a2"))
    assert [b.dim for b in a2] == [1, 1, 1]
    assert a2[0].label == "tate"


def test_e8_mod5_blocks():
    blocks = decompose(catalog.get("k2.e8.mod5.a1"))
    assert [b.dim for b in blocks] == [1, 2, 2]
    assert tate_block(blocks) is blocks[0]


def test_blocks_partition_the_dimension():
    for key in ("k0.pgl5", "k2.e8.mod3.a1", "k2.e8.mod5.a3",
                "morava.rost.mod2"):
        B = catalog.get(key)
        blocks = decompose(B)
        assert sum(b.dim for b in blocks) == B.dimension(), key


def test_decompose_quotient_bialgebra():
    B = quotient_bialgebra(catalog.get("e8.mod3"), (1, 0))
    blocks = decompose(B)
    assert sum(b.dim for b in blocks) == 3
    assert blocks[0].label == "tate"


def test_idempotents_are_orthogonal():
    B = catalog.get("k0.pgl3")
    D = DualAlgebra(B)
    blocks = decompose(B)
    zero = tuple([0] * D.dim)
    for i, bi in enumerate(blocks):
        assert D.multiply(bi.idempotent, bi.idempotent) == tuple(bi.idempotent)
        for bj in blocks[i + 1:]:
            assert D.multiply(bi.idempotent, bj.idempotent) == zero
    total = [0] * D.dim
    for b in blocks:
        total = [(x + y) % 3 for x, y in zip(total, b.idempotent)]
    assert tuple(total) == D.unit


# -- exhaustive oracles -------------------------------------------------------------

ORACLE_BOUND = 4000   # candidates an oracle may enumerate

BIALGEBRA_KEYS = [k for k in catalog.keys() if catalog.kind(k) == "bialgebra"]


def brute_idempotents(D):
    """Central primitive idempotents, by enumerating all of F_p^dim."""
    units = [D.dual_basis_vector(m) for m in D.basis]
    central = [v for v in itertools.product(range(D.B.prime), repeat=D.dim)
               if any(v) and D.multiply(v, v) == v
               and all(D.multiply(v, w) == D.multiply(w, v) for w in units)]
    return [e for e in central
            if not any(f != e and D.multiply(e, f) == f for f in central)]


def square(g):
    return TensorElement(g.alg, g.alg, {(a, b): ca * cb
                                        for a, ca in g.terms.items()
                                        for b, cb in g.terms.items()})


def brute_grouplikes(B):
    """All g with unit coordinate 1 and coproduct g (x) g, by enumerating
    the other p^(dim - 1) coordinates; sorted as find_grouplikes sorts."""
    positive = [m for m in B.basis() if m != B.unit_mono]
    out = []
    for coeffs in itertools.product(range(B.prime), repeat=len(positive)):
        g = Element(B, {B.unit_mono: 1, **dict(zip(positive, coeffs))})
        if B.coproduct(g) == square(g):
            out.append(g)
    return sorted(out, key=lambda g: sorted(g.terms.items()))


def skew_bialgebra(p):
    """F_p[x, y]/(x^p, y^p) with 1 + x group-like and y skew-primitive:
    neither cocommutative nor degree-homogeneous, so a block of the dual may
    hold several characters."""
    one, x, y = (0, 0), (1, 0), (0, 1)
    return Bialgebra(p, (GeneratorDecl("x", 1, p), GeneratorDecl("y", 1, p)),
                     (), {"x": [(1, x, one), (1, one, x), (1, x, x)],
                          "y": [(1, y, one), (1, one, y), (1, x, y)]})


@pytest.mark.parametrize("key", BIALGEBRA_KEYS)
def test_blocks_match_exhaustive_search(key):
    B = catalog.get(key)
    D = DualAlgebra(B)
    if B.prime ** D.dim > ORACLE_BOUND:
        pytest.skip(f"p^dim = {B.prime ** D.dim} over the oracle bound")
    assert sorted(b.idempotent for b in decompose(B)) == \
        sorted(brute_idempotents(D))


@pytest.mark.parametrize("key", BIALGEBRA_KEYS)
def test_grouplikes_match_exhaustive_search(key):
    B = catalog.get(key)
    if B.prime ** (B.dimension() - 1) > ORACLE_BOUND:
        pytest.skip(f"p^(dim-1) = {B.prime ** (B.dimension() - 1)} over "
                    f"the oracle bound")
    assert [g.terms for g in B.find_grouplikes()] == \
        [g.terms for g in brute_grouplikes(B)]


def test_skew_grouplikes_and_blocks_match_exhaustive_search():
    B = skew_bialgebra(2)
    D = DualAlgebra(B)
    assert [g.terms for g in B.find_grouplikes()] == \
        [g.terms for g in brute_grouplikes(B)]
    assert sorted(b.idempotent for b in decompose(B)) == \
        sorted(brute_idempotents(D))


def test_skew_grouplikes_at_p3_match_exhaustive_search():
    B = skew_bialgebra(3)
    assert B.verify()
    gs = B.find_grouplikes()
    assert [g.terms for g in gs] == [g.terms for g in brute_grouplikes(B)]
    assert [str(g) for g in gs] == ["1", "1 + x", "1 + 2*x + x^2"]


def test_skew_grouplikes_at_p5_are_the_powers_of_one_plus_x():
    # p^(dim - 1) = 5^24 candidates: beyond any exhaustive search
    B = skew_bialgebra(5)
    assert B.verify()
    g = B.one() + B.gen("x")
    powers = sorted((g ** k for k in range(5)),
                    key=lambda h: sorted(h.terms.items()))
    assert [h.terms for h in B.find_grouplikes()] == [h.terms for h in powers]


@pytest.mark.parametrize("B,dim", [(catalog.get("e8.mod2"), 64),
                                   (skew_bialgebra(2), 2),
                                   (catalog.get("k0.pgl3"), 3),
                                   (catalog.get("so13.mod2"), 64)])
def test_abelianization_dimension(B, dim):
    assert _abelianization(DualAlgebra(B))[0].dim == dim


@pytest.mark.parametrize("B", [catalog.get("e8.mod2"), skew_bialgebra(2)])
def test_abelianization_kills_a_two_sided_ideal(B):
    """The kernel I of A -> A/I is closed under multiplication by every dual
    basis vector, on the left and on the right."""
    A = DualAlgebra(B)
    C, proj = _abelianization(A)
    p = A.p

    def project(x):
        out = [0] * C.dim
        for k, c in enumerate(x):
            for n, d in proj[k].items():
                out[n] = (out[n] + c * d) % p
        return out

    matrix = [{k: proj[k].get(n, 0) for k in range(A.dim)} for n in range(C.dim)]
    ideal = kernel_basis(matrix, A.dim, p)
    assert len(ideal) == A.dim - C.dim
    assert tuple(project(A.unit)) == C.unit
    for w in ideal:
        left, right = {}, {}   # a -> b_a w and w b_a
        for k, terms in enumerate(A.table):
            for i, j, c in terms:
                left.setdefault(i, [0] * A.dim)[k] += c * w.get(j, 0)
                right.setdefault(j, [0] * A.dim)[k] += w.get(i, 0) * c
        for v in list(left.values()) + list(right.values()):
            assert not any(project(v))


@pytest.mark.parametrize("key", BIALGEBRA_KEYS)
def test_grouplikes_contain_one_and_are_closed_under_product(key):
    B = catalog.get(key)
    listed = {frozenset(g.terms.items()) for g in B.find_grouplikes()}
    assert frozenset(B.one().terms.items()) in listed
    for g in listed:
        for h in listed:
            gh = B.element(dict(g)) * B.element(dict(h))
            assert frozenset(gh.terms.items()) in listed


# -- inputs beyond any exhaustive search ------------------------------------------

# e8.mod2 J-tuples whose quotient dual the exhaustive search refused
# (p^dim over its bound) or took 14-18 s over
E8_MOD2_LARGE_QUOTIENTS = [
    (1, 2, 1, 1), (2, 1, 1, 1), (2, 2, 0, 1), (2, 2, 1, 1), (3, 0, 1, 1),
    (3, 1, 0, 1), (3, 1, 1, 1), (3, 2, 0, 1), (3, 2, 1, 1),
    (0, 2, 1, 1), (1, 1, 1, 1), (1, 2, 0, 1), (2, 0, 1, 1), (2, 1, 0, 1),
    (3, 0, 0, 1),
]


@pytest.mark.parametrize("B", [catalog.get(k) for k in
                               ("so11.mod2", "so13.mod2", "e8.mod2")]
                         + [quotient_bialgebra(catalog.get("e8.mod2"), J)
                            for J in E8_MOD2_LARGE_QUOTIENTS])
def test_connected_graded_duals_are_one_tate_block(B):
    assert [(b.dim, b.label) for b in decompose(B)] == \
        [(B.dimension(), "tate")]


@pytest.mark.parametrize("key", ["so9.mod2", "so11.mod2", "so13.mod2",
                                 "e8.mod2"])
def test_connected_graded_grouplikes_are_trivial(key):
    assert [str(g) for g in catalog.get(key).find_grouplikes()] == ["1"]


@pytest.mark.parametrize("key", BIALGEBRA_KEYS)
def test_line_block_labels_are_listed_grouplikes(key):
    B = catalog.get(key)
    listed = {str(g): g for g in B.find_grouplikes()}
    for b in decompose(B):
        if b.dim == 1 and b.label != "tate":
            g = listed[b.label.removeprefix("g:")]
            assert B.coproduct(g) == square(g)
