"""Decomposition bookkeeping: connection edges, block partitions, DOT
output, top-ideal summand pairs, twist multisets, rank-one classes."""

from __future__ import annotations

from collections import Counter

import pytest

from hopfmotives import catalog
from hopfmotives.algebra import Algebra
from hopfmotives.comod import (quadric_comodule, restrict_comodule,
                               tensor_comodule)
from hopfmotives.jinv import (PoincarePoly, borel_exponents, fpoin,
                              is_bi_ideal, jset_to_tuple, so_borel,
                              tuple_to_jset, valid_jtuples)
from hopfmotives.motdec import (closed_form_quadric_edges, direct_edges,
                                engine_edges, line_classes, line_tensor_table,
                                partition_blocks, rank1_grouplike,
                                rank1_isomorphic, rpe_summands, to_dot,
                                top_ideal_monomial, transitive_closure,
                                twist_multiset)

from test_comod import mixed_json_comodule, regular_comodule, trivial_line
from test_linalg import oracle_rref


def test_transitive_closure():
    edges = {(1, 2), (2, 3), (5, 6)}
    assert transitive_closure(edges) == {(1, 2), (2, 3), (1, 3), (5, 6)}


def test_direct_edges_of_a_quadric():
    # the full tuple has an empty J-set: every connection shows up
    M = quadric_comodule(7, (2, 1))
    edges = direct_edges(M)
    assert edges == {(3, 2), (3, 1), (4, 2), (3, 0), (4, 1), (5, 2)}


@pytest.mark.parametrize("n", [7, 12, 14])
def test_engine_edges_match_closed_form(n):
    for J in valid_jtuples(so_borel(n)):
        M = quadric_comodule(n, J)
        members = tuple_to_jset(n, J)
        assert engine_edges(M) == closed_form_quadric_edges(n, members), (n, J)


@pytest.mark.parametrize("n", [30, 40, 60])
def test_engine_edges_of_large_quadrics_need_no_basis(n, monkeypatch):
    """so_borel(60) has 5.4e8 basis candidates, over the enumeration bound:
    the bi-ideal test and the edge engine must never list a basis."""
    def no_basis(self):
        raise AssertionError("basis() called")

    monkeypatch.setattr(Algebra, "basis", no_basis)
    B = so_borel(n)
    ks = borel_exponents(B)
    for J in [(0,) * len(ks), ks, tuple(k // 2 for k in ks)]:
        assert is_bi_ideal(B, J) == (True, None)
        M = quadric_comodule(n, J)
        members = tuple_to_jset(n, J)
        assert engine_edges(M) == closed_form_quadric_edges(n, members), (n, J)


def test_partition_blocks_orders_labels():
    M = quadric_comodule(8, jset_to_tuple(8, (0, 2, 3)))
    blocks = partition_blocks(M, catalog.vishik_edges(6))
    assert blocks == [[0, 2, 3, 5], [1, "3'", 4, 6]]


def test_blocks_and_dot_follow_label_order_not_listing_order():
    # labels listed as 5, "b", 10, 0, "a", 2; display order 0, 2, a, b, 5, 10
    M = mixed_json_comodule()
    extra = [(10, "a"), (5, 0)]
    assert partition_blocks(M, extra) == [[0, 5], [2], ["a", 10], ["b"]]
    edges = [l for l in to_dot(M, extra).splitlines() if "--" in l]
    assert edges == ['  "0" -- "5";', '  "a" -- "10";']


def test_partition_blocks_rejects_unknown_endpoints():
    M = quadric_comodule(8, jset_to_tuple(8, (0, 2, 3)))
    with pytest.raises(ValueError, match="not a label"):
        partition_blocks(M, [("zz", 0)])


def test_to_dot_structure():
    M = quadric_comodule(8, jset_to_tuple(8, (0, 1, 2, 3)))
    dot = to_dot(M, name="q")
    assert dot.startswith("graph q {")
    assert '"3\'";' in dot
    assert dot.rstrip().endswith("}")
    assert dot.count("subgraph") == len(partition_blocks(M))


# -- top-ideal summand pairs ------------------------------------------------------

def test_top_ideal_monomial():
    B = catalog.get("e8.mod3")
    assert top_ideal_monomial(B, (1, 1)) == (2, 2)
    assert top_ideal_monomial(B, (1, 0)) == (2,)


def test_rpe_family_for_the_e8_cell_comodule():
    M = catalog.get("e8p8.mod3")
    pairs = rpe_summands(M, (1, 1))
    assert len(pairs) == 22
    for j, (beta, alpha) in enumerate(pairs):
        assert beta == (2, 2, j)
        assert alpha == {(0, 0, j + 4): 1}


def test_rpe_empty_for_the_e7_cell_comodule():
    M = catalog.get("e7p7.mod2")
    assert rpe_summands(M, (1, 1, 1)) == []


def rpe_oracle(M, J):
    """The pairs read off M restricted to the quotient, at E_J there, each
    beta kept when its alpha raises the rank of those kept before."""
    Mq, ej, p = restrict_comodule(M, J), top_ideal_monomial(M.H, J), M.H.prime
    picked, rows = [], []
    for b in M.position:
        alpha = {lab: c for (hm, lab), c in Mq.coaction_vec(b).items() if hm == ej}
        row = {M.position[lab]: c for lab, c in alpha.items()}
        if alpha and len(oracle_rref(rows + [row], M.rank(), p)[0]) > len(rows):
            picked.append((b, alpha))
            rows.append(row)
    return picked


def test_rpe_matches_the_restricted_coaction():
    """Every J-tuple of both catalog cell comodules, and every bi-ideal
    J-tuple of the quadric comodules over so_borel(7) and so_borel(8)."""
    cases = [(catalog.get(key), J) for key in ("e7p7.mod2", "e8p8.mod3")
             for J in valid_jtuples(catalog.get(key).H)]
    for n in (7, 8):
        for J in valid_jtuples(so_borel(n)):
            M = quadric_comodule(n, J)
            cases += [(M, J2) for J2 in valid_jtuples(M.H) if is_bi_ideal(M.H, J2)[0]]
    assert len(cases) == 12 + 36
    for M, J in cases:
        assert rpe_summands(M, J) == rpe_oracle(M, J), J


def test_rpe_zero_tuple_returns_everything():
    M = catalog.get("e7p7.mod2")
    pairs = rpe_summands(M, (0, 0, 0))
    assert len(pairs) == M.rank()
    for beta, alpha in pairs:
        assert alpha == {beta: 1}


# -- twist multisets ---------------------------------------------------------------

def test_twist_multiset_small_case():
    sub = PoincarePoly([1, 1])                      # 1 + t
    total = sub * PoincarePoly([1, 1, 0, 1])        # twists {0, 1, 3}
    assert twist_multiset(total, sub) == Counter({0: 1, 1: 1, 3: 1})


def test_twist_multiset_rejects_non_divisible():
    with pytest.raises(ValueError):
        twist_multiset(PoincarePoly([1, 0, 1]), PoincarePoly([1, 1]))


def test_twist_multiset_rejects_negative_multiplicities():
    total = PoincarePoly([1, 0, 0, 1])              # 1 + t^3
    sub = PoincarePoly([1, 1])                      # quotient 1 - t + t^2
    with pytest.raises(ValueError):
        twist_multiset(total, sub)


def test_flag_variety_twists_of_the_e8_quotient():
    B = catalog.get("e8.mod3")
    twists = twist_multiset(catalog.weyl_poincare("E", 8), fpoin(B, (1, 1)))
    assert sum(twists.values()) * 9 == catalog.weyl_order("E", 8)
    assert min(twists) == 0 and twists[0] == 1


# -- rank-one classes --------------------------------------------------------------

def test_line_classes_of_pgl3():
    H = catalog.get("k0.pgl3")
    lines = line_classes(H)
    assert len(lines) == 3
    assert rank1_grouplike(lines[0]) == H.one()
    table = line_tensor_table(H)
    p = 3
    for i in range(p):
        for j in range(p):
            assert table[i][j] == (i + j) % p


def test_line_tensor_table_pgl5_is_cyclic():
    H = catalog.get("k0.pgl5")
    table = line_tensor_table(H)
    for i in range(5):
        for j in range(5):
            assert table[i][j] == (i + j) % 5


def oracle_line_tensor_table(H):
    """The class of L_i (x) L_j read off the tensor comodule itself."""
    classes = line_classes(H)
    gs = [rank1_grouplike(L) for L in classes]
    return [[gs.index(rank1_grouplike(tensor_comodule(Li, Lj))) for Lj in classes]
            for Li in classes]


@pytest.mark.parametrize("key", [k for k in catalog.keys()
                                 if catalog.kind(k) == "bialgebra"])
def test_line_tensor_table_matches_the_tensor_comodules(key):
    H = catalog.get(key)
    assert line_tensor_table(H) == oracle_line_tensor_table(H)


def test_rank1_isomorphism():
    H = catalog.get("k0.pgl2")
    lines = line_classes(H)
    assert rank1_isomorphic(lines[0], lines[0])
    assert not rank1_isomorphic(lines[0], lines[1])


def test_rank1_rejects_bigger_comodules():
    with pytest.raises(ValueError, match="rank one"):
        rank1_grouplike(catalog.get("e7p7.mod2"))


MOTDEC_REFUSALS = [
    ("edge-endpoint",
     lambda: partition_blocks(quadric_comodule(8, (1, 0)), [("zz", 0)]),
     "extra edge endpoint zz is not a label of the comodule"),
    ("not-divisible", lambda: twist_multiset(PoincarePoly([1, 0, 1]), PoincarePoly([1, 1])),
     "1 + t^2 is not divisible by 1 + t"),
    ("negative-twists",
     lambda: twist_multiset(PoincarePoly([1, 0, 0, 1]), PoincarePoly([1, 1])),
     "quotient 1 + -1*t + t^2 has negative coefficients"),
    ("rank", lambda: rank1_grouplike(catalog.get("e7p7.mod2")),
     "isomorphism testing is restricted to rank one (got rank 56)"),
    ("bialgebras",
     lambda: rank1_isomorphic(trivial_line("k0.pgl2"), trivial_line("k0.pgl3")),
     "comodules live over different bialgebras"),
    ("rpe-bi-ideal",
     lambda: rpe_summands(regular_comodule(catalog.get("e8.mod2")), (3, 2, 1, 0)),
     "J-tuple (3, 2, 1, 0) does not cut out a bi-ideal: coproduct of e_15 has "
     "the term e_9⊗e_3^2 outside B⊗J + J⊗B"),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in MOTDEC_REFUSALS],
                         ids=[r[0] for r in MOTDEC_REFUSALS])
def test_motdec_refuses_invalid_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
