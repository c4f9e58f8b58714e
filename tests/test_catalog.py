"""Catalog integrity, the Weyl degree tables against a brute-force
enumeration oracle, frozen instance data, classical invariants (canonical
p-dimension, cell counts by the Weyl group), and the directory override."""

from __future__ import annotations

import json
import math

import pytest

from hopfmotives import catalog
from hopfmotives.algebra import borel_normalize
from hopfmotives.jinv import PoincarePoly, borel_exponents, fpoin
from hopfmotives.motdec import twist_multiset


def test_inventory():
    keys = catalog.keys()
    assert len(keys) >= 12
    assert len(set(keys)) == len(keys)
    for key in keys:
        assert catalog.describe(key)
        assert catalog.kind(key) in ("bialgebra", "comodule")


def test_every_entry_verifies():
    for key in catalog.keys():
        obj = catalog.get(key)          # get() verifies on first access
        assert obj.verify(), key


def test_unknown_key():
    with pytest.raises(ValueError, match="unknown catalog key"):
        catalog.get("so15.mod2")
    with pytest.raises(ValueError, match="unknown catalog key"):
        catalog.describe("zz")


def test_e8_mod2_presentation():
    B = catalog.get("e8.mod2")
    assert [(g.name, g.degree, g.truncation) for g in B.generators] == \
        [("e_3", 3, 8), ("e_5", 5, 4), ("e_9", 9, 2), ("e_15", 15, 2)]
    assert B.dimension() == 128


def test_so_entries_keep_their_rewrite_rules():
    B = catalog.get("so13.mod2")
    assert len(B.rules) == 3
    assert borel_normalize(B).dimension() == B.dimension()


# ---------------------------------------------------------------------------
# Weyl degree tables against brute-force enumeration
# ---------------------------------------------------------------------------

from _weyl_oracle import SMALL_RANK_TYPES, length_histogram


@pytest.mark.parametrize("series,rank", SMALL_RANK_TYPES)
def test_weyl_poincare_matches_enumeration(series, rank):
    hist = length_histogram(series, rank)
    poly = catalog.weyl_poincare(series, rank)
    assert hist == {i: c for i, c in enumerate(poly.coeffs) if c}
    assert sum(hist.values()) == catalog.weyl_order(series, rank)


def test_degree_products_match_orders():
    for series, rank in SMALL_RANK_TYPES + [("E", 6), ("E", 7), ("E", 8),
                                            ("B", 6), ("D", 6), ("A", 8)]:
        degrees = catalog.weyl_degrees(series, rank)
        assert math.prod(degrees) == catalog.weyl_order(series, rank)
        assert catalog.weyl_poincare(series, rank)(1) == math.prod(degrees)


def test_weyl_order_e8():
    assert catalog.weyl_order("E", 8) == 696729600


def test_weyl_rejects_unknown_types():
    with pytest.raises(ValueError):
        catalog.weyl_degrees("E", 9)
    with pytest.raises(ValueError):
        catalog.weyl_degrees("H", 3)
    with pytest.raises(ValueError):
        catalog.weyl_degrees("A", 0)


CATALOG_REFUSALS = [
    ("rank", lambda: catalog.weyl_degrees("A", 0), "rank must be a positive integer, got 0"),
    ("rank-d", lambda: catalog.weyl_degrees("D", 1), "series D needs rank >= 2"),
    ("type", lambda: catalog.weyl_degrees("E", 9), "unknown Weyl group type E9"),
    ("get", lambda: catalog.get("nope"), "unknown catalog key 'nope'"),
    ("describe", lambda: catalog.describe("nope"), "unknown catalog key 'nope'"),
    ("kind", lambda: catalog.kind("nope"), "unknown catalog key 'nope'"),
    ("edges", lambda: catalog.vishik_edges(12),
     "no extra-edge table for dimension 12; available: [6, 8, 10]"),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in CATALOG_REFUSALS],
                         ids=[r[0] for r in CATALOG_REFUSALS])
def test_catalog_refuses_unknown_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# frozen decomposition inputs
# ---------------------------------------------------------------------------

def test_vishik_edge_tables():
    assert catalog.vishik_edges(6) == ((0, 3), (1, 4), (2, 5), ("3'", 6))
    assert len(catalog.vishik_edges(8)) == 5
    assert len(catalog.vishik_edges(10)) == 6
    with pytest.raises(ValueError):
        catalog.vishik_edges(12)


def test_jtuple_instances_divide_their_flag_polynomials():
    for inst in catalog.jtuple_instances():
        B = catalog.get(inst.key)
        if B.rules:
            B = borel_normalize(B)
        poly = fpoin(B, inst.jtuple)
        twists = twist_multiset(catalog.weyl_poincare(inst.series, inst.rank),
                                poly)
        assert all(v > 0 for v in twists.values()), inst
        assert sum(twists.values()) * poly(1) == \
            catalog.weyl_order(inst.series, inst.rank), inst


# ---------------------------------------------------------------------------
# classical invariants
# ---------------------------------------------------------------------------

# the canonical p-dimension of G, the dimension of its generic generalized
# Rost motive (Karpenko and Merkurjev, "Canonical p-dimension of algebraic
# groups", Adv. Math. 205, 2006); for SO_(2m+1) it is m(m+1)/2, the
# dimension of the maximal orthogonal Grassmannian of a generic form
CANONICAL_P_DIMENSION = {
    "g2.mod2": 3, "e7sc.mod2": 17, "e8.mod2": 60, "e8.mod3": 28,
    "so5.mod2": 3, "so7.mod2": 6, "so9.mod2": 10, "so11.mod2": 15, "so13.mod2": 21,
}


@pytest.mark.parametrize("key, dim", CANONICAL_P_DIMENSION.items())
def test_top_degree_at_the_maximal_jtuple_is_the_canonical_p_dimension(key, dim):
    """At the maximal J-tuple (k_1, .., k_r) the top degree of H_J is
    sum (p^(k_i) - 1) d_i."""
    B = catalog.get(key)
    if B.rules:
        B = borel_normalize(B)
    top = borel_exponents(B)
    assert fpoin(B, top).degree() == dim == \
        sum((B.prime ** k - 1) * g.degree for g, k in zip(B.generators, top))
    if key.startswith("so"):
        m = (int(key[2:].split(".")[0]) - 1) // 2
        assert dim == m * (m + 1) // 2


@pytest.mark.parametrize("key, group, levi, rank, top", [
    ("e7p7.mod2", ("E", 7), ("E", 6), 56, 27),
    ("e8p8.mod3", ("E", 8), ("E", 7), 240, 57),
])
def test_cell_counts_are_the_weyl_quotient(key, group, levi, rank, top):
    """The Poincare polynomial of the cell comodule of G/P is P_W(G)/P_W(L),
    L the Levi factor of P."""
    M = catalog.get(key)
    counts = [0] * (max(map(M.degree_of, M.labels)) + 1)
    for lab in M.labels:
        counts[M.degree_of(lab)] += 1
    poly = PoincarePoly(counts)
    assert poly == catalog.weyl_poincare(*group).exact_div(catalog.weyl_poincare(*levi))
    assert M.rank() == poly(1) == rank and poly.degree() == top


# ---------------------------------------------------------------------------
# directory override
# ---------------------------------------------------------------------------

def test_directory_override_adds_and_replaces(tmp_path, monkeypatch):
    from hopfmotives.algebra import bialgebra_to_dict

    data = bialgebra_to_dict(catalog.get("g2.mod2"))
    data["generators"] = [{"name": "e_3", "degree": 3, "truncation": 4}]
    (tmp_path / "g2.mod2.json").write_text(json.dumps(data))
    (tmp_path / "extra.entry.json").write_text(
        json.dumps(bialgebra_to_dict(catalog.get("k0.pgl2"))))

    monkeypatch.setenv(catalog.ENV_DIR, str(tmp_path))
    monkeypatch.setattr(catalog, "_cache", {})

    keys = catalog.keys()
    assert "extra.entry" in keys
    assert catalog.kind("extra.entry") == "bialgebra"
    assert "external" in catalog.describe("extra.entry")

    B = catalog.get("g2.mod2")
    assert B.generators[0].truncation == 4      # the file won
    assert catalog.get("extra.entry").dimension() == 2


def test_directory_override_still_verifies(tmp_path, monkeypatch):
    from hopfmotives.algebra import bialgebra_to_dict

    data = bialgebra_to_dict(catalog.get("e8.mod3"))
    # break coassociativity-by-counit: drop a primitive term
    data["coproducts"]["e_4"] = data["coproducts"]["e_4"][:1]
    (tmp_path / "broken.json").write_text(json.dumps(data))
    monkeypatch.setenv(catalog.ENV_DIR, str(tmp_path))
    monkeypatch.setattr(catalog, "_cache", {})
    with pytest.raises(ValueError, match="fails verification"):
        catalog.get("broken")


def test_directory_override_bad_json(tmp_path, monkeypatch):
    from hopfmotives.algebra import SchemaError

    (tmp_path / "junk.json").write_text("{nope")
    monkeypatch.setenv(catalog.ENV_DIR, str(tmp_path))
    monkeypatch.setattr(catalog, "_cache", {})
    with pytest.raises(SchemaError):
        catalog.get("junk")


def test_unverified_get_does_not_skip_later_verification(tmp_path, monkeypatch):
    from hopfmotives.algebra import bialgebra_to_dict

    data = bialgebra_to_dict(catalog.get("e8.mod3"))
    data["coproducts"]["e_4"] = data["coproducts"]["e_4"][:1]
    (tmp_path / "broken.json").write_text(json.dumps(data))
    monkeypatch.setenv(catalog.ENV_DIR, str(tmp_path))
    monkeypatch.setattr(catalog, "_cache", {})
    assert not catalog.get("broken", verify=False).verify()
    with pytest.raises(ValueError, match="fails verification"):
        catalog.get("broken")


def test_cache_follows_the_override_directory(tmp_path, monkeypatch):
    from hopfmotives.algebra import bialgebra_to_dict

    data = bialgebra_to_dict(catalog.get("g2.mod2"))
    data["generators"] = [{"name": "e_3", "degree": 3, "truncation": 4}]
    (tmp_path / "g2.mod2.json").write_text(json.dumps(data))
    monkeypatch.setattr(catalog, "_cache", {})
    monkeypatch.delenv(catalog.ENV_DIR, raising=False)
    assert catalog.get("g2.mod2").generators[0].truncation == 2
    monkeypatch.setenv(catalog.ENV_DIR, str(tmp_path))
    assert catalog.get("g2.mod2").generators[0].truncation == 4
    monkeypatch.delenv(catalog.ENV_DIR)
    assert catalog.get("g2.mod2").generators[0].truncation == 2


@pytest.mark.parametrize("key", ["e7p7.mod2", "e8p8.mod3"])
def test_a_comodule_verifies_its_bialgebra_once(key, monkeypatch):
    from hopfmotives import algebra

    calls = []
    verify = algebra.verify_bialgebra
    monkeypatch.setattr(algebra, "verify_bialgebra",
                        lambda B: calls.append(B) or verify(B))
    monkeypatch.setattr(catalog, "_cache", {})
    catalog.get(key)
    assert len(calls) == 1


@pytest.mark.parametrize("module,key", [("e8p8.mod3", "e8.mod3"),
                                        ("e7p7.mod2", "e7sc.mod2")])
@pytest.mark.parametrize("module_first", [True, False])
def test_a_comodule_shares_its_bialgebra_with_the_catalog(module, key,
                                                          module_first,
                                                          monkeypatch):
    monkeypatch.delenv(catalog.ENV_DIR, raising=False)
    monkeypatch.setattr(catalog, "_cache", {})
    if module_first:
        M = catalog.get(module)
        assert catalog.get(key) is M.H
    else:
        H = catalog.get(key)
        assert catalog.get(module).H is H


def test_an_overridden_bialgebra_is_not_cached_from_its_comodule(tmp_path,
                                                                 monkeypatch):
    from hopfmotives.algebra import bialgebra_to_dict

    data = bialgebra_to_dict(catalog.get("e8.mod3"))
    (tmp_path / "e8.mod3.json").write_text(json.dumps(data))
    monkeypatch.setenv(catalog.ENV_DIR, str(tmp_path))
    monkeypatch.setattr(catalog, "_cache", {})
    M = catalog.get("e8p8.mod3")
    assert "e8.mod3" not in catalog._cache
    assert catalog.get("e8.mod3") is not M.H


def test_a_comodule_over_a_broken_bialgebra_fails_verification(tmp_path, monkeypatch):
    from hopfmotives.algebra import bialgebra_to_dict

    data = bialgebra_to_dict(catalog.get("e8.mod3"))
    data["coproducts"]["e_4"] = data["coproducts"]["e_4"][:1]
    (tmp_path / "e8.mod3.json").write_text(json.dumps(data))
    monkeypatch.setenv(catalog.ENV_DIR, str(tmp_path))
    monkeypatch.setattr(catalog, "_cache", {})
    with pytest.raises(ValueError, match=r"(?s)fails verification: .*counit law fails on e_4"):
        catalog.get("e8p8.mod3")
