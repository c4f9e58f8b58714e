"""J-tuples, bi-ideals, quotients, Poincare polynomials, quadric J-sets."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _borel import borel_bialgebras, borel_catalog_keys
from hopfmotives import catalog
from hopfmotives.algebra import borel_normalize, verify_bialgebra
from hopfmotives.jinv import (PoincarePoly, borel_exponents,
                              containment_maxima, fpoin, ideal_member,
                              is_bi_ideal, jset_to_tuple, jtuples_containing,
                              maximal_tuples, quotient_bialgebra,
                              quotient_with_map, so_borel, tuple_to_jset,
                              valid_jtuples, validate_jtuple)

E8_MOD2_BI_IDEAL_COUNT = 34  # of the 48 shape-valid tuples


# -- Poincare polynomial arithmetic -------------------------------------------

def test_poincare_poly_basics():
    g = PoincarePoly.geometric(4, 3)
    assert list(g.coeffs) == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert g(1) == 3
    assert str(g) == "1 + t^4 + t^8"
    assert g.degree() == 8
    one = PoincarePoly.one()
    assert (g * one) == g
    assert (g - g) == PoincarePoly([])


def test_poincare_poly_rendering():
    assert str(PoincarePoly([2, 1, 0, 3])) == "2 + t + 3*t^3"
    assert str(PoincarePoly([])) == "0"


coeff_lists = st.lists(st.integers(-4, 4), min_size=0, max_size=6)


@given(coeff_lists, coeff_lists)
def test_exact_div_inverts_multiplication(a_coeffs, b_coeffs):
    a = PoincarePoly(a_coeffs)
    b = PoincarePoly(b_coeffs + [1])  # force a monic divisor
    assert (a * b).exact_div(b) == a


def test_exact_div_rejects_remainders():
    t2 = PoincarePoly([1, 0, 1])     # 1 + t^2
    t1 = PoincarePoly([1, 1])        # 1 + t
    with pytest.raises(ValueError):
        t2.exact_div(t1)


# -- tuple validity and membership --------------------------------------------

def test_valid_jtuples_inventory():
    B = catalog.get("e8.mod2")
    tuples = valid_jtuples(B)
    assert len(tuples) == 48
    assert (0, 0, 0, 0) in tuples and (3, 2, 1, 1) in tuples
    assert sum(1 for J in tuples if is_bi_ideal(B, J)[0]) == \
        E8_MOD2_BI_IDEAL_COUNT


def test_validate_jtuple_errors():
    B = catalog.get("e8.mod3")
    with pytest.raises(ValueError):
        validate_jtuple(B, (1,))
    with pytest.raises(ValueError):
        validate_jtuple(B, (2, 1))
    with pytest.raises(ValueError):
        validate_jtuple(B, (-1, 1))


def test_ideal_membership():
    B = catalog.get("e8.mod3")
    e4 = (1, 0)
    assert ideal_member(B, (0, 1), e4)           # j=0 kills the generator
    assert not ideal_member(B, (1, 1), e4)
    assert ideal_member(B, (1, 1), (3, 0)) is True    # actually e_4^3 = 0
    assert ideal_member(B, (1, 0), (1, 1))


def test_bi_ideal_witness_is_a_real_failure():
    """(3,2,1,0) contains e_15, but its coproduct has a mixed term with
    neither tensor factor in the ideal."""
    B = catalog.get("e8.mod2")
    ok, witness = is_bi_ideal(B, (3, 2, 1, 0))
    assert not ok
    mono, (left, right) = witness
    assert mono == (0, 0, 0, 1)
    assert ideal_member(B, (3, 2, 1, 0), mono)
    assert not ideal_member(B, (3, 2, 1, 0), left)
    assert not ideal_member(B, (3, 2, 1, 0), right)


def test_primitively_generated_tuples_are_all_bi_ideals():
    B = catalog.get("e8.mod3")
    for J in valid_jtuples(B):
        ok, witness = is_bi_ideal(B, J)
        assert ok, (J, witness)


# -- the generator-power test against a scan of every basis monomial ---------

def full_scan_is_bi_ideal(B, J):
    """Reference: test the coproduct of every basis monomial of the ideal,
    in basis order, and report the first term with neither factor in it."""
    bounds = [B.prime ** j for j in validate_jtuple(B, J)]

    def member(mono):
        return any(e >= b for e, b in zip(mono, bounds))

    for m in B.basis():
        if not member(m):
            continue
        for lm, rm in B.coproduct_mono(m).terms:
            if not (member(lm) or member(rm)):
                return False, (m, (lm, rm))
    return True, None


def test_bi_ideal_matches_full_scan_on_the_catalog():
    checked = failed = 0
    for key in borel_catalog_keys():
        B = catalog.get(key)
        for J in valid_jtuples(B):
            got = is_bi_ideal(B, J)
            assert got == full_scan_is_bi_ideal(B, J), (key, J)
            checked += 1
            failed += not got[0]
    assert (checked, failed) == (101, 14)


@pytest.mark.parametrize("n", range(3, 19))
def test_bi_ideal_matches_full_scan_on_so_borel(n):
    B = so_borel(n)
    for J in valid_jtuples(B):
        assert is_bi_ideal(B, J) == full_scan_is_bi_ideal(B, J), (n, J)


@settings(max_examples=200, deadline=None)
@given(borel_bialgebras())
def test_bi_ideal_matches_full_scan_on_random_coproducts(B):
    for J in valid_jtuples(B):
        assert is_bi_ideal(B, J) == full_scan_is_bi_ideal(B, J), J


# -- quotients ------------------------------------------------------------------

@pytest.mark.parametrize("key,J", [
    ("e8.mod3", (1, 1)),
    ("e8.mod2", (1, 1, 1, 0)),
    ("e8.mod2", (2, 1, 0, 0)),
    ("e7sc.mod2", (1, 1, 1)),
])
def test_fpoin_counts_quotient_basis(key, J):
    """Dual route: the closed-form polynomial must agree with dimension
    counting in the actual quotient bialgebra."""
    B = catalog.get(key)
    poly = fpoin(B, J)
    Bq = quotient_bialgebra(B, J)
    assert verify_bialgebra(Bq)
    by_deg = Counter(map(Bq.degree_of, Bq.basis()))
    for d, c in enumerate(poly.coeffs):
        assert by_deg[d] == c, d
    assert poly(1) == Bq.dimension()


def test_quotient_rejects_non_bi_ideals():
    B = catalog.get("e8.mod2")
    with pytest.raises(ValueError):
        quotient_bialgebra(B, (3, 2, 1, 0))


def test_quotient_map_kills_exactly_the_ideal():
    """remap is None exactly on the ideal, and otherwise lands on a normal
    monomial of the quotient of the same degree, injectively."""
    checked = 0
    for key in borel_catalog_keys():
        B = catalog.get(key)
        for J in valid_jtuples(B):
            if not is_bi_ideal(B, J)[0]:
                continue
            Bq, remap = quotient_with_map(B, J)
            images = []
            for mono in B.basis():
                img = remap(mono)
                checked += 1
                if ideal_member(B, J, mono):
                    assert img is None, (key, J, mono)
                    continue
                assert img is not None, (key, J, mono)
                assert Bq.normalize(img) == (1, img), (key, J, mono)
                assert Bq.degree_of(img) == B.degree_of(mono)
                images.append(img)
            assert sorted(images) == sorted(Bq.basis()), (key, J)
    assert checked == 4581, checked  # 4,352 of them over e8.mod2


def test_zero_tuple_gives_trivial_quotient():
    B = catalog.get("e8.mod3")
    Bq = quotient_bialgebra(B, (0, 0))
    assert Bq.dimension() == 1


# -- containment maxima ----------------------------------------------------------

def test_jtuples_containing_requires_bi_ideality():
    B = catalog.get("e8.mod2")
    e15 = B.gen("e_15")
    tuples = jtuples_containing(B, e15)
    assert (3, 2, 1, 0) not in tuples
    assert (1, 1, 1, 0) in tuples and (2, 1, 0, 0) in tuples


def test_maximal_tuples_of_a_primitive():
    B = catalog.get("e8.mod3")
    maxima = containment_maxima(B, B.gen("e_4"))
    assert maxima == [(0, 1)]


def test_maximal_tuples_drops_dominated_entries():
    assert maximal_tuples({(1, 1), (1, 0), (0, 1)}) == [(1, 1)]
    assert maximal_tuples({(2, 0), (0, 2), (1, 1)}) == [(0, 2), (1, 1), (2, 0)]


def test_jtuples_containing_rejects_zero():
    B = catalog.get("e8.mod3")
    with pytest.raises(ValueError):
        jtuples_containing(B, B.zero())


# -- quadric J-sets ----------------------------------------------------------------

def test_so_borel_shapes():
    B = so_borel(13)
    assert [(g.name, g.truncation) for g in B.generators] == \
        [("e_1", 8), ("e_3", 4), ("e_5", 2)]
    assert borel_exponents(B) == (3, 2, 1)
    B7 = so_borel(7)
    assert [(g.name, g.truncation) for g in B7.generators] == \
        [("e_1", 4), ("e_3", 2)]


def test_jset_roundtrip_all_small_n():
    total = 0
    for n in range(3, 15):
        B = so_borel(n)
        for J in valid_jtuples(B):
            members = tuple_to_jset(n, J)
            assert jset_to_tuple(n, members) == J, (n, J)
            total += 1
    assert total == 118


def test_jset_parity_rule():
    # 0 is a member exactly for even n
    assert 0 in tuple_to_jset(8, jset_to_tuple(8, (0,)))
    with pytest.raises(ValueError):
        jset_to_tuple(8, (1, 2))       # missing the mandatory 0
    with pytest.raises(ValueError):
        jset_to_tuple(7, (0, 3))       # 0 is not allowed for odd n


def test_jset_halving_closure():
    with pytest.raises(ValueError):
        jset_to_tuple(12, (0, 1))      # 1 present forces 2 and 4
    J = jset_to_tuple(12, (0, 1, 2, 4))
    assert validate_jtuple(so_borel(12), J)


def test_borel_exponents_rejects_unnormalized_presentations():
    with pytest.raises(ValueError):
        borel_exponents(catalog.get("so13.mod2"))
    assert borel_exponents(borel_normalize(catalog.get("so13.mod2"))) == (3, 2, 1)
