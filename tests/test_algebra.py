"""Rewriting normal forms, coproducts, antipodes, and the JSON schema.

The normal-form tests check the engine against an independent closed-form
oracle (binary carry arithmetic along e_d, e_2d, e_4d chains); the antipode
is checked against a direct linear solve of the convolution identity.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from _borel import borel_bialgebras
from hopfmotives import _linalg, algebra, catalog
from hopfmotives.algebra import (Algebra, Bialgebra, Element, GeneratorDecl,
                                 RewriteRule, SchemaError, TensorElement,
                                 VerifyReport, bialgebra_from_dict,
                                 bialgebra_to_dict, borel_normalize,
                                 primitive_bialgebra, verify_bialgebra)
from hopfmotives.comod import AlgebraComodule


# ---------------------------------------------------------------------------
# normal forms against the binary-carry oracle
# ---------------------------------------------------------------------------

def squares_oracle(m, mono):
    """Normal form in F_2[e_1..e_m]/(e_i^2 = e_{2i}), computed without
    rewriting: exponents along each chain e_d, e_2d, e_4d, ... form the
    binary digits of one integer; the monomial survives iff no digit
    carries past the last generator of its chain."""
    out = [0] * m
    for d in range(1, m + 1):
        if d % 2 == 0:
            continue
        total = 0
        length = 0
        i, l = d, 0
        while i <= m:
            total += mono[i - 1] << l
            length += 1
            i, l = 2 * i, l + 1
        if total >> length:
            return None
        for l in range(length):
            out[d * 2 ** l - 1] = (total >> l) & 1
    return tuple(out)


@pytest.mark.parametrize("key", ["so9.mod2", "so13.mod2"])
def test_so_normal_forms_match_carry_oracle(key):
    B = catalog.get(key)
    m = B.ngens
    for mono in itertools.product(range(3), repeat=m):
        coeff, nf = B.normalize(mono)
        want = squares_oracle(m, mono)
        if want is None:
            assert nf is None, mono
        else:
            assert coeff == 1 and nf == want, mono


def test_so13_spec_example():
    # e_5^2 normalizes to zero: 10 exceeds the top generator index 6
    B = catalog.get("so13.mod2")
    assert B.normalize((0, 0, 0, 0, 2, 0)) == (0, None)
    # e_3^2 = e_6
    assert B.normalize((0, 0, 2, 0, 0, 0)) == (1, (0, 0, 0, 0, 0, 1))


def test_basis_is_normal_and_graded():
    B = catalog.get("so13.mod2")
    basis = B.basis()
    assert len(set(basis)) == len(basis) == B.dimension() == 2 ** 6
    assert all(B.is_normal(mono) for mono in basis)
    degrees = [B.degree_of(mono) for mono in basis]
    assert degrees == sorted(degrees)


@given(st.permutations(range(3)))
def test_rule_order_does_not_change_normal_forms(perm):
    """Confluence smoke test: declaring the rewrite rules in any order
    yields the same normal forms."""
    B = catalog.get("so13.mod2")
    rules = [B.rules[i] for i in perm]
    B2 = Bialgebra(2, B.generators, rules,
                   {name: [(c, l, r) for c, l, r in terms]
                    for name, terms in B.coproducts.items()})
    for mono in itertools.product(range(3), repeat=6):
        assert B.normalize(mono) == B2.normalize(mono)


def test_e8p8_module_rules_terminate_and_count():
    M = catalog.get("e8p8.mod3")
    A = M.module
    assert A.dimension() == 240
    assert A.top_degree() == 57
    # x_10^3 rewrites with its coefficient
    assert A.normalize((3, 0, 0)) == (2, (0, 1, 24))


def fresh_algebra(key, monkeypatch):
    """A newly built catalog algebra (the module algebra of a comodule), with
    an empty product table and normal-form cache."""
    monkeypatch.setattr(catalog, "_cache", {})
    obj = catalog.get(key, verify=False)
    return getattr(obj, "module", obj)


@pytest.mark.parametrize("key", ["so13.mod2", "e8.mod2", "e8.mod3", "e8p8.mod3"])
def test_mul_mono_is_the_normal_form_of_the_exponent_sum(key, monkeypatch):
    """Every pair of basis monomials, against the normal forms of a second
    build, including the sums that reach a truncation or a rule source; a
    repeated call gives the same product."""
    A = fresh_algebra(key, monkeypatch)
    oracle = fresh_algebra(key, monkeypatch)
    rewritten = 0
    for a, b in itertools.product(A.basis(), repeat=2):
        total = tuple(x + y for x, y in zip(a, b))
        rewritten += not A.is_normal(total)
        assert A.mul_mono(a, b) == oracle.normalize(total), (a, b)
    assert rewritten > 0
    for a, b in itertools.product(A.basis()[:12], A.basis()[-12:]):
        assert A.mul_mono(a, b) is A.mul_mono(a, b) == oracle.normalize(
            tuple(x + y for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------

def test_element_ring_identities():
    B = catalog.get("k0.pgl5")
    x = B.gen("x")
    one = B.one()
    assert (x + one) * (x - one) == x * x - one
    assert (x + one) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + one
    assert x ** 5 == B.zero()
    assert str(x ** 2 + x) == "x + x^2"


def test_element_degrees():
    B = catalog.get("e8.mod3")
    e4, e10 = B.gen("e_4"), B.gen("e_10")
    assert (e4 * e10).degree() == 14
    assert len((e4 + e10).degrees()) == 2
    assert list((e4 ** 2 + e4 * B.one() * e4).degrees()) == [8]


# The loop-based arithmetic that element arithmetic replaced: normalize every
# term, accumulate mod p one term at a time, drop zeros.

def oracle_terms(alg, pairs):
    p = alg.prime
    acc = {}
    for mono, c in pairs:
        c %= p
        if not c:
            continue
        k, nf = alg.normalize(mono)
        if nf is None:
            continue
        acc[nf] = (acc.get(nf, 0) + c * k) % p
    return {m: c for m, c in acc.items() if c}


def oracle_tensor_terms(left, right, pairs):
    p = left.prime
    acc = {}
    for (lm, rm), c in pairs:
        c %= p
        if not c:
            continue
        kl, ln = left.normalize(lm)
        if ln is None:
            continue
        kr, rn = right.normalize(rm)
        if rn is None:
            continue
        acc[ln, rn] = (acc.get((ln, rn), 0) + c * kl * kr) % p
    return {k: c for k, c in acc.items() if c}


def oracle_scaled(x, n):
    return [(k, c * n) for k, c in x.terms.items()]


def oracle_product(x, y):
    p = x.alg.prime
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            k, m = x.alg.mul_mono(ma, mb)
            if m is not None:
                out[m] = (out.get(m, 0) + ca * cb * k) % p
    return out.items()


def oracle_tensor_product(x, y):
    p = x.left.prime
    out = {}
    for (la, ra), ca in x.terms.items():
        for (lb, rb), cb in y.terms.items():
            kl, lm = x.left.mul_mono(la, lb)
            if lm is None:
                continue
            kr, rm = x.right.mul_mono(ra, rb)
            if rm is None:
                continue
            out[lm, rm] = (out.get((lm, rm), 0) + ca * cb * kl * kr) % p
    return out.items()


@st.composite
def small_algebras(draw):
    """F_p[g_0, ..] truncated at p = 2, 3, 5; F_p[x, z]/(x^2 - c z, x^4, z^2),
    where x * x has coefficient c (3 at p = 5, say); or k0.sc.mod2, which has
    no generators, so its one monomial is the falsy ()."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["truncated", "square rule", "k0.sc.mod2"]))
    if kind == "k0.sc.mod2":
        return catalog.get("k0.sc.mod2")
    if kind == "square rule":
        return Algebra(p, (GeneratorDecl("x", 1, 4), GeneratorDecl("z", 2, 2)),
                       (RewriteRule((2, 0), (0, 1), draw(st.integers(1, p - 1))),))
    shape = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(2, 4)),
                          min_size=1, max_size=3))
    return Algebra(p, tuple(GeneratorDecl(f"g{i}", d, t)
                            for i, (d, t) in enumerate(shape)))


def raw_monomials(alg):
    """Exponent tuples up to each truncation, so not all of them normal."""
    return st.tuples(*(st.integers(0, g.truncation) for g in alg.generators))


@st.composite
def element_triples(draw):
    A = draw(small_algebras())
    term = st.tuples(raw_monomials(A), st.integers(-A.prime, A.prime))
    return A, [draw(st.lists(term, max_size=5)) for _ in range(3)], \
        draw(st.integers(-6, 6))


@st.composite
def tensor_triples(draw):
    L, R = draw(small_algebras()), draw(small_algebras())
    assume(L.prime == R.prime)
    term = st.tuples(st.tuples(raw_monomials(L), raw_monomials(R)),
                     st.integers(-L.prime, L.prime))
    return L, R, [draw(st.lists(term, max_size=4)) for _ in range(3)], \
        draw(st.integers(-6, 6))


RULE_P5 = Algebra(5, (GeneratorDecl("x", 1, 4), GeneratorDecl("z", 2, 2)),
                  (RewriteRule((2, 0), (0, 1), 3),))


@settings(max_examples=300, deadline=None)
@given(element_triples())
@example((RULE_P5, [[((1, 0), 1)], [((1, 0), 2), ((0, 1), 4)], [((3, 1), 1)]], -2))
def test_element_arithmetic_matches_loop_oracle(case):
    A, raw, n = case
    x, y, z = (Element(A, t) for t in raw)
    for t, e in zip(raw, (x, y, z)):
        assert e.terms == oracle_terms(A, t)
    assert (x + y).terms == oracle_terms(A, list(x.terms.items()) + list(y.terms.items()))
    assert (x - y).terms == oracle_terms(A, list(x.terms.items()) + oracle_scaled(y, -1))
    assert (x + n).terms == oracle_terms(A, list(x.terms.items()) + [(A.unit_mono, n)])
    assert (-x).terms == oracle_terms(A, oracle_scaled(x, -1))
    assert (x * n).terms == (n * x).terms == oracle_terms(A, oracle_scaled(x, n))
    assert (x * y).terms == oracle_terms(A, oracle_product(x, y))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


@settings(max_examples=200, deadline=None)
@given(tensor_triples())
@example((RULE_P5, RULE_P5, [[(((1, 0), (1, 0)), 1)], [(((1, 0), (1, 0)), 1)], []], 3))
def test_tensor_arithmetic_matches_loop_oracle(case):
    L, R, raw, n = case
    x, y, z = (TensorElement(L, R, t) for t in raw)
    for t, e in zip(raw, (x, y, z)):
        assert e.terms == oracle_tensor_terms(L, R, t)
    assert (x + y).terms == oracle_tensor_terms(
        L, R, list(x.terms.items()) + list(y.terms.items()))
    assert (x - y).terms == oracle_tensor_terms(
        L, R, list(x.terms.items()) + oracle_scaled(y, -1))
    assert (-x).terms == oracle_tensor_terms(L, R, oracle_scaled(x, -1))
    assert (x * n).terms == (n * x).terms == oracle_tensor_terms(L, R, oracle_scaled(x, n))
    assert (x * y).terms == oracle_tensor_terms(L, R, oracle_tensor_product(x, y))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)


def test_falsy_unit_monomial_survives_arithmetic():
    """k0.sc.mod2 has no generators, so its unit monomial () is falsy."""
    B = catalog.get("k0.sc.mod2")
    one = B.one()
    assert (one * one).terms == (-one).terms == {(): 1}
    assert (one + one).terms == {}
    t = TensorElement(B, B, {((), ()): 1})
    assert (t * t).terms == {((), ()): 1}
    assert (t + t).terms == {}


def test_element_and_tensor_rendering():
    """A scalar term shows its bare coefficient; a tensor term never does."""
    B = primitive_bialgebra(3, (GeneratorDecl("x", 1, 3),))
    x = B.gen("x")
    assert str(2 * B.one() + x) == "2 + x"
    assert str(B.zero()) == "0"
    assert str(TensorElement(B, B, {})) == "0"
    assert str(TensorElement(B, B, {(B.unit_mono, B.unit_mono): 2})) == "2*1⊗1"


def test_tensors_are_elements_over_a_tensor_product():
    """Tensor arithmetic keeps the class and its rendering; mixing a tensor
    with a plain element is refused as different presentations."""
    E = catalog.get("e8.mod3")
    x = E.gen(E.generators[0].name)
    for mixed in (lambda: E.coproduct(x) + x, lambda: E.coproduct(x) * x,
                  lambda: x + E.coproduct(x)):
        with pytest.raises(ValueError, match="elements live over different presentations"):
            mixed()
    B = catalog.get("e8.mod2")
    assert str(B.coproduct(B.gen("e_15"))) == \
        "1⊗e_15 + e_3⊗e_3^4 + e_5⊗e_5^2 + e_9⊗e_3^2 + e_15⊗1"
    K = catalog.get("k0.pgl3")
    t = K.coproduct(K.gen("x"))
    assert type(t * t) is type(t + t) is type(-t) is TensorElement
    assert str(t * t) == "1⊗x^2 + 2*x⊗x + x⊗x^2 + x^2⊗1 + x^2⊗x + x^2⊗x^2"


def test_a_tensor_has_the_total_degree():
    B = catalog.get("e8.mod2")
    assert B.coproduct(B.gen("e_15")).degree() == 15
    K = catalog.get("k0.pgl3")
    t = K.coproduct(K.gen("x"))
    assert t.degrees() == [1, 2]
    with pytest.raises(ValueError, match="not homogeneous"):
        t.degree()


# ---------------------------------------------------------------------------
# coproducts and antipodes
# ---------------------------------------------------------------------------

BIALGEBRA_KEYS = [k for k in catalog.keys() if catalog.kind(k) == "bialgebra"]


def brute_force_antipode(B):
    """Solve m(S (x) id)Delta = unit.counit on the basis directly, as one
    sparse linear system over GF(p); independent of the Takeuchi series."""
    basis = B.basis()
    index = {m: i for i, m in enumerate(basis)}
    n = len(basis)
    # unknowns: S[mono][target] laid out as an n*n vector; column n*n
    # holds the right-hand side of the augmented system
    system = _linalg.Echelon(n * n + 1, B.prime)
    for b in basis:
        cop = B.coproduct_mono(b)
        acc = {}
        for (l, r), c in cop.terms.items():
            for t in basis:
                cl, prod = B.mul_mono(t, r)
                if prod is None:
                    continue
                acc.setdefault((prod, l, t), 0)
                acc[(prod, l, t)] = (acc[(prod, l, t)] + c * cl) % B.prime
        for out in basis:
            row = {n * n: 1 if (b == B.unit_mono and out == B.unit_mono) else 0}
            for (prod, l, t), c in acc.items():
                if prod == out:
                    col = index[l] * n + index[t]
                    row[col] = row.get(col, 0) + c
            system.add(row)
    assert n * n not in system.rows, "antipode system must be solvable"
    sol = [0] * (n * n)
    for pc, row in system.rows.items():
        sol[pc] = row.get(n * n, 0)
    return {basis[i]: {basis[j]: sol[i * n + j] for j in range(n)
                       if sol[i * n + j]} for i in range(n)}


@pytest.mark.parametrize("key", ["k0.pgl3", "morava.rost.mod2"])
def test_antipode_matches_dense_solve(key):
    B = catalog.get(key)
    table = brute_force_antipode(B)
    for mono in B.basis():
        got = B.antipode(B.monomial(mono))
        assert got.terms == table[mono], mono


def assert_antipode_identity(B):
    """mu(S (x) id)Delta = unit.counit = mu(id (x) S)Delta on every basis
    monomial of B, with S read off ``B.antipode`` monomial by monomial."""
    S = {m: B.antipode(B.monomial(m)) for m in B.basis()}
    for mono in B.basis():
        left = right = B.zero()
        for (l, r), c in B.coproduct_mono(mono).terms.items():
            left = left + c * S[l] * B.monomial(r)
            right = right + c * B.monomial(l) * S[r]
        want = B.counit(mono) * B.one()
        assert left == want, ("S (x) id", mono)
        assert right == want, ("id (x) S", mono)


def test_antipode_convolution_identity_on_products():
    for key in BIALGEBRA_KEYS:
        assert_antipode_identity(catalog.get(key))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(borel_bialgebras())
def test_antipode_convolution_identity_on_random_bialgebras(B):
    """Most draws break coassociativity or the counit law; only the draws
    that verify are bialgebras with an antipode."""
    assume(verify_bialgebra(B))
    assert_antipode_identity(B)


def test_coproduct_and_antipode_sum_in_one_pass(monkeypatch):
    """With warm memos, Delta and S of an n-term element each make one
    ``_mod_sum`` call (a running sum makes 2n+1) and equal running sums."""
    B = catalog.get("e8.mod2")
    x = B.element({m: 1 for m in B.basis()})
    assert len(x.terms) == 128
    cop, S = TensorElement(B, B, {}), B.zero()
    for m, c in x.terms.items():  # the oracles, which also warm the memos
        cop = cop + c * B.coproduct_mono(m)
        S = S + c * B.antipode(B.monomial(m))
    calls = []
    real = algebra._mod_sum
    monkeypatch.setattr(algebra, "_mod_sum",
                        lambda p, pairs: calls.append(p) or real(p, pairs))
    for f, want in ((B.coproduct, cop), (B.antipode, S)):
        calls.clear()
        got = f(x)
        assert len(calls) == 1, f
        assert got == want, f


@settings(max_examples=25)
@given(st.integers(0, 3 ** 6 - 1))
def test_antipode_is_linear_on_random_elements(seed):
    B = catalog.get("e8.mod3")
    basis = B.basis()
    coeffs = []
    s = seed
    for _ in range(4):
        coeffs.append(s % 3)
        s //= 3
    x = B.element({basis[2 * i]: c for i, c in enumerate(coeffs)})
    lhs = B.antipode(x)
    rhs = B.zero()
    for m, c in x.terms.items():
        rhs = rhs + c * B.antipode(B.monomial(m))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# multiplicative extension against repeated multiplication
# ---------------------------------------------------------------------------

def repeated_product(one, images, mono):
    """1 * g_1^e_1 * g_2^e_2 * ..., each power built as ((1 g) g) ... g: the
    image of a monomial without sharing products between monomials."""
    out = one
    for g, e in zip(images, mono):
        if e:
            power = one
            for _ in range(e):
                power = power * g
            out = out * power
    return out


def assert_extends(got, want, mono):
    """Equal images; a pure generator power also keeps its term order."""
    assert got == want, mono
    if sum(1 for e in mono if e) <= 1:
        assert list(got.terms) == list(want.terms), mono


@pytest.mark.parametrize("key", BIALGEBRA_KEYS)
def test_coproduct_mono_matches_repeated_product(key):
    B = bialgebra_from_dict(bialgebra_to_dict(catalog.get(key)))  # cold caches
    unit = B.unit_mono
    one = TensorElement(B, B, {(unit, unit): 1})
    images = [TensorElement(B, B, {(lm, rm): c for c, lm, rm in B.coproducts[g.name]})
              for g in B.generators]
    for mono in list(B.basis()) + [r.source for r in B._compiled]:
        assert_extends(B.coproduct_mono(mono),
                       repeated_product(one, images, mono), mono)


@pytest.mark.parametrize("key", BIALGEBRA_KEYS)
def test_antipode_matches_repeated_product(key):
    B = bialgebra_from_dict(bialgebra_to_dict(catalog.get(key)))
    images = [B.antipode(B.gen(g.name)) for g in B.generators]
    for mono in B.basis():
        assert_extends(B.antipode(B.monomial(mono)),
                       repeated_product(B.one(), images, mono), mono)


def test_long_power_verifies_without_recursion():
    """x^1200 -> 0 is not a coideal rule over F_2: (x@1 + 1@x)^1200 keeps
    x^k @ x^(1200-k) for each k whose bits lie inside those of 1200 (Lucas)."""
    B = Bialgebra(2, (GeneratorDecl("x", 1, 1200),), (),
                  {"x": [(1, (1,), (0,)), (1, (0,), (1,))]})
    diff = " + ".join(f"x^{k}⊗x^{1200 - k}" for k in range(1, 1200)
                      if k & 1200 == k)
    assert verify_bialgebra(B).failures == [
        f"coproduct does not respect x^1200 -> 0 (difference {diff})"]


def test_coaction_rule_failure_carries_its_difference():
    """rho(x) = 1 (x) x + t (x) 1 squares to t^2 (x) 1, which x^2 -> 0 does
    not allow; the comodule reports it as the bialgebra check does."""
    H = primitive_bialgebra(2, (GeneratorDecl("t", 1, 4),))
    A = Algebra(2, (GeneratorDecl("x", 1, 2),))
    M = AlgebraComodule(H, A, {"x": [(1, (0,), (1,)), (1, (1,), (0,))]})
    assert M.verify().failures == [
        "coaction does not respect x^2 -> 0 (difference t^2⊗1)"]


def test_rule_failure_shows_the_target_coefficient():
    """Over F_3 with x and z primitive, Delta(x^2) - 2 Delta(z) = 2 x (x) x."""
    B = primitive_bialgebra(3, (GeneratorDecl("x", 1, 3), GeneratorDecl("z", 2, 2)),
                            (RewriteRule((2, 0), (0, 1), 2), RewriteRule((1, 1), None)))
    assert B.verify().failures == [
        "coproduct does not respect x^2 -> 2*z (difference 2*x⊗x)",
        "coproduct does not respect x*z -> 0 (difference x⊗z + z⊗x)",
        "coproduct does not respect z^2 -> 0 (difference 2*z⊗z)"]


def test_primitive_bialgebra():
    gens = (GeneratorDecl("a", 1, 9), GeneratorDecl("b", 3, 3))
    B = primitive_bialgebra(3, gens)
    assert [B.is_primitive(g.name) for g in gens] == [True, True]
    assert B.rules == () and B.dimension() == 27 and verify_bialgebra(B)


# ---------------------------------------------------------------------------
# confluence of the rewrite rules
# ---------------------------------------------------------------------------

# F_2[a,b,c], deg 1,1,2, a^2 -> c, ab -> c: (a a) b = b c but a (a b) = a c
NONCONFLUENT = {"prime": 2,
                "generators": [{"name": n, "degree": d, "truncation": 4}
                               for n, d in (("a", 1), ("b", 1), ("c", 2))],
                "rules": [{"source": src, "target": {"coeff": 1, "monomial": {"c": 1}}}
                          for src in (["a", 2], {"a": 1, "b": 1})]}
NONCONFLUENT_ERROR = re.escape("not confluent: a^2*b reduces both to b*c and to a*c")


def test_nonconfluent_rules_are_rejected():
    gens = tuple(GeneratorDecl(n, d, 4) for n, d in (("a", 1), ("b", 1), ("c", 2)))
    with pytest.raises(ValueError, match=NONCONFLUENT_ERROR):
        Algebra(2, gens, (RewriteRule((2, 0, 0), (0, 0, 1)),
                          RewriteRule((1, 1, 0), (0, 0, 1))))
    with pytest.raises(SchemaError, match=r"^\$: .*" + NONCONFLUENT_ERROR):
        bialgebra_from_dict(dict(NONCONFLUENT, coproducts={
            n: [{"coeff": 1, "left": {n: 1}, "right": {}},
                {"coeff": 1, "left": {}, "right": {n: 1}}] for n in "abc"}))


# ---------------------------------------------------------------------------
# input as the README describes it
# ---------------------------------------------------------------------------

def test_repeated_coproduct_terms_are_summed():
    """x (x) 1 listed twice counts twice, so the counit law fails."""
    B = Bialgebra(3, (GeneratorDecl("x", 1, 3),), (),
                  {"x": [(1, (1,), (0,)), (1, (1,), (0,)), (1, (0,), (1,))]})
    assert B.coproducts["x"] == ((1, (0,), (1,)), (2, (1,), (0,)))
    report = verify_bialgebra(B)
    assert not report and report.failures[0].startswith("counit law fails on x")
    term = {"coeff": 1, "left": {"x": 1}, "right": {}}
    B2 = bialgebra_from_dict({
        "prime": 3, "generators": [{"name": "x", "degree": 1, "truncation": 3}],
        "coproducts": {"x": [term, term, {"coeff": 1, "left": {}, "right": {"x": 1}}]}})
    assert B2.coproducts == B.coproducts


# both forms of a rule source, and a zero target
README_RULES_FILE = """{
  "prime": 2,
  "generators": [{"name": "a", "degree": 1, "truncation": 4},
                 {"name": "b", "degree": 2, "truncation": 4}],
  "rules": [{"source": {"a": 2}, "target": {"coeff": 1, "monomial": {"b": 1}}},
            {"source": ["b", 2], "target": null}],
  "coproducts": {"a": [{"coeff": 1, "left": {"a": 1}, "right": {}},
                       {"coeff": 1, "left": {}, "right": {"a": 1}}],
                 "b": [{"coeff": 1, "left": {"b": 1}, "right": {}},
                       {"coeff": 1, "left": {}, "right": {"b": 1}}]}
}
"""


def test_rules_file_in_readme_format_loads(tmp_path):
    path = tmp_path / "ab.json"
    path.write_text(README_RULES_FILE)
    B = catalog.load_object_file(str(path))
    assert B.rules == (RewriteRule((2, 0), (0, 1)), RewriteRule((0, 2), None))
    assert B.dimension() == 4 and verify_bialgebra(B)


def test_grouplikes_form_a_cyclic_group():
    B = catalog.get("k0.pgl5")
    gs = B.find_grouplikes()
    assert len(gs) == 5
    assert gs[0] == B.one()
    g = gs[1]
    powers = {tuple(sorted((g ** k).terms.items())) for k in range(5)}
    assert len(powers) == 5
    assert {tuple(sorted(h.terms.items())) for h in gs} == powers


@pytest.mark.parametrize("key", BIALGEBRA_KEYS)
def test_zero_is_not_grouplike_and_one_is(key):
    # Delta(0) = 0 = 0 (x) 0, so the counit condition is what rules zero out
    B = catalog.get(key)
    assert not B.is_grouplike(B.zero())
    assert B.is_grouplike(B.one())


def test_primitive_flags():
    B = catalog.get("e8.mod2")
    assert B.is_primitive("e_3") and B.is_primitive("e_9")
    assert not B.is_primitive("e_15")


def test_verify_flags_broken_coassociativity():
    # drop the middle term of a K-theory coproduct: counit law breaks
    bad = Bialgebra(3, (GeneratorDecl("x", 1, 3),), (),
                    {"x": [(1, (1,), (0,)), (2, (1,), (1,))]})
    report = verify_bialgebra(bad)
    assert not report
    assert any("counit" in f for f in report.failures)


def test_verify_flags_rule_incompatibility():
    gens = (GeneratorDecl("a", 2, 4), GeneratorDecl("b", 4, 2))
    rules = (RewriteRule((2, 0), (0, 1)),)
    cops = {"a": [(1, (1, 0), (0, 0)), (1, (0, 0), (1, 0))],
            "b": [(1, (0, 1), (0, 0)), (1, (0, 0), (0, 1)),
                  (1, (1, 0), (1, 0))]}
    report = verify_bialgebra(Bialgebra(3, gens, rules, cops))
    assert not report


# ---------------------------------------------------------------------------
# Borel normalization
# ---------------------------------------------------------------------------

def test_borel_normalize_so13():
    B = catalog.get("so13.mod2")
    N = borel_normalize(B)
    assert [g.name for g in N.generators] == ["e_1", "e_3", "e_5"]
    assert [g.truncation for g in N.generators] == [8, 4, 2]
    assert N.rules == ()
    assert N.dimension() == B.dimension()
    assert Counter(map(N.degree_of, N.basis())) == \
        Counter(map(B.degree_of, B.basis()))
    assert verify_bialgebra(N)


@pytest.mark.parametrize("n,truncations", [
    (5, [4]), (7, [4, 2]), (9, [8, 2]), (11, [8, 2, 2]), (13, [8, 4, 2])])
def test_borel_normalize_truncations(n, truncations):
    """Each surviving root keeps the product of the truncations of its chain."""
    N = borel_normalize(catalog.get(f"so{n}.mod2"))
    assert [g.truncation for g in N.generators] == truncations


def test_borel_normalize_is_identity_on_borel_forms():
    B = catalog.get("e8.mod3")
    assert borel_normalize(B).same_presentation(B)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ["e8.mod2", "so13.mod2", "k0.pgl3",
                                 "k2.e8.mod5.a2", "k0.sc.mod2"])
def test_json_round_trip(key):
    B = catalog.get(key)
    B2 = bialgebra_from_dict(bialgebra_to_dict(B))
    assert B2 == B
    assert B2.same_presentation(B)


def test_round_trip_preserves_rules():
    B = catalog.get("so13.mod2")
    B2 = bialgebra_from_dict(bialgebra_to_dict(B))
    assert B2.rules == B.rules


def reject(data, fragment):
    with pytest.raises(SchemaError) as err:
        bialgebra_from_dict(data)
    assert fragment in str(err.value), str(err.value)


def test_schema_rejections():
    good = bialgebra_to_dict(catalog.get("k0.pgl3"))

    bad = dict(good, prime=4)
    reject(bad, "prime required")

    bad = dict(good)
    bad.pop("generators")
    reject(bad, "generators")

    bad = dict(good, extra_field=1)
    reject(bad, "extra_field")

    bad = dict(good, generators=[{"name": "x", "degree": 0, "truncation": 3}])
    reject(bad, "degree")

    bad = dict(good, generators=[{"name": "x", "degree": 1, "truncation": 1}])
    reject(bad, "truncation")

    bad = dict(good, coproducts={"x": [{"coeff": 1, "left": {"x": 1},
                                        "right": {"y": 1}}]})
    reject(bad, "y")


def test_schema_reports_paths():
    good = bialgebra_to_dict(catalog.get("k0.pgl3"))
    bad = dict(good, generators=[{"name": "x", "degree": 1}])
    try:
        bialgebra_from_dict(bad)
    except SchemaError as err:
        assert err.path.startswith("$")
    else:  # pragma: no cover
        pytest.fail("expected a schema error")


# ---------------------------------------------------------------------------
# the presentation records
# ---------------------------------------------------------------------------

def test_presentation_records_compare_and_hash_by_value():
    assert GeneratorDecl("x", 1, 3) == GeneratorDecl("x", 1, 3)
    assert GeneratorDecl("x", 1, 3) != GeneratorDecl("x", 1, 4)
    assert len({GeneratorDecl("x", 1, 3), GeneratorDecl("x", 1, 3)}) == 1
    assert RewriteRule((2,), (0,), 2) == RewriteRule((2,), (0,), 2)
    assert len({RewriteRule((2,), None), RewriteRule((2,), None)}) == 1
    assert RewriteRule((2,), None).coeff == 1


def test_empty_generator_name_is_refused_with_its_declaration():
    with pytest.raises(ValueError) as err:
        Algebra(2, (GeneratorDecl("", 1, 2),))
    assert str(err.value) == ("generator name must be a nonempty string: "
                              "GeneratorDecl(name='', degree=1, truncation=2)")


@pytest.mark.parametrize("name", ["1", "2x", "x*y", "x^2", "x+y", "x⊗y", "x y"])
def test_generator_names_must_be_identifiers(name):
    """A name such as 1 would print like a scalar: 2*gen("1") and 2*one()
    would both read 2."""
    with pytest.raises(ValueError) as err:
        Algebra(3, (GeneratorDecl(name, 1, 3),))
    assert str(err.value) == f"generator name must be an identifier: {name!r}"
    data = dict(bialgebra_to_dict(catalog.get("k0.pgl3")),
                generators=[{"name": name, "degree": 1, "truncation": 3}])
    with pytest.raises(SchemaError) as err:
        bialgebra_from_dict(data)
    assert err.value.path == "$.generators[0].name"
    assert str(err.value).endswith(f"expected an identifier, got {name!r}")


def test_verify_report_passes_until_a_failure():
    report = VerifyReport()
    assert report and str(report) == "pass"
    report.fail("x")
    assert not report and str(report) == "fail:\n  x"
