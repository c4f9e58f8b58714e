"""Comodule axioms, coinvariants, tensor products, restriction, quadrics."""

from __future__ import annotations

import gc
import json
import random
import weakref
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _borel import borel_bialgebras, noncocommutative_bialgebra
from _linalg_oracle import oracle_kernel_basis, oracle_rref
from hopfmotives import _linalg, algebra, catalog, comod, dual
from hopfmotives.comod import (AlgebraComodule, BasisComodule, _ComoduleBase,
                               _label_key, coinvariants, comodule_from_dict,
                               comodule_to_dict, is_comodule_morphism,
                               label_str, quadric_comodule, restrict_comodule,
                               tensor_comodule, verify_comodule)
from hopfmotives.algebra import (Algebra, Bialgebra, GeneratorDecl,
                                 RewriteRule, SchemaError, TensorElement,
                                 VerifyReport, bialgebra_from_dict,
                                 bialgebra_to_dict, gen_mono,
                                 primitive_bialgebra)
from hopfmotives.jinv import (is_bi_ideal, jset_to_tuple, quotient_with_map,
                              so_borel, valid_jtuples)
from hopfmotives.motdec import line_classes, partition_blocks

from test_algebra import (NONCONFLUENT, NONCONFLUENT_ERROR, assert_extends,
                          repeated_product)


def test_catalog_comodules_verify():
    for key in ("e7p7.mod2", "e8p8.mod3"):
        assert verify_comodule(catalog.get(key)), key


def test_coaction_is_multiplicative():
    M = catalog.get("e7p7.mod2")
    A = M.module
    x5h = (A.gen("x_5") * A.gen("h")).terms
    (mono,) = x5h
    assert M.coaction_raw(mono) == \
        M.coaction_raw((0, 1, 0)) * M.coaction_raw((1, 0, 0))


def test_coaction_respects_module_rules():
    """rho(x_10)^3 must reduce to 2 rho(x_6) rho(h)^24 -- the coefficient
    carries through the comodule verification."""
    M = catalog.get("e8p8.mod3")
    lhs = M.coaction_raw((3, 0, 0))
    rhs = 2 * M.coaction_raw((0, 1, 24))
    assert lhs == rhs


@pytest.mark.parametrize("key", ["e7p7.mod2", "e8p8.mod3"])
def test_coaction_raw_matches_repeated_product(key):
    M = comodule_from_dict(comodule_to_dict(catalog.get(key)))  # cold caches
    A = M.module
    one = TensorElement(M.H, A, {(M.H.unit_mono, A.unit_mono): 1})
    images = [M._gen_table[g.name] for g in A.generators]
    for mono in list(A.basis()) + [r.source for r in A._compiled]:
        assert_extends(M.coaction_raw(mono), repeated_product(one, images, mono), mono)


def test_repeated_coaction_terms_are_summed():
    H = primitive_bialgebra(3, (GeneratorDecl("x", 1, 3),))
    A = Algebra(3, (GeneratorDecl("y", 1, 3),))
    M = AlgebraComodule(H, A, {"y": [(1, (0,), (1,)), (1, (0,), (1,))]})
    assert M.coaction_vec((1,)) == {((0,), (1,)): 2}
    report = verify_comodule(M)
    assert not report and "counit law fails on y" in report.failures


# -- verification on generators against the all-label oracle ----------------------

def all_label_verdict(M):
    """Whether an AlgebraComodule passes the check on every basis label:
    counit and coassociativity on each label, then every rewrite rule of M.
    Written out with no appeal to multiplicativity."""
    H, A, p = M.H, M.module, M.H.prime

    def summed(pairs):
        acc = {}
        for key, c in pairs:
            acc[key] = (acc.get(key, 0) + c) % p
        return {key: c for key, c in acc.items() if c}
    for b in M.labels:
        vec = M.coaction_vec(b)
        if summed((lab, c * H.counit(hm)) for (hm, lab), c in vec.items()) != {b: 1}:
            return False
        lhs = summed(((h1, h2, lab), c * d) for (hm, lab), c in vec.items()
                     for (h1, h2), d in H.coproduct_mono(hm).terms.items())
        rhs = summed(((hm, h2, lab2), c * d) for (hm, lab), c in vec.items()
                     for (h2, lab2), d in M.coaction_vec(lab).items())
        if lhs != rhs:
            return False
    for rule in A._compiled:
        tgt = TensorElement(H, A, {}) if rule.target is None \
            else rule.coeff * M.coaction_raw(rule.target)
        if M.coaction_raw(rule.source) != tgt:
            return False
    return True


def coaction_mutants(M):
    """Each single-term deletion, and (p > 2) each coefficient doubling, of
    the generator coactions of M."""
    table = {g.name: sorted((c, hm, mm) for (hm, mm), c in M._gen_table[g.name].terms.items())
             for g in M.module.generators}
    for name, terms in table.items():
        for i, (c, hm, mm) in enumerate(terms):
            edits = [terms[:i] + terms[i + 1:]]
            if M.H.prime > 2:
                edits.append(terms[:i] + [(2 * c, hm, mm)] + terms[i + 1:])
            for edit in edits:
                yield AlgebraComodule(M.H, M.module, {**table, name: edit})


@pytest.mark.parametrize("key, count", [("e7p7.mod2", 7), ("e8p8.mod3", 14)])
def test_generator_verdict_matches_oracle_on_catalog_mutants(key, count):
    M = catalog.get(key)
    assert M.verify() and all_label_verdict(M)
    mutants = list(coaction_mutants(M))
    assert len(mutants) == count
    verdicts = [M2.verify().ok for M2 in mutants]
    assert verdicts == [all_label_verdict(M2) for M2 in mutants]
    assert not all(verdicts)


@st.composite
def small_algebra_comodules(draw):
    """F_p[x]/(x^m) over F_p[t]/(t^n), t primitive, with rho(x) = 1 (x) x
    plus up to two random terms.  n is a power of p, so that t^n -> 0 is a
    coideal and H a bialgebra: the generator argument needs Delta to be an
    algebra map."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([q for q in (p, p * p) if q <= 9]))
    m = draw(st.integers(2, 5))
    H = primitive_bialgebra(p, (GeneratorDecl("t", 1, n),))
    A = Algebra(p, (GeneratorDecl("x", draw(st.integers(1, 3)), m),))
    term = st.tuples(st.integers(1, p - 1), st.integers(0, n - 1).map(lambda e: (e,)),
                     st.integers(0, m - 1).map(lambda e: (e,)))
    return AlgebraComodule(H, A, {"x": [(1, (0,), (1,))] + draw(st.lists(term, max_size=2))})


def test_generator_verdict_matches_oracle_on_random_comodules():
    verdicts = set()

    @settings(max_examples=200, deadline=None)
    @given(small_algebra_comodules())
    def check(M):
        ok = M.verify().ok
        assert ok == all_label_verdict(M)
        verdicts.add(ok)
    check()
    assert verdicts == {True, False}


def test_generator_that_is_a_rule_source_verifies():
    """y -> x^2 makes the generator y no label: its counit is x^2, not y."""
    H = primitive_bialgebra(2, (GeneratorDecl("t", 1, 4),))
    A = Algebra(2, (GeneratorDecl("y", 2, 2), GeneratorDecl("x", 1, 4)),
                (RewriteRule((1, 0), (0, 2)),))
    M = AlgebraComodule(H, A, {"x": [(1, (0,), (0, 1)), (1, (1,), (0, 0))],
                               "y": [(1, (0,), (0, 2)), (1, (2,), (0, 0))]})
    assert M.labels == ((0, 0), (0, 1), (0, 2), (0, 3))
    assert M.verify() and all_label_verdict(M)
    report = VerifyReport()
    M._check_laws(report, (1, 0), {(1, 0): 1})
    assert report.failures == ["counit law fails on y"]


def test_coaction_over_a_coproduct_that_breaks_a_rule_fails():
    """Over F_2[t]/(t^3), t primitive, Delta(t)^3 = t (x) t^2 + t^2 (x) t is
    not 0, so H is no bialgebra and the laws on generators do not carry over:
    rho(x) = 1 (x) x + t (x) 1 passes them on x, not on x^3."""
    H = primitive_bialgebra(2, (GeneratorDecl("t", 1, 3),))
    A = Algebra(2, (GeneratorDecl("x", 1, 4),))
    M = AlgebraComodule(H, A, {"x": [(1, (0,), (1,)), (1, (1,), (0,))]})
    assert not all_label_verdict(M)
    assert M.verify().failures == [
        "coproduct does not respect t^3 -> 0 (difference t⊗t^2 + t^2⊗t)"]


@pytest.mark.parametrize("key", ["e7p7.mod2", "e8p8.mod3"])
def test_verify_builds_no_full_coaction_table(key, monkeypatch):
    monkeypatch.setattr(catalog, "_cache", {})
    M = catalog.get(key, verify=False)
    assert M.verify()
    assert len(M._raw_cache) < len(M.labels)


# -- coinvariants -----------------------------------------------------------------

def test_full_coinvariants_are_the_h_powers():
    M = catalog.get("e7p7.mod2")
    vecs = coinvariants(M)
    assert len(vecs) == 14
    for v in vecs:
        (label,) = v
        h_exp, x5, x9 = label
        assert (x5, x9) == (0, 0) and v[label] == 1


def test_degree_nine_coinvariant_is_h_nine():
    M = catalog.get("e7p7.mod2")
    vecs = coinvariants(M, degree=9)
    assert vecs == [{(9, 0, 0): 1}]


def test_restricted_coinvariants_count():
    M = catalog.get("e7p7.mod2")
    vecs = coinvariants(restrict_comodule(M, (1, 0, 0)))
    labels = sorted(next(iter(v)) for v in vecs)
    assert len(vecs) == 32
    # the non-pure-h part of the basis
    assert [l for l in labels if l[1] or l[2]] == sorted(
        [(i, 0, 1) for i in range(14)]
        + [(12, 1, 0), (13, 1, 0), (12, 1, 1), (13, 1, 1)])


def test_empty_degree_has_no_coinvariants():
    # the h-powers stop at h^13; degree 14 holds only x_5 h^9 and x_9 h^5
    M = catalog.get("e7p7.mod2")
    assert coinvariants(M, degree=14) == []


def test_coinvariant_mixing_degrees_is_in_no_single_degree():
    """rho(a) = 1 (x) a + x (x) b, rho(b) = (1 + x) (x) b over K_0(PGL_2):
    a + b is coinvariant, and neither degree holds a coinvariant."""
    H = catalog.get("k0.pgl2")
    one, x = H.unit_mono, (1,)
    M = BasisComodule(H, ["a", "b"], {"a": 0, "b": 1},
                      {"a": [(1, one, "a"), (1, x, "b")],
                       "b": [(1, one, "b"), (1, x, "b")]})
    assert verify_comodule(M)
    assert coinvariants(M) == [{"a": 1, "b": 1}]
    assert coinvariants(M, degree=0) == coinvariants(M, degree=1) == []


def test_coaction_target_must_be_a_label():
    """A degree alone does not make a label: e_4 (x) q with q absent from the
    labels is rejected, not accepted and then failed in verify."""
    H = catalog.get("e8.mod3")
    e4 = gen_mono(H.ngens, H.index("e_4"))
    with pytest.raises(ValueError, match="coaction of a hits unknown label q"):
        BasisComodule(H, ["a"], {"a": 0, "q": 4},
                      {"a": [(1, H.unit_mono, "a"), (1, e4, "q")]})


def test_coaction_key_must_be_a_label():
    H = catalog.get("e8.mod3")
    with pytest.raises(ValueError, match="coaction given for unknown label q"):
        BasisComodule(H, ["a"], {"a": 0, "q": 4},
                      {"a": [(1, H.unit_mono, "a")], "q": [(1, H.unit_mono, "q")]})


def test_tensor_square_global_coinvariants():
    """The 7,276 x 3,136 system of the e7p7 tensor square: the global
    coinvariants are the sum of the per-degree ones (this coaction keeps
    degree) and each vector x satisfies rho(x) = 1 (x) x."""
    M = catalog.get("e7p7.mod2")
    T = tensor_comodule(M, M)
    p, one = T.H.prime, T.H.unit_mono
    vecs = coinvariants(T)
    degrees = sorted({T.degree_of(l) for l in T.labels})
    assert len(degrees) == 55
    assert len(vecs) == 448 == sum(len(coinvariants(T, d)) for d in degrees)
    for v in vecs:
        rho = {}
        for label, c in v.items():
            for key, d in T.coaction_vec(label).items():
                rho[key] = rho.get(key, 0) + c * d
        assert {k: c % p for k, c in rho.items() if c % p} == \
            {(one, label): c for label, c in v.items()}


# -- coinvariants against the two-elimination oracle ---------------------------

def coinvariants_oracle(M, degree=None):
    """The coinvariants by two eliminations on the always-reduced oracle
    echelon: the kernel of one row per coaction term, columns in label order
    and rho(b) - 1 (x) b copied whole (zero entries kept), then the reduced
    form of that kernel."""
    H = M.H
    p = H.prime
    cols = list(M.position) if degree is None else M.by_degree.get(degree, [])
    if not cols:
        return []
    rows = {}
    for j, b in enumerate(cols):
        vec = dict(M.coaction_vec(b))
        key = (H.unit_mono, b)
        vec[key] = vec.get(key, 0) - 1
        for k, c in vec.items():
            rows.setdefault(k, {})[j] = c
    kernel = oracle_kernel_basis(list(rows.values()), len(cols), p)
    reduced, _ = oracle_rref(kernel, len(cols), p)
    return [{cols[j]: v[j] for j in sorted(v)} for v in reduced]


def assert_coinvariants_match_oracle(M):
    """Globally and in every degree, the same vectors with the same key order."""
    for degree in [None, *M.by_degree]:
        got = coinvariants(M, degree)
        want = coinvariants_oracle(M, degree)
        assert [list(v.items()) for v in got] == \
            [list(v.items()) for v in want], degree


def unverified_comodule():
    """rho(a) = 0, rho(b) = 1 (x) b + 2x (x) a, rho(c) = 2 (x) c and
    rho(d) = 1 (x) a + 1 (x) d over F_3[x]/(x^3): a has no 1 (x) a term, and
    its column's counit row is filled by d.  Only a + d is coinvariant."""
    H = primitive_bialgebra(3, (GeneratorDecl("x", 1, 3),))
    one, x = H.unit_mono, (1,)
    return BasisComodule(H, "abcd", {"a": 0, "b": 1, "c": 0, "d": 0},
                         {"b": [(1, one, "b"), (2, x, "a")],
                          "c": [(2, one, "c")],
                          "d": [(1, one, "a"), (1, one, "d")]})


def unverified_comodule_p2():
    """rho(a) = 0, rho(b) = 1 (x) b + x (x) a, rho(c) = 1 (x) c + x (x) c and
    rho(d) = 1 (x) a + 1 (x) d over F_2[x]/(x^2): the twin of
    ``unverified_comodule``.  The unit's row for a holds d's column, and
    a's own column is XORed in; the unit's rows for c and d cancel to 0.
    Only a + d is coinvariant."""
    H = primitive_bialgebra(2, (GeneratorDecl("x", 1, 2),))
    one, x = H.unit_mono, (1,)
    return BasisComodule(H, "abcd", {"a": 0, "b": 1, "c": 0, "d": 0},
                         {"b": [(1, one, "b"), (1, x, "a")],
                          "c": [(1, one, "c"), (1, x, "c")],
                          "d": [(1, one, "a"), (1, one, "d")]})


def test_tensor_square_coinvariants_match_oracle():
    M = catalog.get("e7p7.mod2")
    T = tensor_comodule(M, M)
    assert len(T.by_degree) == 55
    assert_coinvariants_match_oracle(T)


@pytest.mark.parametrize("J", [None, (0, 0), (0, 1), (1, 0), (1, 1)])
def test_e8p8_coinvariants_match_oracle(J):
    M = catalog.get("e8p8.mod3")
    assert_coinvariants_match_oracle(M if J is None else restrict_comodule(M, J))


def test_quadric_coinvariants_match_oracle():
    for n in range(3, 13):
        for J in valid_jtuples(so_borel(n)):
            assert_coinvariants_match_oracle(quadric_comodule(n, J))


def test_small_coinvariants_match_oracle():
    H = catalog.get("k0.pgl2")
    one, x = H.unit_mono, (1,)
    mixing = BasisComodule(H, ["a", "b"], {"a": 0, "b": 1},
                           {"a": [(1, one, "a"), (1, x, "b")],
                            "b": [(1, one, "b"), (1, x, "b")]})
    odd, odd2 = unverified_comodule(), unverified_comodule_p2()
    for M in (odd, odd2):
        assert not verify_comodule(M)
        assert coinvariants(M) == coinvariants(M, 0) == [{"a": 1, "d": 1}]
        assert coinvariants(M, 1) == []
    for M in (json_comodule_p3(), mixing, odd, odd2):
        assert_coinvariants_match_oracle(M)


# -- equations on 1 and the generators of the coefficient coalgebra's dual --------

def morphism_oracle(M, N, f):
    """The M-labels b where (id (x) f) rho_M(b) and rho_N(f(b)) differ, over
    every coaction term."""
    p = M.H.prime
    bad = []
    for b in M.labels:
        lhs, rhs = {}, {}
        for nl, c in f.get(b, {}).items():
            for key, d in N.coaction_vec(nl).items():
                lhs[key] = (lhs.get(key, 0) + c * d) % p
        for (hm, ml), c in M.coaction_vec(b).items():
            for nl, d in f.get(ml, {}).items():
                rhs[hm, nl] = (rhs.get((hm, nl), 0) + c * d) % p
        if {k: c for k, c in lhs.items() if c} != {k: c for k, c in rhs.items() if c}:
            bad.append(b)
    return bad


def assert_morphism_matches_oracle(M, N, f):
    ok, offender = is_comodule_morphism(M, N, f)
    bad = morphism_oracle(M, N, f)
    assert ok == (not bad)
    assert offender is None if ok else offender in bad


def assert_equations_match_oracles(H, rng):
    """On the regular comodule R of a verified H, its restrictions to the
    bi-ideal J-tuples and, when R is small, its tensor square: coinvariants
    against the all-rows oracle in every degree, and ``is_comodule_morphism``
    against the all-terms oracle on
    * maps between each comodule X and the trivial line, whose coefficient
      coalgebra is the unit alone, so that only the union of both supports
      gives X's equations: a random vector and a random coinvariant;
    * the identity of X with one random entry changed;
    * a right convolution h -> sum c phi(rm) lm over Delta(h), a morphism
      of R for every phi, and a changed one."""
    p = H.prime
    R = regular_comodule(H)
    comodules = [R] + [restrict_comodule(R, J) for J in valid_jtuples(H)
                       if is_bi_ideal(H, J)[0]]
    if R.rank() <= 9:
        comodules.append(tensor_comodule(R, R))

    def vector(labels):
        return {lab: c for lab in labels if (c := rng.randrange(p))}

    def changed(f, labels):
        f = {b: dict(v) for b, v in f.items()}
        b, b2 = rng.choice(labels), rng.choice(labels)
        f.setdefault(b, {})[b2] = (f[b].get(b2, 0) + rng.randrange(1, p)) % p
        return f

    for X in comodules:
        assert verify_comodule(X)
        assert_coinvariants_match_oracle(X)
        labels = list(X.labels)
        line = BasisComodule(X.H, ["b"], {"b": 0}, {"b": [(1, X.H.unit_mono, "b")]})
        invariant = {}
        for v in coinvariants(X):
            c = rng.randrange(p)
            for lab, d in v.items():
                invariant[lab] = (invariant.get(lab, 0) + c * d) % p
        for vec in (vector(labels), invariant):
            assert_morphism_matches_oracle(line, X, {"b": vec})
            assert_morphism_matches_oracle(X, line, {lab: {"b": c} for lab, c in vec.items()})
        assert_morphism_matches_oracle(X, X, changed({b: {b: 1} for b in labels}, labels))
    phi = {m: rng.randrange(p) for m in R.labels}
    conv = {}
    for h in R.labels:
        image = conv[h] = {}
        for (lm, rm), c in H.coproduct_mono(h).terms.items():
            image[lm] = (image.get(lm, 0) + c * phi[rm]) % p
    assert is_comodule_morphism(R, R, conv) == (True, None)
    assert_morphism_matches_oracle(R, R, changed(conv, list(R.labels)))


@settings(max_examples=150, deadline=None)
@given(borel_bialgebras(), st.randoms(use_true_random=False))
@example(noncocommutative_bialgebra(2, [1, 1], [{(0, 1): 1}], True), random.Random(0))
@example(noncocommutative_bialgebra(2, [1, 1, 2], [{(0, 1): 1}, {(0, 2): 1}]),
         random.Random(1))
@example(noncocommutative_bialgebra(3, [1, 1], [{(0, 1): 1}]), random.Random(2))
def test_generator_equations_match_all_rows_on_random_bialgebras(H, rng):
    """Draws that fail ``verify`` are skipped: the equations are exact only
    on counital, coassociative coactions.  Few draws that pass are not
    primitive, so the examples add three non-cocommutative ones."""
    if H.verify():
        assert_equations_match_oracles(H, rng)


@pytest.mark.parametrize("key", ["e7sc.mod2", "e8.mod3", "k0.pgl3", "e8.mod2"])
def test_generator_equations_match_all_rows_on_catalog_bialgebras(key):
    assert_equations_match_oracles(catalog.get(key), random.Random(key))


def test_coefficient_coalgebra_closes_the_coaction_monomials():
    """Over F_2[x, y]/(x^4, y^2), x primitive and Delta y = y (x) 1 +
    x^2 (x) x + x (x) x^2 + 1 (x) y, the coefficient x^3 + y is primitive, so
    rho(b) = 1 (x) b + (x^3 + y) (x) a is a comodule.  Its H-monomials are
    not closed under Delta: x and x^2 enter only through Delta(x^3) and
    Delta(y).  In the dual of their closure f_x f_x^2 = f_x^3 + f_y, so
    G = {x, x^2, y}."""
    one, x, x2, x3, y = (0, 0), (1, 0), (2, 0), (3, 0), (0, 1)
    H = Bialgebra(2, (GeneratorDecl("x", 1, 4), GeneratorDecl("y", 3, 2)), (),
                  {"x": [(1, x, one), (1, one, x)],
                   "y": [(1, y, one), (1, x2, x), (1, x, x2), (1, one, y)]})
    M = BasisComodule(H, "ab", {"a": 0, "b": 3},
                      {"a": [(1, one, "a")], "b": [(1, one, "b"), (1, x3, "a"), (1, y, "a")]})
    assert verify_comodule(M)
    assert dual.coefficient_generators(H, {x3, y}) == {one, x, x2, y}
    assert coinvariants(M) == coinvariants_oracle(M) == [{"a": 1}]
    line = BasisComodule(H, ["b"], {"b": 0}, {"b": [(1, one, "b")]})
    for vec in ({"a": 1}, {"b": 1}):
        assert_morphism_matches_oracle(line, M, {"b": vec})


def test_coinvariants_build_no_dual_of_the_whole_bialgebra(monkeypatch):
    """The quadric of dimension 159 lives over a J-quotient of so_borel(161)
    with 40 generators, of dimension 2^40; its coinvariants read only the
    coefficient coalgebra of the coaction."""
    with monkeypatch.context() as patch:
        patch.setattr(Algebra, "basis", lambda self: pytest.fail("basis enumerated"))
        patch.setattr(dual, "DualAlgebra", lambda B: pytest.fail("dual of H built"))
        M = quadric_comodule(161, (1,) * 40)
        got = coinvariants(M)
    assert got == coinvariants_oracle(M)


def test_tensor_square_degrees_hand_the_kernel_only_the_kept_rows(monkeypatch):
    """The 55 degree systems of a fresh e7p7.mod2 square hold 4,668 packed
    rows in all: the distinct nonzero ones among the 7,276 rows of kept
    coaction terms (13,220 with every term).  Each is built once, by the
    first call for its degree, and every call hands it to ``kernel_basis``
    as it is."""
    monkeypatch.setattr(catalog, "_cache", {})
    M = catalog.get("e7p7.mod2")
    T = tensor_comodule(M, M)
    handed, builds = [], []
    kernel_basis, rows = _linalg.kernel_basis, _linalg.rows

    def counting_kernel(system, ncols, p):
        handed.append(system)
        return kernel_basis(system, ncols, p)

    def counting_rows(entries, ncols, p):
        builds.append(ncols)
        return rows(entries, ncols, p)
    monkeypatch.setattr(_linalg, "kernel_basis", counting_kernel)
    monkeypatch.setattr(_linalg, "rows", counting_rows)
    total = built = 0
    for d, labels in T.by_degree.items():
        want = system_oracle(T, d)
        for _ in range(2):
            coinvariants(T, d)
            assert handed.pop() is T._systems[d][1]
        assert builds == [len(labels)], d
        builds.clear()
        assert_system_matches_oracle(T, d)
        total += len(T._systems[d][1])
        built += len(want)
    assert (total, built) == (4668, 7276)


# -- the graded End system of a block ---------------------------------------------

def graded_end_rows(M, block):
    """The equations rho(f(a)) = (id (x) f)(rho(a)) of a degree-preserving
    map f of the block: one unknown f[a, b] per label pair of equal degree,
    and one row per (a, h, b'), the coefficient of h (x) b' (the rows of
    h = 1 cancel to zero entries).  Returns (rows, {(a, b): unknown})."""
    p = M.H.prime
    unknowns = {}
    for a in block:
        for b in block:
            if M.degree_of(a) == M.degree_of(b):
                unknowns[a, b] = len(unknowns)
    targets = {}
    for a, b in unknowns:
        targets.setdefault(a, []).append(b)
    rows = {}
    for (a, b), u in unknowns.items():
        for (h, b2), c in M.coaction_vec(b).items():
            row = rows.setdefault((a, h, b2), {})
            row[u] = (row.get(u, 0) + c) % p
    for a in block:
        for (h, a2), c in M.coaction_vec(a).items():
            for b2 in targets[a2]:
                row = rows.setdefault((a, h, b2), {})
                u = unknowns[a2, b2]
                row[u] = (row.get(u, 0) - c) % p
    return list(rows.values()), unknowns


@pytest.mark.parametrize("key, nunknowns, nrows, dim", [
    ("e8p8.mod3", 656, 3620, 55), ("e7p7.mod2", 38, 123, 1)])
def test_graded_end_of_each_block(key, nunknowns, nrows, dim):
    M = catalog.get(key)
    p = M.H.prime
    blocks = partition_blocks(M)
    assert len(blocks) == 2
    for block in blocks:
        rows, unknowns = graded_end_rows(M, block)
        assert (len(unknowns), len(rows)) == (nunknowns, nrows)
        system = _linalg.rows([(n, u, c) for n, row in enumerate(rows) for u, c in row.items()],
                              len(unknowns), p)
        kernel = _linalg.kernel_basis(system, len(unknowns), p)
        assert len(kernel) == dim
        assert kernel == oracle_kernel_basis(rows, len(unknowns), p)
        span = _linalg.Echelon(len(unknowns), p)
        for v in kernel:
            span.add(v)
        assert not span.add({unknowns[a, a]: 1 for a in block})


# -- restriction ------------------------------------------------------------------

def test_restriction_drops_dead_coaction_terms():
    M = catalog.get("e7p7.mod2")
    Mq = restrict_comodule(M, (1, 0, 0))
    assert Mq.rank() == M.rank()
    assert verify_comodule(Mq)
    # rho(x_9) loses its e_9 and e_5 terms, leaving x_9 coinvariant
    vec = Mq.coaction_vec((0, 0, 1))
    assert vec == {(Mq.H.unit_mono, (0, 0, 1)): 1}
    for lab in Mq.labels:
        assert Mq.degree_of(lab) == M.degree_of(lab)


# -- tensor products and morphisms ---------------------------------------------

def test_tensor_of_line_classes_is_a_comodule():
    from hopfmotives.motdec import line_classes, rank1_grouplike
    H = catalog.get("k0.pgl3")
    lines = line_classes(H)
    T = tensor_comodule(lines[1], lines[2])
    assert T.rank() == 1
    assert verify_comodule(T)
    assert rank1_grouplike(T) == rank1_grouplike(lines[1]) * rank1_grouplike(lines[2])


def test_tensor_rank_multiplies():
    M = catalog.get("e7p7.mod2")
    from hopfmotives.motdec import line_classes
    L = line_classes(catalog.get("e7sc.mod2"))[0]
    T = tensor_comodule(L, M)
    assert T.rank() == M.rank()
    assert verify_comodule(T)


def test_identity_is_a_morphism():
    M = catalog.get("e7p7.mod2")
    ident = {lab: {lab: 1} for lab in M.labels}
    ok, offender = is_comodule_morphism(M, M, ident)
    assert ok and offender is None


def test_multiplication_by_h_is_a_morphism():
    M = catalog.get("e7p7.mod2")
    A = M.module
    f = {}
    for lab in M.labels:
        c, image = A.mul_mono(lab, (1, 0, 0))
        f[lab] = {} if image is None else {image: c}
    ok, offender = is_comodule_morphism(M, M, f)
    assert ok, offender


def test_swapping_basis_vectors_is_not_a_morphism():
    M = catalog.get("e7p7.mod2")
    f = {lab: {lab: 1} for lab in M.labels}
    f[(0, 1, 0)] = {(5, 0, 0): 1}      # send x_5 to h^5
    f[(5, 0, 0)] = {(0, 1, 0): 1}
    ok, offender = is_comodule_morphism(M, M, f)
    assert not ok
    assert offender in ((0, 1, 0), (5, 0, 0))


# -- one-pass tables against the two-pass oracles -------------------------------

def tensor_oracle(M, N):
    """M (x) N with one ``mul_mono`` per pair of coaction terms, and the table
    normalized again by the public ``BasisComodule`` constructor."""
    H, p = M.H, M.H.prime
    labels = [(a, b) for a in M.labels for b in N.labels]
    degrees = {(a, b): M.degree_of(a) + N.degree_of(b) for a, b in labels}
    coaction = {}
    for a, b in labels:
        acc = {}
        for (h1, a2), c1 in M.coaction_vec(a).items():
            for (h2, b2), c2 in N.coaction_vec(b).items():
                k, hm = H.mul_mono(h1, h2)
                if hm is None:
                    continue
                key = (hm, (a2, b2))
                acc[key] = (acc.get(key, 0) + c1 * c2 * k) % p
        coaction[(a, b)] = [(c, hm, lab) for (hm, lab), c in acc.items() if c]
    return BasisComodule(H, labels, degrees, coaction)


def restrict_oracle(M, J):
    """M over the J-quotient, one remap per coaction term, the table
    normalized by the public ``BasisComodule`` constructor."""
    Hq, remap = quotient_with_map(M.H, J)
    coaction = {}
    for lab in M.labels:
        coaction[lab] = []
        for (hm, lab2), c in M.coaction_vec(lab).items():
            h2 = remap(hm)
            if h2 is not None:
                coaction[lab].append((c, h2, lab2))
    return BasisComodule(Hq, M.labels, {lab: M.degree_of(lab) for lab in M.labels},
                         coaction)


def assert_same_comodule(got, want):
    assert got.H == want.H
    assert got.labels == want.labels
    p = got.H.prime
    for lab in want.labels:
        assert got.degree_of(lab) == want.degree_of(lab)
        vec = got.coaction_vec(lab)
        assert vec == want.coaction_vec(lab), lab
        assert all(0 < c < p for c in vec.values())
    assert verify_comodule(got)
    assert got.sorted_labels() == display_order(got)
    by_degree = got.by_degree
    assert list(by_degree) == sorted(by_degree)
    assert [lab for labs in by_degree.values() for lab in labs] == got.sorted_labels()
    assert all(got.degree_of(lab) == d for d, labs in by_degree.items() for lab in labs)
    empty = max(by_degree) + 1
    assert empty not in by_degree and coinvariants(got, degree=empty) == []


def json_comodule_p3():
    """rho(a) = 1 (x) a, rho(b) = 1 (x) b + 2x (x) a, rho(c) = 1 (x) c +
    2x (x) b + 2x^2 (x) a over F_3[x]/(x^3) with x primitive, read from JSON."""
    H = primitive_bialgebra(3, (GeneratorDecl("x", 1, 3),))

    def term(c, e, lab):
        return {"coeff": c, "left": {"x": e} if e else {}, "right": lab}
    data = {"flavor": "basis", "hopf": bialgebra_to_dict(H),
            "labels": ["a", "b", "c"], "degrees": [0, 1, 2],
            "coaction": {"a": [term(1, 0, "a")],
                         "b": [term(1, 0, "b"), term(2, 1, "a")],
                         "c": [term(1, 0, "c"), term(2, 1, "b"), term(2, 2, "a")]}}
    return comodule_from_dict(data)


def test_tensor_square_matches_oracle():
    M = catalog.get("e7p7.mod2")
    assert_same_comodule(tensor_comodule(M, M), tensor_oracle(M, M))


@pytest.mark.parametrize("J", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_restriction_matches_oracle(J):
    M = catalog.get("e8p8.mod3")
    Mq = restrict_comodule(M, J)
    assert_same_comodule(Mq, restrict_oracle(M, J))
    assert Mq.position is M.position


@pytest.mark.parametrize("J", valid_jtuples(so_borel(9)))
def test_restriction_that_normalizes_matches_oracle(J):
    """The quotients of the Borel form of SO_9 lower the truncation of e_1,
    so restricted coaction terms must be normalized again."""
    M = regular_comodule(so_borel(9))
    assert_same_comodule(restrict_comodule(M, J), restrict_oracle(M, J))


@pytest.mark.parametrize("key", ["k0.pgl2", "k0.pgl3", "k0.pgl5"])
def test_tensor_of_line_classes_matches_oracle(key):
    """Over K_0(PGL_p) the rewrite rules fold products of coaction terms
    together, into coefficients up to p - 1."""
    H = catalog.get(key)
    lines = line_classes(H)
    coeffs = set()
    for L1 in lines:
        for L2 in lines:
            T = tensor_comodule(L1, L2)
            assert_same_comodule(T, tensor_oracle(L1, L2))
            coeffs |= set(T.coaction_vec(("b", "b")).values())
    assert coeffs == set(range(1, H.prime))


def regular_comodule(H):
    """H as a comodule over itself by its coproduct, on its basis monomials."""
    basis = H.basis()
    return BasisComodule(H, basis, {m: H.degree_of(m) for m in basis},
                         {m: [(c, lm, rm) for (lm, rm), c in
                              H.coproduct_mono(m).terms.items()]
                          for m in basis})


def rule_coefficient_bialgebra():
    """F_5[x]/(x^5), x primitive, presented with z = x^2 / 3, so that the
    rule x^2 -> 3z puts a coefficient 3 into a product of monomials."""
    one = (0, 0)
    H = Bialgebra(5, (GeneratorDecl("x", 1, 2), GeneratorDecl("z", 2, 3)),
                  (RewriteRule((2, 0), (0, 1), 3), RewriteRule((1, 2), None)),
                  {"x": [(1, (1, 0), one), (1, one, (1, 0))],
                   "z": [(1, (0, 1), one), (4, (1, 0), (1, 0)), (1, one, (0, 1))]})
    assert H.mul_mono((1, 0), (1, 0)) == (3, (0, 1))
    return H


def test_tensor_with_rule_coefficients_matches_oracle():
    M = regular_comodule(rule_coefficient_bialgebra())
    assert verify_comodule(M)
    assert_same_comodule(tensor_comodule(M, M), tensor_oracle(M, M))


def test_tensor_of_distinct_factors_matches_oracle():
    M = catalog.get("e7p7.mod2")
    R = regular_comodule(M.H)
    assert_same_comodule(tensor_comodule(M, R), tensor_oracle(M, R))
    assert_same_comodule(tensor_comodule(R, M), tensor_oracle(R, M))


def test_tensor_of_json_comodules_matches_oracle():
    M = json_comodule_p3()
    assert verify_comodule(M)
    assert M.coaction_vec("c")[((2,), "a")] == 2
    N = json_comodule_p3()
    assert_same_comodule(tensor_comodule(M, M), tensor_oracle(M, M))
    assert_same_comodule(tensor_comodule(M, N), tensor_oracle(M, N))


@st.composite
def comodule_pairs(draw):
    """Two random BasisComodules over F_p[x]/(x^n), x primitive, with int
    and str labels and ranks from 1.  Their tables need not be coassociative;
    terms may repeat, hit x^n = 0, or carry coefficients that are 0, negative
    or >= p, so that sums inside one label pair can cancel mod p."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 4))
    H = primitive_bialgebra(p, (GeneratorDecl("x", 1, n),))

    def comodule():
        labels = draw(st.lists(st.one_of(st.integers(0, 5), st.sampled_from("abc")),
                               min_size=1, max_size=4, unique=True))
        term = st.tuples(st.integers(-p, p), st.integers(0, n).map(lambda e: (e,)),
                         st.sampled_from(labels))
        return BasisComodule(H, labels, {lab: draw(st.integers(0, 3)) for lab in labels},
                             {lab: draw(st.lists(term, max_size=5)) for lab in labels})
    return comodule(), comodule()


def cancelling_pair(p):
    """(1 (x) a + x (x) a) and (x (x) 0 - 1 (x) 0): their tensor puts
    1 - 1 = 0 on x (x) (a, 0), inside the one label pair."""
    H = primitive_bialgebra(p, (GeneratorDecl("x", 1, p),))
    return (BasisComodule(H, ["a"], {"a": 0}, {"a": [(1, (0,), "a"), (1, (1,), "a")]}),
            BasisComodule(H, [0], {0: 0}, {0: [(1, (1,), 0), (-1, (0,), 0)]}))


@settings(max_examples=300, deadline=None)
@given(comodule_pairs())
@example(cancelling_pair(2))
@example(cancelling_pair(3))
@example(cancelling_pair(5))
def test_tensor_of_random_comodules_matches_oracle(pair):
    M, N = pair
    got, want = tensor_comodule(M, N), tensor_oracle(M, N)
    assert got.labels == want.labels
    for lab in want.labels:
        assert got.degree_of(lab) == want.degree_of(lab)
        assert got.coaction_vec(lab) == want.coaction_vec(lab), lab
    assert list(got.position.items()) == list(want.position.items())


@st.composite
def verified_comodules(draw):
    """A comodule over F_p[x]/(x^n), x primitive and n a power of p (so that
    H is a bialgebra), that passes ``verify``: a direct sum of spans of
    1, x, ..., x^k in the regular comodule, rho(a_m) = sum_j C(m, j) x^j (x)
    a_(m-j), moved by random changes of basis b -> b + c b' and given random
    degrees.  The counit law keeps 1 (x) b the unit part of each rho(b), so
    only the draws of ``comodule_pairs`` move the unit's rows off it."""
    p, n = draw(st.sampled_from([(2, 2), (2, 4), (3, 3), (5, 5)]))
    H = primitive_bialgebra(p, (GeneratorDecl("x", 1, n),))
    rho = {}
    for s, k in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))):
        for m in range(k + 1):
            rho[s, m] = {((j,), (s, m - j)): comb(m, j) for j in range(m + 1)}
    labels = list(rho)
    for _ in range(draw(st.integers(0, 4))):
        b, b2 = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
        c = draw(st.integers(1, p - 1))
        if b == b2:
            continue
        # the new b is the old b + c b2, so the old b is the new b - c b2
        vec = rho[b] = dict(rho[b])
        for key, d in rho[b2].items():
            vec[key] = vec.get(key, 0) + c * d
        for vec in rho.values():
            for (hm, lab), d in list(vec.items()):
                if lab == b:
                    vec[hm, b2] = vec.get((hm, b2), 0) - c * d
    return BasisComodule(H, labels, {lab: draw(st.integers(0, 2)) for lab in labels},
                         {lab: [(c, hm, l) for (hm, l), c in vec.items()]
                          for lab, vec in rho.items()})


def kept_terms(M, degree):
    """M with only the coaction terms h (x) b' that ``coinvariants(M, degree)``
    solves for: h = 1 or f_h among the generators of C^dual, C spanned by
    the H-monomials of rho on the labels of that degree (None: every label)."""
    labels = M.labels if degree is None else M.by_degree.get(degree, ())
    kept = dual.coefficient_generators(
        M.H, {hm for b in labels for hm, _b in M.coaction_vec(b)})
    return BasisComodule(M.H, M.labels, {b: M.degree_of(b) for b in M.labels},
                         {b: [(c, hm, b2) for (hm, b2), c in M.coaction_vec(b).items()
                              if hm in kept] for b in M.labels})


@settings(max_examples=300, deadline=None)
@given(st.one_of(comodule_pairs().map(lambda pair: (pair[0], False)),
                 verified_comodules().map(lambda M: (M, True))))
@example((unverified_comodule(), False))
@example((unverified_comodule_p2(), False))
def test_coinvariants_of_random_comodules_match_oracle(case):
    """In every degree and globally, the coinvariants are what the oracle
    finds on the kept coaction terms alone, and on a comodule that passes
    ``verify`` (every draw of ``verified_comodules`` does) what it finds on
    every term; the kept system of each degree is the oracle's."""
    M, drawn_verified = case
    verified = bool(verify_comodule(M))
    assert verified or not drawn_verified
    for d in [None, *M.by_degree]:
        got = [list(v.items()) for v in coinvariants(M, d)]
        assert got == [list(v.items()) for v in coinvariants_oracle(kept_terms(M, d), d)], d
        if verified:
            assert got == [list(v.items()) for v in coinvariants_oracle(M, d)], d
        assert_system_matches_oracle(M, d)


def test_tensor_square_reads_each_coaction_once_and_shares_keys(monkeypatch):
    """Equal keys of the e7p7.mod2 square are one object, and each factor's
    coaction is read once per label (each read of an ``AlgebraComodule``
    coaction is a call into the algebra layer).  A fresh catalog entry keeps
    no square yet, so the call builds one."""
    monkeypatch.setattr(catalog, "_cache", {})
    M = catalog.get("e7p7.mod2")
    calls, read = {}, M.coaction_vec

    def counted(lab):
        calls[lab] = calls.get(lab, 0) + 1
        return read(lab)
    monkeypatch.setattr(M, "coaction_vec", counted)
    T = tensor_comodule(M, M)
    assert calls == {lab: 2 for lab in M.labels}  # once as M, once as N
    keys = [key for ab in T.labels for key in T.coaction_vec(ab)]
    assert len({id(key) for key in keys}) == len(set(keys)) == 16_356
    assert len({id(ab) for ab in T.labels} | {id(key[1]) for key in keys}) == 3_136


# -- kept structure ----------------------------------------------------------------

def test_tensors_and_restrictions_are_kept_on_the_comodule():
    M = catalog.get("e7p7.mod2")
    R = regular_comodule(M.H)
    T = tensor_comodule(M, M)
    assert tensor_comodule(M, M) is T
    assert tensor_comodule(M, R) is tensor_comodule(M, R) is not T
    for J in [(1, 0, 0), (0, 1, 1)]:
        Mq = restrict_comodule(M, J)
        assert restrict_comodule(M, list(J)) is Mq
        assert M._restrictions[J] is Mq
    assert restrict_comodule(M, (1, 0, 0)) is not restrict_comodule(M, (0, 1, 1))


def assert_same_kept_structure(kept, fresh):
    """Labels, degrees, display order, coactions and the coinvariants in
    every degree of a kept comodule and of one built afresh."""
    assert kept is not fresh and kept.H == fresh.H
    assert kept.labels == fresh.labels
    assert list(kept.position.items()) == list(fresh.position.items())
    for lab in fresh.labels:
        assert kept.degree_of(lab) == fresh.degree_of(lab)
        assert kept.coaction_vec(lab) == fresh.coaction_vec(lab), lab
    assert list(kept.by_degree) == list(fresh.by_degree)
    for d in fresh.by_degree:
        assert coinvariants(kept, degree=d) == coinvariants(fresh, degree=d), d


@pytest.mark.parametrize("key", [k for k in catalog.keys() if catalog.kind(k) == "comodule"])
def test_kept_restrictions_match_a_fresh_catalog_entry(key, monkeypatch):
    M = catalog.get(key)
    kept = {J: restrict_comodule(M, J) for J in valid_jtuples(M.H) if is_bi_ideal(M.H, J)[0]}
    assert kept and all(restrict_comodule(M, J) is Mq for J, Mq in kept.items())
    monkeypatch.setattr(catalog, "_cache", {})
    fresh = catalog.get(key)
    assert fresh is not M
    for J, Mq in kept.items():
        assert_same_kept_structure(Mq, restrict_comodule(fresh, J))


def test_kept_tensor_square_matches_a_fresh_catalog_entry(monkeypatch):
    M = catalog.get("e7p7.mod2")
    T = tensor_comodule(M, M)
    assert tensor_comodule(M, M) is T
    monkeypatch.setattr(catalog, "_cache", {})
    fresh = catalog.get("e7p7.mod2")
    assert_same_kept_structure(T, tensor_comodule(fresh, fresh))


def test_a_tensor_with_a_transient_factor_goes_with_it():
    """The kept product is weakly keyed by its right factor: it never keeps
    that factor alive, and is dropped once the factor is collected."""
    M = catalog.get("e7p7.mod2")
    N = comodule_from_dict(json.loads(json.dumps(comodule_to_dict(M))))
    assert N.H == M.H and N is not M
    T = tensor_comodule(M, N)
    assert tensor_comodule(M, N) is T and M._tensors[N] is T
    n_ref, t_ref, before = weakref.ref(N), weakref.ref(T), len(M._tensors)
    del N, T
    gc.collect()
    assert n_ref() is None and t_ref() is None
    assert len(M._tensors) == before - 1


def test_a_jtuple_off_a_bi_ideal_raises_on_every_call_and_keeps_nothing():
    M = regular_comodule(catalog.get("e8.mod2"))
    J = (0, 2, 0, 0)
    assert not is_bi_ideal(M.H, J)[0]
    for bad in (J, list(J), J):
        with pytest.raises(ValueError, match=r"J-tuple \(0, 2, 0, 0\) does not cut out"):
            restrict_comodule(M, bad)
    with pytest.raises(ValueError, match="J-tuple has length 3, expected 4"):
        restrict_comodule(M, (0, 0, 0))
    assert M._restrictions == {}
    assert restrict_comodule(M, (1, 1, 1, 1)) is M._restrictions[1, 1, 1, 1]


def test_a_catalog_entry_rebuilt_after_clear_holds_nothing_kept(monkeypatch):
    monkeypatch.setattr(catalog, "_cache", {})
    M = catalog.get("e7p7.mod2")
    T, Mq = tensor_comodule(M, M), restrict_comodule(M, (1, 0, 0))
    coinvariants(M)
    coinvariants(M, degree=9)
    assert set(M._systems) == {None, 9}
    m_ref = weakref.ref(M)
    catalog._cache.clear()
    del M
    gc.collect()
    assert m_ref() is None
    M = catalog.get("e7p7.mod2")
    assert len(M._tensors) == 0 and M._restrictions == {} and M._systems == {}
    assert tensor_comodule(M, M) is not T
    assert restrict_comodule(M, (1, 0, 0)) is not Mq


def kept_system_cases(key):
    """A catalog cell comodule, its restrictions at every bi-ideal J-tuple,
    and for e7p7.mod2 its square."""
    M = catalog.get(key)
    cases = [M] + [restrict_comodule(M, J) for J in valid_jtuples(M.H)
                   if is_bi_ideal(M.H, J)[0]]
    return cases + [tensor_comodule(M, M)] * (key == "e7p7.mod2")


def system_oracle(M, degree):
    """The equation rows of ``coinvariants(M, degree)`` summed afresh, one
    per kept coaction term h (x) b' (``kept_terms``) and zero rows left
    out, repeats kept: the coefficients of h (x) b' in rho(b) - 1 (x) b
    over the labels b of ``degree`` (None: every label).  The i-th of n
    labels is bit i of an int at p = 2, and otherwise column n - 1 - i of a
    frozenset of (column, coeff) items."""
    labels = list(M.position) if degree is None else M.by_degree.get(degree, [])
    n, p, unit = len(labels), M.H.prime, M.H.unit_mono
    kept = dual.coefficient_generators(
        M.H, {hm for b in labels for hm, _b in M.coaction_vec(b)})
    sums = {}
    for i, b in enumerate(labels):
        terms = [(key, c) for key, c in M.coaction_vec(b).items() if key[0] in kept]
        for key, c in terms + [((unit, b), -1)]:
            row = sums.setdefault(key, {})
            row[i] = row.get(i, 0) + c
    out = []
    for row in sums.values():
        row = {i: c % p for i, c in row.items() if c % p}
        if row:
            out.append(sum(1 << i for i in row) if p == 2
                       else frozenset((n - 1 - i, c) for i, c in row.items()))
    return out


def assert_system_matches_oracle(M, degree):
    """The kept system of ``degree`` has the labels from the last for its
    columns and holds each row of the oracle once and nothing else, as
    packed ints at p = 2 and dicts otherwise, and stays kept."""
    system = cols, got = M._system(degree)
    labels = list(M.position) if degree is None else M.by_degree.get(degree, [])
    assert cols == labels[::-1], degree
    row_type = int if M.H.prime == 2 else dict
    assert all(type(x) is row_type for x in got), degree
    rows = [x if row_type is int else frozenset(x.items()) for x in got]
    assert len(set(rows)) == len(rows), degree
    assert set(rows) == set(system_oracle(M, degree)), degree
    assert M._system(degree) is system is M._systems[degree]


@pytest.mark.parametrize("key", ["e7p7.mod2", "e8p8.mod3"])
def test_kept_systems_match_a_fresh_oracle(key):
    """In each degree, globally and one past the last degree (empty), for
    the comodule, its restrictions and (e7p7.mod2) its square."""
    for M in kept_system_cases(key):
        for d in [*M.by_degree, None, max(M.by_degree) + 1]:
            assert_system_matches_oracle(M, d)


def test_a_morphism_check_keeps_no_system(monkeypatch):
    """``is_comodule_morphism`` reads the H-monomials straight off both
    coactions: on a fresh e7p7.mod2 square it builds no equation system."""
    monkeypatch.setattr(catalog, "_cache", {})
    M = catalog.get("e7p7.mod2")
    T = tensor_comodule(M, M)
    line = BasisComodule(M.H, ["b"], {"b": 0}, {"b": [(1, M.H.unit_mono, "b")]})
    assert is_comodule_morphism(T, T, {ab: {ab: 1} for ab in T.labels}) == (True, None)
    assert is_comodule_morphism(line, M, {"b": {(9, 0, 0): 1}}) == (True, None)
    assert T._systems == {} and M._systems == {} and line._systems == {}


def test_a_degree_reads_only_its_own_coactions(monkeypatch):
    """A cold call in one degree fills the system and the coaction table of
    that degree alone."""
    monkeypatch.setattr(catalog, "_cache", {})
    M = catalog.get("e7p7.mod2")
    before = set(M._table)
    assert coinvariants(M, degree=9) == [{(9, 0, 0): 1}]
    assert list(M._systems) == [9]
    assert set(M._table) - before == set(M.by_degree[9]) - before


def test_warm_coinvariants_extend_nothing_multiplicatively(monkeypatch):
    """Once each degree of e8p8.mod3 has been solved, solving it again (and
    globally) reads every coaction off the kept table."""
    E = catalog.get("e8p8.mod3")
    degrees = [None, *E.by_degree]
    want = [coinvariants(E, degree=d) for d in degrees]
    calls = []
    for module in (algebra, comod):
        real = module.extend_multiplicatively
        monkeypatch.setattr(module, "extend_multiplicatively",
                            lambda *args, real=real: calls.append(args) or real(*args))
    assert [coinvariants(E, degree=d) for d in degrees] == want
    assert calls == []


# -- quadric cell comodules ------------------------------------------------------

def test_quadric_labels_odd_and_even():
    M7 = quadric_comodule(7, (2, 1))
    assert M7.sorted_labels() == [0, 1, 2, 3, 4, 5]
    M8 = quadric_comodule(8, jset_to_tuple(8, (0, 1, 2, 3)))
    assert M8.sorted_labels() == [0, 1, 2, 3, "3'", 4, 5, 6]
    assert M8.degree_of("3'") == 3


def test_quadric_coinvariant_cell():
    """b_{m'} is the class of h^m: it must be coinvariant in every quadric."""
    for n in (8, 10, 12):
        M = quadric_comodule(n, jset_to_tuple(n, (0,)))
        m = (n - 1) // 2
        prime_label = f"{m}'"
        vec = M.coaction_vec(prime_label)
        assert vec == {(M.H.unit_mono, prime_label): 1}, n


def test_quadric_comodules_all_verify():
    for n in range(3, 11):
        for J in valid_jtuples(so_borel(n)):
            assert verify_comodule(quadric_comodule(n, J)), (n, J)


# -- label order -------------------------------------------------------------------

def display_order(M):
    """The (degree, label) order sorted directly: the oracle for the cached one."""
    return sorted(M.labels, key=lambda l: (M.degree_of(l), _label_key(l)))


def mixed_json_comodule():
    labels = [5, "b", 10, 0, "a", 2]
    data = {"flavor": "basis", "hopf": bialgebra_to_dict(catalog.get("k0.pgl2")),
            "labels": labels, "degrees": [1, 0, 1, 0, 0, 0],
            "coaction": {label_str(l): [{"coeff": 1, "left": {}, "right": l}]
                         for l in labels}}
    return comodule_from_dict(data)


def json_algebra_comodule():
    """rho(u) = 1 (x) u, rho(v) = 1 (x) v + x (x) 1 over F_2[x]/(x^4), x
    primitive, on F_2[u, v]/(u^2, v^4) with u (degree 2) before v (degree
    1), read from JSON."""
    H = primitive_bialgebra(2, (GeneratorDecl("x", 1, 4),))
    A = Algebra(2, (GeneratorDecl("u", 2, 2), GeneratorDecl("v", 1, 4)))
    M = AlgebraComodule(H, A, {"u": [(1, (0,), (1, 0))],
                               "v": [(1, (0,), (0, 1)), (1, (1,), (0, 0))]})
    return comodule_from_dict(json.loads(json.dumps(comodule_to_dict(M))))


ORDER_CASES = {
    "e7p7.mod2": lambda: catalog.get("e7p7.mod2"),
    "e8p8.mod3": lambda: catalog.get("e8p8.mod3"),
    "e7p7.mod2^2": lambda: tensor_comodule(catalog.get("e7p7.mod2"),
                                           catalog.get("e7p7.mod2")),
    "json-mixed": mixed_json_comodule,
    "json-algebra": json_algebra_comodule,
    **{f"quadric{n}": lambda n=n: quadric_comodule(n, valid_jtuples(so_borel(n))[0])
       for n in range(5, 15)},
}


@pytest.mark.parametrize("case", ORDER_CASES)
def test_sorted_labels_follow_degree_then_label(case):
    M = ORDER_CASES[case]()
    want = display_order(M)
    got = M.sorted_labels()
    assert got == want
    assert [M.position[l] for l in want] == list(range(len(want)))
    got.reverse()
    got.append("junk")
    assert M.sorted_labels() == want


@pytest.mark.parametrize("case", ["e7p7.mod2", "e8p8.mod3", "json-algebra"])
def test_algebra_comodule_position_is_the_generic_sort(case):
    """An algebra comodule reads ``position`` off its labels, the basis of
    its module: the order the generic sort by ``_label_key`` gives."""
    M = ORDER_CASES[case]()
    assert type(M) is AlgebraComodule and M.verify()
    assert list(M.position.items()) == list(_ComoduleBase.position.func(M).items())


def test_json_labels_sort_by_degree_then_ints_then_strings():
    assert mixed_json_comodule().sorted_labels() == [0, 2, "a", "b", 5, 10]


# -- serialization ----------------------------------------------------------------

@pytest.mark.parametrize("key", ["e7p7.mod2", "e8p8.mod3"])
def test_algebra_comodule_round_trip(key):
    M = catalog.get(key)
    M2 = comodule_from_dict(comodule_to_dict(M))
    assert isinstance(M2, AlgebraComodule)
    assert M2.H == M.H
    assert M2.module.same_presentation(M.module)
    for lab in M.labels:
        assert M2.coaction_vec(lab) == M.coaction_vec(lab)


def test_basis_comodule_round_trip():
    M = quadric_comodule(8, jset_to_tuple(8, (0, 3)))
    M2 = comodule_from_dict(comodule_to_dict(M))
    assert isinstance(M2, BasisComodule)
    assert M2.sorted_labels() == M.sorted_labels()
    for lab in M.labels:
        assert M2.coaction_vec(lab) == M.coaction_vec(lab)
    assert verify_comodule(M2)


def test_tuple_labels_round_trip_through_json():
    """Restrictions and tensor products of an algebra comodule are labelled
    by tuples; a JSON file writes them as arrays and reads them back."""
    M = catalog.get("e7p7.mod2")
    for N in (restrict_comodule(M, (1, 0, 0)), tensor_comodule(M, M)):
        doc = json.loads(json.dumps(comodule_to_dict(N)))
        back = comodule_from_dict(doc)
        assert back.H == N.H and back.labels == N.labels
        for lab in N.labels:
            assert back.coaction_vec(lab) == N.coaction_vec(lab)
        assert json.loads(json.dumps(comodule_to_dict(back))) == doc


@pytest.mark.parametrize("key", [k for k in catalog.keys() if catalog.kind(k) == "bialgebra"])
def test_bialgebra_is_its_own_algebra_comodule(key):
    """The coproduct of B is the coaction of B on its own algebra."""
    B = catalog.get(key)
    M = AlgebraComodule(B, Algebra(B.prime, B.generators, B.rules), B.coproducts)
    assert M.verify()
    for mono in B.basis():
        assert M.coaction_raw(mono).terms == B.coproduct_mono(mono).terms


def test_comodule_schema_rejections():
    good = comodule_to_dict(catalog.get("e7p7.mod2"))

    bad = dict(good, flavor="module")
    with pytest.raises(SchemaError, match="flavor"):
        comodule_from_dict(bad)

    bad = dict(good)
    del bad["coaction"]
    with pytest.raises(SchemaError, match="coaction"):
        comodule_from_dict(bad)

    bad = dict(good, coaction=dict(good["coaction"], zz=[]))
    with pytest.raises(SchemaError):
        comodule_from_dict(bad)


def refusal_documents():
    """Well-formed documents for the readers: so7.mod2 (with a rule), the
    basis comodule of the quadric n = 5, J = (1,), and a one-generator
    algebra comodule rho(a) = 1 (x) a + e_1 (x) 1 over its F_2[e_1]/(e_1^2)."""
    basis = comodule_to_dict(quadric_comodule(5, (1,)))
    algebra = {"flavor": "algebra", "hopf": basis["hopf"],
               "generators": [{"name": "a", "degree": 1, "truncation": 2}],
               "coaction": {"a": [{"coeff": 1, "left": {}, "right": {"a": 1}},
                                  {"coeff": 1, "left": {"e_1": 1}, "right": {}}]}}
    return {"bialgebra": bialgebra_to_dict(catalog.get("so7.mod2")),
            "basis": basis, "algebra": algebra}


DROP = object()

# (document, field path, new value or DROP, error path, error message)
REFUSALS = [
    ("bialgebra", ("prime",), DROP, "$.prime", "prime required"),
    ("bialgebra", ("generators", 0), "e_1", "$.generators[0]",
     "expected an object, got str"),
    ("bialgebra", ("generators", 0, "name"), "", "$.generators[0].name",
     "expected a nonempty string"),
    ("bialgebra", ("rules",), {}, "$.rules", "expected an array"),
    ("bialgebra", ("rules", 0, "source"), ["e_1", 2, 1], "$.rules[0].source",
     'expected ["generator", exponent] or a monomial object'),
    ("bialgebra", ("rules", 0, "target"), DROP, "$.rules[0].target",
     "missing field"),
    ("bialgebra", ("rules", 0, "target", "monomial"), ["e_2"],
     "$.rules[0].target.monomial", "expected a monomial object, got ['e_2']"),
    ("bialgebra", ("coproducts",), [], "$.coproducts", "expected an object"),
    ("bialgebra", ("coproducts", "e_4"), [], "$.coproducts.e_4",
     "unknown generator"),
    ("bialgebra", ("coproducts", "e_1"), {}, "$.coproducts.e_1",
     "expected an array of tensor terms"),
    ("bialgebra", ("coproducts", "e_1", 0, "right"), DROP,
     "$.coproducts.e_1[0].right", "missing field"),
    ("bialgebra", ("coproducts", "e_1", 1, "left", "e_1"), 0,
     "$.coproducts.e_1[1].left.e_1", "exponent must be a positive integer, got 0"),
    ("algebra", ("hopf",), DROP, "$.hopf", "missing field"),
    ("algebra", ("degrees",), [1], "$.degrees",
     'unknown field for flavor "algebra"'),
    ("algebra", ("generators", 0, "truncation"), 1, "$",
     "generator a: truncation must be >= 2"),
    ("algebra", ("coaction",), [], "$.coaction", "expected an object"),
    ("algebra", ("coaction", "b"), [], "$.coaction.b", "unknown generator"),
    ("algebra", ("coaction",), {}, "$", "missing coaction for generators ['a']"),
    ("basis", ("rules",), [], "$.rules", 'unknown field for flavor "basis"'),
    ("basis", ("coaction",), [], "$.coaction", "expected an object"),
    ("basis", ("labels",), [], "$.labels", "expected a nonempty array"),
    ("basis", ("labels", 1), 1.5, "$.labels[1]",
     "labels must be integers or strings or nonempty arrays of labels, got 1.5"),
    ("basis", ("labels", 0), [], "$.labels[0]",
     "labels must be integers or strings or nonempty arrays of labels, got []"),
    ("basis", ("labels", 2), [0, 1.5], "$.labels[2]",
     "labels must be integers or strings or nonempty arrays of labels, got [0, 1.5]"),
    ("basis", ("labels", 1), "0", "$.labels", "labels collide as strings"),
    ("basis", ("degrees", 1), -1, "$.degrees[1]", "expected a degree >= 0, got -1"),
    ("basis", ("coaction", "4"), [], "$.coaction.4", "unknown label"),
    ("basis", ("coaction", "2", 1, "right"), 4, "$.coaction.2[1].right",
     "unknown label 4"),
    ("basis", ("coaction", "2", 1, "right"), [4], "$.coaction.2[1].right",
     "unknown label [4]"),
]


@pytest.mark.parametrize("doc,field,value,path,message", REFUSALS,
                         ids=[f"{r[0]}-{r[3]}-{r[4][:24]}" for r in REFUSALS])
def test_readers_refuse_malformed_documents(doc, field, value, path, message):
    """Each refusal of the JSON readers names the offending field's path and
    says what is wrong with it."""
    data = refusal_documents()[doc]
    *outer, last = field
    parent = data
    for key in outer:
        parent = parent[key]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    read = bialgebra_from_dict if doc == "bialgebra" else comodule_from_dict
    with pytest.raises(SchemaError) as err:
        read(data)
    assert err.value.path == path
    assert message in str(err.value), str(err.value)


def test_nonconfluent_module_rules_are_rejected():
    data = dict(NONCONFLUENT, flavor="algebra",
                hopf=comodule_to_dict(catalog.get("e7p7.mod2"))["hopf"],
                coaction={n: [{"coeff": 1, "left": {}, "right": {n: 1}}]
                          for n in "abc"})
    del data["prime"]
    with pytest.raises(SchemaError, match=r"^\$: .*" + NONCONFLUENT_ERROR):
        comodule_from_dict(data)


def test_basis_comodule_schema_alignment():
    M = quadric_comodule(7, (1, 0))
    good = comodule_to_dict(M)
    bad = dict(good, degrees=good["degrees"][:-1])
    with pytest.raises(SchemaError, match="degrees"):
        comodule_from_dict(bad)


def test_label_str_rendering():
    assert label_str("3'") == "3'"
    assert label_str(7) == "7"
    assert label_str((1, 2)) == "(1,2)"
    M = catalog.get("e7p7.mod2")
    assert M.label_str((2, 1, 0)) == "h^2*x_5"


# -- refusals ------------------------------------------------------------------------

def trivial_line(key):
    """The rank-one comodule rho(b) = 1 (x) b over a catalog bialgebra."""
    H = catalog.get(key)
    return BasisComodule(H, ("b",), {"b": 0}, {"b": [(1, H.unit_mono, "b")]})


def e8_mod3_comodule(labels, degrees):
    return BasisComodule(catalog.get("e8.mod3"), labels, degrees, {})


def a_comodule(prime, coaction):
    """An algebra comodule over e8.mod3 on one generator a, over F_prime;
    LIFT is rho(a) = 1 (x) a."""
    return AlgebraComodule(catalog.get("e8.mod3"),
                           Algebra(prime, (GeneratorDecl("a", 4, 3),)), coaction)


LIFT = [(1, (0, 0), (1,))]

COMODULE_REFUSALS = [
    ("bool-label", lambda: _label_key(True), "bad label True"),
    ("duplicate-label", lambda: e8_mod3_comodule(("a", "a"), {"a": 0}),
     "duplicate labels"),
    ("missing-degree", lambda: e8_mod3_comodule(("a", "b"), {"a": 0}),
     "missing degree for label b"),
    ("module-prime", lambda: a_comodule(2, {"a": LIFT}),
     "comodule and bialgebra must share the prime"),
    ("unknown-generator", lambda: a_comodule(3, {"a": LIFT, "z": LIFT}),
     "coaction given for unknown generators ['z']"),
    ("missing-generator", lambda: a_comodule(3, {}),
     "missing coaction for generators ['a']"),
    ("tensor-bialgebras",
     lambda: tensor_comodule(trivial_line("e8.mod3"), trivial_line("k0.pgl3")),
     "tensor factors must live over the same bialgebra"),
    ("morphism-bialgebras",
     lambda: is_comodule_morphism(trivial_line("e8.mod3"), trivial_line("k0.pgl3"),
                                  {"b": {"b": 1}}),
     "morphisms require a common bialgebra"),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in COMODULE_REFUSALS],
                         ids=[r[0] for r in COMODULE_REFUSALS])
def test_comodules_refuse_malformed_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
