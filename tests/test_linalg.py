"""Sparse elimination over F_p, checked on random matrices against sympy's
rank over GF(p), and against an always-reduced echelon kept here as the
oracle for the forward-only one and for the packed route at p = 2.

Rows are drawn as {column: coefficient} dicts that may be empty and may hold
zero, negative and >= p coefficients.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfmotives import _linalg
from test_dual import sympy_rank_mod_p


@st.composite
def sparse_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ncols = draw(st.integers(1, 12))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1),
                                         st.integers(-2 * p, 2 * p)),
                         max_size=12))
    return p, ncols, rows


class OracleEchelon:
    """The reduced row echelon form of the rows added so far, kept fully
    reduced after every ``add``: back-substitution at once, rows taken in
    the order given."""

    def __init__(self, ncols, p):
        self.ncols = ncols
        self.p = p
        self.rows = {}  # pivot column -> row

    def add(self, vec):
        p, rows = self.p, self.rows
        vec = dict(vec)
        for j in [j for j in vec if j in rows]:
            c = vec[j]
            for k, y in rows[j].items():
                vec[k] = vec.get(k, 0) - c * y
        vec = {k: x % p for k, x in vec.items() if x % p}
        if not vec:
            return False
        piv = min(vec)
        inv = pow(vec[piv], -1, p)
        new = {k: x * inv % p for k, x in vec.items()}
        for row in [r for r in rows.values() if piv in r]:
            c = row[piv]
            for k, y in new.items():
                x = (row.get(k, 0) - c * y) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
        rows[piv] = new
        return True

    def kernel(self):
        basis = {f: {f: 1} for f in range(self.ncols) if f not in self.rows}
        for piv, row in self.rows.items():
            for f, c in row.items():
                if f != piv:
                    basis[f][piv] = -c % self.p
        return list(basis.values())


def oracle_echelon(rows, ncols, p):
    ech = OracleEchelon(ncols, p)
    for row in rows:
        ech.add(row)
    return ech


def oracle_rref(rows, ncols, p):
    ech = oracle_echelon(rows, ncols, p)
    pivots = sorted(ech.rows)
    return [ech.rows[c] for c in pivots], pivots


def oracle_kernel_basis(rows, ncols, p):
    return oracle_echelon(rows, ncols, p).kernel()


def dense(row, ncols):
    return [row.get(k, 0) for k in range(ncols)]


def rank(rows, ncols, p):
    return sympy_rank_mod_p([dense(r, ncols) for r in rows], p)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_rref_is_reduced_and_spans_the_rows(case):
    p, ncols, rows = case
    reduced, pivots = _linalg.rref(rows, ncols, p)
    assert pivots == sorted(set(pivots)) and len(reduced) == len(pivots)
    for row, pc in zip(reduced, pivots):
        assert min(row) == pc and row[pc] == 1
        assert all(0 < c < p for c in row.values())
        assert not any(q in row for q in pivots if q != pc)
    assert len(reduced) == rank(rows, ncols, p)
    for vec in rows:
        # in the span iff vec minus its pivot coefficients times the rows is 0
        rest = dense(vec, ncols)
        for row, pc in zip(reduced, pivots):
            c = vec.get(pc, 0)
            rest = [x - c * y for x, y in zip(rest, dense(row, ncols))]
        assert not any(x % p for x in rest)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_annihilates_the_rows(case):
    p, ncols, rows = case
    kernel = _linalg.kernel_basis(rows, ncols, p)
    assert len(kernel) == ncols - rank(rows, ncols, p)
    assert rank(kernel, ncols, p) == len(kernel)
    for v in kernel:
        assert all(0 < c < p for c in v.values())
        for row in rows:
            assert sum(c * v.get(k, 0) for k, c in row.items()) % p == 0


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_echelon_add_reports_a_rank_increase(case):
    p, ncols, rows = case
    ech = _linalg.Echelon(ncols, p)
    for n, row in enumerate(rows):
        grew = rank(rows[:n + 1], ncols, p) > rank(rows[:n], ncols, p)
        assert ech.add(row) == grew


@st.composite
def echelon_sessions(draw):
    """Steps on one echelon: add a row (a dict), read ``rows`` or take
    ``kernel()``."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ncols = draw(st.integers(1, 12))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-2 * p, 2 * p))
    steps = draw(st.lists(st.one_of(row, st.sampled_from(["rows", "kernel"])),
                          max_size=20))
    return p, ncols, steps


@settings(max_examples=300, deadline=None)
@given(echelon_sessions())
def test_echelon_matches_the_always_reduced_oracle(case):
    p, ncols, steps = case
    ech, oracle = _linalg.Echelon(ncols, p), OracleEchelon(ncols, p)
    for step in steps + ["rows", "kernel"]:
        if step == "rows":
            assert ech.rows == oracle.rows
        elif step == "kernel":
            assert ech.kernel() == oracle.kernel()
        else:
            assert ech.add(step) == oracle.add(step)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.lists(sparse_matrices(), max_size=3))
def test_add_closure_spans_the_least_closed_subspace(case, maps):
    """The span after ``add_closure`` is the least one holding the vectors
    and closed under the maps (a map's row k is its image of column k),
    found by the oracle taking every image until the rank stops growing;
    the vectors returned are a basis of what was added, and each of them
    is mapped once by each map."""
    p, ncols, vectors = case
    gens = [{k: row for k, row in enumerate(rows[:ncols])} for _p, _n, rows in maps]
    calls = []

    def apply(g, v):
        calls.append(1)
        out = {}
        for k, c in v.items():
            for j, d in g.get(k, {}).items():
                if j < ncols:
                    out[j] = out.get(j, 0) + c * d
        return out

    ech = _linalg.Echelon(ncols, p)
    new = ech.add_closure(vectors, gens, apply)
    assert len(calls) == len(new) * len(gens)
    span, size = oracle_rref(vectors, ncols, p)[0], -1
    while len(span) > size:
        size = len(span)
        span = oracle_rref(span + [apply(g, v) for g in gens for v in span],
                           ncols, p)[0]
    assert ech.rows == {min(row): row for row in span}
    assert len(new) == len(span) == rank(new, ncols, p)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.randoms(use_true_random=False))
@example((2, 6, [{0: 1, 3: 3, 5: 1}, {1: 1, 3: -1}, {}, {0: 3, 3: 1, 5: 5}, {2: 2}]),
         random.Random(0))
def test_rref_and_kernel_do_not_depend_on_row_order(case, rnd):
    p, ncols, rows = case
    shuffled = rnd.sample(rows, len(rows))
    want_rref = oracle_rref(rows, ncols, p)
    want_kernel = oracle_kernel_basis(rows, ncols, p)
    for order in (rows, shuffled, rows[::-1]):
        assert _linalg.rref(order, ncols, p) == want_rref
        assert _linalg.kernel_basis(order, ncols, p) == want_kernel


@st.composite
def f2_matrices(draw):
    """Rows for p = 2 on up to 100 columns, so that packed rows cross
    CPython's 30-bit int digits, with rows repeated or equal only mod 2
    (odd coefficients moved by even ones, even entries added) inserted."""
    ncols = draw(st.integers(1, 100))
    col = st.integers(0, ncols - 1)
    rows = draw(st.lists(st.dictionaries(col, st.integers(-4, 4)), max_size=16))
    for _ in range(draw(st.integers(0, 8)) if rows else 0):
        row = draw(st.sampled_from(rows))
        twin = {k: c + 2 * draw(st.integers(-2, 2)) for k, c in row.items()}
        for k in draw(st.lists(col, max_size=3)):
            twin.setdefault(k, 2 * draw(st.integers(-2, 2)))
        rows.insert(draw(st.integers(0, len(rows))), twin)
    return ncols, rows + draw(st.lists(st.just({}), max_size=2))


@settings(max_examples=300, deadline=None)
@given(f2_matrices())
def test_f2_rref_and_kernel_match_the_oracle(case):
    ncols, rows = case
    reduced, pivots = _linalg.rref(rows, ncols, 2)
    kernel = _linalg.kernel_basis(rows, ncols, 2)
    assert (reduced, pivots) == oracle_rref(rows, ncols, 2)
    assert kernel == oracle_kernel_basis(rows, ncols, 2)
    assert all(c == 1 for v in reduced + kernel for c in v.values())
    # read off the packed rows, the kernel is what the unpacked rows give,
    # down to the order of each vector's entries
    unpacked = _linalg._kernel(_linalg._f2_reduced(rows, ncols), ncols, 2)
    assert [list(v.items()) for v in kernel] == [list(v.items()) for v in unpacked]


@pytest.mark.parametrize("p, ncols, c", [(5, 40, 2), (2, 240, 3)],
                         ids=["p5", "p2"])
def test_rref_of_a_larger_random_system_matches_the_oracle(p, ncols, c):
    """A system of ncols rows plus half as many dependent ones, c * a - b
    for rows a and b (a + b over F_2), in three orders: 60 x 40 over F_5,
    and 360 x 240 over F_2, whose packed rows span eight 30-bit digits."""
    rnd = random.Random(11)
    rows = [{rnd.randrange(ncols): rnd.randrange(-p, 2 * p) for _ in range(4)}
            for _ in range(ncols)]
    rows += [{k: c * a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}
             for a, b in zip(rows, rows[1:ncols // 2 + 1])]
    want = oracle_rref(rows, ncols, p), oracle_kernel_basis(rows, ncols, p)
    for order in (rows, rows[::-1], rnd.sample(rows, len(rows))):
        assert (_linalg.rref(order, ncols, p),
                _linalg.kernel_basis(order, ncols, p)) == want
