"""Sparse elimination over F_p, checked on random matrices against sympy's
rank over GF(p) and against the always-reduced echelon of
``_linalg_oracle``, and the row builder against a plain sum mod p.

Rows are drawn as {column: coefficient} dicts that may be empty and may hold
zero, negative and >= p coefficients; ``kernel_basis`` receives them as
``_linalg.rows`` builds them.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _linalg_oracle import (OracleEchelon, oracle_kernel_basis, oracle_rref,
                            sympy_rank_mod_p)
from hopfmotives import _linalg


@st.composite
def sparse_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ncols = draw(st.integers(1, 12))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1),
                                         st.integers(-2 * p, 2 * p)),
                         max_size=12))
    return p, ncols, rows


def built(rows, ncols, p):
    """The rows as ``_linalg.rows`` builds them, one key per row."""
    return _linalg.rows([(n, k, c) for n, row in enumerate(rows) for k, c in row.items()],
                        ncols, p)


def dense(row, ncols):
    return [row.get(k, 0) for k in range(ncols)]


def rank(rows, ncols, p):
    return sympy_rank_mod_p([dense(r, ncols) for r in rows], p)


def entries(kernel):
    """Every vector as its list of items, so that == also compares the
    order of the entries."""
    return [list(v.items()) for v in kernel]


# -- the row builder ---------------------------------------------------------------

def plain_rows(stream, p):
    """{key: {column: coefficient}}, the entries summed one by one mod p,
    zero coefficients dropped, keys in first-seen order."""
    out = {}
    for key, j, c in stream:
        row = out.setdefault(key, {})
        row[j] = (row.get(j, 0) + c) % p
    return {key: {j: c for j, c in row.items() if c} for key, row in out.items()}


@st.composite
def entry_streams(draw):
    """(key, column, coefficient) entries at p = 2, 3 or 5 on up to 100
    columns, so that rows packed at p = 2 cross CPython's 30-bit int digits.
    Keys come from a few, so that most repeat; coefficients run outside
    0..p-1; some entries are followed somewhere by one that cancels them
    mod p; and the entries of one key may be copied under a new key, a
    repeated row that only the builder can drop."""
    p = draw(st.sampled_from([2, 3, 5]))
    ncols = draw(st.integers(1, 100))
    key = st.sampled_from(["a", "b", (0, "c"), 7])
    entry = st.tuples(key, st.integers(0, ncols - 1), st.integers(-3 * p, 3 * p))
    stream = draw(st.lists(entry, max_size=30))
    for k, j, c in draw(st.lists(st.sampled_from(stream), max_size=6)) if stream else ():
        stream.insert(draw(st.integers(0, len(stream))),
                      (k, j, -c + p * draw(st.integers(-1, 1))))
    if stream and draw(st.booleans()):
        src = draw(st.sampled_from(stream))[0]
        stream += [("copy", j, c) for k, j, c in stream if k == src]
    return p, ncols, stream


@settings(max_examples=300, deadline=None)
@given(entry_streams())
@example((2, 3, [("a", 0, 2), ("b", 1, 1), ("a", 2, -1), ("b", 1, 3), ("c", 2, 1)]))
@example((3, 3, [("a", 0, 4), ("b", 0, 1), ("a", 1, 3), ("c", 2, -2), ("c", 2, 2)]))
def test_rows_are_the_distinct_nonzero_sums_mod_p(case):
    """One row per key, in first-seen order of the keys, each the plain
    sum of its entries mod p; rows that sum to zero and repeats of an
    earlier row are dropped.  At p = 2 a row is an int with column j at
    bit ncols - 1 - j, otherwise a dict of coefficients in 1..p-1.  The
    entries may come as a one-pass iterator."""
    p, ncols, stream = case
    want = []
    for row in plain_rows(stream, p).values():
        x = sum(1 << (ncols - 1 - j) for j in row) if p == 2 else row
        if row and x not in want:
            want.append(x)
    got = _linalg.rows(iter(stream), ncols, p)
    assert got == want
    assert all(type(x) is (int if p == 2 else dict) for x in got)


# -- kernels ------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_kernel_basis_annihilates_the_rows(case):
    """The kernel of the built rows has ncols - rank vectors, independent
    and annihilating every row; it is reduced: vector f is 1 at its own
    column f, its last, and 0 at every other vector's, in ascending f."""
    p, ncols, rows = case
    kernel = _linalg.kernel_basis(built(rows, ncols, p), ncols, p)
    assert len(kernel) == ncols - rank(rows, ncols, p)
    assert rank(kernel, ncols, p) == len(kernel)
    free = [max(v) for v in kernel]
    assert free == sorted(set(free))
    for v, f in zip(kernel, free):
        assert v[f] == 1 and not any(g in v for g in free if g != f)
        assert all(0 < c < p for c in v.values())
        for row in rows:
            assert sum(c * v.get(k, 0) for k, c in row.items()) % p == 0


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_rref_is_reduced_and_spans_the_rows(case):
    """``Echelon.rows`` is the reduced row echelon form of the rows added:
    one row per pivot, 1 at its pivot, its least column, and 0 at every
    other pivot; as many rows as the rank, and every added row in their
    span."""
    p, ncols, rows = case
    ech = _linalg.Echelon(ncols, p)
    for row in rows:
        ech.add(row)
    pivots = sorted(ech.rows)
    reduced = [ech.rows[pc] for pc in pivots]
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
def test_kernel_does_not_depend_on_row_order_or_repeats(case, rnd):
    """The rows built in any order, with every row given twice, or handed
    to ``kernel_basis`` twice over, give the oracle's kernel, down to the
    order of each vector's entries at p = 2."""
    p, ncols, rows = case
    want = oracle_kernel_basis(rows, ncols, p)
    first = _linalg.kernel_basis(built(rows, ncols, p), ncols, p)
    assert first == want
    shuffled = rnd.sample(rows, len(rows))
    for order in (shuffled, rows[::-1], rows + shuffled):
        system = built(order, ncols, p)
        for got in (_linalg.kernel_basis(system, ncols, p),
                    _linalg.kernel_basis(system[::-1] + system, ncols, p)):
            assert got == want
            if p == 2:
                assert entries(got) == entries(first)


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
def test_f2_kernel_matches_the_oracle(case):
    """The built rows are distinct, and their kernel is the oracle's; each
    vector holds its own column first, then the pivots it meets in
    descending order."""
    ncols, rows = case
    system = built(rows, ncols, 2)
    assert len(set(system)) == len(system) and 0 not in system
    kernel = _linalg.kernel_basis(system, ncols, 2)
    assert kernel == oracle_kernel_basis(rows, ncols, 2)
    for v in kernel:
        f, *pivots = v
        assert f == max(v) and pivots == sorted(pivots, reverse=True)
        assert all(c == 1 for c in v.values())


@pytest.mark.parametrize("p, ncols, c", [(5, 40, 2), (2, 240, 3)],
                         ids=["p5", "p2"])
def test_kernel_of_a_larger_random_system_matches_the_oracle(p, ncols, c):
    """A system of ncols rows plus half as many dependent ones, c * a - b
    for rows a and b (a + b over F_2), in three orders: 60 x 40 over F_5,
    and 360 x 240 over F_2, whose packed rows span eight 30-bit digits."""
    rnd = random.Random(11)
    rows = [{rnd.randrange(ncols): rnd.randrange(-p, 2 * p) for _ in range(4)}
            for _ in range(ncols)]
    rows += [{k: c * a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}
             for a, b in zip(rows, rows[1:ncols // 2 + 1])]
    want = oracle_kernel_basis(rows, ncols, p)
    assert len(want) == ncols - len(oracle_rref(rows, ncols, p)[0])
    for order in (rows, rows[::-1], rnd.sample(rows, len(rows))):
        assert _linalg.kernel_basis(built(order, ncols, p), ncols, p) == want
