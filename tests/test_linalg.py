"""Sparse elimination over F_p, checked on random matrices against sympy's
rank over GF(p).

Rows are drawn as {column: coefficient} dicts that may be empty and may hold
zero, negative and >= p coefficients.
"""

from __future__ import annotations

from hypothesis import given, settings
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
