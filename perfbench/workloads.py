"""The four benchmark workloads, as op lists built from a seed.

An op is one call into the library, timed on its own.  Every op reaches the
library through module attributes looked up at call time (``jinv.is_bi_ideal``,
never a name bound at import), so the tracer's patched functions are the ones
that run.  All inputs are fixed here rather than read from the library (the
catalog key list, the J-tuple pools), so a later commit that adds catalog
entries still runs the same workload.

The seed picks the sampled inputs and the op order; the op list of one run
is the same on every pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

from hopfmotives import catalog, cli, comod, dual, jinv, motdec

import checks


class Refused(Exception):
    """The library declined an input: a ValueError, or exit code 2 from the CLI."""


class Op:
    """One timed library call.

    ``call`` returns the result or raises ``Refused``; ``before`` runs
    untimed just ahead of it; ``render`` gives the canonical text that is
    compared with the recorded output; ``check`` lists structural problems
    that hold for any seed.
    """

    __slots__ = ("id", "call", "before", "render", "check")

    def __init__(self, id, call, render=None, check=None, before=None):
        self.id = id
        self.call = call
        self.before = before
        self.render = render or checks.canonical
        self.check = check or (lambda result: [])


def _library(fn):
    """Turn a ValueError from the library into a refusal."""
    def call():
        try:
            return fn()
        except ValueError as exc:
            raise Refused(str(exc)) from None
    return call


# -- cli-tour ------------------------------------------------------------------

WORK_DIR = ".perfbench_work"

# every command of the README tour, run in text and json form
README_COMMANDS = (
    ["catalog", "list"],
    ["catalog", "show", "g2.mod2"],
    ["verify", "e8.mod2"],
    ["verify", "{work}/g2.json"],
    ["quotient", "so13.mod2", "--jtuple", "1,1,0"],
    ["poincare", "e8.mod3", "--jtuple", "1,1"],
    ["dual", "k0.pgl3"],
    ["dual", "k2.e8.mod3", "--alpha", "1"],
    ["quadric", "--n", "12", "--jset", "0,1,2,4,5",
     "--extra-edges", "{work}/vishik_dim10.json"],
    ["rpe", "e8p8.mod3", "--jtuple", "1,1"],
    ["coinv", "e7p7.mod2", "--degree", "9"],
    ["grouplikes", "k0.pgl3"],
)
# --dot ignores --format, so it runs once
DOT_COMMAND = ["quadric", "--n", "7", "--jset", "1,2", "--dot"]


def run_cli(argv):
    """cli.main with stdout and stderr captured; exit code 2 is a refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 2:
        raise Refused(err.getvalue().strip())
    return code, out.getvalue()


def _render_cli(result):
    code, out = result
    return f"exit {code}\n{out}"


def _cold_catalog():
    catalog._cache.clear()


def write_tour_files():
    """The two files the README tour reads: g2.json and the dim-10 edges."""
    os.makedirs(WORK_DIR, exist_ok=True)
    _code, out = run_cli(["catalog", "show", "g2.mod2", "--format", "json"])
    with open(os.path.join(WORK_DIR, "g2.json"), "w") as fh:
        fh.write(out)
    with open(os.path.join(WORK_DIR, "vishik_dim10.json"), "w") as fh:
        json.dump({"edges": [list(e) for e in catalog.vishik_edges(10)]}, fh)


def cli_tour_ops(rng):
    """Every README command through cli.main, each with the catalog cache
    emptied first, as a fresh CLI process would see it."""
    argvs = []
    for argv in README_COMMANDS:
        argv = [a.format(work=WORK_DIR) for a in argv]
        argvs.append(argv)
        argvs.append(argv + ["--format", "json"])
    argvs.append(DOT_COMMAND)
    ops = [Op("cli " + " ".join(a), (lambda a: lambda: run_cli(a))(a),
              render=_render_cli, before=_cold_catalog)
           for a in argvs]
    rng.shuffle(ops)
    return ops


# -- dual-blocks ---------------------------------------------------------------

# so9.mod2 is left out: its dual takes 15-19 s, and the p^(dim-1) group-like
# search it spends that on is already timed by e8.mod3.
DUAL_KEYS = (
    "so5.mod2", "so7.mod2", "so11.mod2", "so13.mod2", "g2.mod2", "e7sc.mod2",
    "e8.mod2", "e8.mod3", "k0.sc.mod2", "k0.pgl2", "k0.pgl3", "k0.pgl5",
    "morava.rost.mod2", "k2.g2.mod2", "k2.f4.mod2", "k2.e6.mod2",
    "k2.f4.mod3.a1", "k2.f4.mod3.a2", "k2.e6sc.mod3.a1", "k2.e6sc.mod3.a2",
    "k2.e7.mod3.a1", "k2.e7.mod3.a2", "k2.e8.mod3.a1", "k2.e8.mod3.a2",
    "k2.e8.mod5.a1", "k2.e8.mod5.a2", "k2.e8.mod5.a3", "k2.e8.mod5.a4",
)
GROUPLIKE_KEYS = ("e8.mod3", "so7.mod2", "k0.sc.mod2", "k0.pgl2", "k0.pgl3",
                  "k0.pgl5", "e8.mod2")
LINE_TABLE_KEYS = ("k0.pgl2", "k0.pgl3", "k0.pgl5")

# The 34 J-tuples of e8.mod2 that cut out a bi-ideal, in two classes as the
# code behaves at the recording commit; all run in every pass, so the change
# that makes a refused one answer shows.  Left out: the six dimension-16
# quotients whose dual falls back to the 2^16 exhaustive search (14-18 s
# each), (0,2,1,1) (1,1,1,1) (1,2,0,1) (2,0,1,1) (2,1,0,1) (3,0,0,1).
E8_MOD2_ANSWERED = (
    (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0),
    (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (0, 2, 0, 1), (1, 0, 0, 0),
    (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 1),
    (1, 1, 1, 0), (2, 0, 0, 0), (2, 0, 0, 1), (2, 1, 0, 0),
)
E8_MOD2_REFUSED = (
    (1, 2, 1, 1), (2, 1, 1, 1), (2, 2, 0, 1), (2, 2, 1, 1), (3, 0, 1, 1),
    (3, 1, 0, 1), (3, 1, 1, 1), (3, 2, 0, 1), (3, 2, 1, 1),
)


def _jtext(J):
    return ",".join(map(str, J))


def _dual_op(key):
    return Op(f"dual {key}",
              _library(lambda: dual.decompose(catalog.get(key))),
              check=lambda blocks: checks.blocks(catalog.get(key), blocks))


def _dual_quotient_op(key, J):
    def call():
        return dual.decompose(jinv.quotient_bialgebra(catalog.get(key), J))

    def check(blocks):
        return checks.blocks(jinv.quotient_bialgebra(catalog.get(key), J),
                             blocks)
    return Op(f"dual {key} --jtuple {_jtext(J)}", _library(call), check=check)


def _grouplikes_op(key):
    return Op(f"grouplikes {key}",
              _library(lambda: catalog.get(key).find_grouplikes()),
              check=lambda gs: checks.grouplikes(catalog.get(key), gs))


def _line_table_op(key):
    return Op(f"line_tensor_table {key}",
              _library(lambda: motdec.line_tensor_table(catalog.get(key))),
              check=checks.group_table)


def dual_blocks_ops(rng):
    """dual on every catalog bialgebra but so9.mod2 and on 28 e8.mod2
    J-quotients, plus group-likes and rank-one tensor tables.

    Nothing is sampled: the op costs spread from 0.1 ms to 1.5 s, and a
    sample would move the p50 and p90 with the seed.  The seed sets the order.
    """
    ops = ([_dual_op(k) for k in DUAL_KEYS]
           + [_dual_quotient_op("e8.mod2", J)
              for J in E8_MOD2_ANSWERED + E8_MOD2_REFUSED]
           + [_grouplikes_op(k) for k in GROUPLIKE_KEYS]
           + [_line_table_op(k) for k in LINE_TABLE_KEYS])
    rng.shuffle(ops)
    return ops


# -- bi-ideal-scan -------------------------------------------------------------

# all 48: e_3, e_5, e_9, e_15 have truncations 2^3, 2^2, 2, 2
E8_MOD2_JTUPLES = tuple(itertools.product(range(4), range(3), range(2),
                                          range(2)))
# criterion 07's family: e_15 + a e_5^3 + b e_3^5 + c e_3^2 e_9
CRITERION07_TERMS = ((0, 0, 0, 1), (0, 3, 0, 0), (5, 0, 0, 0), (2, 0, 1, 0))
CRITERION07_ABC = tuple(itertools.product((0, 1), repeat=3))
SAMPLED_ELEMENTS = 4
QUADRIC_NS = range(16, 20)


def _element(abc):
    terms = {CRITERION07_TERMS[0]: 1}
    terms.update({m: c for m, c in zip(CRITERION07_TERMS[1:], abc)})
    return terms


def _bi_ideal_op(J):
    return Op(f"is_bi_ideal e8.mod2 {_jtext(J)}",
              _library(lambda: jinv.is_bi_ideal(catalog.get("e8.mod2"), J)),
              check=lambda r: checks.bi_ideal(catalog.get("e8.mod2"), J, r))


def _maxima_op(abc):
    terms = _element(abc)

    def call():
        B = catalog.get("e8.mod2")
        return jinv.containment_maxima(B, B.element(terms))
    return Op("containment_maxima e8.mod2 a,b,c=" + _jtext(abc),
              _library(call),
              check=lambda r: checks.maxima(catalog.get("e8.mod2"), terms, r))


def quadric_shape(n):
    """(m, odd generator degrees d, exponents k_d) of the SO_n Borel form."""
    m = (n - 1) // 2
    odds = list(range(1, m + 1, 2))
    ks = [max(l + 1 for l in range(m) if (2 ** l) * d <= m) for d in odds]
    return m, odds, ks


def valid_jsets(n):
    """All quadric J-sets of a form in n variables, with their J-tuples.

    The complement in {1..m} must be closed under halving even members; 0
    belongs exactly when n is even.  The J-tuple counts, per odd d, the
    members 2^l d missing from the J-set.
    """
    m, odds, ks = quadric_shape(n)
    out = []
    for r in range(m + 1):
        for missing in itertools.combinations(range(1, m + 1), r):
            gone = set(missing)
            if any(x % 2 == 0 and x // 2 not in gone for x in gone):
                continue
            members = sorted(set(range(1, m + 1)) - gone
                             | ({0} if n % 2 == 0 else set()))
            J = tuple(sum(1 for l in range(k) if (2 ** l) * d in gone)
                      for d, k in zip(odds, ks))
            out.append((tuple(members), J))
    return out


def quadric_strata(n):
    """(the J-set with the largest ideal, the J-sets whose quotient has at
    most 1/16 of the dimension).  Ops in the second class cost close to the
    first, so a seeded pick barely changes the work per pass."""
    _m, _odds, ks = quadric_shape(n)
    jsets = valid_jsets(n)
    largest = [s for s, J in jsets if not any(J)]
    near = [s for s, J in jsets if any(J) and sum(J) <= sum(ks) - 4]
    return largest[0], near


def _quadric_op(n, members):
    def call():
        M = comod.quadric_comodule(n, jinv.jset_to_tuple(n, members))
        return motdec.partition_blocks(M)
    return Op(f"quadric --n {n} --jset {_jtext(members)}", _library(call),
              check=lambda blocks: checks.quadric(n, members, blocks))


def bi_ideal_scan_ops(rng):
    """is_bi_ideal over all 48 J-tuples of e8.mod2, containment_maxima on a
    seeded sample of criterion 07's elements, and quadric partitions for
    n = 16..19: the largest-ideal J-set plus one seeded near-largest one."""
    ops = ([_bi_ideal_op(J) for J in E8_MOD2_JTUPLES]
           + [_maxima_op(abc)
              for abc in rng.sample(CRITERION07_ABC, SAMPLED_ELEMENTS)])
    for n in QUADRIC_NS:
        largest, near = quadric_strata(n)
        ops.append(_quadric_op(n, largest))
        ops.append(_quadric_op(n, rng.choice(near)))
    rng.shuffle(ops)
    return ops


def bi_ideal_scan_pool():
    ops = ([_bi_ideal_op(J) for J in E8_MOD2_JTUPLES]
           + [_maxima_op(abc) for abc in CRITERION07_ABC])
    for n in QUADRIC_NS:
        largest, near = quadric_strata(n)
        ops += [_quadric_op(n, s) for s in [largest] + near]
    return ops


# -- comod-coinv ---------------------------------------------------------------

E8_MOD3_JTUPLES = ((0, 0), (0, 1), (1, 0), (1, 1))   # all cut out bi-ideals
E7P7_SQUARED_DEGREES = range(0, 55)


def _tensor_op(state):
    def call():
        M = catalog.get("e7p7.mod2")
        state["tensor"] = comod.tensor_comodule(M, M)
        return state["tensor"]
    return Op("tensor_comodule e7p7.mod2 e7p7.mod2", _library(call),
              render=checks.comodule_summary)


def _tensor_coinv_op(state, d):
    return Op(f"coinvariants e7p7.mod2^2 --degree {d}",
              _library(lambda: comod.coinvariants(state["tensor"], degree=d)),
              check=lambda vecs: checks.coinvariant(state["tensor"], vecs))


def _coinv_op(J):
    def module():
        E = catalog.get("e8p8.mod3")
        return E if J is None else comod.restrict_comodule(E, J)

    def check(vecs):
        return checks.coinvariant(module(), vecs)
    name = "coinv e8p8.mod3" + ("" if J is None else f" --jtuple {_jtext(J)}")
    return Op(name, _library(lambda: comod.coinvariants(module())),
              check=check)


def _rpe_op(J):
    return Op(f"rpe e8p8.mod3 --jtuple {_jtext(J)}",
              _library(lambda: motdec.rpe_summands(catalog.get("e8p8.mod3"), J)),
              check=lambda pairs: checks.rpe(catalog.get("e8p8.mod3"), J, pairs))


def comod_coinv_ops(rng):
    """The 3136-rank tensor square of e7p7.mod2 and its coinvariants in each
    of its 55 degrees, then global and per-J-tuple coinvariants and rpe on
    e8p8.mod3.  The tensor op runs first: the degree ops read its result."""
    state = {}
    rest = ([_tensor_coinv_op(state, d) for d in E7P7_SQUARED_DEGREES]
            + [_coinv_op(None)]
            + [_coinv_op(J) for J in E8_MOD3_JTUPLES]
            + [_rpe_op(J) for J in E8_MOD3_JTUPLES])
    rng.shuffle(rest)
    return [_tensor_op(state)] + rest


# -- registry -------------------------------------------------------------------

WORKLOADS = {
    "cli-tour": cli_tour_ops,
    "dual-blocks": dual_blocks_ops,
    "bi-ideal-scan": bi_ideal_scan_ops,
    "comod-coinv": comod_coinv_ops,
}


def build(name, seed):
    """The op list of a workload for a seed (writes the tour's input files)."""
    if name == "cli-tour":
        write_tour_files()
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def pool(name):
    """Every op the workload can draw under any seed."""
    if name == "bi-ideal-scan":
        return bi_ideal_scan_pool()
    return build(name, 0)   # the other workloads sample nothing
