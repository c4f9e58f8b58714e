"""Built-in presentations, Weyl group data, and frozen decomposition inputs.

Every entry is constructed in code, verified on first access, and cached.
Set HOPFMOTIVES_CATALOG_DIR to a directory of ``<key>.json`` files to
override or extend the built-ins: a file there wins over the built-in entry
with the same key and is subject to the same verification.

Weyl group degree tables are frozen here (they are classical); the test
suite re-derives the small-rank ones from Cartan matrices by breadth-first
enumeration.  ``jtuple_instances`` lists (catalog key, Weyl type, J-tuple)
triples for which the Poincare polynomial of the quotient divides the full
flag-variety polynomial exactly -- the bookkeeping behind counting Tate
twists of upper-motive summands.

The extra decomposition edges for low-dimensional quadrics
(``vishik_edges``) are shipped as data: they encode known binary-motive
relations that no coaction computation produces.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple

from .algebra import (Algebra, Bialgebra, GeneratorDecl, RewriteRule,
                      SchemaError, bialgebra_from_dict, gen_mono,
                      primitive_bialgebra)
from .comod import AlgebraComodule, comodule_from_dict
from .jinv import PoincarePoly

ENV_DIR = "HOPFMOTIVES_CATALOG_DIR"


# -- Weyl group degree tables ---------------------------------------------------

_EXCEPTIONAL_DEGREES = {
    ("G", 2): (2, 6),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def weyl_degrees(series, rank):
    """Fundamental degrees of the Weyl group of the given Cartan type."""
    series = series.upper()
    if not isinstance(rank, int) or rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank!r}")
    if series == "A":
        return tuple(range(2, rank + 2))
    if series in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if series == "D":
        if rank < 2:
            raise ValueError("series D needs rank >= 2")
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    if (series, rank) in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[(series, rank)]
    raise ValueError(f"unknown Weyl group type {series}{rank}")


def weyl_poincare(series, rank):
    """Poincare polynomial of the full flag variety: prod (t^d - 1)/(t - 1)."""
    out = PoincarePoly.one()
    for d in weyl_degrees(series, rank):
        out = out * PoincarePoly.geometric(1, d)
    return out


def weyl_order(series, rank):
    return math.prod(weyl_degrees(series, rank))


# -- entry builders -------------------------------------------------------------


def _so_chow(n):
    """F_2[e_1..e_m]/(e_i^2 = e_{2i}), every generator primitive."""
    m = (n - 1) // 2
    gens = tuple(GeneratorDecl(f"e_{i}", i, 2) for i in range(1, m + 1))
    return primitive_bialgebra(2, gens, tuple(
        RewriteRule(gen_mono(m, i - 1, 2), gen_mono(m, 2 * i - 1))
        for i in range(1, m + 1) if 2 * i <= m))


def _e7sc_mod2():
    return primitive_bialgebra(2, (GeneratorDecl("e_3", 3, 2),
                                   GeneratorDecl("e_5", 5, 2),
                                   GeneratorDecl("e_9", 9, 2)))


def _e8_mod3():
    return primitive_bialgebra(3, (GeneratorDecl("e_4", 4, 3),
                                   GeneratorDecl("e_10", 10, 3)))


def _e8_mod2():
    gens = (GeneratorDecl("e_3", 3, 8), GeneratorDecl("e_5", 5, 4),
            GeneratorDecl("e_9", 9, 2), GeneratorDecl("e_15", 15, 2))
    zero = (0, 0, 0, 0)
    cops = dict(primitive_bialgebra(2, gens).coproducts)
    cops["e_15"] = [(1, (0, 0, 0, 1), zero), (1, (0, 0, 1, 0), (2, 0, 0, 0)),
                    (1, (0, 1, 0, 0), (0, 2, 0, 0)), (1, (1, 0, 0, 0), (4, 0, 0, 0)),
                    (1, zero, (0, 0, 0, 1))]
    return Bialgebra(2, gens, (), cops)


def _e7p7_mod2():
    H = get("e7sc.mod2")
    module = Algebra(2, (GeneratorDecl("h", 1, 14), GeneratorDecl("x_5", 5, 2),
                         GeneratorDecl("x_9", 9, 2)))
    zero3 = (0, 0, 0)
    coaction = {
        "h":   [(1, zero3, (1, 0, 0))],
        "x_5": [(1, (0, 1, 0), (0, 0, 0)), (1, (1, 0, 0), (2, 0, 0)),
                (1, zero3, (0, 1, 0))],
        "x_9": [(1, (0, 0, 1), (0, 0, 0)), (1, (0, 1, 0), (4, 0, 0)),
                (1, zero3, (0, 0, 1))],
    }
    return AlgebraComodule(H, module, coaction)


def _e8p8_mod3():
    H = get("e8.mod3")
    # declared so that rewrite targets are lexicographically smaller
    module = Algebra(3, (GeneratorDecl("x_10", 10, 3), GeneratorDecl("x_6", 6, 4),
                         GeneratorDecl("h", 1, 26)),
                     (RewriteRule((3, 0, 0), (0, 1, 24), 2),
                      RewriteRule((0, 4, 0), (0, 0, 24), 2),
                      RewriteRule((0, 3, 2), None)))
    coaction = {
        "h":    [(1, (0, 0), (0, 0, 1))],
        "x_6":  [(1, (1, 0), (0, 0, 2)), (1, (0, 0), (0, 1, 0))],
        "x_10": [(1, (0, 1), (0, 0, 0)), (1, (2, 0), (0, 0, 2)),
                 (2, (1, 0), (0, 1, 0)), (1, (0, 0), (1, 0, 0))],
    }
    return AlgebraComodule(H, module, coaction)


def _k0_pgl(p):
    return Bialgebra(p, (GeneratorDecl("x", 1, p),), (),
                     {"x": [(1, (1,), (0,)), (1, (0,), (1,)), (-1, (1,), (1,))]})


def _k0_sc():
    return Bialgebra(2, (), (), {})


def _morava_rost():
    return Bialgebra(2, (GeneratorDecl("x", 3, 2),), (),
                     {"x": [(1, (1,), (0,)), (1, (0,), (1,)), (1, (1,), (1,))]})


def _k2_typeone(p, alpha):
    name = f"x_{p + 1}"
    terms = [(1, (1,), (0,)), (1, (0,), (1,))]
    for i in range(1, p):
        terms.append((alpha * (math.comb(p, i) // p), (i,), (p - i,)))
    return Bialgebra(p, (GeneratorDecl(name, p + 1, p),), (), {name: terms})


def _k2_e8_mod3(alpha):
    return Bialgebra(3, (GeneratorDecl("x_4", 4, 3),), (),
                     {"x_4": [(1, (1,), (0,)), (1, (0,), (1,)),
                              (alpha, (1,), (2,)), (alpha, (2,), (1,))]})


# kind: "bialgebra" | "comodule"
Entry = namedtuple("Entry", "kind description builder")


_ENTRIES = {}


def _register(key, kind, description, builder):
    _ENTRIES[key] = Entry(kind, description, builder)


for _n in (5, 7, 9, 11, 13):
    _register(f"so{_n}.mod2", "bialgebra",
              f"mod-2 Chow bialgebra of SO_{_n} (e_i^2 = e_2i form)",
              (lambda n: lambda: _so_chow(n))(_n))
_register("g2.mod2", "bialgebra",
          "mod-2 Chow bialgebra of G_2: F_2[e_3]/(e_3^2)", lambda: primitive_bialgebra(
              2, (GeneratorDecl("e_3", 3, 2),)))
_register("e7sc.mod2", "bialgebra",
          "mod-2 Chow bialgebra of simply connected E_7 "
          "(e_5 = Sq2 e_3, e_9 = Sq4 e_5)", _e7sc_mod2)
_register("e7p7.mod2", "comodule",
          "cell comodule of E_7/P_7 over e7sc.mod2", _e7p7_mod2)
_register("e8.mod2", "bialgebra",
          "mod-2 Chow bialgebra of E_8 (one imprimitive generator e_15)",
          _e8_mod2)
_register("e8.mod3", "bialgebra",
          "mod-3 Chow bialgebra of E_8: F_3[e_4,e_10]/(cubes)", _e8_mod3)
_register("e8p8.mod3", "comodule",
          "cell comodule of E_8/P_8 over e8.mod3", _e8p8_mod3)
_register("k0.sc.mod2", "bialgebra",
          "K^0 mod 2 of a simply connected group: the trivial bialgebra F_2",
          _k0_sc)
for _p in (2, 3, 5):
    _register(f"k0.pgl{_p}", "bialgebra",
              f"K^0 mod {_p} of PGL_{_p} with the Bott class set to 1",
              (lambda p: lambda: _k0_pgl(p))(_p))
_register("morava.rost.mod2", "bialgebra",
          "second Morava K-theory of the norm variety of a 3-fold Pfister "
          "form, p = 2", _morava_rost)
for _g, _p in (("g2", 2), ("f4", 2), ("e6", 2)):
    _register(f"k2.{_g}.mod{_p}", "bialgebra",
              f"K(2) mod {_p} of {_g.upper()}: one generator in degree "
              f"{_p + 1}", (lambda p: lambda: _k2_typeone(p, 1))(_p))
for _g in ("f4", "e6sc", "e7"):
    for _a in (1, 2):
        _register(f"k2.{_g}.mod3.a{_a}", "bialgebra",
                  f"K(2) mod 3 of {_g.upper()}, coproduct parameter a = {_a}",
                  (lambda a: lambda: _k2_typeone(3, a))(_a))
for _a in (1, 2):
    _register(f"k2.e8.mod3.a{_a}", "bialgebra",
              f"K(2) mod 3 of E_8, coproduct parameter a = {_a}",
              (lambda a: lambda: _k2_e8_mod3(a))(_a))
for _a in (1, 2, 3, 4):
    _register(f"k2.e8.mod5.a{_a}", "bialgebra",
              f"K(2) mod 5 of E_8, coproduct parameter a = {_a}",
              (lambda a: lambda: _k2_typeone(5, a))(_a))


_cache = {}   # key -> {HOPFMOTIVES_CATALOG_DIR value: verified entry}


def _override_path(key):
    directory = os.environ.get(ENV_DIR)
    if not directory:
        return None
    path = os.path.join(directory, f"{key}.json")
    return path if os.path.isfile(path) else None


def keys():
    """All catalog keys: built-ins in curated order, then any extras found
    in HOPFMOTIVES_CATALOG_DIR."""
    out = list(_ENTRIES)
    directory = os.environ.get(ENV_DIR)
    if directory and os.path.isdir(directory):
        extra = sorted(fn[:-5] for fn in os.listdir(directory)
                       if fn.endswith(".json"))
        out.extend(k for k in extra if k not in _ENTRIES)
    return out


def describe(key):
    if key in _ENTRIES:
        return _ENTRIES[key].description
    if _override_path(key):
        return f"external entry from {ENV_DIR}"
    raise ValueError(f"unknown catalog key {key!r}")


def read_json(path):
    """The content of a JSON file; malformed JSON is a SchemaError at "$"."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from None


def _is_comodule(data):
    return isinstance(data, dict) and "flavor" in data


def kind(key):
    """'bialgebra' or 'comodule', without building the entry."""
    path = _override_path(key)
    if path is not None:
        return "comodule" if _is_comodule(read_json(path)) else "bialgebra"
    if key in _ENTRIES:
        return _ENTRIES[key].kind
    raise ValueError(f"unknown catalog key {key!r}")


def load_object_file(path):
    """Read a bialgebra or comodule from a JSON file (by its 'flavor' field)."""
    data = read_json(path)
    return comodule_from_dict(data) if _is_comodule(data) else bialgebra_from_dict(data)


def get(key, verify=True):
    """Build (or load) and verify a catalog entry.  Only verified entries
    are cached, per key and per value of HOPFMOTIVES_CATALOG_DIR."""
    directory = os.environ.get(ENV_DIR)
    cached = _cache.get(key, {}).get(directory)
    if cached is not None:
        return cached
    path = _override_path(key)
    if path is not None:
        obj = load_object_file(path)
    elif key in _ENTRIES:
        obj = _ENTRIES[key].builder()
    else:
        raise ValueError(f"unknown catalog key {key!r}")
    if verify:
        report = obj.verify()
        if not report:
            raise ValueError(f"catalog entry {key} fails verification: {report}")
        _cache.setdefault(key, {})[directory] = obj
    return obj


# -- frozen decomposition data ---------------------------------------------------

_VISHIK_EDGES = {
    6:  ((0, 3), (1, 4), (2, 5), ("3'", 6)),
    8:  ((0, 7), (1, 8), (2, 5), (3, 6), (4, "4'")),
    10: ((0, 7), (1, 8), (2, 9), (3, 10), (4, 5), ("5'", 6)),
}


def vishik_edges(dim):
    """Known extra binary-motive edges for a split quadric of dimension dim."""
    try:
        return _VISHIK_EDGES[dim]
    except KeyError:
        raise ValueError(f"no extra-edge table for dimension {dim}; "
                         f"available: {sorted(_VISHIK_EDGES)}") from None


# key: the catalog key of the ambient bialgebra;
# series: the Weyl type of the split group
JTupleInstance = namedtuple("JTupleInstance", "key series rank jtuple")


def jtuple_instances():
    """J-tuples known to occur, with the Weyl type of the ambient group.

    For each instance the Poincare polynomial of the J-quotient divides the
    full flag-variety polynomial exactly; entries whose catalog presentation
    still has rewrite rules must be Borel-normalized before taking quotients.
    """
    return (
        JTupleInstance("g2.mod2", "G", 2, (1,)),
        JTupleInstance("e7sc.mod2", "E", 7, (1, 1, 1)),
        JTupleInstance("e8.mod3", "E", 8, (1, 1)),
        JTupleInstance("e8.mod2", "E", 8, (1, 1, 1, 0)),
        JTupleInstance("e8.mod2", "E", 8, (2, 1, 0, 0)),
        JTupleInstance("e8.mod2", "E", 8, (3, 2, 1, 1)),
        JTupleInstance("so11.mod2", "B", 5, (1, 1, 1)),
        JTupleInstance("so13.mod2", "B", 6, (1, 0, 0)),
        JTupleInstance("so13.mod2", "B", 6, (1, 1, 1)),
        JTupleInstance("so13.mod2", "B", 6, (3, 2, 1)),
    )
