"""Spans around the public functions of each hopfmotives module.

``Tracer.install`` wraps every public module-level function and every public
method (and ``__init__``) of the modules' own classes, then rebinds each name
that points at an original, in every module: ``cli`` holds its own
``decompose`` and ``coinvariants``, ``comod`` its own ``quotient_with_map``,
``motdec`` its own ``restrict_comodule``, and a span would be missed if only
the defining module were patched.  ``uninstall`` puts the originals back, so
untraced passes run the library exactly as shipped.

Left unwrapped, so that tracing does not swamp what it measures: the
arithmetic value types, and the per-term primitives of ``Algebra`` and of
the comodules, which run millions of times a pass (``UNTRACED``).  Their
time is self time of the calling span.

A span is (name, start, end, parent), kept in flat arrays while recording.
A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("cli", "catalog", "algebra", "jinv", "comod", "dual", "motdec",
          "_linalg")
VALUE_TYPES = {"Element", "TensorElement", "PoincarePoly"}
# per-term primitives, and jinv.borel_exponents, which runs once inside
# every validate_jtuple call
UNTRACED = {"normalize", "mul_mono", "is_normal", "degree_of", "index",
            "monomial_str", "zero", "one", "gen", "monomial", "element",
            "coaction_vec", "coaction_raw", "label_str", "borel_exponents"}


def is_time(metric):
    """Times and ratios vary run to run; every other figure is a work count."""
    return metric.endswith(("_s", ".s", "_ratio"))


def layer_metric(layer):
    """Metric names must start with a letter: _linalg reports as linalg."""
    return layer.lstrip("_")


class CountingDict(dict):
    """A cache dict that counts insertions while its tracer is counting."""

    __slots__ = ()
    tracer = None

    def __setitem__(self, key, value):
        t = CountingDict.tracer
        if t is not None and t.counting:
            t.inserts[type(self)] += 1
        dict.__setitem__(self, key, value)


class NfCache(CountingDict):
    __slots__ = ()


class CopCache(CountingDict):
    __slots__ = ()


class Tracer:
    def __init__(self):
        self.recording = False
        self.counting = False
        self.inserts = {NfCache: 0, CopCache: 0}
        self.names = []            # span name table
        self.layer_of = []         # span name id -> layer
        self.wrappers = []         # (owner, attribute, original, wrapper)
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.raised = {}           # name id -> ValueErrors raised
        self.info = {}             # span index -> hook value
        self.stack = [-1]

    # -- span recording -------------------------------------------------------

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name, layer, hook=None):
        nid = self._name_id(name, layer)
        tracer = self
        s_name, s_parent = self.s_name, self.s_parent
        s_start, s_end = self.s_start, self.s_end
        stack, raised, info = self.stack, self.raised, self.info

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(s_name)
            if hook is not None:
                info[idx] = hook(*args, **kwargs)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except ValueError:
                raised[nid] = raised.get(nid, 0) + 1
                raise
            finally:
                s_end[idx] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self):
        for a in (self.s_name, self.s_parent, self.s_start, self.s_end):
            del a[:]
        self.raised.clear()
        self.info.clear()

    # -- installation -----------------------------------------------------------

    def prepare(self):
        """Start counting cache insertions and build the wrappers.  Call
        before the library builds any object."""
        from hopfmotives import catalog
        mods = {l: importlib.import_module(f"hopfmotives.{l}") for l in LAYERS}
        self._counting_caches(mods["algebra"])
        hooks = {
            ("_linalg", "rref"): lambda rows, ncols, p: (len(rows), ncols),
            ("_linalg", "kernel_basis"): lambda rows, ncols, p: ncols,
            ("catalog", "get"):
                lambda key, verify=True: key not in catalog._cache,
        }
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and attr not in UNTRACED:
                    w = self._wrap(obj, f"{layer}.{attr}", layer,
                                   hooks.get((layer, attr)))
                    self.wrappers.append((mod, attr, obj, w))
                elif (inspect.isclass(obj) and attr not in VALUE_TYPES
                      and not dataclasses.is_dataclass(obj)):
                    self._wrap_class(layer, obj)
        # names bound by "from .x import y" in other modules
        wrapper_of = {id(o): w for _m, _a, o, w in self.wrappers}
        bound = {(m, a) for m, a, _o, _w in self.wrappers}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrapper_of.get(id(obj))
                if w is not None and (mod, attr) not in bound:
                    self.wrappers.append((mod, attr, obj, w))
        self.mods = mods

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or attr in UNTRACED:
                continue
            if attr == "__init__":
                name = f"{layer}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{attr}"
            self.wrappers.append((cls, attr, obj, self._wrap(obj, name, layer)))

    def _counting_caches(self, algebra):
        """Give every new algebra counting normal-form and coproduct caches
        (insertions are counted; lookups stay plain dict lookups)."""
        CountingDict.tracer = self
        self.counting = True
        for cls, attr, kind in ((algebra.Algebra, "_nf_cache", NfCache),
                                (algebra.Bialgebra, "_cop_cache", CopCache)):
            def counted_init(obj, *args, _init=cls.__init__, _attr=attr,
                             _kind=kind, **kwargs):
                _init(obj, *args, **kwargs)
                if isinstance(getattr(obj, _attr, None), dict):
                    setattr(obj, _attr, _kind(getattr(obj, _attr)))
            cls.__init__ = counted_init

    def install(self):
        for owner, attr, _orig, wrapper in self.wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _wrapper in self.wrappers:
            setattr(owner, attr, orig)

    def missed(self):
        """Names in the layer modules that still hold an unwrapped original."""
        wrapped = {id(o) for _m, _a, o, _w in self.wrappers}
        return sorted(f"{mod.__name__}.{attr}"
                      for mod in self.mods.values()
                      for attr, obj in vars(mod).items()
                      if id(obj) in wrapped)

    # -- per-pass figures ---------------------------------------------------------

    def summary(self):
        """Layer self times, call counts and work counts of the recorded spans."""
        n = len(self.s_name)
        name, parent = self.s_name, self.s_parent
        dur = [e - s for s, e in zip(self.s_start, self.s_end)]
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        ids = {}
        for nid, nm in enumerate(self.names):
            ids.setdefault(nm, set()).add(nid)
        calls = [0] * len(self.names)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            calls[name[i]] += 1
            self_s[self.layer_of[name[i]]] += dur[i] - covered[i]

        def count(nm):
            return sum(calls[i] for i in ids.get(nm, ()))

        def outermost_s(*nms):
            group = set().union(*(ids.get(x, set()) for x in nms))
            total = 0.0
            for i in range(n):
                if name[i] in group:
                    p = parent[i]
                    while p >= 0 and name[p] not in group:
                        p = parent[p]
                    if p < 0:
                        total += dur[i]
            return total

        def spans_of(nm):
            return [i for i in range(n) if name[i] in ids.get(nm, ())]

        def under(nm, parent_nm):
            top = ids.get(parent_nm, ())
            return [i for i in spans_of(nm) if parent[i] >= 0
                    and name[parent[i]] in top]

        rref = [self.info[i] for i in spans_of("_linalg.rref")]
        out = {f"{layer_metric(l)}.self_s": v for l, v in self_s.items()}
        out.update({
            "dual.decompose.calls": count("dual.decompose"),
            "dual.decompose.refused": sum(self.raised.get(i, 0)
                                          for i in ids.get("dual.decompose", ())),
            "dual.multiply.calls": count("dual.multiply"),
            "dual.minimal_polynomial.calls": count("dual.minimal_polynomial"),
            "dual.factor_poly.calls": count("dual.factor_poly"),
            "algebra.find_grouplikes.s": outermost_s("algebra.find_grouplikes"),
            "algebra.find_grouplikes.candidates":
                len(under("algebra.coproduct", "algebra.find_grouplikes")),
            "jinv.is_bi_ideal.calls": count("jinv.is_bi_ideal"),
            "jinv.ideal_member.calls": count("jinv.ideal_member"),
            "jinv.validate_jtuple.calls": count("jinv.validate_jtuple"),
            "algebra.coproduct_mono.calls": count("algebra.coproduct_mono"),
            "linalg.rref.calls": len(rref),
            "linalg.rref.cells": sum(r * c for r, c in rref),
            "linalg.rref.max_cols": max((c for _r, c in rref), default=0),
            "linalg.echelon_add.calls": count("_linalg.add"),
            "algebra.verify.s": outermost_s("algebra.verify",
                                            "algebra.verify_bialgebra"),
            "catalog.get.calls": count("catalog.get"),
            "catalog.get.builds": sum(bool(self.info[i])
                                      for i in spans_of("catalog.get")),
            "catalog.get.s": outermost_s("catalog.get"),
            "comod.coinvariants.cols": sum(
                self.info[i] for i in under("_linalg.kernel_basis",
                                            "comod.coinvariants")),
            "comod.tensor_comodule.s": outermost_s("comod.tensor_comodule"),
            "comod.restrict_comodule.calls": count("comod.restrict_comodule"),
            "motdec.rpe_summands.s": outermost_s("motdec.rpe_summands"),
            "motdec.partition_blocks.s": outermost_s("motdec.partition_blocks"),
            "trace.spans": n,
        })
        return out
