"""Command-line front end.

Results go to stdout, diagnostics to stderr.  Exit status: 0 on success,
1 when a requested verification fails, 2 on usage errors (unknown keys,
malformed files, invalid J-tuples and the like).

Every subcommand takes ``--format text|json``; both forms are deterministic,
so output can be compared byte for byte.  ``main(argv)`` can be called
repeatedly in one process and builds its parser once.  Usage errors still
raise ``SystemExit(2)``, as argparse does.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog
from .algebra import (SchemaError, _terms_str, bialgebra_to_dict, borel_normalize,
                      gen_mono)
from .comod import (coinvariants, comodule_to_dict, label_str,
                    quadric_comodule, restrict_comodule)
from .dual import decompose
from .jinv import fpoin, jset_to_tuple, quotient_bialgebra
from .motdec import partition_blocks, rpe_summands, to_dot


def _parse_jtuple(text):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--jtuple wants comma-separated integers, got {text!r}") \
            from None
    if any(x < 0 for x in parts):
        raise ValueError(f"--jtuple entries must be non-negative, got {text!r}")
    return parts


def _parse_jset(text):
    text = text.strip()
    if text in ("", "none"):
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--jset wants comma-separated integers or 'none', "
                         f"got {text!r}") from None


def _get_bialgebra(key, borel=False):
    obj = catalog.get(key)
    if hasattr(obj, "coaction_vec"):
        raise ValueError(f"{key} is a comodule; this command needs a bialgebra")
    if borel and obj.rules:
        obj = borel_normalize(obj)
    return obj


def _get_comodule(key):
    obj = catalog.get(key)
    if not hasattr(obj, "coaction_vec"):
        raise ValueError(f"{key} is a bialgebra; this command needs a comodule")
    return obj


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)
    return 0


def _combo_str(M, vec):
    """Render {label: coeff} over a comodule's labels, in display order."""
    return _terms_str((M.label_str(lab), vec[lab])
                      for lab in sorted(vec, key=M.position.__getitem__))


def _bialgebra_lines(B, head=()):
    lines = list(head)
    lines.append(f"prime: {B.prime}")
    lines.append(f"dimension: {B.dimension()}")
    lines.append(f"top degree: {B.top_degree()}")
    for g in B.generators:
        tag = "primitive" if B.is_primitive(g.name) else \
            f"coproduct {B.coproduct(B.gen(g.name))}"
        lines.append(f"generator {g.name}: degree {g.degree}, "
                     f"truncation {g.truncation}, {tag}")
    lines.extend(f"rule: {B.rule_str(rule)}" for rule in B.rules)
    return lines


def _comodule_lines(M, head=()):
    lines = list(head)
    H = M.H
    gens = ", ".join(g.name for g in H.generators) or "(none)"
    lines.append(f"over: prime {H.prime} bialgebra on {gens}")
    lines.append(f"rank: {M.rank()}")
    if hasattr(M, "module"):
        # show the coaction on module generators only; the rest follows
        # multiplicatively
        shown = [(g.name, gen_mono(M.module.ngens, i))
                 for i, g in enumerate(M.module.generators)]
    else:
        shown = [(label_str(l), l) for l in M.sorted_labels()]
    for name, lab in shown:
        lines.append(f"coaction {name}: {M.coaction_str(lab)}")
    return lines


def cmd_catalog(args):
    if args.action == "list":
        rows = [(k, catalog.kind(k), catalog.describe(k)) for k in catalog.keys()]
        payload = {"entries": [{"key": k, "kind": kd, "description": d}
                               for k, kd, d in rows]}
        width = max(len(k) for k, _, _ in rows)
        text = [f"{k:<{width}}  {kd:<9}  {d}" for k, kd, d in rows]
        return _emit(args, payload, text)
    key = args.key
    obj = catalog.get(key)
    if hasattr(obj, "coaction_vec"):
        payload = comodule_to_dict(obj)
        text = _comodule_lines(obj, head=[f"key: {key}", "kind: comodule"])
    else:
        payload = bialgebra_to_dict(obj)
        text = _bialgebra_lines(obj, head=[f"key: {key}", "kind: bialgebra"])
    return _emit(args, payload, text)


def cmd_verify(args):
    target = args.target
    if target.endswith(".json") or "/" in target:
        obj = catalog.load_object_file(target)
        name = target
    else:
        obj = catalog.get(target, verify=False)
        name = target
    report = obj.verify()
    payload = {"target": name, "ok": bool(report),
               "failures": list(report.failures)}
    _emit(args, payload, [str(report)])
    return 0 if report else 1


def cmd_quotient(args):
    B = _get_bialgebra(args.key, borel=True)
    Bq = quotient_bialgebra(B, _parse_jtuple(args.jtuple))
    return _emit(args, bialgebra_to_dict(Bq),
                 _bialgebra_lines(Bq, head=[f"key: {args.key}",
                                            f"jtuple: {args.jtuple}"]))


def cmd_poincare(args):
    B = _get_bialgebra(args.key, borel=True)
    J = _parse_jtuple(args.jtuple)
    poly = fpoin(B, J)
    payload = {"key": args.key, "jtuple": list(J),
               "poincare": str(poly), "coeffs": list(poly.coeffs),
               "rank": poly(1)}
    return _emit(args, payload, [f"poincare: {poly}", f"rank: {poly(1)}"])


def cmd_dual(args):
    key = args.key if args.alpha is None else f"{args.key}.a{args.alpha}"
    B = _get_bialgebra(key, borel=args.jtuple is not None)
    J = None
    if args.jtuple is not None:
        J = _parse_jtuple(args.jtuple)
        B = quotient_bialgebra(B, J)
    blocks = decompose(B)
    payload = {"key": key, "blocks": [{"dim": b.dim, "label": b.label}
                                      for b in blocks]}
    if J is not None:
        payload["jtuple"] = list(J)
    text = [f"block {i}: dim {b.dim}, label {b.label}"
            for i, b in enumerate(blocks)]
    text.append(f"blocks: {len(blocks)}")
    return _emit(args, payload, text)


def _load_extra_edges(path):
    data = catalog.read_json(path)
    if not isinstance(data, dict) or set(data) != {"edges"}:
        raise SchemaError("$", "expected an object with exactly the key 'edges'")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise SchemaError("$.edges", "expected a list of two-element lists")
    out = []
    for i, e in enumerate(edges):
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, (int, str)) for x in e)):
            raise SchemaError(f"$.edges[{i}]",
                              "expected [label, label] with int or string labels")
        out.append((e[0], e[1]))
    return out


def cmd_quadric(args):
    members = _parse_jset(args.jset)
    J = jset_to_tuple(args.n, members)
    M = quadric_comodule(args.n, J)
    extra = _load_extra_edges(args.extra_edges) if args.extra_edges else ()
    blocks = partition_blocks(M, extra)
    payload = {"n": args.n, "jset": sorted(members), "jtuple": list(J),
               "blocks": [list(b) for b in blocks]}
    if args.dot:
        payload["dot"] = to_dot(M, extra, name=f"quadric{args.n}")
        if args.format == "text":
            print(payload["dot"], end="")
            return 0
    text = [f"block {i}: " + " ".join(label_str(l) for l in b)
            for i, b in enumerate(blocks)]
    text.append(f"blocks: {len(blocks)}")
    return _emit(args, payload, text)


def cmd_rpe(args):
    M = _get_comodule(args.key)
    J = _parse_jtuple(args.jtuple)
    pairs = rpe_summands(M, J)
    payload = {"key": args.key, "jtuple": list(J), "count": len(pairs),
               "summands": [{"beta": M.label_str(b),
                             "alpha": _combo_str(M, alpha),
                             "degree": M.degree_of(b)}
                            for b, alpha in pairs]}
    text = [f"{M.label_str(b)} -> {_combo_str(M, alpha)}" for b, alpha in pairs]
    text.append(f"count: {len(pairs)}")
    return _emit(args, payload, text)


def cmd_coinv(args):
    shown = M = _get_comodule(args.key)
    J = None
    if args.jtuple is not None:
        J = _parse_jtuple(args.jtuple)
        M = restrict_comodule(M, J)
    vecs = coinvariants(M, degree=args.degree)
    payload = {"key": args.key, "count": len(vecs),
               "coinvariants": [_combo_str(shown, v) for v in vecs]}
    if J is not None:
        payload["jtuple"] = list(J)
    if args.degree is not None:
        payload["degree"] = args.degree
    text = [_combo_str(shown, v) for v in vecs]
    text.append(f"count: {len(vecs)}")
    return _emit(args, payload, text)


def cmd_grouplikes(args):
    B = _get_bialgebra(args.key)
    gs = B.find_grouplikes()
    payload = {"key": args.key, "count": len(gs),
               "grouplikes": [str(g) for g in gs]}
    text = [str(g) for g in gs]
    text.append(f"count: {len(gs)}")
    return _emit(args, payload, text)


@functools.cache
def build_parser():
    """Built once per process and shared: do not mutate it or set handlers."""
    ap = argparse.ArgumentParser(
        prog="hopfmotives",
        description="Truncated-polynomial bialgebras over F_p, their "
                    "comodules, J-quotients, and motivic block data.")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    cp = sub.add_parser("catalog", help="list built-in objects or show one")
    csub = cp.add_subparsers(dest="action", required=True, metavar="ACTION")
    csub.add_parser("list", parents=[fmt], help="list catalog keys")
    sp = csub.add_parser("show", parents=[fmt], help="print one entry")
    sp.add_argument("key")

    vp = sub.add_parser("verify", parents=[fmt],
                        help="check the axioms of a catalog key or JSON file")
    vp.add_argument("target", help="catalog key, or path to a JSON file")

    qp = sub.add_parser("quotient", parents=[fmt],
                        help="quotient a bialgebra by the bi-ideal of a J-tuple")
    qp.add_argument("key")
    qp.add_argument("--jtuple", required=True, help="e.g. 1,1,0")

    pp = sub.add_parser("poincare", parents=[fmt],
                        help="Poincare polynomial of a J-quotient")
    pp.add_argument("key")
    pp.add_argument("--jtuple", required=True)

    dp = sub.add_parser("dual", parents=[fmt],
                        help="block decomposition of the dual algebra")
    dp.add_argument("key")
    dp.add_argument("--jtuple", help="quotient before dualizing")
    dp.add_argument("--alpha", type=int,
                    help="shorthand: append .a<N> to the catalog key")

    xp = sub.add_parser("quadric", parents=[fmt],
                        help="block partition of a quadric cell comodule")
    xp.add_argument("--n", type=int, required=True,
                    help="dimension of the quadratic form")
    xp.add_argument("--jset", required=True,
                    help="members of the J-set, e.g. 0,1 ('none' for empty)")
    xp.add_argument("--extra-edges",
                    help="JSON file {\"edges\": [[a, b], ...]} of known "
                         "extra connections")
    xp.add_argument("--dot", action="store_true",
                    help="emit Graphviz source instead of block lists "
                         "(with --format json: under the key 'dot')")

    rp = sub.add_parser("rpe", parents=[fmt],
                        help="top-ideal summand pairs of a restricted comodule")
    rp.add_argument("key")
    rp.add_argument("--jtuple", required=True)

    ip = sub.add_parser("coinv", parents=[fmt],
                        help="basis of the coinvariants of a comodule")
    ip.add_argument("key")
    ip.add_argument("--jtuple", help="restrict through this quotient first")
    ip.add_argument("--degree", type=int,
                    help="only coinvariants in the span of this degree's labels "
                         "(one that mixes degrees is in no single degree)")

    gp = sub.add_parser("grouplikes", parents=[fmt],
                        help="all group-like elements")
    gp.add_argument("key")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
