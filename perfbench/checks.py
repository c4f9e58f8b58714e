"""Output checks: the canonical text of a result, and structural checks.

The canonical text of each op is compared with the digest recorded from the
commit that defined the benchmark (expected.json).  The structural checks
hold for any seed and any correct implementation; each returns a list of
problems, empty when the output is sound.  Ideal membership and closed-form
quadric edges are computed here from their definitions, not by the library.
"""

from __future__ import annotations

import hashlib
import json

from hopfmotives import comod, jinv, motdec
from hopfmotives.algebra import Element, TensorElement


def _plain(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (tuple, list)):
        return [_plain(y) for y in x]
    if isinstance(x, dict):
        return [[_plain(k), _plain(v)] for k, v in sorted(x.items(),
                                                           key=lambda kv: repr(kv[0]))]
    if isinstance(x, (Element, TensorElement)):
        return str(x)
    if hasattr(x, "idempotent"):   # a dual block
        return {"dim": x.dim, "label": x.label,
                "idempotent": _plain(x.idempotent)}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def canonical(result):
    return json.dumps(_plain(result), sort_keys=True)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def comodule_summary(M):
    """Rank, graded ranks and coaction size; the degree ops check the rest."""
    degrees = {}
    terms = 0
    for lab in M.labels:
        d = M.degree_of(lab)
        degrees[d] = degrees.get(d, 0) + 1
        terms += len(M.coaction_vec(lab))
    return json.dumps({"rank": M.rank(), "terms": terms,
                       "degrees": sorted(degrees.items())})


# -- structural checks -----------------------------------------------------------


def blocks(B, blocks):
    """Block dimensions sum to dim B, and the Tate block comes first."""
    out = []
    total = sum(b.dim for b in blocks)
    if total != B.dimension():
        out.append(f"block dims sum to {total}, dimension is {B.dimension()}")
    if not blocks or blocks[0].label != "tate":
        out.append("first block is not the Tate block")
    if sum(b.label == "tate" for b in blocks) != 1:
        out.append("not exactly one Tate block")
    return out


def grouplikes(B, gs):
    """Each g has counit 1 and coproduct g (x) g; 1 is among them."""
    out = []
    unit = B.unit_mono
    if not any(g.terms == {unit: 1} for g in gs):
        out.append("1 is not listed as a group-like")
    for g in gs:
        if g.terms.get(unit) != 1:
            out.append(f"{g} has counit {g.terms.get(unit, 0)}")
        square = TensorElement(B, B, {(a, b): ca * cb
                                      for a, ca in g.terms.items()
                                      for b, cb in g.terms.items()})
        if B.coproduct(g) != square:
            out.append(f"coproduct of {g} is not {g} (x) {g}")
    return out


def group_table(table):
    """Index 0 is the identity and every row and column is a permutation."""
    n = len(table)
    out = []
    if any(len(row) != n for row in table):
        return ["table is not square"]
    if list(table[0]) != list(range(n)):
        out.append("class 0 is not the identity")
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            out.append(f"row {i} is not a permutation")
        if sorted(row[i] for row in table) != list(range(n)):
            out.append(f"column {i} is not a permutation")
    return out


def _in_ideal(B, J, mono):
    return any(e >= B.prime ** j for e, j in zip(mono, J))


def bi_ideal(B, J, result):
    """A failing verdict carries a witness: a monomial of the ideal with a
    coproduct term that has neither factor in the ideal."""
    ok, witness = result
    if ok:
        return [] if witness is None else ["bi-ideal verdict with a witness"]
    m, (lm, rm) = witness
    out = []
    if not _in_ideal(B, J, m):
        out.append(f"witness {m} is not in the ideal")
    if _in_ideal(B, J, lm) or _in_ideal(B, J, rm):
        out.append(f"witness term {lm}⊗{rm} touches the ideal")
    if (lm, rm) not in B.coproduct_mono(m).terms:
        out.append(f"{lm}⊗{rm} is not a coproduct term of {m}")
    return out


def maxima(B, terms, result):
    """Each maximum is a bi-ideal J-tuple containing x; they form an antichain."""
    out = []
    for J in result:
        if not all(_in_ideal(B, J, m) for m, c in terms.items() if c):
            out.append(f"{J} does not contain x")
        if not jinv.is_bi_ideal(B, J)[0]:
            out.append(f"{J} is not a bi-ideal")
    for s in result:
        for t in result:
            if s != t and all(a <= b for a, b in zip(s, t)):
                out.append(f"{s} lies below {t}")
    return out


def _closed_form_edges(n, members):
    """For each j in 1..m outside the J-set: m+k -- m-j+k for 0 <= k < j,
    and m+j -- m' when n is even."""
    m = (n - 1) // 2
    edges = []
    for j in sorted(set(range(1, m + 1)) - set(members)):
        edges += [(m + k, m - j + k) for k in range(j)]
        if n % 2 == 0:
            edges.append((m + j, f"{m}'"))
    return edges


def quadric(n, members, blocks):
    """The blocks partition the cell labels and contain the closed-form edges."""
    m = (n - 1) // 2
    labels = list(range(n - 1)) + ([f"{m}'"] if n % 2 == 0 else [])
    where = {}
    for i, block in enumerate(blocks):
        for lab in block:
            where.setdefault(lab, []).append(i)
    out = []
    if sorted(map(str, where)) != sorted(map(str, labels)) or \
            any(len(v) != 1 for v in where.values()):
        out.append("blocks do not partition the labels")
        return out
    for a, b in _closed_form_edges(n, members):
        if where[a] != where[b]:
            out.append(f"closed-form edge {a} -- {b} crosses blocks")
    return out


def coinvariant(M, vecs):
    """Each vector v is nonzero and satisfies rho(v) = 1 (x) v."""
    p = M.H.prime
    unit = M.H.unit_mono
    out = []
    for v in vecs:
        if not v:
            out.append("zero vector in the basis")
        acc = {}
        for b, c in v.items():
            for key, d in M.coaction_vec(b).items():
                acc[key] = (acc.get(key, 0) + c * d) % p
            acc[(unit, b)] = (acc.get((unit, b), 0) - c) % p
        if any(acc.values()):
            out.append(f"vector over {sorted(map(repr, v))[:3]} is not coinvariant")
    return out


def rpe(M, J, pairs):
    """alpha is the E_J-coefficient of the restricted coaction of beta."""
    Mq = comod.restrict_comodule(M, J)
    ej = motdec.top_ideal_monomial(M.H, J)
    out = []
    for beta, alpha in pairs:
        got = {lab: c for (hm, lab), c in Mq.coaction_vec(beta).items()
               if hm == ej}
        if not alpha or got != alpha:
            out.append(f"alpha of {beta} is not its E_J coefficient")
    return out
