"""Motivic decomposition helpers built on comodule coactions.

The combinatorial engine reads decomposition constraints straight off a
coaction table: every term h (x) b' of rho(b) with deg h > 0 is a directed
edge b -> b' ("b forces b' into the same indecomposable summand"), and the
engine edge set is the transitive closure of these.  Partition blocks are the
connected components of the symmetrized engine edges together with any extra
edges supplied from outside (deeper binary-motive relations enter as data,
not as computation).  For quadric cell comodules there is also the closed
form: every j >= 1 outside the J-set contributes edges
m+k -> m-j+k (0 <= k < j) and, in even embedding dimension, m+j -> m'.

``rpe_summands`` locates the upper-motive summands that split off a cell
comodule: the pairs (beta, alpha) with rho(beta) = E_J (x) alpha + lower
order terms, E_J the top monomial e_1^(p^(j_1)-1) ... e_r^(p^(j_r)-1) of the
quotient bialgebra.  Representatives are chosen deterministically by scanning
basis labels in (degree, label) order and keeping those whose images extend
the span found so far.

``twist_multiset`` performs the rank bookkeeping P_total = P_sub * P_quot:
the quotient's coefficients, when they exist and are nonnegative, list the
Tate twists of the summand copies.

Rank-one comodules are classified by their group-like coefficient;
``line_classes`` enumerates them and ``line_tensor_table`` records the tensor
product monoid (a finite abelian group when the group-likes are invertible).
"""

from __future__ import annotations

from collections import Counter

from . import _linalg
from .algebra import Element
# restrict_comodule is bound here unused: perfbench's tracer test checks
# that it wraps motdec.restrict_comodule
from .comod import BasisComodule, label_str, restrict_comodule  # noqa: F401
from .jinv import quotient_with_map, validate_jtuple


# -- coaction graphs -----------------------------------------------------------


def direct_edges(M):
    """Directed edges b -> b' for coaction terms with deg(h) > 0."""
    edges = set()
    for b in M.labels:
        for (hm, lab), _c in M.coaction_vec(b).items():
            if M.H.degree_of(hm) > 0:
                edges.add((b, lab))
    return edges


def transitive_closure(edges):
    succ = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    closed = set(edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c in succ.get(b, ()):
                if (a, c) not in closed:
                    closed.add((a, c))
                    succ.setdefault(a, set()).add(c)
                    changed = True
    return closed


def engine_edges(M):
    """Transitive closure of the direct coaction edges."""
    return transitive_closure(direct_edges(M))


def closed_form_quadric_edges(n, members):
    """The known edge set for a quadric J-set, without touching any coaction.

    For each j in {1..m} outside the J-set: m+k -> m-j+k for 0 <= k < j,
    plus m+j -> m' when n is even.
    """
    m = (n - 1) // 2
    primed = f"{m}'"
    absent = sorted(set(range(1, m + 1)) - set(members))
    edges = set()
    for j in absent:
        for k in range(j):
            edges.add((m + k, m - j + k))
        if n % 2 == 0:
            edges.add((m + j, primed))
    return edges


def partition_blocks(M, extra_edges=()):
    """Connected components of the symmetrized engine + extra edges.

    Blocks come back as lists sorted in label order, ordered by their
    smallest member.
    """
    labels = M.position
    for a, b in extra_edges:
        for x in (a, b):
            if x not in labels:
                raise ValueError(f"extra edge endpoint {label_str(x)} "
                                 f"is not a label of the comodule")
    parent = {lab: lab for lab in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for a, b in direct_edges(M) | set(map(tuple, extra_edges)):
        union(a, b)
    groups = {}
    for lab in labels:  # label order, so each block and the block list are sorted
        groups.setdefault(find(lab), []).append(lab)
    return list(groups.values())


def to_dot(M, extra_edges=(), name="motive"):
    """Render the partition graph as DOT: one cluster per block, plus the
    symmetrized direct and extra edges."""
    blocks = partition_blocks(M, extra_edges)
    pos = M.position
    undirected = set()
    for a, b in direct_edges(M) | set(map(tuple, extra_edges)):
        if a != b:
            undirected.add(tuple(sorted((a, b), key=pos.__getitem__)))
    lines = [f"graph {name} {{"]
    for i, block in enumerate(blocks):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="block {i}";')
        for lab in block:
            lines.append(f'    "{label_str(lab)}";')
        lines.append("  }")
    for a, b in sorted(undirected, key=lambda e: (pos[e[0]], pos[e[1]])):
        lines.append(f'  "{label_str(a)}" -- "{label_str(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- upper-motive summands -----------------------------------------------------


def top_ideal_monomial(B, J):
    """E_J = prod_i e_i^(p^(j_i) - 1) inside the quotient by the J-tuple."""
    J = validate_jtuple(B, J)
    return tuple(B.prime ** J[i] - 1 for i, j in enumerate(J) if j > 0)


def rpe_summands(M, J):
    """Pairs (beta label, alpha vector) with rho(beta) = E_J (x) alpha + ...

    alpha is the E_J-coefficient of M's coaction (M a comodule over a
    Borel-form bialgebra) pushed to the quotient by the J-tuple, nonzero
    exactly when beta generates an upper-motive summand.  The quotient map
    is injective off the ideal and sends exactly one monomial to E_J, the
    product of the e_i^(p^(j_i) - 1) over all i (exponent 0 where j_i = 0),
    so alpha is read off M's own coaction at that monomial.  One
    representative beta is kept per independent alpha-direction, scanning
    labels in (degree, label) order.
    """
    quotient_with_map(M.H, J)  # refuses a J-tuple that cuts out no bi-ideal
    p = M.H.prime
    ej = tuple(p ** j - 1 for j in validate_jtuple(M.H, J))
    pos = M.position
    picked = []
    echelon = _linalg.Echelon(len(pos), p)
    for b in pos:
        alpha = {lab: c for (hm, lab), c in M.coaction_vec(b).items() if hm == ej}
        if not alpha:
            continue
        if echelon.add({pos[lab]: c for lab, c in alpha.items()}):
            picked.append((b, alpha))
    return picked


def twist_multiset(total, sub):
    """Tate twists I with total = sub * sum_{i in I} t^i, as a Counter.

    Raises ValueError when the division fails or produces a negative
    coefficient.
    """
    quot = total.exact_div(sub)
    if any(c < 0 for c in quot.coeffs):
        raise ValueError(f"quotient {quot} has negative coefficients")
    return Counter({d: c for d, c in enumerate(quot.coeffs) if c})


# -- rank-one comodules --------------------------------------------------------


def line_classes(H):
    """One rank-one comodule per group-like of H, in a deterministic order.

    The class of index 0 is always the trivial (Tate) one.
    """
    classes = []
    for g in H.find_grouplikes():
        coaction = {"b": [(c, hm, "b") for hm, c in sorted(g.terms.items())]}
        classes.append(BasisComodule(H, ("b",), {"b": 0}, coaction))
    return classes


def rank1_grouplike(L):
    """The group-like g with rho(b) = g (x) b of a rank-one comodule."""
    if L.rank() != 1:
        raise ValueError("isomorphism testing is restricted to rank one "
                         f"(got rank {L.rank()})")
    (label,) = L.labels
    return Element(L.H, {hm: c for (hm, _lab), c in L.coaction_vec(label).items()})


def rank1_isomorphic(L1, L2):
    if L1.H != L2.H:
        raise ValueError("comodules live over different bialgebras")
    return rank1_grouplike(L1) == rank1_grouplike(L2)


def line_tensor_table(H):
    """table[i][j] = k with L_i (x) L_j isomorphic to L_k: the coaction of
    L_i (x) L_j is g_i g_j (x) b, so k is the index of g_i g_j."""
    gs = H.find_grouplikes()
    index = {g: k for k, g in enumerate(gs)}
    table = []
    for gi in gs:
        row = []
        for gj in gs:
            k = index.get(gi * gj)
            if k is None:
                raise ValueError(  # pragma: no cover - invariant: g_i g_j is group-like
                    "tensor product left the classified set; "
                    "the group-likes are not closed under product")
            row.append(k)
        table.append(row)
    return table
