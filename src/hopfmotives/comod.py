"""Comodules over a truncated-bialgebra H: coactions, coinvariants, tensors.

Two flavors share one interface (``labels``, ``degree_of``, ``coaction_vec``,
``verify``):

* ``AlgebraComodule`` -- the underlying module is itself a rewrite-form
  algebra M, and the coaction rho: M -> H (x) M is given on generators and
  extended multiplicatively, built and read as a coproduct is (the coaction
  of H on itself).  Basis labels are the normal-form monomials of M.
* ``BasisComodule`` -- a plain graded F_p vector space with an explicit
  coaction table on basis labels (ints, strings, or tuples of labels, which
  JSON writes as arrays).

Coactions are not required to preserve degree (the K-theory comodules do
not), only the counit and coassociativity laws, which ``BasisComodule``
checks on every label.  ``AlgebraComodule.verify`` checks them on the
generators, and rho on every rewrite rule of M.  Both flavors first report
H's own verification, which checks Delta on every rule of H; then both sides
of each law are algebra maps, which generators determine.

Each coaction table is built once.  A comodule sorts its labels once, into
``position`` ((degree, label) order), and indexes them by degree once, into
``by_degree``.  ``tensor_comodule`` reads each factor's coaction once and
multiplies each pair of distinct H-monomials once, into rows on int keys;
its table shares one tuple per label pair and per key (H-monomial, label
pair), built when the key is first met.  It and
``restrict_comodule`` hand their tables, already in normal form, to the
comodule without a second normalization; a restriction keeps the
``position`` of the comodule it restricts.

A comodule M keeps the structure derived from it, built on first use: one
M (x) N per N (``_tensors``, weakly keyed, so it never keeps N alive), one
restriction per J-tuple (``_restrictions``), and, per degree (None for all
labels), the frozenset of H-monomials of rho on those labels
(``_monomials``), which ``coinvariants`` and ``is_comodule_morphism`` hand
to ``dual.coefficient_generators`` instead of rescanning every term.  Both
flavors serve ``coaction_vec`` from one table per label: ``BasisComodule``
builds it whole, ``AlgebraComodule`` fills it from ``coaction_raw`` on each
label's first read.  All of this goes with M, so a catalog entry rebuilt
after ``catalog._cache.clear()`` holds none of it.  The comodules returned
are shared: do not mutate them.  Equation rows, kernels and answers
(coinvariants, summands, morphism checks) are computed on every call.

A J-quotient is read through the one map ``jinv.quotient_with_map`` returns:
``remap`` is None exactly on the ideal and otherwise gives the quotient's
normal monomial.  ``restrict_comodule`` remaps each H-monomial once and
normalizes nothing; ``quadric_comodule`` remaps its m classes e_i once.

Coinvariants and comodule maps are exact on comodules whose coaction is
counital and coassociative, as ``verify`` checks.  Let C be the subcoalgebra
spanned by 1 and the H-monomials of rho on some labels, closed under Delta.
The subcomodule those labels generate has its coaction in C (x) M, so it is
a module over C^dual, f_h acting as the h-part of rho.  Hence x in their
span is coinvariant exactly when f_1 fixes x and each f_h of a generating
set G of C^dual kills it, and a map on them commutes with the coactions
exactly when it commutes with f_1 and G.  ``dual.coefficient_generators``
finds 1 and G on C alone, never on the whole of H, and keeps them on H; only
the coaction terms h (x) b' with h among them enter the equations.  On a
coaction that fails ``verify``, both answers are those of these terms only.

Coinvariants {x : rho(x) = 1 (x) x} are the kernel of one sparse row per
kept coaction term of rho(b) - 1 (x) b, built with no zero entry and found
by one ``_linalg`` elimination, either globally or one degree at a time
(reading that degree's labels off ``by_degree``).  The columns run in
reverse label order, so the kernel basis, read backwards, is already the
reduced row echelon basis in (degree, label) order that is returned.

``quadric_comodule(n, J)`` builds the cell comodule of an n-2 dimensional
quadric over the quotient of the mod-2 Borel form of SO_n by a J-tuple:
labels 0..n-2 plus a primed middle label "m'" in even embedding dimension,
where b_{m'} is the coinvariant middle class (the image of h^m) and b_m
carries the coaction sum_{i=1}^{m} e_i (x) b_{m-i} + 1 (x) b_m inherited
from the second ruling.
"""

from __future__ import annotations

import weakref
from functools import cached_property

from . import _linalg, dual
from .algebra import (Algebra, SchemaError, _check_keys, _check_rules,
                      _coassociative, _generator_images,
                      _generator_terms_from_json, _gens_from_json, _mod_sum,
                      _rules_from_json, _tensor_terms_to_json, _terms_str,
                      bialgebra_from_dict, bialgebra_to_dict,
                      extend_multiplicatively, gen_mono, presentation_to_dict,
                      tensor_terms_from_json)
from .jinv import quotient_with_map, so_borel, validate_jtuple


def _label_key(label):
    if isinstance(label, bool):
        raise ValueError(f"bad label {label!r}")
    if isinstance(label, int):
        return (0, label, "")
    if isinstance(label, str):
        return (1, 0, label)
    return (2, 0, "") + tuple(_label_key(x) for x in label)


def label_str(label):
    if isinstance(label, tuple):
        return "(" + ",".join(label_str(x) for x in label) + ")"
    return str(label)


class _ComoduleBase:
    """Shared verification and display for both comodule flavors."""

    def rank(self):
        return len(self.labels)

    @cached_property
    def position(self):
        """The display index of each label, in (degree, label) order; the
        dict iterates in that order.  Built once; do not mutate."""
        order = sorted(self.labels, key=lambda l: (self.degree_of(l), _label_key(l)))
        return {lab: i for i, lab in enumerate(order)}

    @cached_property
    def by_degree(self):
        """The labels of each degree, in ``position`` order, as
        {degree: [labels]}.  Built once; do not mutate."""
        out = {}
        for lab in self.position:
            out.setdefault(self.degree_of(lab), []).append(lab)
        return out

    @cached_property
    def _monomials(self):
        """degree (None: every label) -> the frozenset of H-monomials of rho
        on the labels of that degree, each read on first use
        (``_monomials_of``)."""
        return {}

    def _monomials_of(self, degree):
        out = self._monomials.get(degree)
        if out is None:
            labels = self.labels if degree is None else self.by_degree.get(degree, ())
            out = self._monomials[degree] = frozenset(
                hm for lab in labels for hm, _lab in self.coaction_vec(lab))
        return out

    @cached_property
    def _tensors(self):
        """N -> the kept self (x) N, weakly keyed by N (``tensor_comodule``)."""
        return weakref.WeakKeyDictionary()

    @cached_property
    def _restrictions(self):
        """J-tuple -> the kept restriction of self (``restrict_comodule``)."""
        return {}

    def sorted_labels(self):
        return list(self.position)

    def coaction_str(self, label):
        H = self.H
        vec = self.coaction_vec(label)
        order = sorted(vec, key=lambda t: (H.degree_of(t[0]), t[0], _label_key(t[1])))
        return _terms_str((f"{H.monomial_str(hm)}⊗{self.label_str(lab)}", vec[hm, lab])
                          for hm, lab in order)

    def label_str(self, label):
        return label_str(label)

    def verify(self):
        report = self.H.verify()
        for b in self.labels:
            self._check_laws(report, b, {b: 1})
        return report

    def _check_laws(self, report, x, counit):
        """Fail ``report`` where rho(x) breaks coassociativity or the counit
        law (eps (x) id) rho(x) = ``counit``."""
        H, vec = self.H, self.coaction_vec(x)
        if _mod_sum(H.prime, ((lab, c * H.counit(hm))
                              for (hm, lab), c in vec.items())) != counit:
            report.fail(f"counit law fails on {self.label_str(x)}")
        if not _coassociative(H, vec, self.coaction_vec):
            report.fail(f"coassociativity fails on {self.label_str(x)}")


class BasisComodule(_ComoduleBase):
    """A comodule given by an explicit coaction table on basis labels."""

    def __init__(self, H, labels, degrees, coaction):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        self.H = H
        self.labels = labels
        self._degrees = dict(degrees)
        for lab in labels:
            if lab not in self._degrees:
                raise ValueError(f"missing degree for label {label_str(lab)}")
        known = set(labels)
        for lab, terms in coaction.items():
            if lab not in known:
                raise ValueError(f"coaction given for unknown label {label_str(lab)}")
            for _c, _hm, lab2 in terms:
                if lab2 not in known:
                    raise ValueError(f"coaction of {label_str(lab)} hits unknown "
                                     f"label {label_str(lab2)}")
        self._table = {lab: _mod_sum(H.prime, (
            ((nf, lab2), c * k) for c, hm, lab2 in coaction.get(lab, ())
            for k, nf in (H.normalize(hm),) if nf is not None)) for lab in labels}

    @classmethod
    def _normal(cls, H, labels, degrees, table):
        """A comodule from a table already in normal form: ``table[lab]`` is
        {(normal H-monomial, label): coeff} with every label among ``labels``
        and every coeff in 1..p-1.  Nothing is checked or normalized again."""
        self = cls.__new__(cls)
        self.H = H
        self.labels = tuple(labels)
        self._degrees = degrees
        self._table = table
        return self

    def degree_of(self, label):
        return self._degrees[label]

    def coaction_vec(self, label):
        return self._table[label]


class AlgebraComodule(_ComoduleBase):
    """A rewrite-form algebra M with a multiplicative H-coaction."""

    def __init__(self, H, module, coaction):
        if H.prime != module.prime:
            raise ValueError("comodule and bialgebra must share the prime")
        self.H = H
        self.module = module
        self._images, self._raw_cache = _generator_images(H, module, coaction, "coaction")
        self._gen_table = {g.name: t for g, t in zip(module.generators, self._images)}
        self._table = {}  # label -> rho(label), filled on first read
        self.labels = module.basis()

    @cached_property
    def position(self):
        """The display index of each label: ``labels`` is ``module.basis()``,
        already in (degree, exponent tuple) order, which ``_label_key`` keeps
        on exponent tuples.  Built once; do not mutate."""
        return {lab: i for i, lab in enumerate(self.labels)}

    def degree_of(self, label):
        return self.module.degree_of(label)

    def label_str(self, label):
        return self.module.monomial_str(label)

    def coaction_raw(self, mono):
        """rho on a (possibly non-normal) exponent tuple of M, multiplicatively."""
        return extend_multiplicatively(self._raw_cache, self._images, mono)

    def coaction_vec(self, label):
        vec = self._table.get(label)
        if vec is None:
            vec = self._table[label] = self.coaction_raw(label).terms
        return vec

    def verify(self):
        """The bialgebra's own verification, then the laws on generators
        (counit: the normal form), then the rules of M."""
        report = self.H.verify()
        M = self.module
        for i, g in enumerate(M.generators):
            self._check_laws(report, gen_mono(M.ngens, i), M.gen(g.name).terms)
        _check_rules(report, M, self.coaction_raw, "coaction")
        return report


def verify_comodule(M):
    return M.verify()


# -- coinvariants -------------------------------------------------------------


def coinvariants(M, degree=None):
    """A canonical basis of {x : rho(x) = 1 (x) x}, as {label: coeff} dicts.

    Exact when the coaction is counital and coassociative (``verify``): the
    equations are the coaction terms h (x) b' of the labels solved for with
    h = 1 or f_h among the generators of C^dual, C spanned by their
    H-monomials closed under Delta (see the module docstring).  On a coaction
    that fails ``verify`` the result is the kernel of those equations only.
    With ``degree`` given, the result is a basis of the coinvariants in the
    span of the labels of that degree.  A coaction that does not preserve
    degree can have coinvariants that mix degrees; those lie in no single
    degree and appear only in the global answer.  Vectors are reduced row
    echelon over the labels in (degree, label) order, sorted by pivot.
    """
    H = M.H
    p, unit = H.prime, H.unit_mono
    labels = M.position if degree is None else M.by_degree.get(degree, ())
    # columns count the labels from the last: a kernel vector is 1 at its
    # non-pivot column f and nonzero elsewhere only at pivots below f, that
    # is at later labels, so read backwards the kernel basis is reduced
    cols = list(reversed(labels))
    kept = dual.coefficient_generators(H, M._monomials_of(degree))
    rows = {}  # kept coaction term -> {column: coefficient}
    for j, b in enumerate(cols):
        vec = M.coaction_vec(b)
        own = (unit, b)
        for k, c in vec.items():
            if k == own:
                c -= 1
                if not c % p:
                    continue
            elif k[0] not in kept:
                continue
            rows.setdefault(k, {})[j] = c
        if own not in vec:
            rows.setdefault(own, {})[j] = -1
    kernel = _linalg.kernel_basis(list(rows.values()), len(cols), p)
    return [{cols[j]: v[j] for j in sorted(v, reverse=True)}
            for v in reversed(kernel)]


# -- tensor products and morphisms --------------------------------------------


def tensor_comodule(M, N):
    """M (x) N with rho(a,b) = (mult_H (x) id)(rho_M(a) (x) rho_N(b)), built
    on the first call for N (``_tensor``) and kept on M while N lives."""
    T = M._tensors.get(N)
    if T is None:
        T = M._tensors[N] = _tensor(M, N)
    return T


def _tensor(M, N):
    """M (x) N, built afresh: each H-monomial h of rho_M times each rho_N(b)
    is one row of (int key, coeff), keyed (index of the product monomial) *
    rank(M (x) N) + (index of the label pair); rho(a, b) sums those rows,
    shifted to the labels of rho_M(a), mod p."""
    if M.H != N.H:
        raise ValueError("tensor factors must live over the same bialgebra")
    H = M.H
    p = H.prime
    right = [N.coaction_vec(b) for b in N.labels]
    hs2 = {h2 for vec in right for h2, _b2 in vec}
    col = {b: j for j, b in enumerate(N.labels)}
    shift = {a: i * len(right) for i, a in enumerate(M.labels)}
    size = len(shift) * len(right)
    monos = {}  # product H-monomial -> its index times size
    rows = {}  # H-monomial h of rho_M -> [h * rho_N(b) as (key, coeff) pairs]
    left = {}
    for a in M.labels:
        left[a] = terms = []
        for (h1, a2), c1 in M.coaction_vec(a).items():
            if h1 not in rows:
                prods = {h2: H.mul_mono(h1, h2) for h2 in hs2}
                rows[h1] = [[(monos.setdefault(hm, len(monos) * size) + col[b2], k * c2)
                             for (h2, b2), c2 in vec.items()
                             for k, hm in (prods[h2],) if hm is not None]
                            for vec in right]
            terms.append((rows[h1], shift[a2], c1))
    hms = list(monos)
    pairs = [(a, b) for a in M.labels for b in N.labels]
    keys = {}  # int key -> the one (H-monomial, label pair) tuple
    table = {}
    for a, terms in left.items():
        for j in range(len(right)):
            acc = {}
            for rows_h, s, c1 in terms:
                for key, c in rows_h[j]:
                    key += s
                    acc[key] = acc.get(key, 0) + c1 * c
            vec = {}
            for key, c in acc.items():
                if c % p:
                    t = keys.get(key)
                    if t is None:
                        q, r = divmod(key, size)
                        t = keys[key] = (hms[q], pairs[r])
                    vec[t] = c % p
            table[pairs[shift[a] + j]] = vec
    labels = tuple(table)
    deg_a, deg_b = ({x: X.degree_of(x) for x in X.labels} for X in (M, N))
    degrees = {ab: deg_a[ab[0]] + deg_b[ab[1]] for ab in labels}
    T = BasisComodule._normal(H, labels, degrees, table)
    # _label_key((a, b)) orders by _label_key(a), then _label_key(b): rank
    # each factor's labels once instead of keying every pair
    rank_a, rank_b = ({x: i for i, x in enumerate(sorted(X.labels, key=_label_key))}
                      for X in (M, N))
    order = sorted(table, key=lambda ab: (degrees[ab], rank_a[ab[0]], rank_b[ab[1]]))
    T.position = {ab: i for i, ab in enumerate(order)}
    return T


def is_comodule_morphism(M, N, f):
    """Whether the linear map f: M -> N commutes with the coactions.

    ``f`` maps each M-label to a {N-label: coeff} dict (absent labels map to
    zero).  Exact when both coactions are counital and coassociative
    (``verify``): only the terms h (x) n' with h = 1 or f_h among the
    generators of C^dual are compared, C spanned by the H-monomials of both
    coactions closed under Delta (generators of C_M^dual and C_N^dual alone
    need not generate it).  On a coaction that fails ``verify`` only those
    terms are compared.  Returns (ok, first M-label where they differ, or
    None).
    """
    if M.H != N.H:
        raise ValueError("morphisms require a common bialgebra")
    p = M.H.prime
    kept = dual.coefficient_generators(M.H, M._monomials_of(None) | N._monomials_of(None))
    for b in M.labels:
        lhs = _mod_sum(p, ((key, c * d) for nl, c in f.get(b, {}).items()
                           for key, d in N.coaction_vec(nl).items() if key[0] in kept))
        rhs = _mod_sum(p, (((hm, nl), c * d) for (hm, ml), c in M.coaction_vec(b).items()
                           if hm in kept for nl, d in f.get(ml, {}).items()))
        if lhs != rhs:
            return False, b
    return True, None


def restrict_comodule(M, J):
    """The same underlying space with the coaction pushed through the quotient
    of M.H by a J-tuple (coaction terms hitting the bi-ideal drop out).

    Each H-monomial is remapped once; the remap is injective off the ideal,
    so the surviving terms keep their coefficients and no two of them meet.
    The labels, degrees and ``position`` are M's; the degrees are read off
    M's ``by_degree``, built once per comodule.  Built on the first call for
    a J-tuple and kept on M; one that cuts out no bi-ideal raises every time."""
    J = validate_jtuple(M.H, J)
    Hq, remap = quotient_with_map(M.H, J)
    if J in M._restrictions:
        return M._restrictions[J]
    images = {}  # H-monomial -> its monomial in Hq, or None in the ideal
    table = {}
    for lab in M.labels:
        vec = table[lab] = {}
        for (hm, lab2), c in M.coaction_vec(lab).items():
            if hm not in images:
                images[hm] = remap(hm)
            if images[hm] is not None:
                vec[images[hm], lab2] = c
    degrees = {lab: d for d, labs in M.by_degree.items() for lab in labs}
    Mq = M._restrictions[J] = BasisComodule._normal(Hq, M.labels, degrees, table)
    Mq.position = M.position
    return Mq


# -- quadric cell comodules ----------------------------------------------------


def quadric_comodule(n, jtuple):
    """The cell comodule of a quadric of dimension n-2 with the given J-tuple."""
    B = so_borel(n)
    H, remap = quotient_with_map(B, jtuple)
    m = (n - 1) // 2
    # e_i = e_d^(2^l) for i = 2^l d, d odd, and e_d is generator (d-1)//2 of B
    ebar = {i: remap(gen_mono(B.ngens, (i // (i & -i) - 1) // 2, i & -i))
            for i in range(1, m + 1)}
    even = n % 2 == 0
    primed = f"{m}'"
    labels = list(range(0, n - 1))
    if even:
        labels.insert(m + 1, primed)
    degrees = {lab: (m if lab == primed else lab) for lab in labels}
    unit = H.unit_mono
    coaction = {}
    for lab in labels:
        if lab == primed or lab < m:
            coaction[lab] = [(1, unit, lab)]
            continue
        k = lab - m
        terms = [(1, unit, lab)]
        for i in range(k + 1, m + 1):
            if ebar[i] is not None:
                terms.append((1, ebar[i], m + k - i))
        if even and k >= 1 and ebar[k] is not None:
            terms.append((1, ebar[k], primed))
        coaction[lab] = terms
    return BasisComodule(H, labels, degrees, coaction)


# -- JSON interchange ----------------------------------------------------------


def comodule_from_dict(data, path="$"):
    _check_keys(data, ("flavor", "hopf", "generators", "rules", "labels",
                       "degrees", "coaction"), path)
    flavor = data.get("flavor")
    if flavor not in ("algebra", "basis"):
        raise SchemaError(f"{path}.flavor", f'expected "algebra" or "basis", got {flavor!r}')
    if "hopf" not in data:
        raise SchemaError(f"{path}.hopf", "missing field")
    H = bialgebra_from_dict(data["hopf"], f"{path}.hopf")
    hnames = [g.name for g in H.generators]

    if flavor == "algebra":
        for key in ("labels", "degrees"):
            if key in data:
                raise SchemaError(f"{path}.{key}", 'unknown field for flavor "algebra"')
        gens = _gens_from_json(data, path)
        mnames = [g.name for g in gens]
        rules = _rules_from_json(data, mnames, path)
        table = _generator_terms_from_json(data, "coaction", hnames, mnames, path)
        try:
            return AlgebraComodule(H, Algebra(H.prime, gens, rules), table)
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None

    for key in ("generators", "rules"):
        if key in data:
            raise SchemaError(f"{path}.{key}", 'unknown field for flavor "basis"')
    coaction = data.get("coaction")
    if not isinstance(coaction, dict):
        raise SchemaError(f"{path}.coaction", "expected an object")
    raw_labels = data.get("labels")
    if not isinstance(raw_labels, list) or not raw_labels:
        raise SchemaError(f"{path}.labels", "expected a nonempty array")
    labels = [_label_from_json(raw) for raw in raw_labels]
    if None in labels:
        i = labels.index(None)
        raise SchemaError(f"{path}.labels[{i}]", "labels must be integers or strings or "
                          f"nonempty arrays of labels, got {raw_labels[i]!r}")
    degs = data.get("degrees")
    if not isinstance(degs, list) or len(degs) != len(labels):
        raise SchemaError(f"{path}.degrees",
                          "expected an array aligned with labels")
    degrees = {}
    for i, d in enumerate(degs):
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise SchemaError(f"{path}.degrees[{i}]", f"expected a degree >= 0, got {d!r}")
        degrees[labels[i]] = d
    by_str = {label_str(lab): lab for lab in labels}
    if len(by_str) != len(labels):
        raise SchemaError(f"{path}.labels", "labels collide as strings")

    def parse_label(obj, pth):
        lab = _label_from_json(obj)
        if lab is None or label_str(lab) not in by_str:
            raise SchemaError(pth, f"unknown label {obj!r}")
        return by_str[label_str(lab)]

    table = {}
    for key, arr in coaction.items():
        if key not in by_str:
            raise SchemaError(f"{path}.coaction.{key}", "unknown label")
        table[by_str[key]] = tensor_terms_from_json(
            arr, hnames, parse_label, f"{path}.coaction.{key}")
    return BasisComodule(H, labels, degrees, table)


def _label_from_json(obj):
    """An integer or string label as it is, a nonempty array of labels as
    their tuple; None for anything else."""
    if isinstance(obj, list) and obj:
        items = tuple(map(_label_from_json, obj))
        return None if None in items else items
    return obj if isinstance(obj, (int, str)) and not isinstance(obj, bool) else None


def comodule_to_dict(M):
    hnames = [g.name for g in M.H.generators]
    out = {"flavor": "basis", "hopf": bialgebra_to_dict(M.H)}
    if isinstance(M, AlgebraComodule):
        mnames = [g.name for g in M.module.generators]
        out["flavor"] = "algebra"
        out.update(presentation_to_dict(M.module))
        out["coaction"] = {
            g.name: _tensor_terms_to_json(sorted(M._gen_table[g.name].terms.items()),
                                          hnames, mnames)
            for g in M.module.generators}
        return out
    out["labels"] = list(M.labels)
    out["degrees"] = [M.degree_of(l) for l in M.labels]
    out["coaction"] = {
        label_str(lab): _tensor_terms_to_json(sorted(
            M.coaction_vec(lab).items(), key=lambda t: (t[0][0], _label_key(t[0][1]))), hnames)
        for lab in M.labels}
    return out
