"""Exact arithmetic in truncated polynomial bialgebras over small prime fields.

Every algebra here has the shape

    F_p[g_1, ..., g_r] / (rewrite rules),

where each generator carries a positive degree and a truncation exponent
N >= 2, and every rewrite rule replaces a monomial by a scalar multiple of a
lexicographically smaller monomial of the same degree, or by zero.  The
default rule for a generator is g^N -> 0; presentations like the mod-2 Chow
ring of an orthogonal group override this with rules such as e_i^2 -> e_{2i}.
Generators must be declared so that every rewrite target is lex-smaller than
its source (targets in "later" generators); this makes termination a static
property of the presentation.

Monomials are exponent tuples aligned with the declared generator order,
elements are {monomial: coefficient} dicts over F_p with all monomials in
normal form and no zero coefficients stored.  ``Element`` is the one sparse
element type: its presentation is an ``Algebra`` or a ``TensorProduct(A, B)``,
whose monomials are (left, right) pairs normalized and multiplied factor by
factor, and a ``TensorElement`` is an ``Element`` over the latter.

``_mod_sum`` is the one home of the sparse F_p term sum "accumulate
{key: c}, reduce mod p, drop zeros" that element sums, the law checks and
``dual`` share; only the hot kernels (the element product ``_product``,
``comod.tensor_comodule``, ``dual.TableAlgebra.multiply`` and
``_linalg.Echelon.add``) keep loops of their own.  A sum of many elements,
such as the coproduct or antipode of an n-term element, the convolution
powers behind the antipode, or a counit law, is one ``Element._normal``
pass over all their terms, not a running sum that is rebuilt once per
term.  ``_coassociative`` and ``_check_rules`` are the one coassociativity
test and the one rewrite-rule loop, for the coproduct
(``verify_bialgebra``) and for coactions (``comod``).  Each presentation
keeps one product table: ``mul_mono(a, b)`` normalizes the exponent sum of
a pair once and looks the pair up after that, so ``_product``, the one
kernel of element and tensor products and, through
``extend_multiplicatively``, of the coproduct, coaction and antipode
tables, computes each monomial product once per algebra.  Rules match on
the support of their source (``_first_rule``).  ``Element._normal`` sums
terms that are already normal, such as the table's products, without
normalizing them again.

``_terms_str`` is the one home of the display format "c*term + ..." that
elements, tensors, coactions, coinvariant vectors and Poincare polynomials
share, each in its own sort order; ``Algebra.rule_str`` is the one rendering
of a rewrite rule, for ``catalog show`` and for rule-check failures alike.

A bialgebra adds a coproduct table on generators, extended multiplicatively
(``extend_multiplicatively``, which also extends coactions and the antipode).
The coproduct is the coaction of B on itself, so ``_generator_images``
builds, and ``_generator_terms_from_json`` reads, the generator images of both.
Coproducts need not be degree-homogeneous (the K-theory presentations use
Delta(x) = x@1 + 1@x - x@x after specializing the invertible Bott/Morava
scalar to 1), but the counit laws are always enforced; then 1@g and g@1 are
the only terms of Delta(g) with a unit factor (1 need not be the only group-like).
The antipode is the convolution series S = sum_k (-1)^k pi^{*k} with
pi = id - unit.counit; it stops at k = top_degree() because a longer product
of augmentation-kernel elements, each of degree >= 1, vanishes.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import add

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)

_BASIS_BOUND = 2_000_000


class SchemaError(ValueError):
    """A malformed presentation file; ``path`` locates the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


# truncation: the exponent N with g^N rewritten (>= 2)
GeneratorDecl = namedtuple("GeneratorDecl", "name degree truncation")

# target: an exponent tuple, or None to encode zero;
# coeff: the coefficient of the target, ignored when the target is None
RewriteRule = namedtuple("RewriteRule", "source target coeff", defaults=(1,))


class VerifyReport:
    def __init__(self):
        self.ok = True
        self.failures = []

    def fail(self, message):
        self.ok = False
        self.failures.append(message)

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "pass"
        return "fail:\n  " + "\n  ".join(self.failures)


def gen_mono(r, i, e=1):
    """The exponent tuple of g_i^e among r generators."""
    return (0,) * i + (e,) + (0,) * (r - i - 1)


def _check_exponents(mono, r, what=None):
    """Refuse ``mono`` unless it is a tuple of r nonnegative exponents;
    ``what`` names it in the message (by default the tuple itself)."""
    if len(mono) != r or any(e < 0 for e in mono):
        raise ValueError(f"{what or f'monomial {mono}'} must be a length-{r} exponent tuple")


def extend_multiplicatively(cache, images, mono):
    """The image of an exponent tuple under the algebra map sending generator
    i to ``images[i]``, memoized in ``cache`` (which must hold the unit tuple).

    A loop lowers the last nonzero exponent until it meets a cached tuple,
    then multiplies back up by one generator image per step and caches each
    step, so every new monomial costs one product and g^k is ((1 g) g) ... g.
    A step is one unchecked ``_product``: images and memo share a presentation.
    """
    path, cur = [], tuple(mono)
    while cur not in cache:
        if not path:
            _check_exponents(cur, len(images))
        i = max(j for j, e in enumerate(cur) if e)
        path.append(i)
        cur = cur[:i] + (cur[i] - 1,) + cur[i + 1:]
    value = cache[cur]
    for i in reversed(path):
        cur = cur[:i] + (cur[i] + 1,) + cur[i + 1:]
        value = cache[cur] = _product(value, images[i])
    return value


def _product(x, y):
    """x*y over the presentation of both, unchecked, in the class of x:
    term pairs summed in one dict, reduced mod p once.  A unit factor of a
    tensor term takes the other factor as it is (terms are normal)."""
    alg, acc = x.alg, {}
    get = acc.get
    if type(alg) is TensorProduct:
        lmul, rmul = alg.left.mul_mono, alg.right.mul_mono
        lu, ru = alg.unit_mono
        for (la, ra), ca in x.terms.items():
            for (lb, rb), cb in y.terms.items():
                kl, lm = (1, lb) if la == lu else (1, la) if lb == lu else lmul(la, lb)
                if lm is not None:
                    kr, rm = (1, rb) if ra == ru else (1, ra) if rb == ru else rmul(ra, rb)
                    if rm is not None:
                        key = lm, rm
                        acc[key] = get(key, 0) + ca * cb * kl * kr
    else:
        mul = alg.mul_mono
        for ma, ca in x.terms.items():
            for mb, cb in y.terms.items():
                k, m = mul(ma, mb)
                if m is not None:
                    acc[m] = get(m, 0) + ca * cb * k
    out = x.__new__(type(x))
    out.alg, p = alg, alg.prime
    out.terms = {m: c % p for m, c in acc.items() if c % p}
    return out


def _mod_sum(p, pairs):
    """The (key, coeff) pairs summed as {key: sum mod p}, zero sums dropped."""
    acc = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return {key: c % p for key, c in acc.items() if c % p}


def _check_mates(alg, other):
    """Refuse to combine an element over ``other`` with the presentation ``alg``."""
    if not alg.same_presentation(other):
        raise ValueError("elements live over different presentations")


def _fmt_mono(names, mono):
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _terms_str(terms):
    """(text, coeff) pairs, already in display order, as "c*text + ...":
    a coefficient 1 is left out, an empty text is the scalar term shown as
    its bare coefficient, and no terms at all is "0"."""
    return " + ".join(str(c) if not text else text if c == 1 else f"{c}*{text}"
                      for text, c in terms) or "0"


class Algebra:
    """A finite-dimensional graded-commutative F_p algebra in rewrite form."""

    def __init__(self, prime, generators, rules=()):
        if prime not in SUPPORTED_PRIMES:
            raise ValueError(f"prime required (2 <= p <= 13), got {prime!r}")
        generators = tuple(generators)
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for g in generators:
            if not isinstance(g.name, str) or not g.name:
                raise ValueError(f"generator name must be a nonempty string: {g!r}")
            if not g.name.isidentifier():
                raise ValueError(f"generator name must be an identifier: {g.name!r}")
            if g.degree < 1:
                raise ValueError(f"generator {g.name}: degree must be >= 1")
            if g.truncation < 2:
                raise ValueError(f"generator {g.name}: truncation must be >= 2")
        self.prime = prime
        self.generators = generators
        self.rules = tuple(rules)
        self._index = {g.name: i for i, g in enumerate(generators)}
        self._degrees = tuple(g.degree for g in generators)
        self.unit_mono = (0,) * len(generators)
        self._compiled = self._compile_rules()
        self._supports = tuple((tuple((i, s) for i, s in enumerate(r.source) if s), r)
                               for r in self._compiled)
        self._nf_cache = {}
        self._products = {}  # (a, b) -> mul_mono(a, b)
        self._basis_cache = None
        self._check_confluence()

    # -- presentation ------------------------------------------------------

    @property
    def ngens(self):
        return len(self.generators)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def _validate_rule(self, rule, where):
        _check_exponents(rule.source, self.ngens, f"{where}: source")
        if rule.source == self.unit_mono:
            raise ValueError(f"{where}: source must not be the unit monomial")
        if rule.target is not None:
            _check_exponents(rule.target, self.ngens, f"{where}: target")
            if rule.coeff % self.prime == 0:
                raise ValueError(f"{where}: target coefficient is zero mod {self.prime}")
            if self.degree_of(rule.target) != self.degree_of(rule.source):
                raise ValueError(
                    f"{where}: degree mismatch, source has degree "
                    f"{self.degree_of(rule.source)} but target has degree "
                    f"{self.degree_of(rule.target)}")
            if not rule.target < rule.source:
                raise ValueError(
                    f"{where}: target {_fmt_mono([g.name for g in self.generators], rule.target)} "
                    f"is not lexicographically smaller than its source "
                    f"(rewriting would not terminate)")

    def _compile_rules(self):
        seen = set()
        compiled = []
        for k, rule in enumerate(self.rules):
            self._validate_rule(rule, f"rule {k}")
            if rule.source in seen:
                raise ValueError(f"rule {k}: duplicate source")
            seen.add(rule.source)
            compiled.append(rule)
        for i, g in enumerate(self.generators):
            source = gen_mono(self.ngens, i, g.truncation)
            if source not in seen:
                compiled.append(RewriteRule(source, None))
        return tuple(compiled)

    def _check_confluence(self):
        """Reject rules whose normal forms depend on the order of rewriting.

        Rewriting terminates, so by Newman's lemma it is enough that each
        overlap of two rule sources (their lcm) rewritten by either rule
        reaches the same normal form.
        """
        for a, b in itertools.combinations(self._compiled, 2):
            if not any(x and y for x, y in zip(a.source, b.source)):
                continue
            lcm = tuple(map(max, a.source, b.source))
            ends = [self.zero() if r.target is None else r.coeff * self.monomial(
                        tuple(l - s + t for l, s, t in zip(lcm, r.source, r.target)))
                    for r in (a, b)]
            if ends[0] != ends[1]:
                raise ValueError(f"rewrite rules are not confluent: "
                                 f"{self.monomial_str(lcm)} reduces both to "
                                 f"{ends[0]} and to {ends[1]}")

    def degree_of(self, mono):
        return sum(e * d for e, d in zip(mono, self._degrees))

    # -- normalization -----------------------------------------------------

    def normalize(self, mono):
        """Reduce an exponent tuple; returns (coeff, normal monomial or None)."""
        mono = tuple(mono)
        try:
            return self._nf_cache[mono]
        except KeyError:
            _check_exponents(mono, self.ngens)
        coeff, cur = 1, mono
        for _ in range(100_000):
            rule = self._first_rule(cur)
            if rule is None or rule.target is None:
                result = self._nf_cache[mono] = (coeff, cur) if rule is None else (0, None)
                return result
            coeff = coeff * rule.coeff % self.prime
            cur = tuple(c - s + t for c, s, t in zip(cur, rule.source, rule.target))
        raise RuntimeError(  # pragma: no cover - invariant: rewrites go lex-down
            f"rewriting did not terminate on {mono}")

    def _first_rule(self, mono):
        """The first compiled rule whose source divides ``mono``, tested on
        the source's support only, or None."""
        for support, rule in self._supports:
            for i, s in support:
                if mono[i] < s:
                    break
            else:
                return rule
        return None

    def is_normal(self, mono):
        _check_exponents(mono, self.ngens)
        return self._first_rule(mono) is None

    def mul_mono(self, a, b):
        """The product of two exponent tuples, as ``normalize`` returns it,
        from this presentation's product table (filled on first use)."""
        try:
            return self._products[a, b]
        except KeyError:
            result = self._products[a, b] = self.normalize(tuple(map(add, a, b)))
            return result

    # -- basis -------------------------------------------------------------

    def basis(self):
        """All normal-form monomials, sorted by (degree, exponent tuple)."""
        if self._basis_cache is None:
            count = 1
            for g in self.generators:
                count *= g.truncation
            if count > _BASIS_BOUND:
                raise ValueError(
                    f"basis enumeration over bound ({count} > {_BASIS_BOUND} candidates)")
            monos = [m for m in itertools.product(
                *(range(g.truncation) for g in self.generators))
                if self.is_normal(m)]
            monos.sort(key=lambda m: (self.degree_of(m), m))
            self._basis_cache = tuple(monos)
        return self._basis_cache

    def dimension(self):
        return len(self.basis())

    def top_degree(self):
        return self.degree_of(self.basis()[-1]) if self.basis() else 0

    # -- element factories -------------------------------------------------

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {self.unit_mono: 1})

    def gen(self, name):
        return Element(self, {gen_mono(self.ngens, self.index(name)): 1})

    def monomial(self, mono, coeff=1):
        return Element(self, {tuple(mono): coeff})

    def element(self, terms):
        return Element(self, terms)

    def monomial_str(self, mono):
        return _fmt_mono([g.name for g in self.generators], mono)

    def rule_str(self, rule):
        target = () if rule.target is None else \
            ((self.monomial_str(rule.target), rule.coeff),)
        return f"{self.monomial_str(rule.source)} -> {_terms_str(target)}"

    # -- comparisons -------------------------------------------------------

    def same_presentation(self, other):
        return (type(self) is type(other) and self.prime == other.prime
                and self.generators == other.generators
                and self.rules == other.rules)

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.same_presentation(other) \
            and getattr(self, "coproducts", None) == getattr(other, "coproducts", None)

    def __repr__(self):
        gens = ",".join(g.name for g in self.generators)
        return f"<{type(self).__name__} F_{self.prime}[{gens}]>"


class TensorProduct:
    """The presentation of A (x) B for two rewrite-form algebras over one
    prime: its monomials are (left, right) pairs of normal monomials, and
    ``normalize`` and ``_product`` act on each factor in turn."""

    def __init__(self, left, right):
        if left.prime != right.prime:
            raise ValueError("tensor factors must share the prime")
        self.left, self.right, self.prime = left, right, left.prime
        self.unit_mono = (left.unit_mono, right.unit_mono)

    def normalize(self, mono):
        kl, ln = self.left.normalize(mono[0])
        kr, rn = self.right.normalize(mono[1])
        return (0, None) if ln is None or rn is None else (kl * kr, (ln, rn))

    def degree_of(self, mono):
        """Total degree of a (left, right) pair."""
        return self.left.degree_of(mono[0]) + self.right.degree_of(mono[1])

    def same_presentation(self, other):
        return type(other) is TensorProduct \
            and self.left.same_presentation(other.left) \
            and self.right.same_presentation(other.right)


class Element:
    """A sparse F_p linear combination of normal-form monomials of ``alg``,
    an ``Algebra`` or a ``TensorProduct``; arithmetic keeps the class."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms=()):
        p = alg.prime
        items = terms.items() if hasattr(terms, "items") else terms
        self.alg = alg
        self.terms = _mod_sum(p, ((nf, c * k) for mono, c in items if c % p
                                  for k, nf in (alg.normalize(mono),) if nf is not None))

    @classmethod
    def _normal(cls, alg, pairs):
        """An element from (normal monomial, coeff) pairs, summed mod p and
        not normalized again."""
        self = cls.__new__(cls)
        self.alg = alg
        self.terms = _mod_sum(alg.prime, pairs)
        return self

    def _scalar(self, n):
        return self._normal(self.alg, ((self.alg.unit_mono, n),))

    def __add__(self, other):
        if isinstance(other, int):
            other = self._scalar(other)
        _check_mates(self.alg, other.alg)
        return self._normal(self.alg, itertools.chain(self.terms.items(),
                                                      other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._normal(self.alg, ((m, c * other)
                                           for m, c in self.terms.items()))
        _check_mates(self.alg, other.alg)
        return _product(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self._scalar(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._scalar(other)
        return isinstance(other, Element) and self.alg.same_presentation(other.alg) \
            and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def degrees(self):
        return sorted({self.alg.degree_of(m) for m in self.terms})

    def degree(self):
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"element is not homogeneous nonzero: {self}")
        return degs[0]

    def __str__(self):
        alg = self.alg
        order = sorted(self.terms, key=lambda m: (alg.degree_of(m), m))
        terms = ((alg.monomial_str(m), self.terms[m]) for m in order)
        return _terms_str(("" if s == "1" else s, c) for s, c in terms)

    __repr__ = __str__


class TensorElement(Element):
    """A sparse element of A (x) B: an ``Element`` over ``TensorProduct(A, B)``."""

    __slots__ = ()

    def __init__(self, left, right, terms=()):
        super().__init__(TensorProduct(left, right), terms)

    left = property(lambda self: self.alg.left)
    right = property(lambda self: self.alg.right)

    def __str__(self):
        L, R = self.left, self.right
        order = sorted(self.terms, key=lambda t: (L.degree_of(t[0]), t))
        return _terms_str((f"{L.monomial_str(lm)}⊗{R.monomial_str(rm)}", self.terms[lm, rm])
                          for lm, rm in order)

    __repr__ = __str__


def _generator_images(H, M, table, what):
    """The images in H (x) M of M's generators under ``table`` (each name ->
    (coeff, H-monomial, M-monomial) triples; ``what`` names it in a refusal),
    and the unit-seeded memo that ``extend_multiplicatively`` reads."""
    table = table or {}
    names = {g.name for g in M.generators}
    unknown = set(table) - names
    if unknown:
        raise ValueError(f"{what} given for unknown generators {sorted(unknown)}")
    missing = names - set(table)
    if missing:
        raise ValueError(f"missing {what} for generators {sorted(missing)}")
    images = [TensorElement(H, M, [((hm, mm), c) for c, hm, mm in table[g.name]])
              for g in M.generators]
    return images, {M.unit_mono: TensorElement(H, M, {(H.unit_mono, M.unit_mono): 1})}


class Bialgebra(Algebra):
    """An Algebra with a coproduct table on generators.

    ``coproducts`` maps each generator name to an iterable of
    (coeff, left exponent tuple, right exponent tuple) triples.  The table is
    stored termwise-normalized and sorted, and extended to arbitrary elements
    multiplicatively.
    """

    def __init__(self, prime, generators, rules=(), coproducts=None):
        super().__init__(prime, generators, rules)
        self._cop_images, self._cop_cache = _generator_images(
            self, self, coproducts, "coproducts")
        self.coproducts = {g.name: tuple(sorted((c, lm, rm) for (lm, rm), c in t.terms.items()))
                           for g, t in zip(self.generators, self._cop_images)}
        self._dual = None  # dual.DualAlgebra(self), built on first use
        self._coefficient_generators = {}  # monomials -> dual.coefficient_generators
        self._quotients = {}  # J-tuple -> jinv.quotient_with_map(self, J)
        self._antipode_images = None
        self._antipode_cache = {self.unit_mono: self.one()}
        self._pik_cache = {}

    def coproduct_mono(self, mono):
        """Coproduct of a (not necessarily normal) exponent tuple."""
        return extend_multiplicatively(self._cop_cache, self._cop_images, mono)

    def coproduct(self, x):
        """Coproduct of an element; ``coproduct_mono`` takes exponent tuples."""
        _check_mates(self, x.alg)
        return TensorElement._normal(TensorProduct(self, self), (
            (t, c * d) for m, c in x.terms.items()
            for t, d in self.coproduct_mono(m).terms.items()))

    def counit(self, x):
        if isinstance(x, Element):
            _check_mates(self, x.alg)
            return x.terms.get(self.unit_mono, 0)
        k, nf = self.normalize(x)
        return k if nf == self.unit_mono else 0

    # -- antipode ----------------------------------------------------------

    def _pik(self, k, mono):
        """k-th convolution power of pi = id - unit.counit, on a monomial."""
        key = (k, mono)
        try:
            return self._pik_cache[key]
        except KeyError:
            pass
        if k == 0:
            result = self.one() if mono == self.unit_mono else self.zero()
        else:
            # recurse here, not inside the sum's generator, so that each
            # level of k costs one stack frame
            parts = []
            for (lm, rm), c in self.coproduct_mono(mono).terms.items():
                if rm != self.unit_mono:  # pi kills the unit factor
                    parts.append((c, self._pik(k - 1, lm).terms, rm))
            result = Element._normal(self, (
                (m, c * d * e) for c, terms, rm in parts for a, d in terms.items()
                for e, m in (self.mul_mono(a, rm),) if m is not None))
        self._pik_cache[key] = result
        return result

    def antipode(self, x):
        """The antipode, extended multiplicatively from its generator values
        S(g) = sum_k (-1)^k pi^{*k}(g)."""
        _check_mates(self, x.alg)
        if self._antipode_images is None:
            self._antipode_images = [Element._normal(self, (
                (m, (-1) ** k * c) for k in range(self.top_degree() + 1)
                for m, c in self._pik(k, gen_mono(self.ngens, i)).terms.items()))
                for i in range(self.ngens)]
        return Element._normal(self, (
            (t, c * d) for m, c in x.terms.items()
            for t, d in extend_multiplicatively(
                self._antipode_cache, self._antipode_images, m).terms.items()))

    # -- verification ------------------------------------------------------

    def verify(self):
        return verify_bialgebra(self)

    def is_primitive(self, name):
        mono = gen_mono(self.ngens, self.index(name))
        expected = TensorElement(self, self, {(mono, self.unit_mono): 1,
                                              (self.unit_mono, mono): 1})
        return self.coproduct(self.gen(name)) == expected

    def is_grouplike(self, g):
        return self.counit(g) == 1 and self.coproduct(g) == TensorElement(
            self, self, {(a, b): ca * cb for a, ca in g.terms.items()
                         for b, cb in g.terms.items()})

    def find_grouplikes(self):
        """All g with counit(g) = 1 and coproduct(g) = g (x) g, sorted: the
        characters of the dual, read off the blocks of its abelianization
        (``dual.grouplikes``)."""
        from .dual import grouplikes

        return grouplikes(self)


def primitive_bialgebra(prime, gens, rules=()):
    """F_p[gens]/(rules) with every generator primitive: g -> g@1 + 1@g."""
    gens = tuple(gens)
    r = len(gens)
    unit = (0,) * r
    return Bialgebra(prime, gens, rules,
                     {g.name: [(1, gen_mono(r, i), unit), (1, unit, gen_mono(r, i))]
                      for i, g in enumerate(gens)})


def _coassociative(H, vec, rho):
    """Whether (Delta (x) id) v = (id (x) rho) v, for v = ``vec`` and each
    ``rho(label)`` {(H-monomial, label): coeff} dicts (rho = Delta for H)."""
    p = H.prime
    return _mod_sum(p, (((h1, h2, lab), c * d) for (hm, lab), c in vec.items()
                        for (h1, h2), d in H.coproduct_mono(hm).terms.items())) \
        == _mod_sum(p, (((hm, h2, lab2), c * d) for (hm, lab), c in vec.items()
                        for (h2, lab2), d in rho(lab).items()))


def _check_rules(report, M, rho, what):
    """Fail ``report`` on each rewrite rule of M that ``rho``, an algebra map
    on exponent tuples of M into a TensorElement, does not respect."""
    for rule in M._compiled:
        diff = rho(rule.source)
        if rule.target is not None:
            diff = diff - rule.coeff * rho(rule.target)
        if diff:
            report.fail(f"{what} does not respect {M.rule_str(rule)} "
                        f"(difference {diff})")


def verify_bialgebra(B):
    """Check the counit laws, coassociativity and compatibility with the rules."""
    report = VerifyReport()
    unit = B.unit_mono
    for g in B.generators:
        gx = B.gen(g.name)
        cop = B.coproduct(gx)
        for side, law in ((1, "eps⊗id"), (0, "id⊗eps")):
            got = Element._normal(B, ((t[side], c) for t, c in cop.terms.items()
                                      if t[1 - side] == unit))
            if got != gx:
                report.fail(f"counit law fails on {g.name}: ({law})Δ = {got}")
        if not _coassociative(B, cop.terms, lambda m: B.coproduct_mono(m).terms):
            report.fail(f"coassociativity fails on {g.name}")
    _check_rules(report, B, B.coproduct_mono, "coproduct")
    return report


def _pushforward(B, truncations, remap):
    """The rule-free bialgebra on the generators of B indexed by the keys of
    ``truncations`` (in their order), each with its new truncation, and with
    B's coproduct table pushed through ``remap`` on exponent tuples: a term
    drops out when ``remap`` sends one of its factors to None."""
    gens = tuple(B.generators[i]._replace(truncation=n) for i, n in truncations.items())
    return Bialgebra(B.prime, gens, (), {
        g.name: [t for c, lm, rm in B.coproducts[g.name]
                 for t in ((c, remap(lm), remap(rm)),) if None not in t]
        for g in gens})


def borel_normalize(B):
    """Re-present a bialgebra with chain rules g^N -> g' in pure Borel form.

    Requires every explicit rule to rewrite a pure generator power to a single
    generator with coefficient 1 (or to zero), with the rewritten generators
    forming disjoint chains.  Generators expressible as powers of earlier ones
    are deleted; each survivor keeps the composite truncation (its minimal
    vanishing power), and coproducts are pushed through the substitution.
    A rule's target comes after its source, so one walk in ascending index
    finds each generator's chain root and power.  The graded dimension is
    kept: a chain's monomials are the mixed-radix digits of a root power.
    """
    gen_of = {}   # generator index -> index of the rule source it is the target of
    for k, rule in enumerate(B.rules):
        src_support = [(i, e) for i, e in enumerate(rule.source) if e]
        if len(src_support) != 1:
            raise ValueError(f"rule {k}: not a pure generator power")
        i, e = src_support[0]
        if e != B.generators[i].truncation:
            raise ValueError(f"rule {k}: source power differs from the truncation")
        if rule.target is None:
            continue
        if sum(rule.target) != 1 or rule.coeff % B.prime != 1:  # exponents are >= 0
            raise ValueError(f"rule {k}: target is not a single generator "
                             f"with coefficient 1")
        j = rule.target.index(1)
        if j in gen_of:
            raise ValueError(f"rule {k}: generator {B.generators[j].name} "
                             f"is the target of two rules")
        gen_of[j] = i

    chain = []        # generator index -> (its chain root, k with generator = root^k)
    truncations = {}  # chain root -> product of the truncations in its chain
    for j, g in enumerate(B.generators):
        i = gen_of.get(j)
        root, power = (j, 1) if i is None else \
            (chain[i][0], chain[i][1] * B.generators[i].truncation)
        chain.append((root, power))
        truncations[root] = power * g.truncation  # the chain's last member writes last
    slot = {root: s for s, root in enumerate(truncations)}

    def remap(mono):
        out = [0] * len(slot)
        for (root, power), e in zip(chain, mono):
            out[slot[root]] += e * power
        return tuple(out)

    return _pushforward(B, truncations, remap)


# -- JSON interchange -------------------------------------------------------

def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown field")


def _int_field(obj, key, path):
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def mono_from_json(obj, names, path):
    """Parse {"gen": exponent, ...} into an exponent tuple."""
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected a monomial object, got {obj!r}")
    mono = [0] * len(names)
    index = {n: i for i, n in enumerate(names)}
    for name, e in obj.items():
        if name not in index:
            raise SchemaError(f"{path}.{name}", "unknown generator")
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise SchemaError(f"{path}.{name}", f"exponent must be a positive integer, got {e!r}")
        mono[index[name]] = e
    return tuple(mono)


def mono_to_json(names, mono):
    return {n: e for n, e in zip(names, mono) if e}


def _gens_from_json(data, path):
    gens = data.get("generators")
    if not isinstance(gens, list):
        raise SchemaError(f"{path}.generators", "expected an array")
    out = []
    for i, g in enumerate(gens):
        gpath = f"{path}.generators[{i}]"
        _check_keys(g, ("name", "degree", "truncation"), gpath)
        name = g.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{gpath}.name", "expected a nonempty string")
        if not name.isidentifier():
            raise SchemaError(f"{gpath}.name", f"expected an identifier, got {name!r}")
        out.append(GeneratorDecl(name, _int_field(g, "degree", gpath),
                                 _int_field(g, "truncation", gpath)))
    return tuple(out)


def _rules_from_json(data, names, path):
    rules = data.get("rules", [])
    if not isinstance(rules, list):
        raise SchemaError(f"{path}.rules", "expected an array")
    out = []
    for i, r in enumerate(rules):
        rpath = f"{path}.rules[{i}]"
        _check_keys(r, ("source", "target"), rpath)
        src = r.get("source")
        if isinstance(src, list):
            if len(src) != 2 or not isinstance(src[0], str) \
                    or not isinstance(src[1], int) or isinstance(src[1], bool):
                raise SchemaError(f"{rpath}.source",
                                  'expected ["generator", exponent] or a monomial object')
            src = {src[0]: src[1]}
        source = mono_from_json(src, names, f"{rpath}.source")
        if "target" not in r:
            raise SchemaError(f"{rpath}.target", "missing field")
        t = r["target"]
        if t is None:
            out.append(RewriteRule(source, None))
            continue
        _check_keys(t, ("coeff", "monomial"), f"{rpath}.target")
        coeff = _int_field(t, "coeff", f"{rpath}.target")
        mono = mono_from_json(t.get("monomial", {}), names, f"{rpath}.target.monomial")
        out.append(RewriteRule(source, mono, coeff))
    return tuple(out)


def tensor_terms_from_json(arr, lnames, parse_right, path):
    """Parse [{"coeff":c,"left":{...},"right":...}, ...] coaction/coproduct terms."""
    if not isinstance(arr, list):
        raise SchemaError(path, "expected an array of tensor terms")
    out = []
    for i, t in enumerate(arr):
        tpath = f"{path}[{i}]"
        _check_keys(t, ("coeff", "left", "right"), tpath)
        coeff = _int_field(t, "coeff", tpath)
        left = mono_from_json(t.get("left", {}), lnames, f"{tpath}.left")
        if "right" not in t:
            raise SchemaError(f"{tpath}.right", "missing field")
        right = parse_right(t["right"], f"{tpath}.right")
        out.append((coeff, left, right))
    return out


def _generator_terms_from_json(data, key, lnames, mnames, path):
    """The table ``_generator_images`` reads, parsed from the object
    ``data[key]``: generator name of M -> terms over ``lnames`` (x) ``mnames``."""
    obj = data.get(key)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}.{key}", "expected an object")
    table = {}
    for name, arr in obj.items():
        if name not in mnames:
            raise SchemaError(f"{path}.{key}.{name}", "unknown generator")
        table[name] = tensor_terms_from_json(
            arr, lnames, lambda m, pth: mono_from_json(m, mnames, pth), f"{path}.{key}.{name}")
    return table


def _tensor_terms_to_json(pairs, lnames, rnames=None):
    """((left, right), coeff) ``pairs``, in their order, as JSON terms; a right
    factor is a monomial over ``rnames``, or without them a label as it is."""
    return [{"coeff": c, "left": mono_to_json(lnames, lm),
             "right": r if rnames is None else mono_to_json(rnames, r)}
            for (lm, r), c in pairs]


def _validate_prime(data, path):
    if "prime" not in data:
        raise SchemaError(f"{path}.prime", "prime required")
    p = data["prime"]
    if not isinstance(p, int) or isinstance(p, bool) or p not in SUPPORTED_PRIMES:
        raise SchemaError(f"{path}.prime", f"prime required (one of {SUPPORTED_PRIMES}), got {p!r}")
    return p


def bialgebra_from_dict(data, path="$"):
    _check_keys(data, ("prime", "generators", "rules", "coproducts"), path)
    p = _validate_prime(data, path)
    gens = _gens_from_json(data, path)
    names = [g.name for g in gens]
    rules = _rules_from_json(data, names, path)
    table = _generator_terms_from_json(data, "coproducts", names, names, path)
    try:
        return Bialgebra(p, gens, rules, table)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def presentation_to_dict(A):
    """The "generators" and "rules" fields of an algebra's JSON form."""
    names = [g.name for g in A.generators]
    rules = []
    for r in A.rules:
        support = [(i, e) for i, e in enumerate(r.source) if e]
        if len(support) == 1:
            src = [names[support[0][0]], support[0][1]]
        else:
            src = mono_to_json(names, r.source)
        tgt = None if r.target is None else \
            {"coeff": r.coeff, "monomial": mono_to_json(names, r.target)}
        rules.append({"source": src, "target": tgt})
    return {"generators": [{"name": g.name, "degree": g.degree,
                            "truncation": g.truncation} for g in A.generators],
            "rules": rules}


def bialgebra_to_dict(B):
    names = [g.name for g in B.generators]
    cops = {g.name: _tensor_terms_to_json((((lm, rm), c) for c, lm, rm in B.coproducts[g.name]),
                                          names, names)
            for g in B.generators}
    return {"prime": B.prime, **presentation_to_dict(B), "coproducts": cops}
