"""J-invariant tuples: monomial bi-ideals, quotients and Poincare polynomials.

A Borel-form bialgebra over F_p has generators e_1, ..., e_r with truncations
p^{k_1}, ..., p^{k_r} and no extra rewrite rules.  A J-tuple (j_1, ..., j_r)
with 0 <= j_i <= k_i cuts out the monomial ideal I generated by the r powers
e_i^{p^{j_i}}, a bi-ideal iff each of their coproducts lies in B⊗I + I⊗B;
then the quotient is again a Borel-form bialgebra, with Poincare polynomial

    prod_i (t^{d_i p^{j_i}} - 1) / (t^{d_i} - 1),

expanded here as a product of geometric sums so no division ever happens.

For split quadrics the same data is usually given as a subset of cell
indices; jset_to_tuple / tuple_to_jset convert between the two encodings.
The subset for a form of dimension n-2 lives in {1, ..., m} (n odd) or
{0, ..., m} (n even, 0 always present), m = (n-1)//2, and its complement
within {1, ..., m} must be closed under halving even members -- those
complements are exactly the sets {2^l d : 0 <= l <= j_d - 1} swept out by
tuples over the generators e_d, d odd, of the mod-2 Borel form of SO_n.
"""

from __future__ import annotations

import itertools

from .algebra import (Bialgebra, Element, GeneratorDecl, _terms_str, gen_mono,
                      primitive_bialgebra)

_TUPLE_ENUM_BOUND = 10_000


class PoincarePoly:
    """A polynomial in t with integer coefficients (dense, ascending)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def one(cls):
        return cls([1])

    @classmethod
    def geometric(cls, step, count):
        """1 + t^step + t^(2 step) + ... + t^((count-1) step)."""
        coeffs = [0] * ((count - 1) * step + 1)
        for s in range(count):
            coeffs[s * step] = 1
        return cls(coeffs)

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls([0] * degree + [coeff])

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PoincarePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return PoincarePoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return PoincarePoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return PoincarePoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PoincarePoly(out)

    __rmul__ = __mul__

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def exact_div(self, divisor):
        """Exact polynomial division; raises ValueError on a nonzero remainder."""
        if not divisor.coeffs:
            raise ValueError("division by the zero polynomial")
        lead = divisor.coeffs[-1]
        rem = list(self.coeffs)
        qdeg = len(rem) - len(divisor.coeffs)
        if qdeg < 0:
            if any(rem):
                raise ValueError(f"{self} is not divisible by {divisor}")
            return PoincarePoly([])
        quot = [0] * (qdeg + 1)
        for i in range(qdeg, -1, -1):
            top = rem[i + divisor.degree()]
            if top % lead:
                raise ValueError(f"{self} is not divisible by {divisor}")
            q = top // lead
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        if any(rem):
            raise ValueError(f"{self} is not divisible by {divisor}")
        return PoincarePoly(quot)

    def __str__(self):
        return _terms_str(("" if d == 0 else "t" if d == 1 else f"t^{d}", c)
                          for d, c in enumerate(self.coeffs) if c)

    __repr__ = __str__


# -- Borel-form bookkeeping --------------------------------------------------


def borel_exponents(B):
    """The tuple (k_1, ..., k_r) with truncations p^(k_i); rejects non-Borel input."""
    if B.rules:
        raise ValueError("not in Borel form: presentation has explicit rewrite rules")
    out = []
    for g in B.generators:
        k, n = 0, g.truncation
        while n % B.prime == 0:
            n //= B.prime
            k += 1
        if n != 1 or k == 0:
            raise ValueError(f"not in Borel form: truncation {g.truncation} of "
                             f"{g.name} is not a power of {B.prime}")
        out.append(k)
    return tuple(out)


def validate_jtuple(B, J):
    ks = borel_exponents(B)
    J = tuple(J)
    if len(J) != len(ks):
        raise ValueError(f"J-tuple has length {len(J)}, expected {len(ks)}")
    for j, k, g in zip(J, ks, B.generators):
        if not isinstance(j, int) or not 0 <= j <= k:
            raise ValueError(f"J-tuple entry for {g.name} must lie in 0..{k}, got {j}")
    return J


def valid_jtuples(B):
    """All J-tuples for a Borel-form bialgebra, in lexicographic order."""
    ks = borel_exponents(B)
    count = 1
    for k in ks:
        count *= k + 1
    if count > _TUPLE_ENUM_BOUND:
        raise ValueError(f"tuple enumeration over bound "
                         f"({count} > {_TUPLE_ENUM_BOUND} tuples)")
    return [t for t in itertools.product(*(range(k + 1) for k in ks))]


def _in_ideal(bounds, mono):
    return any(e >= b for e, b in zip(mono, bounds))


def ideal_member(B, J, x):
    """Whether x (Element or exponent tuple) lies in the ideal of the J-tuple.

    The ideal is generated by monomials, so an element belongs iff each of
    its normal-form monomials is divisible by some e_i^(p^(j_i)).
    """
    bounds = [B.prime ** j for j in validate_jtuple(B, J)]
    return all(_in_ideal(bounds, m)
               for m in (x.terms if isinstance(x, Element) else [x]))


def _bi_ideal_witness(B, J):
    """The witness of is_bi_ideal, or None, for a J-tuple already validated."""
    bounds = [B.prime ** j for j in J]
    powers = [gen_mono(B.ngens, i, b) for i, b in enumerate(bounds)
              if b < B.generators[i].truncation]
    for g in sorted(powers, key=lambda m: (B.degree_of(m), m)):
        for lm, rm in B.coproduct_mono(g).terms:
            if not (_in_ideal(bounds, lm) or _in_ideal(bounds, rm)):
                return g, (lm, rm)
    return None


def is_bi_ideal(B, J):
    """Whether the ideal I of the J-tuple is a bi-ideal; returns (ok, witness).

    Δ is multiplicative and B⊗I + I⊗B is an ideal, so only the generators
    g_i = e_i^(p^(j_i)) of I that are nonzero in B are tested.  A failure's
    witness is (g_i, (left, right)) for the first failing g_i in basis order
    (degree, exponent tuple) and the first term of Δ(g_i) with neither
    factor in I.  A scan of all of I fails first there too: a monomial fails
    only if each g_i dividing it does, and those sort no later (degrees > 0).
    """
    witness = _bi_ideal_witness(B, validate_jtuple(B, J))
    return witness is None, witness


def quotient_with_map(B, J):
    """(quotient bialgebra, monomial remap) for the bi-ideal of a J-tuple.

    The remap is exact: it sends an exponent tuple of B to None exactly when
    the monomial lies in the ideal (some e_i^(p^(j_i)) divides it, a deleted
    generator being one with bound p^0 = 1), and otherwise to its normal
    monomial in the quotient, so it is injective off the ideal.  The
    quotient's coproduct table is filtered through it.  The quotient records
    ``section = (P, lift)``: P is B or, if B is a quotient, B's P, and
    ``lift`` the section of P -> quotient that puts zeros back at the deleted
    generators, read by ``dual.DualAlgebra``.
    """
    J = validate_jtuple(B, J)
    witness = _bi_ideal_witness(B, J)
    if witness is not None:
        m, (lm, rm) = witness
        raise ValueError(
            f"J-tuple {J} does not cut out a bi-ideal: coproduct of "
            f"{B.monomial_str(m)} has the term "
            f"{B.monomial_str(lm)}⊗{B.monomial_str(rm)} outside B⊗J + J⊗B")
    bounds = [B.prime ** j for j in J]
    keep = [i for i, b in enumerate(bounds) if b > 1]
    pos = {i: s for s, i in enumerate(keep)}
    new_gens = tuple(GeneratorDecl(B.generators[i].name, B.generators[i].degree,
                                   bounds[i]) for i in keep)

    def remap(mono):
        return None if _in_ideal(bounds, mono) else tuple(mono[i] for i in keep)

    cops = {}
    for i in keep:
        name = B.generators[i].name
        terms = []
        for c, lm, rm in B.coproducts[name]:
            l2, r2 = remap(lm), remap(rm)
            if l2 is not None and r2 is not None:
                terms.append((c, l2, r2))
        cops[name] = terms
    Q = Bialgebra(B.prime, new_gens, (), cops)
    P, up = getattr(B, "section", (B, tuple))
    Q.section = P, lambda m: up(tuple(m[pos[i]] if i in pos else 0
                                      for i in range(B.ngens)))
    return Q, remap


def quotient_bialgebra(B, J):
    """The quotient of a Borel-form bialgebra by the bi-ideal of a J-tuple.

    Generators with j_i = 0 are deleted, the others keep degree d_i and get
    truncation p^(j_i); coproduct terms touching the ideal drop out.
    """
    return quotient_with_map(B, J)[0]


def fpoin(B, J):
    """Poincare polynomial of the quotient by a J-tuple, as a product of
    geometric sums prod_i (1 + t^(d_i) + ... + t^(d_i (p^(j_i) - 1)))."""
    J = validate_jtuple(B, J)
    out = PoincarePoly.one()
    for g, j in zip(B.generators, J):
        if j > 0:
            out = out * PoincarePoly.geometric(g.degree, B.prime ** j)
    return out


def jtuples_containing(B, x):
    """All J-tuples cutting out a bi-ideal that contains the element x."""
    if isinstance(x, Element) and not x:
        raise ValueError("the zero element lies in every ideal")
    return [J for J in valid_jtuples(B)
            if ideal_member(B, J, x) and is_bi_ideal(B, J)[0]]


def maximal_tuples(tuples):
    """The componentwise-maximal elements (an antichain), sorted."""
    ts = sorted(set(tuple(t) for t in tuples))
    out = [t for t in ts
           if not any(s != t and all(a <= b for a, b in zip(t, s)) for s in ts)]
    return out


def containment_maxima(B, x):
    return maximal_tuples(jtuples_containing(B, x))


# -- quadric J-set encoding ---------------------------------------------------


def _quadric_shape(n):
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"n must be an integer >= 3, got {n!r}")
    m = (n - 1) // 2
    odds = list(range(1, m + 1, 2))
    ks = []
    for d in odds:
        k = 0
        while (2 ** k) * d <= m:
            k += 1
        ks.append(k)
    return m, odds, ks


def so_borel(n):
    """The mod-2 Borel-form bialgebra F_2[e_d : d odd <= m]/(e_d^(2^(k_d)))
    with every generator primitive; the Borel normalization of Ch(SO_n)."""
    m, odds, ks = _quadric_shape(n)
    return primitive_bialgebra(
        2, (GeneratorDecl(f"e_{d}", d, 2 ** k) for d, k in zip(odds, ks)))


def tuple_to_jset(n, J):
    """The quadric J-set {0..m} minus {2^l d_i : l < j_i} (0 only when n is even)."""
    m, odds, _ks = _quadric_shape(n)
    J = validate_jtuple(so_borel(n), J)
    removed = {(2 ** l) * d for d, j in zip(odds, J) for l in range(j)}
    members = set(range(1, m + 1)) - removed
    if n % 2 == 0:
        members.add(0)
    return sorted(members)


def jset_to_tuple(n, members):
    """Recover the J-tuple from a quadric J-set; rejects invalid subsets."""
    m, odds, ks = _quadric_shape(n)
    members = list(members)
    seen = set()
    for x in members:
        if not isinstance(x, int) or not 0 <= x <= m:
            raise ValueError(f"J-set member {x!r} outside 0..{m}")
        if x in seen:
            raise ValueError(f"duplicate J-set member {x}")
        seen.add(x)
    if n % 2 == 1 and 0 in seen:
        raise ValueError("0 cannot belong to the J-set of an odd-dimensional form")
    if n % 2 == 0 and 0 not in seen:
        raise ValueError("0 must belong to the J-set of an even-dimensional form")
    complement = set(range(1, m + 1)) - seen
    for x in sorted(complement):
        if x % 2 == 0 and x // 2 not in complement:
            raise ValueError(
                f"not a valid J-set: {x} is missing but {x // 2} is present")
    out = []
    for d, k in zip(odds, ks):
        ls = {l for l in range(k) if (2 ** l) * d in complement}
        j = len(ls)
        if ls != set(range(j)):
            raise ValueError(  # pragma: no cover - halving check rules this out
                f"not a valid J-set: powers of 2 times {d} are not an initial run")
        out.append(j)
    return tuple(out)
