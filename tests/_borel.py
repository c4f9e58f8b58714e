"""Borel-form inputs shared by the J-quotient tests of jinv and dual, and
random non-cocommutative bialgebras for the dual's kept structure."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from hopfmotives import catalog
from hopfmotives.algebra import Bialgebra, GeneratorDecl, gen_mono
from hopfmotives.jinv import borel_exponents


def borel_catalog_keys():
    out = []
    for key in catalog.keys():
        if catalog.kind(key) == "bialgebra":
            try:
                borel_exponents(catalog.get(key))
            except ValueError:
                continue
            out.append(key)
    return out


@st.composite
def borel_bialgebras(draw):
    """A small Borel-form bialgebra whose generator coproducts carry random
    extra terms.  It need not be coassociative or counital: the
    generator-power test relies only on the coproduct being multiplicative."""
    p = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 3))
    gens = [GeneratorDecl(f"x{i}", draw(st.integers(1, 4)),
                          p ** draw(st.integers(1, 2 if p == 2 else 1)))
            for i in range(r)]
    # exponents lean to 0, so that extra terms often avoid the ideal
    monos = st.tuples(*(st.one_of(st.just(0), st.integers(0, g.truncation - 1))
                        for g in gens))
    cops = {}
    for i, g in enumerate(gens):
        x, one = gen_mono(r, i), (0,) * r
        extra = draw(st.lists(st.tuples(st.integers(1, p - 1), monos, monos),
                              max_size=4))
        cops[g.name] = [(1, x, one), (1, one, x)] + extra
    return Bialgebra(p, gens, (), cops)


def noncocommutative_bialgebra(p, degrees, zs, grouplike=False):
    """F_p[x_1 .. x_r, z_1 .. z_s] / (x_a^p, z_j^p), the x_a primitive of the
    given degrees and, for the j-th dict c of ``zs``,

        Delta z_j = z_j (x) 1 + 1 (x) z_j + sum c_ab x_a (x) x_b,

    with every deg x_a + deg x_b equal to deg z_j.  Both sides of
    coassociativity on z are z11 + 1z1 + 11z + sum c_ab (ab1 + a1b + 1ab),
    and (Delta z)^p = 0, as Frobenius is additive and x_a^p = 0; so H passes
    ``verify``, which is asserted.  A c that is not symmetric makes H not
    cocommutative.  Such an H is connected: its dual is one local block,
    and 1 its only group-like.  ``grouplike`` adds a factor F_p[g] / (g^p)
    with 1 + g group-like, as in K_0 of PGL_p: the dual then has p blocks,
    and H the p group-likes (1 + g)^k."""
    r = len(degrees)
    rank = r + len(zs) + grouplike
    one, gens, cops = (0,) * rank, [], {}
    for a, d in enumerate(degrees):
        x = gen_mono(rank, a)
        gens.append(GeneratorDecl(f"x{a}", d, p))
        cops[f"x{a}"] = [(1, x, one), (1, one, x)]
    for j, c in enumerate(zs):
        z = gen_mono(rank, r + j)
        gens.append(GeneratorDecl(f"z{j}", sum(degrees[a] for a in min(c)), p))
        cops[f"z{j}"] = [(1, z, one), (1, one, z)] + [
            (k, gen_mono(rank, a), gen_mono(rank, b))
            for (a, b), k in c.items() if k]
    if grouplike:
        g = gen_mono(rank, rank - 1)
        gens.append(GeneratorDecl("g", 1, p))
        cops["g"] = [(1, g, one), (1, one, g), (1, g, g)]
    B = Bialgebra(p, gens, (), cops)
    assert B.verify()
    return B


@st.composite
def noncocommutative_bialgebras(draw):
    """A ``noncocommutative_bialgebra`` at p in {2, 3, 5}: two or more x_a
    of degree 1 or 2, one or more z_j, each with random c_ab over every
    ordered pair of its degree and c not symmetric on one pair, and half
    the time the group-like factor; at most p^5, 3^4 or 5^3 basis
    monomials."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = {2: 5, 3: 4, 5: 3}[p]
    grouplike = draw(st.booleans()) and n > 3
    r = draw(st.integers(2, n - 1 - grouplike))
    s = draw(st.integers(1, n - r - grouplike))
    degrees = [draw(st.integers(1, 2)) for _ in range(r)]
    zs = []
    for _ in range(s):
        a, b = draw(st.sampled_from(list(itertools.permutations(range(r), 2))))
        degree = degrees[a] + degrees[b]
        c = {(u, v): draw(st.integers(0, p - 1))
             for u in range(r) for v in range(r)
             if degrees[u] + degrees[v] == degree}
        if c[a, b] == c[b, a]:
            c[a, b] = (c[b, a] + 1) % p
        zs.append(c)
    return noncocommutative_bialgebra(p, degrees, zs, grouplike)
