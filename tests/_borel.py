"""Borel-form inputs shared by the J-quotient tests of jinv and dual."""

from __future__ import annotations

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
