"""A plain Buchberger, kept as a reference for the Groebner kernel.

It forms and reduces the S-polynomial of every pair of basis elements and
skips none, then makes the basis minimal and fully reduced.  It shares the
S-polynomial and the division (``_spoly``, ``_reduce_full``) with fptkit but
none of the pair selection or pruning, so agreement checks the kernel's
Gebauer-Moeller update.
"""

from fptkit.groebner import _reduce_full, _spoly
from fptkit.poly import grevlex_key


def _lm_key(g):
    return grevlex_key(g.leading_monomial())


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def oracle_basis(gens):
    """The reduced grevlex Groebner basis of gens, ascending by leading monomial."""
    G = [g.monic() for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        r = _reduce_full(_spoly(G[i], G[j]), G)
        if not r.is_zero():
            G.append(r.monic())
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    minimal = []
    for g in sorted(G, key=_lm_key):
        if not any(_divides(h.leading_monomial(), g.leading_monomial()) for h in minimal):
            minimal.append(g)
    reduced = [
        _reduce_full(g, [h for h in minimal if h is not g]).monic() for g in minimal
    ]
    return sorted(reduced, key=_lm_key)
