"""A plain Buchberger on exponent tuples, kept as a reference for the Groebner kernel.

It forms and reduces the S-polynomial of every pair of basis elements and
skips none, then makes the basis minimal and fully reduced.  It reads its
input through ``Polynomial.terms()`` and computes on {exponent tuple:
coefficient} dicts with its own grevlex key, S-polynomial and division, so
it shares no code with fptkit's packed kernel: agreement checks the
kernel's packed monomials, its division and its Gebauer-Moeller update
together.
"""

from fptkit import Polynomial


def grevlex_key(m):
    """Sort key: larger key means larger monomial in grevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def _lead(f):
    return max(f, key=grevlex_key)


def _lead_key(f):
    return grevlex_key(_lead(f))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _monic(f, p):
    inv = pow(f[_lead(f)], p - 2, p)
    return {m: c * inv % p for m, c in f.items()}


def _add_multiple(f, g, c, shift, p):
    """f += c * x^shift * g, in place."""
    for m, gc in g.items():
        mm = tuple(x + y for x, y in zip(m, shift))
        s = (f.get(mm, 0) + c * gc) % p
        if s:
            f[mm] = s
        else:
            f.pop(mm, None)


def _reduce(f, G, p):
    """Remainder of f on full division by the monic dicts G."""
    f = dict(f)
    remainder = {}
    while f:
        m = _lead(f)
        for g in G:
            lg = _lead(g)
            if _divides(lg, m):
                _add_multiple(f, g, -f[m], tuple(x - y for x, y in zip(m, lg)), p)
                break
        else:
            remainder[m] = f.pop(m)
    return remainder


def _spoly(f, g, p):
    lf, lg = _lead(f), _lead(g)
    lcm = tuple(map(max, lf, lg))
    out = {}
    _add_multiple(out, f, 1, tuple(x - y for x, y in zip(lcm, lf)), p)
    _add_multiple(out, g, -1, tuple(x - y for x, y in zip(lcm, lg)), p)
    return out


def oracle_basis(gens):
    """The reduced grevlex Groebner basis of gens, ascending by leading monomial."""
    ring = gens[0].ring
    p = ring.prime
    G = [_monic(dict(g.terms()), p) for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        r = _reduce(_spoly(G[i], G[j], p), G, p)
        if r:
            G.append(_monic(r, p))
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    minimal = []
    for g in sorted(G, key=_lead_key):
        if not any(_divides(_lead(h), _lead(g)) for h in minimal):
            minimal.append(g)
    reduced = [_monic(_reduce(g, [h for h in minimal if h is not g], p), p) for g in minimal]
    return [Polynomial(ring, g) for g in sorted(reduced, key=_lead_key)]
