"""The invariant nu(p) by brute-force expansion, for any number of variables.

nu(p) is the largest N < p with f^N outside m^[p] = (x_1^p, ..., x_n^p),
and Mustata-Takagi-Watanabe bracket the F-pure threshold by it:
nu(p)/p < fpt(f) <= (nu(p) + 1)/p.  A polynomial here is a dict from
exponent tuples to coefficients mod p.  Products are taken in R/m^[p]
(every term with an exponent >= p is dropped), which is exact because
m^[p] is an ideal, and f^N lies outside m^[p] exactly when the truncated
power has a term left.  It uses nothing of fptkit.
"""


def _times(g, f, p):
    """g * f in F_p[x]/m^[p]."""
    out = {}
    for a, c in g.items():
        for b, d in f.items():
            m = tuple(i + j for i, j in zip(a, b))
            if max(m) < p:
                out[m] = (out.get(m, 0) + c * d) % p
    return {m: c for m, c in out.items() if c}


def nu_p(f, p):
    """Largest N < p with f^N not in m^[p]; f must vanish at the origin."""
    f = {m: c % p for m, c in f.items() if c % p}
    if not f or any(not any(m) for m in f):
        raise ValueError("f must be nonzero and vanish at the origin")
    g = {tuple(0 for _ in next(iter(f))): 1}
    for N in range(1, p):
        g = _times(g, f, p)
        if not g:
            return N - 1
    return p - 1
