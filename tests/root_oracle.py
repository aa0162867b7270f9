"""Frobenius roots on exponent tuples, kept as a reference for fptkit's froot.

Each exponent vector m of a polynomial splits, one exponent at a time by
divmod, into a quotient s and a residue r with m = q*s + r; the split terms
are the quotient polynomials, one per residue class r.  The root of the
ideal of some polynomials is the ideal of their split terms.  The oracle
reads its input through ``Polynomial.terms()`` and builds its output with
the public ``Polynomial`` constructor, so it shares no code with the
packed-int split of ``fptkit.froot``.
"""

from fptkit import Polynomial


def split_terms(f, q):
    """The split terms of f modulo q = p^e, one per residue class."""
    classes = {}
    for m, c in f.terms():
        quotient, residue = zip(*(divmod(e, q) for e in m))
        classes.setdefault(residue, {})[quotient] = c
    return [Polynomial(f.ring, t) for t in classes.values()]


def root_generators(polys, q):
    """The distinct split terms of polys: generators of the root of the
    ideal they generate."""
    out = []
    for f in polys:
        for t in split_terms(f, q):
            if t not in out:
                out.append(t)
    return out
