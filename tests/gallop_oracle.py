"""nu by a gallop at level e, kept as a reference for FrobeniusRootEngine.nu.

nu(f, b, e) is the largest N with root_e(f^N) outside b.  This gallops over
N at full depth e, N = 1, 2, 4, ... until root_e(f^N) lies in b, then
bisects the last doubling; it never narrows level by level.  f in sqrt(b)
is decided by the Rabinowitsch trick alone (b + (1 - t*f) is the unit
ideal of R[t]), whatever the generators of b are.  Its least-integer
search and radical test are its own; it asks fptkit only for
engine.root_power and for Groebner bases.
"""

from fptkit import DomainError, Ideal, Polynomial, PolyRing


def in_radical(g, b):
    """g in sqrt(b), by a Groebner basis of b + (1 - t*g) in R[t]."""
    ring = b.ring
    aux = "_t"
    while aux in ring.variables:
        aux += "t"
    big = PolyRing(ring.prime, (aux,) + ring.variables)

    def lift(f):
        return Polynomial(big, {(0,) + m: c for m, c in f.terms()})

    t = big.variable(0)
    gens = [lift(f) for f in b.generators] + [big.one() - t * lift(g)]
    return Ideal(big, gens).is_unit()


def nu(engine, b, e):
    """Largest N with engine.f^N outside b^[p^e], with nu's DomainErrors."""
    if e < 0:
        raise DomainError("nu requires e >= 0")
    if b.is_unit():
        raise DomainError("nu is undefined for the unit ideal")
    if not in_radical(engine.f, b):
        raise DomainError("no power of f lies in b: f is not in the radical of b")

    def holds(n):
        return b.contains_ideal(engine.root_power(n, e))

    d = 1
    while not holds(d):
        d *= 2
    lo, hi = d // 2, d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi - 1
