"""Answer checks for the benchmark that do not go through fptkit's root engine.

Two kinds of check live here:

* closed forms from the literature, checked on every run:
  - the cusp x^2+y^3 (Mustata-Takagi-Watanabe 2005): fpt = 5/6 when
    p = 1 (mod 3) and 5/6 - 1/(6p) when p = 2 (mod 3), for p >= 5;
    1/2 at p = 2 and 2/3 at p = 3;
  - the worked quartic x^4+y^3+x^2*y^2 at p = 5, whose jumps in [0, 1) are
    0, 7/12, 4/5, 11/12 with the ideals listed in QUARTIC_IDEALS;
  - monomials, tau((x^a*y^b)^lam) = (x^floor(a*lam) * y^floor(b*lam))
    (Hara-Yoshida 2003);
* brute-force checks of reference answers by expanding powers of f, used
  when the reference table is built:
  - nu(f, m, e) is the largest N with some monomial of f^N below the
    p^e-th powers of all variables, read off the expanded power;
  - every fpt lies in (nu/p^e, (nu+1)/p^e];
  - root_e(f^ceil(p^e * mu)) lies inside tau(f^mu) for every e, because
    these roots increase with e up to the test ideal; the build checks it at
    each jump mu = lam, and at mu = (ceil(p^e * lam) - 1)/p^e against the
    ideal before the jump when mu is not below the previous jump.
"""

from __future__ import annotations

from fractions import Fraction

QUARTIC = (5, "x^4 + y^3 + x^2*y^2")
QUARTIC_JUMPS = ["0", "7/12", "4/5", "11/12"]
QUARTIC_IDEALS = [["1"], ["y", "x"], ["y", "x^2"], ["y^2", "x*y", "x^2"]]

# Largest expanded power, by exponent and by terms, that a check may build.
MAX_POWER = 400
MAX_TERMS = 60_000


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cusp_fpt(p: int) -> Fraction:
    if p == 2:
        return Fraction(1, 2)
    if p == 3:
        return Fraction(2, 3)
    if p % 3 == 1:
        return Fraction(5, 6)
    return Fraction(5, 6) - Fraction(1, 6 * p)


def monomial_jumps(a: int, b: int) -> tuple[list[str], list[list[str]]]:
    """Jumps of x^a*y^b in [0, 1) and their (monomial) test ideals."""
    points = sorted({Fraction(k, e) for e in (a, b) if e for k in range(1, e)})
    jumps, ideals = ["0"], [["1"]]
    for lam in points:
        ea, eb = (a * lam).__floor__(), (b * lam).__floor__()
        factors = [f"x^{ea}" if ea > 1 else "x" if ea else "", f"y^{eb}" if eb > 1 else "y" if eb else ""]
        jumps.append(fmt(lam))
        ideals.append(["*".join(f for f in factors if f)])
    return jumps, ideals


def closed_form(command: str, prime: int, poly: str) -> dict | None:
    """The compared fields a closed form predicts for one query, or None."""
    text = poly.replace(" ", "")
    if text in ("x^2+y^3", "y^3+x^2"):
        if command in ("fpt", "jn"):
            return {"fpt": fmt(cusp_fpt(prime))}
    if (prime, poly) == QUARTIC and command == "jn":
        return {"fpt": "7/12", "jumpingNumbers": QUARTIC_JUMPS, "testIdeals": QUARTIC_IDEALS}
    if text == "x^2*y" and command == "jn":
        jumps, ideals = monomial_jumps(2, 1)
        return {"fpt": jumps[1], "jumpingNumbers": jumps, "testIdeals": ideals}
    return None


# -- brute force on expanded powers -------------------------------------------


def _mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


class Powers:
    """f^0, f^1, ... expanded on demand, with no Frobenius shortcuts."""

    def __init__(self, terms: dict, p: int):
        self.f = terms
        self.p = p
        n = len(next(iter(terms)))
        self.cache = [{(0,) * n: 1}]

    def get(self, N: int) -> dict | None:
        if N > MAX_POWER:
            return None
        while len(self.cache) <= N:
            last = self.cache[-1]
            if len(last) * len(self.f) > MAX_TERMS * 4:
                return None
            nxt = _mul(last, self.f, self.p)
            if len(nxt) > MAX_TERMS:
                return None
            self.cache.append(nxt)
        return self.cache[N]


def brute_nu(powers: Powers, e: int) -> int | None:
    """Largest N with f^N outside m^[p^e], or None when too large to expand."""
    q = powers.p**e
    N = 0
    while True:
        g = powers.get(N + 1)
        if g is None:
            return None
        if all(any(x >= q for x in m) for m in g):
            return N
        N += 1


def root_generators(g: dict, q: int) -> list[dict]:
    """Generators of root_e(g) with q = p^e: one quotient polynomial per residue."""
    buckets: dict = {}
    for m, c in g.items():
        mu = tuple(x % q for x in m)
        buckets.setdefault(mu, {})[tuple(x // q for x in m)] = c
    return list(buckets.values())
