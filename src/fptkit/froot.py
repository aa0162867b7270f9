"""Frobenius-root ideals.

frobenius_root_ideal(J, e) is the smallest ideal b with J in b^[p^e].  Over
F_p it is read off the generators directly: split every exponent vector of
each generator into its residue mu and quotient modulo p^e, and collect the
quotient polynomials, one per residue (coefficient roots are trivial because
Frobenius fixes F_p).  _root is that one rule, on packed term dicts:
frobenius_root_ideal applies it to the generators of J, and each digit step
of the engine below to the products f^d * g with q = p.

FrobeniusRootEngine(f).root_power(N, e) evaluates root_e(f^N) without ever
expanding f^N.  It peels one base-p digit of N per level, starting from J = (1):

    root_e(f^N * J) = root_{e-1}(f^(N div p) * root_1(f^(N mod p) * J))

which rests on the scaling rule root_1(g^p * h) = g * root_1(h), a
consequence of flatness of Frobenius on the polynomial ring.  Digits are
consumed least-significant first, intermediate ideals are canonicalized at
every level, and no power beyond f^(p-1) times current generators is ever
expanded, so N may vastly exceed p^e.

When every split term is a single term, whatever the generators, the root
is (1) or the monomial ideal of the quotients, which is its own reduced
basis, so no Groebner basis is formed; every other root reduces its split
terms in the kernel.  Most states are monomial ideals, and a product
x^a * f^d is f^d shifted by a on packed ints, so a step from one forms no
polynomial product either.

A FrobeniusRootEngine holds the digit-transition cache for one f, its
interned start state (1) and its table of powers f^d; the TestIdealComputer
of a query owns one, so every evaluation of that query shares them.  The
nu invariants are a question asked of the engine too (engine.nu(b, e)), and
so is whether f lies in sqrt(b) (engine.in_radical(b)).
"""

from __future__ import annotations

from .basep import _least_integer
from .errors import DomainError
from .groebner import Ideal, radical_member
from .poly import Polynomial, power

__all__ = ["frobenius_root_ideal", "FrobeniusRootEngine"]


def _split(ring, terms: dict, q: int) -> dict:
    """Packed terms grouped by residue class modulo q = p^e: {residue:
    {quotient: c}}, one entry per term c*x^m with m = residue + q*quotient.

    One pass over the fields of each packed monomial m: the running sum of
    the exponent quotients e_i div q, placed field by field, packs the
    quotient monomial quo, and the residue monomial is m - q*quo, because
    packing is linear.
    """
    value, shifts = ring.max_degree, ring._shifts
    buckets: dict = {}
    for m, c in terms.items():
        quo = total = prev = 0
        for shift in shifts:
            s = (m >> shift) & value
            total += (s - prev) // q
            prev = s
            quo |= total << shift
        buckets.setdefault(m - q * quo, {})[quo] = c
    return buckets


def _root(ring, products, q: int) -> Ideal:
    """The root, q = p^e, of the ideal of the polynomials with these packed
    term dicts: the ideal of their split terms.  When every split term is a
    single term it is the monomial ideal of the quotients, formed without
    the kernel, and (1) at once when one quotient is 1; otherwise the
    distinct split terms go to the kernel."""
    splits = [t for terms in products for t in _split(ring, terms, q).values()]
    quotients = [quo for t in splits for quo in t]
    if len(quotients) > len(splits):  # some split term has two terms
        return Ideal(ring, tuple(dict.fromkeys(Polynomial._from_packed(ring, t) for t in splits)))
    return Ideal.monomial(ring, (0,) if 0 in quotients else quotients)


def frobenius_root_ideal(J: Ideal, e: int) -> Ideal:
    """Smallest ideal b with J contained in b^[p^e]; generator-wise sum."""
    if e < 1:
        raise DomainError("frobenius_root_ideal requires e >= 1")
    return _root(J.ring, [g._packed for g in J.generators], J.ring.prime**e)


class FrobeniusRootEngine:
    """Evaluates root_e(f^N) with a per-f digit-transition cache.

    The map J -> root_1(f^d * J) is well defined on ideals, so its values
    may be memoized keyed by the canonical (reduced Groebner) form of J.
    The searches in testideal evaluate many parameters for a fixed f, and
    their digit recursions keep re-entering the same few states, so most
    steps are cache hits.  A miss is _root of the products f^d * g over the
    state's basis, which _products forms without multiplying when g is a
    monomial; its value is interned, so equal states are one object.  The
    engine also pays once for its fixed work: every evaluation starts from
    one interned unit ideal, and the digit powers f^d and the final carry
    come from one power table.
    """

    __slots__ = ("f", "ring", "_fpow", "_states", "_steps", "_start", "_radical")

    def __init__(self, f: Polynomial):
        self.f = f
        self.ring = f.ring
        self._fpow: dict[int, Polynomial] = {0: f.ring.one(), 1: f}
        self._states: dict = {}
        self._steps: dict = {}
        self._start = self._intern(Ideal.unit(self.ring))
        self._radical: set[Ideal] = set()  # each b already certified to hold f in sqrt(b)

    def _f_power(self, d: int) -> Polynomial:
        """f^d from the power table: the largest cached f^c with c < d times
        f^(d-c), itself from the table; by binary powering when no cached c
        reaches d/2, so the table lookups nest O(log d) deep."""
        g = self._fpow.get(d)
        if g is None:
            c = max(k for k in self._fpow if k < d)
            g = self._fpow[c] * self._f_power(d - c) if 2 * c >= d else power(self.f, d)
            self._fpow[d] = g
        return g

    def _intern(self, J: Ideal) -> Ideal:
        return self._states.setdefault(J, J)

    def _products(self, state: Ideal, d: int) -> list[dict]:
        """The packed terms of f^d * g for each g in the reduced basis of
        state.  A monomial g = x^a moves each packed monomial b of f^d to
        a + b, so no multiplication is formed; any other g is multiplied."""
        ring, basis, fd = self.ring, state.basis(), self._f_power(d)
        fterms = fd._packed
        if basis and fterms:  # the degree guard of Polynomial.__mul__, once for all g
            ring._check_degree((max(g._lead() for g in basis) >> ring._top) + fd.total_degree())
        return [
            (fd * g)._packed if len(g._packed) > 1
            else {g._lead() + b: c for b, c in fterms.items()}
            for g in basis
        ]

    def _step(self, state: Ideal, digit: int) -> Ideal:
        """root_1(f^d * J), memoized per (J, d): _root of the products."""
        key = (state, digit)
        out = self._steps.get(key)
        if out is None:
            out = self._intern(_root(self.ring, self._products(state, digit), self.ring.prime))
            self._steps[key] = out
        return out

    def root_power(self, N: int, e: int) -> Ideal:
        """root_e of the ideal (f^N): frobenius_root_ideal of the expanded
        f^N, computed in e digit steps however large N is."""
        if N < 0 or e < 0:
            raise DomainError("root_power requires N >= 0 and e >= 0")
        state = self._start
        p = self.ring.prime
        for _ in range(e):
            N, d = divmod(N, p)
            state = self._step(state, d)
        if N == 0:
            return state
        ring = self.ring
        carry = (Polynomial._from_packed(ring, t) for t in self._products(state, N))
        return self._intern(Ideal(ring, tuple(carry)))

    def in_radical(self, b: Ideal) -> bool:
        """Whether f lies in sqrt(b); each b certified to hold f is remembered."""
        if b in self._radical or radical_member(self.f, b):
            self._radical.add(b)
            return True
        return False

    def nu(self, b: Ideal, e: int) -> int:
        """Largest N with f^N outside b^[p^e]; 0 when already f in b^[p^e].

        f^N lies in b^[p^e] exactly when root_e(f^N) is contained in b, so no
        large power of f is ever expanded.  The search doubles then bisects.
        It ends because in_radical first checks f in sqrt(b): then f^k is in
        b for some k, and f^(k * p^e) in b^[p^e].  The engine remembers each
        b it has certified, so that check runs once per b.
        """
        if e < 0:
            raise DomainError("nu requires e >= 0")
        if self.ring != b.ring:
            raise DomainError("polynomial/ideal ring mismatch")
        if b.is_unit():
            raise DomainError("nu is undefined for the unit ideal")
        if not self.in_radical(b):
            raise DomainError("no power of f lies in b: f is not in the radical of b")

        def member(n: int) -> bool:
            return b.contains_ideal(self.root_power(n, e))

        hi = 1  # member(0) is false: f^0 = 1 and b is proper
        while not member(hi):
            hi *= 2
        return _least_integer(member, hi // 2, hi) - 1
