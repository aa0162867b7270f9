"""Frobenius-root ideals.

frobenius_root_ideal(J, e) is the smallest ideal b with J in b^[p^e].  Over
F_p it is read off the generators directly: split every exponent vector of
each generator into its residue mu and quotient modulo p^e, and collect the
quotient polynomials, one per residue (coefficient roots are trivial because
Frobenius fixes F_p).  _split is the one rule that sorts packed terms into
residue classes: _root_generators applies it to a set of generators, and
each digit step of the engine below to the products f^d * g with q = p.

FrobeniusRootEngine(f).root_power(N, e) evaluates root_e(f^N) without ever
expanding f^N.  It peels one base-p digit of N per level, starting from J = (1):

    root_e(f^N * J) = root_{e-1}(f^(N div p) * root_1(f^(N mod p) * J))

which rests on the scaling rule root_1(g^p * h) = g * root_1(h), a
consequence of flatness of Frobenius on the polynomial ring.  Digits are
consumed least-significant first, intermediate ideals are canonicalized at
every level, and no power beyond f^(p-1) times current generators is ever
expanded, so N may vastly exceed p^e.

Most states are monomial ideals.  A transition from one forms no product,
because x^a * f^d is f^d shifted by a on packed ints, and it needs no
Groebner basis when each shifted copy splits into single terms: its value
is then (1) or the monomial ideal of their quotients, which is its own
reduced basis.  Every other transition reduces the split terms in the
kernel.

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


def _split_terms(f: Polynomial, q: int) -> list[Polynomial]:
    """Coordinates of f in the monomial basis of R over R^q, q = p^e: one
    polynomial of quotients per residue class."""
    ring = f.ring
    return [Polynomial._from_packed(ring, t) for t in _split(ring, f._packed, q).values()]


def _root_generators(polys, q: int) -> tuple[Polynomial, ...]:
    """The distinct split terms of polys: generators of the root of the
    ideal they generate, q = p^e."""
    return tuple(dict.fromkeys(t for g in polys for t in _split_terms(g, q)))


def frobenius_root_ideal(J: Ideal, e: int) -> Ideal:
    """Smallest ideal b with J contained in b^[p^e]; generator-wise sum."""
    if e < 1:
        raise DomainError("frobenius_root_ideal requires e >= 1")
    return Ideal(J.ring, _root_generators(J.generators, J.ring.prime**e))


class FrobeniusRootEngine:
    """Evaluates root_e(f^N) with a per-f digit-transition cache.

    The map J -> root_1(f^d * J) is well defined on ideals, so its values
    may be memoized keyed by the canonical (reduced Groebner) form of J.
    The searches in testideal evaluate many parameters for a fixed f, and
    their digit recursions keep re-entering the same few states, so most
    steps are cache hits.  A miss from a monomial state is computed on packed
    ints, without the kernel when its products split into single terms; its
    value is interned like any other, so states and answers are those of the
    kernel path.  The engine also pays once for its fixed work: every
    evaluation starts from one interned unit ideal, and the digit powers f^d
    and the final carry come from one power table.
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

    def _step(self, state: Ideal, digit: int) -> Ideal:
        """root_1(f^d * J), memoized per (J, d).

        Each product f^d * g is split once into its residue classes.  When g
        is a monomial x^a the product is f^d with each packed monomial b
        moved to a + b, so no multiplication is formed.  When every g is a
        monomial and no residue class holds two terms, every split term is a
        single term, and the root is the monomial ideal of the quotients,
        formed without the kernel: (1) when one of them is the monomial 1,
        else the ideal of their minimal set.  Otherwise the split terms go
        to the kernel.
        """
        key = (state, digit)
        out = self._steps.get(key)
        if out is None:
            ring, p = self.ring, self.ring.prime
            basis = state.basis()
            fd = self._f_power(digit)
            fterms = fd._packed
            monomial = all(len(g._packed) == 1 for g in basis)
            if monomial:
                if basis and fterms:  # the degree guard of Polynomial.__mul__, once for all shifts
                    ring._check_degree((max(g._lead() for g in basis) >> ring._top) + fd.total_degree())
                products = [{g._lead() + b: c for b, c in fterms.items()} for g in basis]
            else:
                products = [(fd * g)._packed for g in basis]
            splits = [_split(ring, terms, p) for terms in products]
            if monomial and all(len(s) == len(fterms) for s in splits):
                quotients = [quo for s in splits for t in s.values() for quo in t]
                out = self._start if 0 in quotients else self._intern(Ideal.monomial(ring, quotients))
            else:
                terms = (Polynomial._from_packed(ring, t) for s in splits for t in s.values())
                out = self._intern(Ideal(ring, tuple(dict.fromkeys(terms))))
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
        fN = self._f_power(N)
        return self._intern(Ideal(self.ring, tuple(fN * g for g in state.basis())))

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
