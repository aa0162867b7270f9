"""Frobenius-root ideals.

frobenius_root_ideal(J, e) is the smallest ideal b with J in b^[p^e].  Over
F_p it is read off the generators directly: split every exponent vector of
each generator into its residue mu and quotient modulo p^e, and collect the
quotient polynomials, one per residue (coefficient roots are trivial because
Frobenius fixes F_p).  _root_generators is that one step; frobenius_root(f, e)
is the case J = (f), and each digit step of the engine below applies it with
q = p.

FrobeniusRootEngine(f).root_power(N, e) evaluates root_e(f^N) without ever
expanding f^N.  It peels one base-p digit of N per level, starting from J = (1):

    root_e(f^N * J) = root_{e-1}(f^(N div p) * root_1(f^(N mod p) * J))

which rests on the scaling rule root_1(g^p * h) = g * root_1(h), a
consequence of flatness of Frobenius on the polynomial ring.  Digits are
consumed least-significant first, intermediate ideals are canonicalized at
every level, and no power beyond f^(p-1) times current generators is ever
expanded, so N may vastly exceed p^e.

A FrobeniusRootEngine holds the digit-transition cache for one f, its
interned start state (1) and its table of powers f^d; the TestIdealComputer
of a query owns one, so every evaluation of that query shares them.  The
nu invariants are a question asked of the engine too (engine.nu(b, e)).
"""

from __future__ import annotations

from .basep import _least_integer
from .errors import DomainError
from .groebner import Ideal, radical_member
from .poly import Polynomial, power

__all__ = [
    "frobenius_root",
    "frobenius_root_ideal",
    "FrobeniusRootEngine",
]


def _split_terms(f: Polynomial, q: int) -> list[Polynomial]:
    """Coordinates of f in the monomial basis of R over R^q, q = p^e.

    One pass over the fields of each packed monomial m: the running sum of
    the exponent quotients e_i div q, placed field by field, packs the
    quotient monomial quo, and the residue monomial is m - q*quo, because
    packing is linear.
    """
    ring = f.ring
    value, shifts = ring._value, ring._shifts
    buckets: dict = {}
    for m, c in f._packed.items():
        quo = total = prev = 0
        for shift in shifts:
            s = (m >> shift) & value
            total += (s - prev) // q
            prev = s
            quo |= total << shift
        buckets.setdefault(m - q * quo, {})[quo] = c
    return [Polynomial._from_packed(ring, terms) for terms in buckets.values()]


def _root_generators(polys, q: int) -> tuple[Polynomial, ...]:
    """The distinct split terms of polys: generators of the root of the
    ideal they generate, q = p^e."""
    return tuple(dict.fromkeys(t for g in polys for t in _split_terms(g, q)))


def frobenius_root(f: Polynomial, e: int) -> Ideal:
    """Smallest ideal b with f in b^[p^e]; requires e >= 1."""
    return frobenius_root_ideal(Ideal(f.ring, (f,)), e)


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
    steps are cache hits.  The engine also pays once for its fixed work:
    every evaluation starts from one interned unit ideal, and the digit
    powers f^d and the final carry come from one power table.
    """

    __slots__ = ("f", "ring", "_fpow", "_states", "_steps", "_start")

    def __init__(self, f: Polynomial):
        self.f = f
        self.ring = f.ring
        self._fpow: dict[int, Polynomial] = {0: f.ring.one(), 1: f}
        self._states: dict = {}
        self._steps: dict = {}
        self._start = self._intern(Ideal.unit(self.ring))

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
        J.basis()
        cached = self._states.get(J)
        if cached is None:
            self._states[J] = J
            return J
        return cached

    def _step(self, state: Ideal, digit: int) -> Ideal:
        key = (state, digit)
        out = self._steps.get(key)
        if out is None:
            fd = self._f_power(digit)
            gens = _root_generators([fd * g for g in state.basis()], self.ring.prime)
            out = self._intern(Ideal(self.ring, gens))
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

    def nu(self, b: Ideal, e: int) -> int:
        """Largest N with f^N outside b^[p^e]; 0 when already f in b^[p^e].

        f^N lies in b^[p^e] exactly when root_e(f^N) is contained in b, so no
        large power of f is ever expanded.  The search doubles then bisects.
        It ends because f is first checked to lie in sqrt(b): then f^k is in
        b for some k, and f^(k * p^e) in b^[p^e].
        """
        if e < 0:
            raise DomainError("nu requires e >= 0")
        if self.ring != b.ring:
            raise DomainError("polynomial/ideal ring mismatch")
        if b.is_unit():
            raise DomainError("nu is undefined for the unit ideal")
        if not radical_member(self.f, b):
            raise DomainError("no power of f lies in b: f is not in the radical of b")

        def member(n: int) -> bool:
            return b.contains_ideal(self.root_power(n, e))

        hi = 1  # member(0) is false: f^0 = 1 and b is proper
        while not member(hi):
            hi *= 2
        return _least_integer(member, hi // 2, hi) - 1
