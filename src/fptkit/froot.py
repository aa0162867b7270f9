"""Frobenius-root ideals.

frobenius_root_ideal(J, e) is the smallest ideal b with J in b^[p^e].  Over
F_p it is read off the generators directly: split every exponent vector of
each generator into its residue mu and quotient modulo p^e, and collect the
quotient polynomials, one per residue (coefficient roots are trivial because
Frobenius fixes F_p).  _root is that one rule, on packed term dicts, and
the one door by which this module makes an ideal: for the generators of J,
for the products f^d * g of each digit step below at q = p, and for the
final carry and the start state (1) at q = 1.  It hands the split terms to
the kernel's front end (groebner._front_end); rows the front end calls
final are the root's reduced basis, and no Groebner basis is formed.

FrobeniusRootEngine(f).root_power(N, e) evaluates root_e(f^N) without ever
expanding f^N.  It peels one base-p digit of N per level, starting from J = (1):

    root_e(f^N * J) = root_{e-1}(f^(N div p) * root_1(f^(N mod p) * J))

which rests on the scaling rule root_1(g^p * h) = g * root_1(h), a
consequence of flatness of Frobenius on the polynomial ring.  Digits are
consumed least-significant first, intermediate ideals are canonicalized at
every level, and no power beyond f^(p-1) times current generators is ever
expanded, so N may vastly exceed p^e.

A FrobeniusRootEngine holds the digit-transition table for one f: each
interned state has an index and a row, which maps each digit already
stepped to the index of the next state.  A row holds only the steps taken,
not p slots, so a large p costs no memory per state.  Most states are
monomial ideals, and a product x^a * f^d is f^d shifted by a on packed
ints, so a step from one forms no polynomial product.  The start state (1)
has index 0, and the engine also keeps its table of powers f^d; the
TestIdealComputer of a query owns one, so every evaluation of that query
shares them.  The nu invariants are a question asked of the engine too
(engine.nu(b, e)), and so is whether f lies in sqrt(b)
(engine.in_radical(b)).  nu narrows on the p-adic grid, as the searches
of testideal do: by Mustata-Takagi-Watanabe, nu_f^b(p^e) = ceil(c * p^e) - 1
for the F-threshold c of f with respect to b, and level j of the narrowing
finds ceil(c * p^j), the least k with root_j(f^k) inside b, so level e
gives nu with no search over N at full depth.
"""

from __future__ import annotations

from .basep import _narrow
from .errors import DomainError
from .groebner import Ideal, _front_end, radical_member
from .poly import Polynomial, _require_same_ring, power

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
    term dicts: the ideal of their split terms, generated by the front
    end's rows, which are set as its basis when the front end calls them
    final.  At q = 1 every term is its own quotient, so the root is the
    ideal of the polynomials themselves.
    """
    rows, final = _front_end(ring, [t for terms in products for t in _split(ring, terms, q).values()])
    J = Ideal(ring, rows)
    if final:
        J._basis = J.generators
    return J


def frobenius_root_ideal(J: Ideal, e: int) -> Ideal:
    """Smallest ideal b with J contained in b^[p^e]; generator-wise sum."""
    if e < 1:
        raise DomainError("frobenius_root_ideal requires e >= 1")
    return _root(J.ring, [g._packed for g in J.generators], J.ring.prime**e)


class FrobeniusRootEngine:
    """Evaluates root_e(f^N) with a per-f digit-transition cache.

    The map J -> root_1(f^d * J) is well defined on ideals, so its values
    may be memoized once equal ideals are one state.  _intern gives each
    canonical (reduced Groebner) form an index, the only place an Ideal is
    hashed, and the transition J -> root_1(f^d * J) is entry d of J's row.
    The searches in testideal evaluate many parameters for a fixed f, and
    their digit recursions keep re-entering the same few states, so most
    steps are hits: two lookups on ints.  A miss is _root of the products
    f^d * g over the state's basis, which _products forms without
    multiplying when g is a monomial.  The engine also pays once for its
    fixed work: every evaluation starts from state 0, the root of (1), and
    the digit powers f^d and the final carry come from one power table.
    """

    __slots__ = ("f", "ring", "_fpow", "_states", "_ideals", "_rows", "_carries", "_radical")

    def __init__(self, f: Polynomial):
        self.f = f
        self.ring = f.ring
        self._fpow: dict[int, Polynomial] = {0: f.ring.one(), 1: f}
        self._states: dict[Ideal, int] = {}  # each interned state -> its index
        self._ideals: list[Ideal] = []  # index -> interned state
        self._rows: list[dict[int, int]] = []  # index -> {digit: next index}
        self._carries: dict[tuple[int, int], int] = {}  # (index, carry N) -> index of the root
        self._intern(_root(self.ring, [{0: 1}], 1))  # the start state (1) has index 0
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

    def _intern(self, J: Ideal) -> int:
        """The index of J's interned state; a new state gets an empty row."""
        i = self._states.setdefault(J, len(self._ideals))
        if i == len(self._ideals):
            self._ideals.append(J)
            self._rows.append({})
        return i

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

    def _step(self, i: int, digit: int) -> int:
        """The index of root_1(f^d * J) for the state J of index i: _root of
        the products, stored under d in J's row.  root_power calls it only
        while the row has no d."""
        products = self._products(self._ideals[i], digit)
        j = self._rows[i][digit] = self._intern(_root(self.ring, products, self.ring.prime))
        return j

    def root_power(self, N: int, e: int) -> Ideal:
        """root_e of the ideal (f^N): frobenius_root_ideal of the expanded
        f^N, computed in e digit steps however large N is.  A step taken
        before is two lookups on a state index and a digit.  What is left
        of N, N div p^e, is the final carry: the root at q = 1 of the
        products f^(N div p^e) * g over the last state's basis, interned
        like every state and kept, like a step, under the last state's index
        and N.  root_power(0, 0) is the start state (1)."""
        if N < 0 or e < 0:
            raise DomainError("root_power requires N >= 0 and e >= 0")
        i, p, rows = 0, self.ring.prime, self._rows
        for _ in range(e):
            N, d = divmod(N, p)
            j = rows[i].get(d)
            i = self._step(i, d) if j is None else j
        if N:
            if (i, N) not in self._carries:
                products = self._products(self._ideals[i], N)
                self._carries[i, N] = self._intern(_root(self.ring, products, 1))
            i = self._carries[i, N]
        return self._ideals[i]

    def in_radical(self, b: Ideal) -> bool:
        """Whether f lies in sqrt(b); each b certified to hold f is remembered."""
        if b in self._radical or radical_member(self.f, b):
            self._radical.add(b)
            return True
        return False

    def nu(self, b: Ideal, e: int) -> int:
        """Largest N with f^N outside b^[p^e]; 0 when already f in b^[p^e].

        f^N lies in b^[p^e] exactly when root_e(f^N) is contained in b, so no
        large power of f is ever expanded.  nu is a_e - 1 for a_j the least k
        with root_j(f^k) inside b, and basep._narrow finds a_e level by
        level, as least_parameter does: since root_(j+1)(f^(p*k)) =
        root_j(f^k), a_(j+1) lies in the cell (p*(a_j - 1), p*a_j], which
        level j+1 bisects.  This is Mustata-Takagi-Watanabe's
        nu = ceil(c * p^e) - 1 for the F-threshold c of f with respect to b:
        a_j/p^j is c rounded up to the level-j grid.  Level 0 gallops from
        N = 0 (f^0 = 1 is outside b) over the powers (f^k) themselves.  It
        ends because in_radical first checks f in sqrt(b): then f^k is in b
        for some k.  The engine remembers each b it has certified, so that
        check runs once per b.  An e past basep.MAX_LEVELS raises
        InfeasibleError.
        """
        if e < 0:
            raise DomainError("nu requires e >= 0")
        _require_same_ring(self, b)
        if b.is_unit():
            raise DomainError("nu is undefined for the unit ideal")
        if not self.in_radical(b):
            raise DomainError("no power of f lies in b: f is not in the radical of b")
        p = self.ring.prime
        return _narrow(lambda k, j: b.contains_ideal(self.root_power(k, j)), 0, p, e) - 1
