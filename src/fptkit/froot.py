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

A FrobeniusRootEngine is the digit automaton of one f: its interned
states, its table of powers f^d and one row per state.  Each state has an
index, and its row maps each digit d already stepped to the index of the
next state, and each final carry N already taken to the index of its root,
under the key -N, which no digit takes.  A row holds only the steps taken,
not p slots, so a large p costs no memory per state.  Most states are
monomial ideals, and a product x^a * f^d is f^d shifted by a on packed
ints, so a step from one forms no polynomial product.  The start state (1)
has index 0.  The TestIdealComputer of a query owns one engine, so every
evaluation of that query shares its tables.  The nu invariants are a
question asked of the engine too (engine.nu(b, e)).  nu narrows on the
p-adic grid, as the searches of testideal do: by Mustata-Takagi-Watanabe,
nu_f^b(p^e) = ceil(c * p^e) - 1 for the F-threshold c of f with respect to
b, and level j of the narrowing finds ceil(c * p^j), the least k with
root_j(f^k) inside b, so level e gives nu with no search over N at full
depth.

The automaton is finite, and its states reachable from (1) are the test
ideals on [0, 1): after the digits d_1..d_e of some n < p^e, least
significant first, it holds root_e(f^n) = tau(f^(n/p^e)), tau is right
continuous and piecewise constant, and grid points are dense.  close()
fills every reachable row, and jumps() reads off each state's jump, the
infimum of the grid points that reach it, with no bound B and no search.
"""

from __future__ import annotations

from fractions import Fraction

from .basep import _narrow
from .errors import DomainError, InfeasibleError
from .groebner import Ideal, _front_end, radical_member
from .poly import Polynomial, _require_same_ring, power

__all__ = ["frobenius_root_ideal", "FrobeniusRootEngine"]

# close() refuses an automaton of more states than this.  There is one state
# per jump in [0, 1), and the time grows faster than the count: at p = 5,
# x^101 + y^103 has 838 states (2.7 s to close) and x^301 + y^302 has 4,392
# (62 s), on a 2-vCPU Xeon with Python 3.11
MAX_STATES = 5_000


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

    __slots__ = ("f", "ring", "transitions", "_fpow", "_states", "_ideals", "_rows")

    def __init__(self, f: Polynomial):
        self.f = f
        self.ring = f.ring
        self.transitions = 0  # transitions computed: _step calls
        self._fpow: dict[int, Polynomial] = {0: f.ring.one(), 1: f}
        self._states: dict[Ideal, int] = {}  # each interned state -> its index
        self._ideals: list[Ideal] = []  # index -> interned state
        self._rows: list[dict[int, int]] = []  # index -> {digit d or -carry N: next index}
        self._intern(_root(self.ring, [{0: 1}], 1))  # the start state (1) has index 0

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
        the products, stored under d in J's row, beside the carries that
        root_power stores there under negative keys.  root_power and close
        call it only while the row has no d, and transitions counts it."""
        self.transitions += 1
        products = self._products(self._ideals[i], digit)
        j = self._rows[i][digit] = self._intern(_root(self.ring, products, self.ring.prime))
        return j

    def root_power(self, N: int, e: int) -> Ideal:
        """root_e of the ideal (f^N): frobenius_root_ideal of the expanded
        f^N, computed in e digit steps however large N is.  A step taken
        before is two lookups on a state index and a digit.  What is left
        of N, N div p^e, is the final carry: the root at q = 1 of the
        products f^(N div p^e) * g over the last state's basis, interned
        like every state and kept, like a step, in the last state's row,
        under the key -N.  root_power(0, 0) is the start state (1)."""
        if N < 0 or e < 0:
            raise DomainError("root_power requires N >= 0 and e >= 0")
        i, p, rows = 0, self.ring.prime, self._rows
        for _ in range(e):
            N, d = divmod(N, p)
            j = rows[i].get(d)
            i = self._step(i, d) if j is None else j
        if N:
            if -N not in rows[i]:
                rows[i][-N] = self._intern(_root(self.ring, self._products(self._ideals[i], N), 1))
            i = rows[i][-N]
        return self._ideals[i]

    def close(self) -> list[int]:
        """The indices of the states reachable from state 0 over the digits
        0..p-1, in breadth-first order, each with a full row.

        delta(J, d) = root_1(f^d * J) descends in d, since f^(d+1) * J lies
        in f^d * J, so when both ends of a span of digits reach one state,
        every digit between them does too.  A row steps its first and last
        digit and bisects only the spans whose ends differ.  More than
        MAX_STATES states raise InfeasibleError.
        """
        p, rows = self.ring.prime, self._rows

        def fill(row, i, lo, hi):
            # the digits strictly between lo and hi, whose ends are in row
            if row[lo] == row[hi]:
                row.update(dict.fromkeys(range(lo + 1, hi), row[lo]))
            elif hi - lo > 1:
                mid = (lo + hi) // 2
                if mid not in row:
                    self._step(i, mid)
                fill(row, i, lo, mid)
                fill(row, i, mid, hi)

        order, seen = [0], {0}
        for i in order:  # order grows as new states are met
            row = rows[i]
            for d in (0, p - 1):
                if d not in row:
                    self._step(i, d)
            fill(row, i, 0, p - 1)
            for d in range(p):
                if row[d] not in seen:
                    seen.add(row[d])
                    order.append(row[d])
            if len(order) > MAX_STATES:
                raise InfeasibleError(
                    f"the digit automaton of f passes the limit of {MAX_STATES} states"
                )
        return order

    def jumps(self) -> list[tuple[Fraction, Ideal]]:
        """(x_J, J) for every state J reachable from state 0, ascending in
        x_J: the F-jumping numbers in [0, 1) and their test ideals.

        x_J is the infimum of the grid points k/p^e whose digits, least
        significant first, lead from (1) to J, and so the jump where tau
        takes the value J.  It is the unique solution of x_0 = 0 and
        x_J = min over edges I ->d J of (x_I + d)/p, unique because each
        map contracts by 1/p.  Policy iteration (Howard, 1960) solves it
        exactly: start from the breadth-first tree, take the values of the
        chosen edges (_policy_values), and move each state to an edge that
        gives it a strictly smaller value, until none does.  Only the least
        digit of each pair of states I, J matters, since (x_I + d)/p grows
        with d.
        """
        p, rows, order = self.ring.prime, self._rows, self.close()
        into: dict[int, dict[int, int]] = {j: {} for j in order}  # J -> {I: least d}
        for i in order:
            for d in range(p):
                into[rows[i][d]].setdefault(i, d)
        # each state's first edge is the one close() met it by
        policy = {j: next(iter(edges.items())) for j, edges in into.items() if j}
        while True:
            x = _policy_values(policy, p)
            better = {}
            for j, edges in into.items():
                if j:
                    i, d = min(edges.items(), key=lambda edge: x[edge[0]] + edge[1])
                    if x[i] + d < p * x[j]:
                        better[j] = i, d
            if not better:
                return sorted(((x[j], self._ideals[j]) for j in order), key=lambda pair: pair[0])
            policy.update(better)

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
        ends because radical_member first checks f in sqrt(b): then f^k is
        in b for some k.  An e past basep.MAX_LEVELS raises InfeasibleError.
        """
        if e < 0:
            raise DomainError("nu requires e >= 0")
        _require_same_ring(self, b)
        if b.is_unit():
            raise DomainError("nu is undefined for the unit ideal")
        if not radical_member(self.f, b):
            raise DomainError("no power of f lies in b: f is not in the radical of b")
        p = self.ring.prime
        return _narrow(lambda k, j: b.contains_ideal(self.root_power(k, j)), p, e) - 1


def _policy_values(policy: dict, p: int) -> dict:
    """x_J = (x_I + d)/p along the chosen edge (I, d) of each state J, and
    x_0 = 0.  Each chain of chosen predecessors ends at state 0 or in a
    cycle.  A cycle of v states J_1 <- J_2 <- ... <- J_v <- J_1 with digits
    d_1..d_v gives x_(J_1) = c/(p^v - 1), c = d_1*p^(v-1) + ... + d_v, the
    purely periodic base-p expansion 0.(d_1..d_v)."""
    x = {0: Fraction(0)}
    for j in policy:
        path, at = [], {}
        while j not in x and j not in at:
            at[j] = len(path)
            path.append(j)
            j = policy[j][0]
        if j not in x:  # a cycle that starts at j
            c = 0
            for k in path[at[j]:]:
                c = c * p + policy[k][1]
            x[j] = Fraction(c, p ** (len(path) - at[j]) - 1)
        for k in reversed(path):
            if k != j:
                i, d = policy[k]
                x[k] = (x[i] + d) / p
    return x
