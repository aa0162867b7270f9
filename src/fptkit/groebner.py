"""Groebner-basis kernel over F_p.

Buchberger's algorithm with the normal selection strategy and the pair
update of Gebauer and Moeller ("On an installation of Buchberger's
algorithm", JSC 1988): pairs are filtered as each basis element enters, so
most never reach the queue, and the many monomial generators the engine
produces (split terms, powers of the maximal ideal) form no S-polynomials
among themselves.  A linear front end runs first, in the spirit of
Faugere's F4 (JPAA 1999): the generators are put in row echelon form over
F_p, the other rows are cut by the monomial rows, and an ideal left with
single-term rows only is returned without any pair loop.  Most generator
lists the engine builds are monomials, scalar multiples and linearly
dependent sets, so this removes most S-polynomials.  Workloads here are 2
to 4 variables with small bases, so nothing fancier is warranted.  The
reduced Groebner basis is the canonical form of an ideal: equality tests,
hashing, serialization, and the transition caching in the Frobenius-root
engine all key off it.

Grevlex (``poly.grevlex_key``) is the only term order, and leading terms are
read through ``Polynomial.leading_monomial``.  ``radical_member`` is the one
helper that extends the ring, by an auxiliary variable for the Rabinowitsch
trick; the order stays grevlex there too.
"""

from __future__ import annotations

import heapq
from operator import neg

from .errors import DomainError, NotMPrimaryError
from .poly import Polynomial, PolyRing, grevlex_key, partial_derivative

__all__ = [
    "Ideal",
    "normal_form",
    "bracket_power",
    "artinian_length",
    "jacobian",
    "maximal_ideal",
    "maximal_ideal_power",
]


def _divides(a, b) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _heap_key(m):
    """Min-heap key that pops the grevlex-largest monomial first."""
    total, tail = grevlex_key(m)
    return (-total, *map(neg, tail))


def _reduce_full(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by a list of monic polynomials.

    No monomial of the remainder is divisible by any basis leading monomial,
    which makes the remainder canonical for a reduced basis.  The working
    polynomial is kept in a dict with a lazy max-heap over its monomials.
    """
    if f.is_zero() or not basis:
        return f
    ring = f.ring
    p = ring.prime
    data = [(g.leading_monomial(), g._terms) for g in basis]
    work = dict(f._terms)
    heap = [(_heap_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, gterms in data:
            if _divides(lm, m):
                shift = _mono_sub(m, lm)
                for gm, gc in gterms.items():
                    if gm == lm:
                        continue
                    mm = _mono_add(gm, shift)
                    old = work.get(mm, 0)
                    s = (old - c * gc) % p
                    if s:
                        work[mm] = s
                        if not old:
                            heapq.heappush(heap, (_heap_key(mm), mm))
                    elif mm in work:
                        del work[mm]
                break
        else:
            remainder[m] = c
    return Polynomial(ring, remainder, _normalized=True)


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _mono_lcm(lf, lg)
    return f.scale_term(1, _mono_sub(lcm, lf)) - g.scale_term(1, _mono_sub(lcm, lg))


def _lm_key(g: Polynomial):
    return grevlex_key(g.leading_monomial())


def _cancel_lead(g: Polynomial, row: Polynomial) -> Polynomial:
    """g minus the multiple of the monic row that cancels g's term at lm(row)."""
    p = g.ring.prime
    c = g._terms[row.leading_monomial()]
    out = dict(g._terms)
    for m, rc in row._terms.items():
        s = (out.get(m, 0) - c * rc) % p
        if s:
            out[m] = s
        else:
            del out[m]
    return Polynomial(g.ring, out, _normalized=True)


def _front_end(gens) -> list[Polynomial]:
    """Monic generators of the ideal of gens, thinned by linear algebra.

    Row echelon over F_p: each nonzero generator is reduced at its leading
    monomial by the rows already kept until that monomial is new, and is
    then kept as a monic row.  The rows span the same F_p-space as gens, so
    they generate the same ideal.  The single-term rows generate a monomial
    ideal; only its minimal generators stay, and every term of another row
    that one of them divides is deleted, because it lies in the ideal.
    Returns [1] when 1 is a row.
    """
    rows: dict = {}
    for g in gens:
        while g._terms:
            lm = g.leading_monomial()
            row = rows.get(lm)
            if row is None:
                rows[lm] = g.monic()
                break
            g = _cancel_lead(g, row)
    out: list[Polynomial] = []
    mono_lms: list = []
    for lm in sorted((m for m, g in rows.items() if len(g._terms) == 1), key=grevlex_key):
        if not any(lm):
            return [rows[lm]]
        if not any(_divides(m, lm) for m in mono_lms):
            out.append(rows[lm])
            mono_lms.append(lm)
    for g in rows.values():
        if len(g._terms) == 1:
            continue
        kept = {m: c for m, c in g._terms.items() if not any(_divides(u, m) for u in mono_lms)}
        if len(kept) == len(g._terms):
            out.append(g)
        elif kept:
            out.append(Polynomial(g.ring, kept, _normalized=True).monic())
    return out


def _buchberger(gens) -> list[Polynomial]:
    """Buchberger with the Gebauer-Moeller pair update and normal selection.

    The generators first pass ``_front_end``; when every row it returns is
    a single term they generate a monomial ideal, whose minimal generators
    are its reduced basis, and no pair is formed.  A row cut to one term can
    divide a monomial row, so that case still minimalizes: (x^3 + y^5, y^4,
    x^4) gives (x^3, y^4).  Otherwise the rows, smallest leading monomial
    first, and then each nonzero remainder h enter the basis through
    ``update``.  Of the new pairs (g, h) over the active g, only those
    whose lcm no other new lcm divides survive, one per lcm (criteria M and
    F).  A survivor is then dropped when its S-polynomial reduces to 0 by
    construction: the leading monomials are coprime (product criterion) or
    both polynomials are single terms.  A pending pair whose lcm lm(h)
    divides is pruned unless it shares its lcm with one of its two pairs
    with h (criterion B).  Active elements whose leading monomial lm(h)
    divides retire: remainders are taken modulo the active set, but a
    retired element stays in G for the pending pairs that name it.  Pending
    pairs form a heap keyed by their lcm and are popped smallest first.
    """
    G: list[Polynomial] = []
    lms: list = []
    active: list[int] = []
    pairs: list = []

    def update(h):
        t = len(G)
        lm = h.leading_monomial()
        pairs[:] = [
            e
            for e in pairs
            if not _divides(lm, e[3])
            or _mono_lcm(lms[e[1]], lm) == e[3]
            or _mono_lcm(lms[e[2]], lm) == e[3]
        ]
        heapq.heapify(pairs)
        single = len(h._terms) == 1
        new = []
        for i in active:
            lcm = _mono_lcm(lms[i], lm)
            trivial = (single and len(G[i]._terms) == 1) or lcm == _mono_add(lms[i], lm)
            # a strict divisor of an lcm has lower degree; within one lcm
            # class, trivial pairs sort first and claim it
            new.append((sum(lcm), not trivial, i, lcm))
        new.sort()
        seen: list = []
        for _, needed, i, lcm in new:
            if any(_divides(m, lcm) for m in seen):
                continue
            seen.append(lcm)
            if needed:
                heapq.heappush(pairs, (grevlex_key(lcm), i, t, lcm))
        active[:] = [i for i in active if not _divides(lm, lms[i])]
        active.append(t)
        G.append(h)
        lms.append(lm)

    rows = _front_end(gens)
    if all(len(g._terms) == 1 for g in rows):
        return _interreduce(rows)
    for g in sorted(rows, key=_lm_key):
        update(g)
    while pairs:
        _, i, j, _ = heapq.heappop(pairs)
        r = _reduce_full(_spoly(G[i], G[j]), [G[k] for k in active])
        if not r.is_zero():
            update(r.monic())
    return _interreduce([G[k] for k in active])


def _interreduce(G) -> list[Polynomial]:
    """Minimal then fully reduced basis, sorted ascending by leading monomial."""
    G = sorted(G, key=_lm_key)
    minimal: list[Polynomial] = []
    min_lms: list = []
    for g in G:
        lm = g.leading_monomial()
        if not any(_divides(m, lm) for m in min_lms):
            minimal.append(g)
            min_lms.append(lm)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(_reduce_full(g, others).monic())
    reduced.sort(key=_lm_key)
    return reduced


class Ideal:
    """An ideal of F_p[x_1..x_n], carried by a generator list.

    The reduced Groebner basis (grevlex) is computed at most once and then
    cached; it is the canonical form used by __eq__, __hash__ and str.
    """

    __slots__ = ("ring", "generators", "_basis", "_hash")

    def __init__(self, ring: PolyRing, generators=()):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise DomainError("ideal generators must be polynomials")
            if g.ring != ring:
                raise DomainError("generator ring mismatch")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._basis = None
        self._hash = None

    @classmethod
    def unit(cls, ring: PolyRing) -> "Ideal":
        return cls(ring, (ring.one(),))

    @classmethod
    def zero(cls, ring: PolyRing) -> "Ideal":
        return cls(ring, ())

    def basis(self) -> tuple[Polynomial, ...]:
        if self._basis is None:
            self._basis = tuple(_buchberger(self.generators))
        return self._basis

    def is_unit(self) -> bool:
        b = self.basis()
        return len(b) == 1 and b[0].is_one()

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise DomainError("ideal ring mismatch")
        return all(self.contains(g) for g in other.basis())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.basis() == other.basis()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.prime, self.basis()))
        return self._hash

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.basis()) + ")"

    def __repr__(self):
        return f"Ideal({self.ring.prime}, {[str(g) for g in self.generators]})"

    def to_json(self) -> list[str]:
        return [str(g) for g in self.basis()]


def normal_form(f: Polynomial, J: Ideal) -> Polynomial:
    if f.ring != J.ring:
        raise DomainError("polynomial/ideal ring mismatch")
    return _reduce_full(f, J.basis())


def bracket_power(J: Ideal, e: int) -> Ideal:
    """The Frobenius power: the ideal generated by g^(p^e) over generators g.

    Independent of the chosen generating set.
    """
    if e < 0:
        raise DomainError("bracket power exponent must be >= 0")
    if e == 0:
        return J
    return Ideal(J.ring, tuple(g.frobenius(e) for g in J.generators))


def jacobian(f: Polynomial) -> Ideal:
    """The ideal generated by f together with all of its partial derivatives."""
    return Ideal(f.ring, (f, *(partial_derivative(f, i) for i in range(f.ring.dimension))))


def maximal_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, ring.gens())


def maximal_ideal_power(ring: PolyRing, k: int) -> Ideal:
    """m^k, generated by every monomial of total degree k."""
    if k < 0:
        raise DomainError("power must be >= 0")
    if k == 0:
        return Ideal.unit(ring)
    return Ideal(ring, tuple(ring.monomial(m) for m in ring.monomials_of_degree(k)))


def artinian_length(J: Ideal) -> int:
    """dim_{F_p} R/J for an ideal primary to the origin.

    Returns 0 for the unit ideal.  Raises NotMPrimaryError when the quotient
    is not finite-dimensional, or is finite-dimensional but supported away
    from the origin (detected by x_i^d notin J for d the standard-monomial
    count).
    """
    basis = J.basis()
    if len(basis) == 1 and basis[0].is_one():
        return 0
    n = J.ring.dimension
    lms = [g.leading_monomial() for g in basis]
    caps = [None] * n
    for m in lms:
        support = [i for i, e in enumerate(m) if e > 0]
        if len(support) == 1:
            i = support[0]
            if caps[i] is None or m[i] < caps[i]:
                caps[i] = m[i]
    if any(c is None for c in caps):
        raise NotMPrimaryError(
            "quotient is not zero-dimensional: some variable has no pure power "
            "in the leading ideal"
        )
    standard = []

    def rec(prefix, i):
        if i == n:
            standard.append(tuple(prefix))
            return
        for e in range(caps[i]):
            prefix.append(e)
            m = tuple(prefix) + (0,) * (n - i - 1)
            if not any(_divides(lm, m) for lm in lms):
                rec(prefix, i + 1)
            prefix.pop()

    rec([], 0)
    d = len(standard)
    for i in range(n):
        xi_d = J.ring.monomial([d if j == i else 0 for j in range(n)])
        if not normal_form(xi_d, J).is_zero():
            raise NotMPrimaryError(
                "quotient is zero-dimensional but not supported only at the origin"
            )
    return d


# -- radical membership -----------------------------------------------------


def _extend_ring(ring: PolyRing) -> PolyRing:
    aux = "_t"
    while aux in ring.variables:
        aux += "t"
    return PolyRing(ring.prime, (aux,) + ring.variables)


def _lift(f: Polynomial, big: PolyRing) -> Polynomial:
    return Polynomial(big, {(0,) + m: c for m, c in f._terms.items()}, _normalized=True)


def radical_member(g: Polynomial, J: Ideal) -> bool:
    """g in sqrt(J), decided with an auxiliary inverse variable."""
    if g.is_zero():
        return True
    big = _extend_ring(J.ring)
    t = big.variable(0)
    gens = [_lift(f, big) for f in J.generators]
    gens.append(big.one() - t * _lift(g, big))
    basis = _buchberger(gens)
    return len(basis) == 1 and basis[0].is_one()
