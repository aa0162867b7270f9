"""Groebner-basis kernel over F_p.

Buchberger's algorithm with the normal selection strategy and the pair
update of Gebauer and Moeller ("On an installation of Buchberger's
algorithm", JSC 1988): pairs are filtered as each basis element enters, so
most never reach the queue, and the many monomial generators the engine
produces (split terms, powers of the maximal ideal) form no S-polynomials
among themselves.  A front end runs first on packed term dicts: the
single terms cut every term they divide from the longer generators, and
what the cut leaves is put in row echelon form over F_p, in the spirit of
Faugere's F4 (JPAA 1999); when it calls its rows final, no pair loop
runs.  It is also how the Frobenius-root engine forms every root.  Most
generator lists the engine builds are monomials, scalar multiples and
linearly dependent sets, so this removes most S-polynomials.  Workloads
here are 2 to 4 variables with small bases, so nothing fancier is
warranted.  The reduced Groebner basis is the canonical form of an ideal:
equality tests, hashing, serialization, and the transition caching in the
Frobenius-root engine all key off it.

Grevlex is the only term order.  The kernel works on the packed monomials
of ``poly``: a leading monomial (``Polynomial._lead``) is the largest int of
a term dict, the division heap holds negated ints, the pair heap is keyed by
the packed lcm, a quotient of monomials is an int difference, and
divisibility and lcm are the ring's masked operations (``PolyRing.divides``,
``PolyRing.lcm``).  An lcm whose degree would pass the packed limit raises
InfeasibleError.  ``radical_member`` is the one helper that extends the
ring, by an auxiliary variable for the Rabinowitsch trick, and only for an
ideal that is not monomial; the order stays grevlex there too.
"""

from __future__ import annotations

import heapq
from itertools import combinations_with_replacement

from .errors import DomainError, NotMPrimaryError
from .poly import (
    FIELD_BITS,
    Polynomial,
    PolyRing,
    _add_multiple,
    _require_same_ring,
    partial_derivative,
)

__all__ = [
    "Ideal",
    "normal_form",
    "bracket_power",
    "artinian_length",
    "jacobian",
    "maximal_ideal",
    "maximal_ideal_power",
]


def _reduce_full(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by a list of monic polynomials.

    No monomial of the remainder is divisible by any basis leading monomial,
    which makes the remainder canonical for a reduced basis.  The working
    polynomial is kept in a dict with a lazy max-heap over its packed
    monomials, stored negated in heapq's min-heap.
    """
    if f.is_zero() or not basis:
        return f
    ring = f.ring
    p = ring.prime
    divides = ring.divides
    data = [(g._lead(), g._packed) for g in basis]
    work = dict(f._packed)
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, gterms in data:
            if divides(lm, m):
                shift = m - lm
                for gm, gc in gterms.items():
                    if gm == lm:
                        continue
                    mm = gm + shift
                    old = work.get(mm, 0)
                    s = (old - c * gc) % p
                    if s:
                        work[mm] = s
                        if not old:
                            heapq.heappush(heap, -mm)
                    elif mm in work:
                        del work[mm]
                break
        else:
            remainder[m] = c
    return Polynomial._from_packed(ring, remainder)


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """x^(lcm - lm f) * f - x^(lcm - lm g) * g: the S-polynomial of two
    monic polynomials."""
    lf, lg = f._lead(), g._lead()
    lcm = f.ring.lcm(lf, lg)
    sf, sg = lcm - lf, lcm - lg
    out = {m + sf: c for m, c in f._packed.items()}
    _add_multiple(out, {m + sg: c for m, c in g._packed.items()}, -1, f.ring.prime)
    return Polynomial._from_packed(f.ring, out)


def _front_end(ring, term_dicts) -> tuple[list[Polynomial], bool]:
    """Monic generators of the ideal of the polynomials with these packed
    term dicts, thinned by the monomial cut and linear algebra, and whether
    they are final.

    The single terms generate a monomial ideal, and every term of a longer
    dict that one of them divides lies in it, so the cut drops that term.
    A dict cut to one term joins the monomials and cuts the others in turn,
    and one cut to nothing is gone: (x^3 + y^5, y^4, x^4) gives (x^3, y^4).
    Only what the cut leaves is put in row echelon form over F_p: each dict
    is reduced at its leading monomial by the rows already kept until that
    monomial is new, and is then kept as a monic row.  The rows span the
    same F_p-space as the cut dicts, so with the monomials they generate
    the same ideal.  Returns [1] when 1 is among the monomials, and
    otherwise their minimal set, ascending, followed by the rows.  No
    caller's dict is changed; one whose leading coefficient is 1 may be
    kept as a row.  The rows are final, the reduced basis as they stand,
    when at most one is left (a monic polynomial, whose other terms lie
    below its leading monomial) or every one is a single term (minimal
    monomials), which is when no echelon row is left: the first keeps its
    two or more terms.
    """
    divides, p = ring.divides, ring.prime
    monos = {m for t in term_dicts if len(t) == 1 for m in t}
    rest = [t for t in term_dicts if len(t) > 1]
    new = monos
    while rest and new:
        # each distinct term is tested once a round, against the new
        # monomials only: it was checked against the older ones already
        dead = {m for m in {m for t in rest for m in t} if any(divides(u, m) for u in new)}
        if not dead:
            break
        cut = [{m: c for m, c in t.items() if m not in dead} for t in rest]
        new = {m for t in cut if len(t) == 1 for m in t}
        monos |= new
        rest = [t for t in cut if len(t) > 1]
    if 0 in monos:
        return [ring.one()], True
    out = _minimal([Polynomial._from_packed(ring, {m: 1}) for m in monos])
    rows: dict = {}
    for t in rest:
        terms = t
        while terms:
            lm = max(terms)
            row = rows.get(lm)
            if row is None:
                rows[lm] = Polynomial._from_packed(ring, terms).monic()
                break
            if terms is t:  # a caller's dict is never changed
                terms = dict(t)
            # cancel lm with the monic row
            _add_multiple(terms, row._packed, -terms[lm], p)
    out.extend(rows.values())
    return out, len(out) <= 1 or not rows


def _buchberger(gens) -> list[Polynomial]:
    """Buchberger with the Gebauer-Moeller pair update and normal selection.

    The generators' term dicts first pass ``_front_end``, and its rows are
    the answer as they are when it calls them final; then no pair is
    formed.  Otherwise the rows, smallest leading monomial first, and then
    each nonzero remainder h enter the basis through ``update``.  Of the
    new pairs (g, h) over the active g, only those
    whose lcm no other new lcm divides survive, one per lcm (criteria M and
    F).  A survivor is then dropped when its S-polynomial reduces to 0 by
    construction: the leading monomials are coprime (product criterion) or
    both polynomials are single terms.  A pending pair whose lcm lm(h)
    divides is pruned unless it shares its lcm with one of its two pairs
    with h (criterion B).  Active elements whose leading monomial lm(h)
    divides retire: remainders are taken modulo the active set, but a
    retired element stays in G for the pending pairs that name it.  Pending
    pairs form a heap keyed by their packed lcm and are popped smallest
    first.
    """
    if not gens:
        return []
    ring = gens[0].ring
    rows, final = _front_end(ring, [g._packed for g in gens])
    if final:
        return rows
    divides, lcm_of, top = ring.divides, ring.lcm, ring._top
    G: list[Polynomial] = []
    lms: list = []
    active: list[int] = []
    pairs: list = []

    def update(h):
        t = len(G)
        lm = h._lead()
        pairs[:] = [
            e
            for e in pairs
            if not divides(lm, e[0])
            or lcm_of(lms[e[1]], lm) == e[0]
            or lcm_of(lms[e[2]], lm) == e[0]
        ]
        heapq.heapify(pairs)
        single = len(h._packed) == 1
        new = []
        for i in active:
            lcm = lcm_of(lms[i], lm)
            trivial = (single and len(G[i]._packed) == 1) or lcm == lms[i] + lm
            # a strict divisor of an lcm has lower degree; within one lcm
            # class, trivial pairs sort first and claim it
            new.append((lcm >> top, not trivial, i, lcm))
        new.sort()
        seen: list = []
        for _, needed, i, lcm in new:
            if any(divides(m, lcm) for m in seen):
                continue
            seen.append(lcm)
            if needed:
                heapq.heappush(pairs, (lcm, i, t))
        active[:] = [i for i in active if not divides(lm, lms[i])]
        active.append(t)
        G.append(h)
        lms.append(lm)

    for g in sorted(rows, key=Polynomial._lead):
        update(g)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        r = _reduce_full(_spoly(G[i], G[j]), [G[k] for k in active])
        if not r.is_zero():
            update(r.monic())
    return _interreduce([G[k] for k in active])


def _minimal(G) -> list[Polynomial]:
    """The elements of G, ascending by leading monomial, whose leading
    monomial no kept element's leading monomial divides.  On a Groebner
    basis this is a minimal basis; on single terms, the minimal generators
    of the monomial ideal they generate."""
    kept: list[Polynomial] = []
    lms: list = []
    for g in sorted(G, key=Polynomial._lead):
        lm = g._lead()
        if not any(g.ring.divides(m, lm) for m in lms):
            kept.append(g)
            lms.append(lm)
    return kept


def _interreduce(G) -> list[Polynomial]:
    """Minimal then fully reduced basis, sorted ascending by leading monomial:
    reduction keeps each leading monomial, so _minimal's order stands."""
    minimal = _minimal(G)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(_reduce_full(g, others).monic())
    return reduced


class Ideal:
    """An ideal of F_p[x_1..x_n], carried by a generator list.

    The reduced Groebner basis (grevlex) is computed at most once and then
    cached; it is the canonical form used by __eq__, __hash__ and str.
    """

    __slots__ = ("ring", "generators", "_basis")

    def __init__(self, ring: PolyRing, generators=()):
        self.ring = ring
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise DomainError("ideal generators must be polynomials")
            if g.ring != ring:  # one comparison per generator on this hot path
                _require_same_ring(g, self)
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)
        self._basis = None

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
        _require_same_ring(self, other)
        return all(self.contains(g) for g in other.basis())

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.basis() == other.basis()

    def __hash__(self):
        return hash((self.ring.prime, self.basis()))

    def __str__(self):
        return "(" + ", ".join(str(g) for g in self.basis()) + ")"

    def __repr__(self):
        return f"Ideal({self.ring.prime}, {[str(g) for g in self.generators]})"

    def to_json(self) -> list[str]:
        return [str(g) for g in self.basis()]


def normal_form(f: Polynomial, J: Ideal) -> Polynomial:
    _require_same_ring(f, J)
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
    """m^k, generated by every monomial of total degree k: each is the sum
    of the packed ints of k variables."""
    if k < 0:
        raise DomainError("power must be >= 0")
    ring._check_degree(k)
    xs = [x._lead() for x in ring.gens()]
    return Ideal(ring, tuple(
        Polynomial._from_packed(ring, {sum(c): 1}) for c in combinations_with_replacement(xs, k)
    ))


def artinian_length(J: Ideal) -> int:
    """dim_{F_p} R/J for an ideal primary to the origin.

    Returns 0 for the unit ideal.  Raises NotMPrimaryError when the quotient
    is not finite-dimensional, or is finite-dimensional but supported away
    from the origin (detected by x_i^d notin J for d the standard-monomial
    count).  Standard monomials form an order ideal, so a walk up from 1 that
    raises no variable before the last one raised reaches each once.
    """
    if J.is_unit():
        return 0
    ring = J.ring
    top, divides = ring._top, ring.divides
    lms = [g._lead() for g in J.basis()]
    xs = [ring.variable(i)._lead() for i in range(ring.dimension)]
    if not all(any(lm == (lm >> top) * x for lm in lms) for x in xs):  # x^d is d * x
        raise NotMPrimaryError(
            "quotient is not zero-dimensional: some variable has no pure power "
            "in the leading ideal"
        )
    standard = [(0, 0)]  # (monomial, index of the last variable raised)
    for m, first in standard:
        for i in range(first, len(xs)):
            s = m + xs[i]
            if not any(divides(lm, s) for lm in lms):
                standard.append((s, i))
    d = len(standard)
    ring._check_degree(d)
    for x in xs:
        if not normal_form(Polynomial._from_packed(ring, {d * x: 1}), J).is_zero():
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
    """f in the ring extended in front: the new variable's exponent field is
    0, so each prefix-sum field moves up one field."""
    return Polynomial._from_packed(big, {m << FIELD_BITS: c for m, c in f._packed.items()})


def radical_member(g: Polynomial, J: Ideal) -> bool:
    """g in sqrt(J).

    When every generator of J is a single term, sqrt(J) is generated by
    their supports (squarefree parts), so g lies in it exactly when each
    term of g is divisible by the support of some generator; no basis is
    formed.  Any other J is decided with an auxiliary inverse variable
    (Rabinowitsch): g is in sqrt(J) iff J + (1 - t*g) is the unit ideal.
    """
    if g.is_zero():
        return True
    ring = J.ring
    if all(len(f._packed) == 1 for f in J.generators):
        supports = [ring.pack(min(e, 1) for e in ring.unpack(f._lead())) for f in J.generators]
        return all(any(ring.divides(s, m) for s in supports) for m in g._packed)
    big = _extend_ring(ring)
    t = big.variable(0)
    gens = [_lift(f, big) for f in J.generators]
    gens.append(big.one() - t * _lift(g, big))
    return Ideal(big, gens).is_unit()
