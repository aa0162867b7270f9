"""Sparse multivariate polynomials over a prime field F_p.

Terms live in a dict keyed by packed monomials; coefficients are kept in
1 .. p-1.  The canonical term order is graded reverse lexicographic, used
both for printing and as the only Groebner order.  Polynomials are
immutable values: every operation returns a fresh object, so they are safe
to share between threads and to use as dict keys.

Packed monomials (after Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  The
monomial x_1^e_1 ... x_n^e_n is one int of n fields of FIELD_BITS bits.
Field i, counted from the low end, holds the prefix sum e_1 + ... + e_(i+1),
so the top field holds the total degree.  Then:

- integer order is grevlex: the total degree decides first; on a tie the
  larger e_1 + ... + e_(n-1), that is the smaller e_n, wins, and so on;
- the product of two monomials is the sum of their ints, because prefix
  sums are linear, and x^(q*e) is q times the int of x^e;
- a divides b when two subtractions, guarded by the top bit of every field,
  borrow in no field: b - a has no negative prefix sum, and its prefix sums
  do not decrease (``PolyRing.divides``; the ring holds the masks).

The guard bit caps the total degree at ``PolyRing.max_degree`` = 2^31 - 1.
Nothing wraps past it: packing an exponent tuple, ``__mul__``, ``power``,
``frobenius`` and the lcm of two monomials raise InfeasibleError when the
degree of their result would exceed it, checked on the degrees alone before
anything is formed.

The public interface speaks exponent tuples: the constructor takes
{exponent tuple: coefficient}, and ``terms()``, ``leading_monomial()``,
``coefficient()``, ``str`` and the read-only ``_terms`` view give tuples
back.  Only this module and the kernels in ``groebner`` and ``froot`` read
the packed dict.  ``_add_multiple`` is the one rule for updating a packed
term dict by a multiple of another; ``Polynomial.__add__`` and the
S-polynomials and row echelon of ``groebner`` share it.
"""

from __future__ import annotations

from types import MappingProxyType

from .basep import require_prime
from .errors import DomainError, InfeasibleError

__all__ = ["PolyRing", "Polynomial", "power", "partial_derivative"]

Monomial = tuple[int, ...]

FIELD_BITS = 32


class PolyRing:
    """Descriptor of F_p[x_1, ..., x_n]: a prime and an ordered variable list.

    It also holds the layout of the packed monomials of the ring: the shift
    of each field and of the total-degree field, and the masks of every
    guard bit, of all n fields, and of the n field units.  max_degree is
    also the mask of one field's value bits.
    """

    __slots__ = ("prime", "variables", "_index", "max_degree", "_shifts", "_top", "_guards",
                 "_fields", "_ones")

    def __init__(self, prime: int, variables):
        require_prime(prime)
        variables = tuple(variables)
        if not variables:
            raise DomainError("a polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise DomainError("variable names must be distinct")
        for name in variables:
            if not name or not all(ch.isalnum() or ch == "_" for ch in name) or name[0].isdigit():
                raise DomainError(f"invalid variable name {name!r}")
        self.prime = prime
        self.variables = variables
        self._index = {name: i for i, name in enumerate(variables)}
        n = len(variables)
        self.max_degree = (1 << (FIELD_BITS - 1)) - 1
        self._shifts = tuple(i * FIELD_BITS for i in range(n))
        self._top = self._shifts[-1]
        self._ones = sum(1 << (i * FIELD_BITS) for i in range(n))
        self._guards = self._ones << (FIELD_BITS - 1)
        self._fields = (1 << (n * FIELD_BITS)) - 1

    @property
    def dimension(self) -> int:
        return len(self.variables)

    # -- packed monomials ---------------------------------------------------

    def pack(self, m) -> int:
        """The packed int of an exponent vector."""
        m = tuple(m)
        if len(m) != len(self.variables) or any(e < 0 for e in m):
            raise DomainError(f"bad exponent vector {m}")
        self._check_degree(sum(m))
        key = total = 0
        for e, shift in zip(m, self._shifts):
            total += e
            key |= total << shift
        return key

    def unpack(self, key: int) -> Monomial:
        """The exponent vector of a packed int."""
        out = []
        prev = 0
        value = self.max_degree
        for _ in self.variables:
            total = key & value
            out.append(total - prev)
            prev = total
            key >>= FIELD_BITS
        return tuple(out)

    def divides(self, a: int, b: int) -> bool:
        """Whether the packed monomial a divides the packed monomial b."""
        guards = self._guards
        d = (b | guards) - a
        if d & guards != guards:
            return False
        d ^= guards
        return ((d | guards) - ((d << FIELD_BITS) & self._fields)) & guards == guards

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of two packed monomials, all fields at once: each
        is turned into its exponent fields, the larger of each pair of
        fields is kept, and prefix sums are rebuilt by one multiplication."""
        fields, guards = self._fields, self._guards
        ea = a - ((a << FIELD_BITS) & fields)
        eb = b - ((b << FIELD_BITS) & fields)
        wins = ((ea | guards) - eb) & guards  # guard bits of the fields where ea >= eb
        keep = wins - (wins >> (FIELD_BITS - 1))
        out = (((ea & keep) | (eb & ~keep & fields)) * self._ones) & fields
        self._check_degree(out >> self._top)
        return out

    def _check_degree(self, degree: int) -> None:
        """Raise InfeasibleError for a total degree past the packed limit."""
        if degree > self.max_degree:
            raise InfeasibleError(
                f"degree {degree} exceeds the packed-monomial limit {self.max_degree}"
            )

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial._from_packed(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.prime
        if c == 0:
            return self.zero()
        return Polynomial._from_packed(self, {0: c})

    def variable(self, i) -> "Polynomial":
        if isinstance(i, str):
            if i not in self._index:
                raise DomainError(f"unknown variable {i!r}")
            i = self._index[i]
        if not 0 <= i < self.dimension:
            raise DomainError(f"variable index {i} out of range")
        return Polynomial._from_packed(self, {self._fields & (self._ones << (i * FIELD_BITS)): 1})

    def monomial(self, exponents) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(i) for i in range(self.dimension))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.prime == other.prime
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.prime, self.variables))

    def __repr__(self):
        return f"PolyRing({self.prime}, {list(self.variables)})"


def _add_multiple(out: dict, terms: dict, c: int, p: int) -> None:
    """out += c * terms over F_p, in place, on packed term dicts; a
    coefficient that becomes 0 is dropped."""
    for m, tc in terms.items():
        s = (out.get(m, 0) + c * tc) % p
        if s:
            out[m] = s
        else:
            out.pop(m, None)


def _require_same_ring(a, b):
    """The one ring check of the package: a and b (polynomials, ideals,
    engines) must live in the same ring."""
    if a.ring != b.ring:
        raise DomainError("ring mismatch: the operands live in different rings")


class Polynomial:
    __slots__ = ("ring", "_packed", "_lm")

    def __init__(self, ring: PolyRing, terms: dict):
        p = ring.prime
        pack = ring.pack
        packed = {}
        for m, c in terms.items():
            m = pack(m)
            c %= p
            if c:
                packed[m] = c
        self.ring = ring
        self._packed = packed
        self._lm = None

    @classmethod
    def _from_packed(cls, ring: PolyRing, packed: dict) -> "Polynomial":
        """A polynomial on a dict of packed monomials with coefficients in
        1 .. p-1, taken as it is."""
        self = cls.__new__(cls)
        self.ring = ring
        self._packed = packed
        self._lm = None
        return self

    # -- inspection ---------------------------------------------------------

    @property
    def _terms(self):
        """Read-only {exponent tuple: coefficient} view of the terms."""
        unpack = self.ring.unpack
        return MappingProxyType({unpack(m): c for m, c in self._packed.items()})

    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """Terms in canonical (descending grevlex) order."""
        unpack = self.ring.unpack
        return tuple((unpack(m), c) for m, c in sorted(self._packed.items(), reverse=True))

    def is_zero(self) -> bool:
        return not self._packed

    def is_one(self) -> bool:
        return len(self._packed) == 1 and self._packed.get(0) == 1

    def constant_term(self) -> int:
        return self._packed.get(0, 0)

    def total_degree(self) -> int:
        if not self._packed:
            return 0
        return self._lead() >> self.ring._top

    def term_count(self) -> int:
        return len(self._packed)

    def _lead(self) -> int:
        """The packed leading monomial; the largest int is the grevlex-largest."""
        if self._lm is None:
            if not self._packed:
                raise DomainError("the zero polynomial has no leading monomial")
            self._lm = max(self._packed)
        return self._lm

    def leading_monomial(self) -> Monomial:
        return self.ring.unpack(self._lead())

    def leading_coefficient(self) -> int:
        return self._packed[self._lead()]

    def coefficient(self, m: Monomial) -> int:
        m = tuple(m)
        ring = self.ring
        if len(m) != ring.dimension or any(e < 0 for e in m) or sum(m) > ring.max_degree:
            return 0
        return self._packed.get(ring.pack(m), 0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        _require_same_ring(self, other)
        out = dict(self._packed)
        _add_multiple(out, other._packed, 1, self.ring.prime)
        return Polynomial._from_packed(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.prime
        return Polynomial._from_packed(self.ring, {m: p - c for m, c in self._packed.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        _require_same_ring(self, other)
        ring = self.ring
        a, b = self._packed, other._packed
        if not a or not b:
            return ring.zero()
        ring._check_degree(self.total_degree() + other.total_degree())
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        p = ring.prime
        return Polynomial._from_packed(ring, {m: r for m, c in out.items() if (r := c % p)})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return power(self, n)

    def frobenius(self, e: int = 1) -> "Polynomial":
        """Raise to the p^e-th power by scaling every exponent vector.

        Valid because coefficients in F_p are fixed by the Frobenius map.
        """
        if e < 0:
            raise DomainError("frobenius exponent must be >= 0")
        q = self.ring.prime**e
        self.ring._check_degree(self.total_degree() * q)
        return Polynomial._from_packed(self.ring, {m * q: c for m, c in self._packed.items()})

    def monic(self) -> "Polynomial":
        if not self._packed:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        p = self.ring.prime
        inv = pow(lc, p - 2, p)
        out = Polynomial._from_packed(
            self.ring, {m: c * inv % p for m, c in self._packed.items()}
        )
        out._lm = self._lm
        return out

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._packed == other._packed
        )

    def __hash__(self):
        return hash(frozenset(self._packed.items()))

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self._packed:
            return "0"
        names = self.ring.variables
        parts = []
        for m, c in self.terms():
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}{'*'.join(factors)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.ring.prime}, {str(self)!r})"


def _head(f: Polynomial) -> dict:
    """The first two keys of every JSON answer about f."""
    return {"prime": f.ring.prime, "poly": str(f)}


def power(f: Polynomial, n: int) -> Polynomial:
    """f^n by binary exponentiation with a Frobenius shortcut.

    Whenever n is divisible by p the exponent vectors of f^(n/p) are scaled
    by p instead of multiplying; this keeps high powers over F_p sparse.
    """
    if n < 0:
        raise DomainError("polynomial powers must be >= 0")
    if n == 0:
        return f.ring.one()
    f.ring._check_degree(f.total_degree() * n)
    p = f.ring.prime
    if n % p == 0:
        return power(f, n // p).frobenius()
    if n == 1:
        return f
    if n % 2 == 0:
        half = power(f, n // 2)
        return half * half
    return f * power(f, n - 1)


def partial_derivative(f: Polynomial, i: int) -> Polynomial:
    """Formal partial derivative with respect to the i-th variable."""
    ring = f.ring
    if not 0 <= i < ring.dimension:
        raise DomainError(f"variable index {i} out of range")
    p = ring.prime
    x_i = ring.variable(i)._lead()
    out: dict = {}
    for m, c in f._packed.items():
        cc = c * ring.unpack(m)[i] % p
        if cc:
            out[m - x_i] = cc  # distinct monomials have distinct quotients by x_i
    return Polynomial._from_packed(ring, out)
