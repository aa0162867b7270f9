"""Sparse multivariate polynomials over a prime field F_p.

Terms live in a dict keyed by exponent tuples; coefficients are kept in
1 .. p-1.  The canonical term order is graded reverse lexicographic, used
both for printing and as the only Groebner order.  Polynomials are
immutable values: every operation returns a fresh object, so they are safe
to share between threads and to use as dict keys.
"""

from __future__ import annotations

from .basep import require_prime
from .errors import DomainError

__all__ = ["PolyRing", "Polynomial", "multiply", "power", "partial_derivative", "grevlex_key"]

Monomial = tuple[int, ...]


def grevlex_key(m: Monomial):
    """Sort key: larger key means larger monomial in grevlex."""
    total = 0
    for e in m:
        total += e
    return (total, tuple(-e for e in reversed(m)))


class PolyRing:
    """Descriptor of F_p[x_1, ..., x_n]: a prime and an ordered variable list."""

    __slots__ = ("prime", "variables", "_index")

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

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {}, _normalized=True)

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.prime
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.dimension: c}, _normalized=True)

    def variable(self, i) -> "Polynomial":
        if isinstance(i, str):
            if i not in self._index:
                raise DomainError(f"unknown variable {i!r}")
            i = self._index[i]
        if not 0 <= i < self.dimension:
            raise DomainError(f"variable index {i} out of range")
        m = [0] * self.dimension
        m[i] = 1
        return Polynomial(self, {tuple(m): 1}, _normalized=True)

    def monomial(self, exponents, coeff: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): coeff})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(i) for i in range(self.dimension))

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        """All exponent tuples of total degree exactly d."""
        n = self.dimension
        out: list[Monomial] = []

        def rec(prefix, remaining, slots):
            if slots == 1:
                out.append(prefix + (remaining,))
                return
            for e in range(remaining + 1):
                rec(prefix + (e,), remaining - e, slots - 1)

        rec((), d, n)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.prime == other.prime
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.prime, self.variables))

    def __repr__(self):
        return f"PolyRing({self.prime}, {list(self.variables)})"


def _require_same_ring(a: "Polynomial", b: "Polynomial"):
    if a.ring != b.ring:
        raise DomainError("polynomials live in different rings")


class Polynomial:
    __slots__ = ("ring", "_terms", "_ordered", "_lm", "_hash")

    def __init__(self, ring: PolyRing, terms: dict, _normalized: bool = False):
        if not _normalized:
            p = ring.prime
            n = ring.dimension
            clean = {}
            for m, c in terms.items():
                m = tuple(m)
                if len(m) != n or any(e < 0 for e in m):
                    raise DomainError(f"bad exponent vector {m}")
                c %= p
                if c:
                    clean[m] = c
            terms = clean
        self.ring = ring
        self._terms = terms
        self._ordered = None
        self._lm = None
        self._hash = None

    # -- inspection ---------------------------------------------------------

    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """Terms in canonical (descending grevlex) order."""
        if self._ordered is None:
            self._ordered = tuple(
                sorted(self._terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)
            )
        return self._ordered

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        zero = (0,) * self.ring.dimension
        return len(self._terms) == 1 and self._terms.get(zero) == 1

    def constant_term(self) -> int:
        return self._terms.get((0,) * self.ring.dimension, 0)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(m) for m in self._terms)

    def term_count(self) -> int:
        return len(self._terms)

    def leading_monomial(self) -> Monomial:
        if self._lm is None:
            if not self._terms:
                raise DomainError("the zero polynomial has no leading monomial")
            self._lm = max(self._terms, key=grevlex_key)
        return self._lm

    def leading_coefficient(self) -> int:
        return self._terms[self.leading_monomial()]

    def coefficient(self, m: Monomial) -> int:
        return self._terms.get(tuple(m), 0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        _require_same_ring(self, other)
        p = self.ring.prime
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Polynomial(self.ring, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.prime
        return Polynomial(self.ring, {m: p - c for m, c in self._terms.items()}, _normalized=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        _require_same_ring(self, other)
        p = self.ring.prime
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                s = (out.get(m, 0) + c1 * c2) % p
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Polynomial(self.ring, out, _normalized=True)

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
        return Polynomial(
            self.ring,
            {tuple(x * q for x in m): c for m, c in self._terms.items()},
            _normalized=True,
        )

    def monic(self) -> "Polynomial":
        if not self._terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        p = self.ring.prime
        inv = pow(lc, p - 2, p)
        out = Polynomial(
            self.ring, {m: c * inv % p for m, c in self._terms.items()}, _normalized=True
        )
        out._lm = self._lm
        return out

    def scale_term(self, coeff: int, m: Monomial) -> "Polynomial":
        """Multiply by a single term coeff * x^m."""
        p = self.ring.prime
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(
            self.ring,
            {
                tuple(x + y for x, y in zip(mm, m)): c * coeff % p
                for mm, c in self._terms.items()
            },
            _normalized=True,
        )

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- printing -------------------------------------------------------------

    def __str__(self):
        if not self._terms:
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


def multiply(a: Polynomial, b: Polynomial) -> Polynomial:
    return a * b


def power(f: Polynomial, n: int) -> Polynomial:
    """f^n by binary exponentiation with a Frobenius shortcut.

    Whenever n is divisible by p the exponent vectors of f^(n/p) are scaled
    by p instead of multiplying; this keeps high powers over F_p sparse.
    """
    if n < 0:
        raise DomainError("polynomial powers must be >= 0")
    if n == 0:
        return f.ring.one()
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
    if not 0 <= i < f.ring.dimension:
        raise DomainError(f"variable index {i} out of range")
    p = f.ring.prime
    out: dict = {}
    for m, c in f._terms.items():
        e = m[i]
        cc = c * e % p
        if e == 0 or cc == 0:
            continue
        mm = m[:i] + (e - 1,) + m[i + 1 :]
        s = (out.get(mm, 0) + cc) % p
        if s:
            out[mm] = s
        elif mm in out:
            del out[mm]
    return Polynomial(f.ring, out, _normalized=True)
