"""Text form of polynomials.

Grammar (whitespace insignificant):

    expr  := ['+'|'-'] term (('+'|'-') term)*
    term  := coefficient? ('*'? var ('^' natural)?)*
    var   := a declared variable name (longest match wins)

Coefficients and exponents are ASCII digit strings of any length;
coefficients carry the sign of their term and are reduced mod p, and a
degree past PolyRing.max_degree raises InfeasibleError.  A ParseError's
offset is a 0-based index into the text given.  Printing is handled by
Polynomial.__str__; parse(str(f)) == f.
"""

from __future__ import annotations

import re

from .errors import InfeasibleError, ParseError
from .poly import Polynomial, PolyRing

__all__ = ["parse_polynomial"]

_NUMBER, _NAME = 1, 2
# int() of a longer digit string, or str() of a longer int, may exceed
# Python's conversion limit, whose smallest setting is 640 digits
_CHUNK = 512


def _residue(digits: str, p: int) -> int:
    """The decimal digit string mod p, read _CHUNK digits at a time."""
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i : i + _CHUNK]
        value = (value * pow(10, len(chunk), p) + int(chunk)) % p
    return value


def _decimal(n: int) -> str:
    """The decimal digit string of an int n >= 0, written _CHUNK digits at a time."""
    chunks = []
    while n >= 10**_CHUNK:
        n, low = divmod(n, 10**_CHUNK)
        chunks.append(f"{low:0{_CHUNK}d}")
    return str(n) + "".join(reversed(chunks))


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError("polynomial input must be a string", 0)
    if not text.strip():
        raise ParseError("empty polynomial", len(text))
    names = "|".join(re.escape(v) for v in sorted(ring.variables, key=len, reverse=True))
    tokens = [
        (m.lastindex, m.start(m.lastindex), m[m.lastindex])
        for m in re.finditer(rf"\s*(?:([0-9]+)|({names})|(\S))", text)
    ]
    tokens.append((None, len(text), ""))  # the end closes the last term, as a sign does
    terms: dict = {}
    sign, coeff, exps = 1, 1, [0] * ring.dimension
    # what the previous token was: "start" of the text, a "sign", a
    # "factor" (coefficient or exponent), a "var", a "star" or a "caret"
    state = "start"
    for kind, at, token in tokens:
        if state == "star" and kind != _NAME:
            raise ParseError("expected a variable after '*'", at)
        if state == "caret":
            if kind != _NUMBER:
                raise ParseError("expected a number", at)
            digits = token.lstrip("0") or "0"
            if len(digits) > _CHUNK:
                raise InfeasibleError(
                    f"exponent of {len(digits)} digits exceeds the packed-monomial "
                    f"limit {ring.max_degree}"
                )
            exps[var] += int(digits) - 1  # the variable already counted once
            state = "factor"
        elif kind == _NAME:
            var = ring._index[token]
            exps[var] += 1
            state = "var"
        elif kind == _NUMBER and state in ("start", "sign"):
            coeff = _residue(token, ring.prime)
            state = "factor"
        elif token == "*":
            state = "star"
        elif token == "^" and state == "var":
            state = "caret"
        elif kind is None or token in "+-":
            if state == "sign":
                raise ParseError("expected a term", at)
            if state != "start":
                mono = tuple(exps)
                terms[mono] = terms.get(mono, 0) + sign * coeff
                coeff, exps = 1, [0] * ring.dimension
            sign = -1 if token == "-" else 1
            state = "sign"
        else:
            raise ParseError(f"unknown variable or symbol {token[0]!r}", at)
    return Polynomial(ring, {m: c for m, c in terms.items() if c % ring.prime})
