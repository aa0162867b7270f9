"""Text form of polynomials.

Grammar (whitespace insignificant):

    expr  := ['+'|'-'] term (('+'|'-') term)*
    term  := coefficient? ('*'? var ('^' natural)?)*
    var   := a declared variable name (longest match wins)

Coefficients are integers of any sign and are reduced mod p.  Printing is
handled by Polynomial.__str__; parse(str(f)) == f.
"""

from __future__ import annotations

from .errors import ParseError
from .poly import Polynomial, PolyRing

__all__ = ["parse_polynomial"]


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError("polynomial input must be a string", 0)
    parser = _Parser(text, ring)
    return parser.parse()


class _Parser:
    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.ring = ring
        self.pos = 0
        # longest-match variable lookup
        self.names = sorted(ring.variables, key=len, reverse=True)

    def parse(self) -> Polynomial:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("empty polynomial", self.pos)
        terms: dict = {}
        p = self.ring.prime
        sign = self._read_sign(optional=True)
        while True:
            mono, coeff = self._read_term()
            c = (terms.get(mono, 0) + sign * coeff) % p
            if c:
                terms[mono] = c
            elif mono in terms:
                del terms[mono]
            self._skip_ws()
            if self.pos >= len(self.text):
                break
            sign = self._read_sign(optional=False)
        return Polynomial(self.ring, terms)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _read_sign(self, optional: bool) -> int:
        self._skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            ch = self.text[self.pos]
            self.pos += 1
            return -1 if ch == "-" else 1
        if optional:
            return 1
        raise ParseError("expected '+' or '-' between terms", self.pos)

    def _read_natural(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start : self.pos])

    def _match_variable(self):
        for name in self.names:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return self.ring._index[name]
        return None

    def _read_term(self) -> tuple[tuple[int, ...], int]:
        self._skip_ws()
        start = self.pos
        coeff = 1
        have_any = False
        if self.pos < len(self.text) and self.text[self.pos].isdigit():
            coeff = self._read_natural()
            have_any = True
        exps = [0] * self.ring.dimension
        while True:
            self._skip_ws()
            mark = self.pos
            if self.pos < len(self.text) and self.text[self.pos] == "*":
                self.pos += 1
                self._skip_ws()
                idx = self._match_variable()
                if idx is None:
                    raise ParseError("expected a variable after '*'", self.pos)
            else:
                idx = self._match_variable()
                if idx is None:
                    if (
                        self.pos < len(self.text)
                        and self.text[self.pos] not in "+-"
                        and not self.text[self.pos].isspace()
                    ):
                        raise ParseError(
                            f"unknown variable or symbol {self.text[self.pos]!r}", self.pos
                        )
                    self.pos = mark
                    break
            e = 1
            self._skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "^":
                self.pos += 1
                self._skip_ws()
                e = self._read_natural()
            exps[idx] += e
            have_any = True
        if not have_any:
            raise ParseError("expected a term", start)
        return tuple(exps), coeff
