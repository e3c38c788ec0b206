"""Parser for the knot-combination expression language.

Grammar (whitespace-insensitive)::

    expr := term ('#' term)*
    term := ['-'] [INT '*'] knot
    knot := 'T(' INT ',' INT (';' INT ',' INT)* ')'

'#' is connected sum, a leading '-' mirrors the knot, and an integer
multiplier repeats it.  All cabling pairs inside one knot and across the
whole expression must share the same first parameter, and every pair must
be coprime; every integer must be below 2**31, the bound of ``--r``, so
that the primality tests stay instant.  Violations are reported with the
offending position.
"""

from __future__ import annotations

from math import gcd

from .knots import IteratedTorusKnot, KnotCombination


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        digits = self.text[start : self.pos].lstrip("0") or "0"
        if len(digits) > 10 or int(digits) >= 2**31:
            raise ParseError("integer too large: it must be below 2**31", start)
        return int(digits)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse(text: str) -> KnotCombination:
    """Parse an expression into a combination; see the module docstring.

    >>> parse("T(2,3;2,5) # -T(2,5)").terms
    {T(2,3;2,5): 1, T(2,5): -1}
    """
    scanner = _Scanner(text)
    if scanner.at_end():
        raise ParseError("empty expression", 0)
    terms = []
    p_seen: int | None = None
    while True:
        coeff = 1
        scanner.skip_ws()
        if scanner.peek() == "-":
            scanner.expect("-")
            coeff = -1
        scanner.skip_ws()
        if scanner.peek().isdigit():
            mult = scanner.integer()
            scanner.expect("*")
            if mult == 0:
                raise ParseError("zero multiplicity", scanner.pos)
            coeff *= mult
        knot_start = scanner.pos
        knot, p_seen = _parse_knot(scanner, p_seen, knot_start)
        terms.append((knot, coeff))
        if scanner.at_end():
            break
        scanner.expect("#")
    return KnotCombination(p_seen, terms)


def _parse_knot(scanner: _Scanner, p_seen, knot_start):
    scanner.skip_ws()
    if scanner.peek() != "T":
        raise ParseError("expected a torus knot 'T(...)'", scanner.pos)
    scanner.pos += 1
    scanner.expect("(")
    qs = []
    p = None
    while True:
        pos_p = scanner.pos
        pi = scanner.integer()
        scanner.expect(",")
        pos_q = scanner.pos
        qi = scanner.integer()
        if p is None:
            p = pi
            if p_seen is not None and p != p_seen:
                raise ParseError(
                    f"cabling parameter {pi} differs from {p_seen} used earlier",
                    pos_p,
                )
        elif pi != p:
            raise ParseError(
                f"cables must repeat the same first parameter ({pi} != {p})", pos_p
            )
        qs.append((qi, pos_q))
        if scanner.peek() == ";":
            scanner.expect(";")
            continue
        break
    scanner.expect(")")
    try:
        knot = IteratedTorusKnot(p, tuple(q for q, _ in qs))
    except ValueError as exc:
        bad_pos = next(
            (pos for q, pos in qs if q < 1 or gcd(p, q) != 1), knot_start
        )
        raise ParseError(str(exc), bad_pos) from None
    return knot, (p_seen if p_seen is not None else p)
