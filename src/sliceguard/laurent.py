"""Laurent polynomials and rational functions over cyclotomic numbers.

The coefficient type is :class:`sliceguard.cyclo.Cyclo`; exponents may be
negative.  Equality "up to units" means up to multiplication by c * t^k
with c a nonzero scalar, decided by comparing monic normal forms with the
lowest exponent shifted to zero.  There is no polynomial gcd:
``RationalFn`` does not reduce, and its callers pass coprime pairs (the
twisted polynomials cancel common roots by counting them).

Root extraction on the unit circle is exact: the caller supplies the set
of admissible root-of-unity orders (closed under divisors), each candidate
is divided out by synthetic division, and a residual factor that still
vanishes somewhere on a sampled unit circle is reported as an error
instead of being ignored.
"""

from __future__ import annotations

from math import gcd

from .cyclo import Cyclo, RootOfUnity


class RootExtractionError(ArithmeticError):
    """The candidate order set did not account for every unit-circle root."""


class LaurentPoly:
    """A Laurent polynomial sum(coeffs[i] * t^(low + i)).

    The zero polynomial has an empty coefficient tuple.  Leading and
    trailing coefficients are nonzero for anything else.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs):
        coeffs = [Cyclo._coerce(c) for c in coeffs]
        start = 0
        while start < len(coeffs) and coeffs[start].is_zero():
            start += 1
        end = len(coeffs)
        while end > start and coeffs[end - 1].is_zero():
            end -= 1
        if start == end:
            low, coeffs = 0, []
        else:
            low, coeffs = low + start, coeffs[start:end]
        conductors = {c.n for c in coeffs}
        if len(conductors) > 1:
            # one conductor per polynomial keeps coefficient arithmetic on
            # the fast equal-conductor path
            m = 1
            for n in conductors:
                m = m // gcd(m, n) * n
            coeffs = [c._lift(m) for c in coeffs]
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, [])

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, [1])

    @staticmethod
    def t(e: int = 1) -> "LaurentPoly":
        return LaurentPoly(e, [1])

    @staticmethod
    def from_ints(coeffs, low: int = 0) -> "LaurentPoly":
        return LaurentPoly(low, [Cyclo.from_fraction(c) for c in coeffs])

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentPoly):
            return x
        c = Cyclo._coerce(x)
        if c is NotImplemented:
            return NotImplemented
        return LaurentPoly(0, [c])

    # -- structure ---------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self.coeffs[0].n if self.coeffs else 1

    def _lift_to(self, m: int) -> "LaurentPoly":
        if self.conductor == m or not self.coeffs:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "low", self.low)
        object.__setattr__(out, "coeffs", tuple(c._lift(m) for c in self.coeffs))
        return out

    @staticmethod
    def _aligned(a: "LaurentPoly", b: "LaurentPoly"):
        na, nb = a.conductor, b.conductor
        if na == nb:
            return a, b
        m = na // gcd(na, nb) * nb
        return a._lift_to(m), b._lift_to(m)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def span(self) -> int:
        """Degree of the polynomial after shifting the low exponent to 0."""
        return len(self.coeffs) - 1 if self.coeffs else -1

    def lead(self) -> Cyclo:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        self, other = LaurentPoly._aligned(self, other)
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        out = [Cyclo.zero()] * (high - low + 1)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] = c
        for i, c in enumerate(other.coeffs):
            out[other.low - low + i] = out[other.low - low + i] + c
        return LaurentPoly(low, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.low, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        self, other = LaurentPoly._aligned(self, other)
        out = [Cyclo.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return LaurentPoly(self.low + other.low, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a Laurent polynomial")
        result = LaurentPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.low + k, self.coeffs)

    def scale(self, c) -> "LaurentPoly":
        c = Cyclo._coerce(c)
        return LaurentPoly(self.low, [a * c for a in self.coeffs])

    def __eq__(self, other):
        other = LaurentPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: Cyclo) -> Cyclo:
        """Horner evaluation; negative low exponents require x invertible."""
        acc = Cyclo.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.low:
            acc = acc * x**self.low
        return acc

    def evaluate_root(self, root: RootOfUnity) -> Cyclo:
        return self.evaluate(Cyclo.from_root(root))

    # -- division ----------------------------------------------------------

    def divide_linear(self, root: RootOfUnity) -> "LaurentPoly":
        """Exact division by (t - root); raises if root is not a root."""
        z = Cyclo.from_root(root)
        n = len(self.coeffs)
        if n == 0:
            raise ArithmeticError("dividing the zero polynomial")
        out = [Cyclo.zero()] * (n - 1)
        acc = Cyclo.zero()
        for i in range(n - 1, 0, -1):
            acc = self.coeffs[i] + acc * z if i < n - 1 else self.coeffs[i]
            out[i - 1] = acc
        rem = self.coeffs[0] + acc * z
        if not rem.is_zero():
            raise ArithmeticError(f"{root} is not a root")
        return LaurentPoly(self.low, out)

    # -- normal form -------------------------------------------------------

    def unit_normal(self) -> "LaurentPoly":
        """Monic normal form with lowest exponent 0; canonical per unit class."""
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return LaurentPoly(0, [c * inv for c in self.coeffs])

    def eq_up_to_units(self, other: "LaurentPoly") -> bool:
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.unit_normal() == other.unit_normal()

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            e = self.low + i
            cs = str(c)
            if "+" in cs or (cs.count("-") > (1 if cs.startswith("-") else 0)):
                cs = f"({cs})"
            if e == 0:
                terms.append(cs)
            else:
                te = "t" if e == 1 else f"t^{e}"
                if cs == "1":
                    terms.append(te)
                elif cs == "-1":
                    terms.append(f"-{te}")
                else:
                    terms.append(f"{cs}*{te}")
        out = terms[0]
        for s in terms[1:]:
            out += f" - {s[1:]}" if s.startswith("-") and not s.startswith("-(") else f" + {s}"
        return out


class RationalFn:
    """A fraction of Laurent polynomials whose caller owns coprimality.

    Nothing is cancelled here: the denominator is put in monic low-0 form
    and its unit moves into the numerator, so a coprime pair has one
    representation up to the unit carried by the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        lead_inv = den.lead().inverse()
        object.__setattr__(self, "num", num.scale(lead_inv).shift(-den.low))
        object.__setattr__(self, "den", den.unit_normal())

    def is_unit(self) -> bool:
        return self.num.is_unit() and self.den.is_unit()

    def is_polynomial(self) -> bool:
        return self.den.is_unit()

    def __eq__(self, other):
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None

    def eq_up_to_units(self, other: "RationalFn") -> bool:
        return (self.num * other.den).eq_up_to_units(other.num * self.den)

    def __repr__(self):
        return f"RationalFn(({self.num}) / ({self.den}))"

    def __str__(self):
        if self.is_polynomial():
            return str(self.num.shift(-self.num.low))
        return f"({self.num}) / ({self.den})"


def divisor_closure(orders) -> set[int]:
    out = set()
    for n in orders:
        if n < 1:
            raise ValueError("orders must be positive")
        for d in range(1, n + 1):
            if n % d == 0:
                out.add(d)
    return out


def unit_circle_roots(f: LaurentPoly, orders) -> dict[RootOfUnity, int]:
    """Exact multiplicities of the roots of unity of ``f`` on the unit circle.

    ``orders`` is a finite set of candidate root orders; it is closed under
    divisors here for safety.  After all candidates are divided out, the
    residual factor is certified nonvanishing on the whole circle by
    adaptive interval evaluation over arcs; if some arc cannot be certified
    a :class:`RootExtractionError` is raised, so a too-small candidate set
    is never silently accepted.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no well-defined root multiset")
    found: dict[RootOfUnity, int] = {}
    g = f
    for n in sorted(divisor_closure(orders)):
        for k in range(n):
            if gcd(k, n) != 1:
                continue
            root = RootOfUnity.normalized(k, n)
            mult = 0
            while g.span() > 0 and g.evaluate_root(root).is_zero():
                g = g.divide_linear(root)
                mult += 1
            if mult:
                found[root] = mult
    if g.span() > 0:
        _certify_no_circle_roots(g)
    return found


# the residual-factor certificate's deepest arc split and interval bits
MAX_ARC_DEPTH = 16
ARC_PRECISION = 192


def _certify_no_circle_roots(g: LaurentPoly):
    """Certify |g| > 0 on the unit circle by dyadic arc subdivision.

    Each arc {e^(2 pi i theta) : theta in [lo, hi]} is enclosed in a
    complex interval box at ARC_PRECISION bits; if |g|^2 on the box
    excludes zero the arc is done, otherwise the arc splits.  An arc
    surviving to MAX_ARC_DEPTH splits is reported as a possible residual
    root.
    """
    from mpmath import iv  # loaded only when a residual factor is certified

    coeffs = [c for c in g.coeffs]  # the unit t^low does not move roots
    old = iv.prec
    try:
        iv.prec = ARC_PRECISION
        coeff_ivs = [c.interval() for c in coeffs]

        def arc_positive(lo: float, hi: float) -> bool:
            theta = 2 * iv.pi * iv.mpf([lo, hi])
            z = iv.mpc(iv.cos(theta), iv.sin(theta))
            acc = iv.mpc(0)
            for c in reversed(coeff_ivs):
                acc = acc * z + c
            m2 = acc.real**2 + acc.imag**2
            return not (0 in m2)

        stack = [(0.0, 1.0, 0)]
        while stack:
            lo, hi, depth = stack.pop()
            if arc_positive(lo, hi):
                continue
            if depth >= MAX_ARC_DEPTH:
                raise RootExtractionError(
                    "residual factor may vanish on the unit circle in "
                    f"[{lo}, {hi}]; the candidate order set is too small"
                )
            mid = (lo + hi) / 2
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    finally:
        iv.prec = old

