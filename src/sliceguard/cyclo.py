"""Exact arithmetic with roots of unity and cyclotomic numbers.

A ``Cyclo`` is an element of Q(zeta_N), stored as an integer coordinate
vector in the power basis 1, zeta, ..., zeta^(phi(N)-1) together with a
common positive denominator.  Arithmetic between different conductors
lifts both operands to the least common multiple, so a single expression
may freely mix, say, fifth and twelfth roots of unity.

Keeping the coordinates as plain integers (rather than Fractions) makes
the inner products cheap; the denominator is re-reduced after every
operation, so representations are canonical per conductor.  An inverse is
the product of the other Galois conjugates over the rational norm, read
off the conductor's table of powers of zeta, so no polynomial arithmetic
over Q is needed.  ``int_poly_div_exact`` is the package's one exact
division in Z[t]; it builds the cyclotomic polynomials here and checks the
Bareiss elimination in ``presentations``.  Roots of unity themselves are
``knots.RootOfUnity``, a value class the verdict path uses without loading
this module; ``Cyclo.from_root`` embeds one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .knots import RootOfUnity


def euler_phi(n: int) -> int:
    """Euler's totient.

    >>> [euler_phi(n) for n in (1, 2, 6, 12)]
    [1, 1, 2, 4]
    """
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def int_poly_div_exact(a: list, b: list) -> list:
    """a / b in Z[t], on coefficient lists lowest degree first with no
    trailing zeros (the zero polynomial is the empty list).  A remainder
    or a fractional coefficient raises ArithmeticError: every caller
    divides where the quotient is exact.  Each step walks only the
    divisor's nonzero coefficients below the leading one, so dividing by
    t^q - 1 is linear in the degree of a."""
    if not a:
        return []
    shift, lead = len(b) - 1, b[-1]
    # the leading term cancels a[k + shift], which is never read again
    lower = [(j, y) for j, y in enumerate(b[:shift]) if y]
    a = list(a)
    out = [0] * max(len(a) - shift, 0)
    for k in range(len(out) - 1, -1, -1):
        c, rem = divmod(a[k + shift], lead)
        if rem:
            raise ArithmeticError("inexact integer polynomial division")
        out[k] = c
        if c:
            for j, y in lower:
                a[k + j] -= c * y
    if any(a[:shift]) or not out:
        raise ArithmeticError("inexact integer polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    >>> cyclotomic_poly(1), cyclotomic_poly(6)
    ((-1, 1), (1, -1, 1))
    """
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = int_poly_div_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


class _Conductor:
    """Per-conductor reduction data: zeta^k in the power basis for all k."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        modulus = cyclotomic_poly(n)
        # rows[k] = coordinates of zeta^k, for k = 0 .. 2*phi - 2; that range
        # covers everything a single convolution can produce.
        rows = []
        for k in range(max(2 * self.phi - 1, n)):
            if k < self.phi:
                row = [0] * self.phi
                row[k] = 1
            else:
                # zeta^k = zeta^(k-1) * zeta, reduced by the modulus
                prev = rows[k - 1]
                row = [0] + list(prev[: self.phi - 1])
                top = prev[self.phi - 1]
                if top:
                    for j in range(self.phi):
                        row[j] -= top * modulus[j]
            rows.append(tuple(row))
        self.power = tuple(rows)


@lru_cache(maxsize=None)
def _conductor(n: int) -> _Conductor:
    return _Conductor(n)


@lru_cache(maxsize=None)
def _lift_rows(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    # Coordinates in Q(zeta_m) of the basis elements zeta_n^j, for n | m.
    step = m // n
    ctx = _conductor(m)
    return tuple(ctx.power[(j * step) % m] for j in range(euler_phi(n)))


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def normalize_root(k: int, n: int) -> RootOfUnity:
    """Reduced representative of k/N mod 1; e.g. (9, 6) -> 1/2."""
    return RootOfUnity.normalized(k, n)


class Cyclo:
    """An element of the cyclotomic field of the given conductor."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num, den: int = 1):
        num = list(num)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [c // g for c in num]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(x) -> "Cyclo":
        f = Fraction(x)
        return Cyclo(1, (f.numerator,), f.denominator)

    @staticmethod
    def from_root(root: RootOfUnity) -> "Cyclo":
        n = root.order
        return Cyclo(n, _conductor(n).power[root.numer % n], 1)

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo(1, (0,), 1)

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo(1, (1,), 1)

    # -- helpers -----------------------------------------------------------

    def _lift(self, m: int) -> "Cyclo":
        if m == self.n:
            return self
        rows = _lift_rows(self.n, m)
        phi = euler_phi(m)
        out = [0] * phi
        for c, row in zip(self.num, rows):
            if c:
                for j in range(phi):
                    out[j] += c * row[j]
        return Cyclo(m, out, self.den)

    @staticmethod
    def _common(a: "Cyclo", b: "Cyclo") -> tuple["Cyclo", "Cyclo"]:
        if a.n == b.n:
            return a, b
        m = _lcm(a.n, b.n)
        return a._lift(m), b._lift(m)

    @staticmethod
    def _coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo.from_fraction(x)
        if isinstance(x, RootOfUnity):
            return Cyclo.from_root(x)
        return NotImplemented

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = Cyclo._common(self, other)
        num = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return Cyclo(a.n, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.n, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = Cyclo._common(self, other)
        phi = len(a.num)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        conv[i + j] += x * y
        if phi == 1:
            return Cyclo(a.n, conv[:1], a.den * b.den)
        power = _conductor(a.n).power
        out = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = power[k]
                for j in range(phi):
                    out[j] += c * row[j]
        return Cyclo(a.n, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse: the product of the other Galois
        conjugates zeta -> zeta^k, k coprime to the conductor, divided by
        the norm, which is the (rational) product of all of them."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n, phi = self.n, len(self.num)
        if self.is_rational():  # every inverse the twisted polynomials take
            return Cyclo(n, [self.den] + [0] * (phi - 1), self.num[0])
        power = _conductor(n).power
        others = Cyclo(n, power[0])
        for k in range(2, n):
            if gcd(k, n) == 1:
                conjugate = [0] * phi
                for j, c in enumerate(self.num):
                    if c:
                        row = power[j * k % n]
                        for i in range(phi):
                            conjugate[i] += c * row[i]
                others = others * Cyclo(n, conjugate, self.den)
        norm = (self * others).to_fraction()
        return Cyclo(n, [c * norm.denominator for c in others.num],
                     others.den * norm.numerator)

    def __truediv__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclo._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = Cyclo.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = Cyclo._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).is_zero()

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        # Equal values may sit at different conductors, so hash the trace
        # over Q divided by the degree, which lifting does not change; on
        # rationals it is the value itself.
        weights = _trace_weights(self.n)
        trace = sum((c * w for c, w in zip(self.num, weights) if c), Fraction(0))
        return hash(trace / self.den)

    # -- numerics ----------------------------------------------------------

    def interval(self):
        """Complex interval enclosure at the current ``mpmath.iv`` precision."""
        from mpmath import iv  # loaded on use, so importing sliceguard does not load it

        re = iv.mpf(0)
        im = iv.mpf(0)
        for j, c in enumerate(self.num):
            if c:
                z = _root_interval(self.n, j, iv.prec)
                re += c * z[0]
                im += c * z[1]
        return iv.mpc(re / self.den, im / self.den)

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        return f"Cyclo({self})"

    def __str__(self):
        terms = []
        for j, c in enumerate(self.num):
            if c == 0:
                continue
            coeff = Fraction(c, self.den)
            if j == 0:
                terms.append(_frac_str(coeff))
            else:
                base = f"z{self.n}" if j == 1 else f"z{self.n}^{j}"
                if coeff == 1:
                    terms.append(base)
                elif coeff == -1:
                    terms.append(f"-{base}")
                else:
                    terms.append(f"{_frac_str(coeff)}*{base}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple:
    """Tr(zeta_n^j) / phi(n) for the power basis.  With m = n / gcd(j, n)
    it is mu(m) / phi(m), and mu(m), the sum of the primitive m-th roots
    of unity, is minus the second-highest coefficient of Phi_m."""
    return tuple(Fraction(-cyclotomic_poly(m)[-2], euler_phi(m))
                 for m in (n // gcd(j, n) for j in range(euler_phi(n))))


@lru_cache(maxsize=None)
def _root_interval(n: int, j: int, prec: int):
    from mpmath import iv

    theta = 2 * iv.pi * j / n
    return (iv.cos(theta), iv.sin(theta))


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
