"""Exact arithmetic with roots of unity and cyclotomic numbers.

A ``Cyclo`` is an element of Q(zeta_N), stored as an integer coordinate
vector in the power basis 1, zeta, ..., zeta^(phi(N)-1) together with a
common positive denominator.  Arithmetic between different conductors
lifts both operands to the least common multiple, so a single expression
may freely mix, say, fifth and twelfth roots of unity.

Keeping the coordinates as plain integers (rather than Fractions) makes
the inner products cheap; the denominator is re-reduced after every
operation, so representations are canonical per conductor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
from mpmath import iv


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


def _int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Long division of integer polynomials; only used where division is exact
    # (the quotient of x^N - 1 by cyclotomic factors).
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return [0], num
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1 - dd, -1, -1):
        c, rem = divmod(num[k + dd], den[dd])
        if rem != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        quot[k] = c
        if c:
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


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
            poly, rem = _int_poly_divmod(poly, list(cyclotomic_poly(d)))
            if rem != [0]:
                raise ArithmeticError("cyclotomic recursion failed")
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


@dataclass(frozen=True, order=True)
class RootOfUnity:
    """The point e^(2*pi*i*k/N) on the unit circle, as a reduced fraction.

    Multiplication of roots is addition of fractions mod 1.

    >>> RootOfUnity.normalized(2, 6)
    RootOfUnity(1/3)
    >>> RootOfUnity.normalized(1, 3) * RootOfUnity.normalized(1, 2)
    RootOfUnity(5/6)
    """

    frac: Fraction

    @staticmethod
    def normalized(k: int, n: int) -> "RootOfUnity":
        if n < 1:
            raise ValueError("root order must be positive")
        return RootOfUnity(Fraction(k, n) % 1)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(Fraction(0, 1))

    @property
    def order(self) -> int:
        return self.frac.denominator

    @property
    def numer(self) -> int:
        return self.frac.numerator

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity((self.frac + other.frac) % 1)

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity((self.frac * e) % 1)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity((-self.frac) % 1)

    def conjugate(self) -> "RootOfUnity":
        return self.inverse()

    def as_cyclo(self) -> "Cyclo":
        n = self.order
        return Cyclo(n, _conductor(n).power[self.numer % n], 1)

    def __repr__(self):
        return f"RootOfUnity({self.frac})"

    def __str__(self):
        return f"{self.numer}/{self.order}"


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
        return root.as_cyclo()

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
            return x.as_cyclo()
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
        """Multiplicative inverse, via the extended Euclidean algorithm
        against the conductor's cyclotomic polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            f = 1 / self.to_fraction()
            return Cyclo.from_fraction(f)._lift(self.n)
        mod = [Fraction(c) for c in cyclotomic_poly(self.n)]
        a = [Fraction(c, self.den) for c in self.num]
        # invariants: old = s_old * self mod Phi, cur = s_cur * self mod Phi
        old, s_old = mod, [Fraction(0)]
        cur, s_cur = a, [Fraction(1)]
        while True:
            cur = _trimmed(cur)
            if len(cur) == 1:
                break
            q, rem = _frac_poly_divmod(old, cur)
            s_new = _frac_poly_sub(s_old, _frac_poly_mul(q, s_cur))
            old, s_old = cur, s_cur
            cur, s_cur = rem, s_new
        if cur[0] == 0:
            raise ZeroDivisionError("not invertible (zero divisor?)")
        inv = _frac_poly_scale(s_cur, 1 / cur[0])
        phi = euler_phi(self.n)
        inv = inv + [Fraction(0)] * (phi - len(inv))
        den = 1
        for f in inv:
            den = den * f.denominator // gcd(den, f.denominator)
        return Cyclo(self.n, [int(f * den) for f in inv[:phi]], den)

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
        re = iv.mpf(0)
        im = iv.mpf(0)
        for j, c in enumerate(self.num):
            if c:
                z = _root_interval(self.n, j, iv.prec)
                re += c * z[0]
                im += c * z[1]
        return iv.mpc(re / self.den, im / self.den)

    def complex(self) -> complex:
        z = 0j
        for j, c in enumerate(self.num):
            if c:
                z += c * mpmath.exp(2j * mpmath.pi * j / self.n)
        return complex(z) / self.den

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
    theta = 2 * iv.pi * j / n
    return (iv.cos(theta), iv.sin(theta))


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# -- small Fraction-polynomial helpers used only by Cyclo.inverse ----------


def _trimmed(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _frac_poly_divmod(num, den):
    num = list(num)
    den = _trimmed(den)
    d = len(den) - 1
    if len(num) - 1 < d:
        return [Fraction(0)], num
    quot = [Fraction(0)] * (len(num) - d)
    inv_lead = 1 / den[-1]
    for k in range(len(num) - 1 - d, -1, -1):
        c = num[k + d] * inv_lead
        quot[k] = c
        if c:
            for j in range(d + 1):
                num[k + j] -= c * den[j]
    return quot, _trimmed(num)


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _frac_poly_scale(a, c):
    return [x * c for x in a]


def certified_sign(x: Cyclo, start_prec: int = 64, max_prec: int = 4096) -> int:
    """Sign of a real cyclotomic number, certified by interval arithmetic.

    Exact zero is decided symbolically; otherwise the precision is raised
    until the enclosing interval excludes zero.  Raises if the imaginary
    part cannot be certified to vanish (the input was not real).
    """
    if x.is_zero():
        return 0
    prec = start_prec
    while prec <= max_prec:
        old = iv.prec
        try:
            iv.prec = prec
            z = x.interval()
            if not (0 in z.imag):
                raise ValueError(f"certified_sign of a non-real number {x}")
            re = z.real
            if not (0 in re):
                return 1 if re.a > 0 else -1
        finally:
            iv.prec = old
        prec *= 2
    raise ArithmeticError(
        f"could not certify sign of nonzero cyclotomic number {x} "
        f"below {max_prec} bits"
    )
