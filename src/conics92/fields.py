"""Scalar domains and square classes.

Supports exact rationals (``fractions.Fraction``), odd prime fields F_p,
their quadratic extensions F_{p^2}, double-precision reals and complexes.
F_{p^2} has one presentation, F_p[t]/(t^2 - n) with n the least quadratic
nonresidue mod p.  All backends expose ordinary operator arithmetic so the
geometry and section formulas evaluate uniformly over any of them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedField, ZeroElement

RATIONAL = "Q"
REAL = "R"
COMPLEX = "C"
_ONES = {RATIONAL: Fraction(1), REAL: 1.0, COMPLEX: 1 + 0j}


def prime_field_tag(p: int) -> str:
    return f"F{p}"


def quad_ext_tag(p: int) -> str:
    return f"F{p}^2"


# ---------------------------------------------------------------------------
# integer factoring support for rational square classes
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Find a nontrivial factor of composite odd n (deterministic restarts)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        # x is saved at step r, and y runs on to step 2r in blocks of m
        # whose products share one gcd; r doubles each round
        y, r, d, q, m = 2, 1, 1, 1, 128
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                d = math.gcd(q, n)
            r *= 2
        if d == n:
            # backtrack one step at a time
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(abs(x - ys), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


def _factor(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    r = math.isqrt(n)
    if r * r == n:
        tmp: dict[int, int] = {}
        _factor(r, tmp)
        for p, e in tmp.items():
            out[p] = out.get(p, 0) + 2 * e
        return
    d = _pollard_brent(n)
    _factor(d, out)
    _factor(n // d, out)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, n != 0."""
    if n == 0:
        raise ZeroElement("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    # wheel over residues coprime to 30 keeps trial division short
    incs = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 10000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += incs[i]
        i = (i + 1) % 8
    _factor(n, out)
    return out


def squarefree_part(n: int) -> int:
    """Signed squarefree kernel of a nonzero integer."""
    if n == 0:
        raise ZeroElement("0 has no square class")
    sign = -1 if n < 0 else 1
    part = 1
    for p, e in factorize(n).items():
        if e % 2:
            part *= p
    return sign * part


def _sf_product(a: int, b: int) -> int:
    """Squarefree part of a*b given both squarefree (no factoring needed)."""
    sign = -1 if (a < 0) != (b < 0) else 1
    a, b = abs(a), abs(b)
    g = math.gcd(a, b)
    return sign * (a // g) * (b // g)


# ---------------------------------------------------------------------------
# prime fields and quadratic extensions
# ---------------------------------------------------------------------------

class PrimeFieldElement:
    """Element of F_p for an odd prime p."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: int):
        self.p = p
        self.value = value % p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.p, v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.p, self.value * pow(v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        if self.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return PrimeFieldElement(self.p, v * pow(self.value, self.p - 2, self.p))

    def __pow__(self, exp: int):
        if exp < 0:
            return (1 / self) ** (-exp)
        return PrimeFieldElement(self.p, pow(self.value, exp, self.p))

    def __neg__(self):
        return PrimeFieldElement(self.p, -self.value)

    def __eq__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self.value == v

    def __hash__(self):
        return hash((self.p, self.value))

    def __repr__(self):
        return f"F{self.p}({self.value})"


class PrimeField:
    """The field F_p, p an odd prime; also a factory for its elements."""

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        self.p = p
        self.tag = prime_field_tag(p)

    def __call__(self, v) -> PrimeFieldElement:
        if isinstance(v, PrimeFieldElement):
            if v.p != self.p:
                raise ValueError("element of a different prime field")
            return v
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return PrimeFieldElement(self.p, v.numerator) / v.denominator
        return PrimeFieldElement(self.p, int(v))

    def zero(self) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, 0)

    def one(self) -> PrimeFieldElement:
        return PrimeFieldElement(self.p, 1)

    def elements(self):
        return (PrimeFieldElement(self.p, v) for v in range(self.p))

    def units(self):
        return (PrimeFieldElement(self.p, v) for v in range(1, self.p))

    @property
    def least_nonresidue(self) -> int:
        for n in range(2, self.p):
            if pow(n, (self.p - 1) // 2, self.p) != 1:
                return n
        raise ArithmeticError("no nonresidue found")  # unreachable for p > 2

    def __repr__(self):
        return f"PrimeField({self.p})"


class QuadExtElement:
    """Element c0 + c1*t of F_p[t]/(t^2 + gamma)."""

    __slots__ = ("field", "c0", "c1")

    def __init__(self, field: "QuadExtField", c0: int, c1: int):
        self.field = field
        self.c0 = c0 % field.p
        self.c1 = c1 % field.p

    def _coerce(self, other):
        if isinstance(other, QuadExtElement):
            if other.field.p != self.field.p:
                raise ValueError("mixed quadratic extensions")
            return other
        if isinstance(other, (int, PrimeFieldElement)):
            v = other.value if isinstance(other, PrimeFieldElement) else other
            return QuadExtElement(self.field, v, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExtElement(self.field, self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExtElement(self.field, self.c0 - o.c0, self.c1 - o.c1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        c0 = self.c0 * o.c0 - self.field.gamma * self.c1 * o.c1
        c1 = self.c0 * o.c1 + self.c1 * o.c0
        return QuadExtElement(self.field, c0, c1)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadExtElement":
        # the other root of t^2 + gamma is -t
        return QuadExtElement(self.field, self.c0, -self.c1)

    def norm(self) -> PrimeFieldElement:
        n = self.c0 * self.c0 + self.field.gamma * self.c1 * self.c1
        return PrimeFieldElement(self.field.p, n)

    def inverse(self) -> "QuadExtElement":
        n = self.norm()
        if n.value == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        ninv = pow(n.value, self.field.p - 2, self.field.p)
        conj = self.conjugate()
        return QuadExtElement(self.field, conj.c0 * ninv, conj.c1 * ninv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = QuadExtElement(self.field, 1, 0)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __neg__(self):
        return QuadExtElement(self.field, -self.c0, -self.c1)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.c0 == o.c0 and self.c1 == o.c1

    def __hash__(self):
        return hash((self.field.p, self.c0, self.c1))

    def __repr__(self):
        return f"F{self.field.p}^2({self.c0}+{self.c1}t)"


class QuadExtField:
    """F_{p^2} presented as F_p[t]/(t^2 + gamma), where -gamma is the
    least quadratic nonresidue mod p, so t^2 = -gamma."""

    def __init__(self, p: int):
        self.base = PrimeField(p)
        self.p = p
        self.gamma = -self.base.least_nonresidue % p
        self.tag = quad_ext_tag(p)

    def __call__(self, c0, c1=0) -> QuadExtElement:
        if isinstance(c0, QuadExtElement):
            return c0
        if isinstance(c0, PrimeFieldElement):
            c0 = c0.value
        if isinstance(c1, PrimeFieldElement):
            c1 = c1.value
        return QuadExtElement(self, int(c0), int(c1))

    def zero(self) -> QuadExtElement:
        return QuadExtElement(self, 0, 0)

    def one(self) -> QuadExtElement:
        return QuadExtElement(self, 1, 0)

    def elements(self):
        return (
            QuadExtElement(self, c0, c1)
            for c1 in range(self.p)
            for c0 in range(self.p)
        )

    @property
    def canonical_nonresidue(self) -> QuadExtElement:
        return next(x for x in self.elements() if x != 0 and not is_square(x))

    def __repr__(self):
        return f"QuadExtField(p={self.p}, t^2+{self.gamma})"


def field_one(tag: str):
    """The 1 of the field tagged "Q", "R", "C", "F<p>" or "F<p>^2"."""
    if tag in _ONES:
        return _ONES[tag]
    m = re.fullmatch(r"F(\d+)(\^2)?", tag)
    if m is None:
        raise ValueError(f"unknown field {tag!r}")
    return (QuadExtField if m.group(2) else PrimeField)(int(m.group(1))).one()


def ensure_finite(z: complex) -> complex:
    """Complex numbers must be finite wherever they are stored."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise UnsupportedField(f"non-finite complex value {z!r}")
    return z


# ---------------------------------------------------------------------------
# square classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquareClass:
    """An element of k^x/(k^x)^2 in canonical form.

    Representatives: sign over R, 1 over C, a signed squarefree integer
    over Q, 1 or the least positive nonresidue over F_p, and (1,0) or the
    first nonsquare in coordinate order over F_{p^2}.
    """

    field: str
    rep: object

    def is_trivial(self) -> bool:
        return self.rep == 1 or self.rep == (1, 0)

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.field != other.field:
            raise UnsupportedField(
                f"cannot multiply classes over {self.field} and {other.field}"
            )
        if self.field == COMPLEX:
            return self
        if self.field == REAL:
            return SquareClass(REAL, self.rep * other.rep)
        if self.field == RATIONAL:
            return SquareClass(RATIONAL, _sf_product(self.rep, other.rep))
        # finite fields: the class group is Z/2 with canonical reps
        if self.rep == other.rep:
            return SquareClass(self.field, 1 if isinstance(self.rep, int) else (1, 0))
        if self.is_trivial():
            return other
        if other.is_trivial():
            return self
        raise AssertionError("non-canonical finite-field square class")

    def __str__(self):
        return f"<{self.rep}>@{self.field}"


def is_square(x) -> bool:
    """True iff the nonzero element x is a square in its field."""
    if x == 0:
        raise ZeroElement("0 has no square class")
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        if q < 0:
            return False
        return (
            math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator
        )
    if isinstance(x, float):
        return x > 0
    if isinstance(x, complex):
        return True
    if isinstance(x, PrimeFieldElement):
        return pow(x.value, (x.p - 1) // 2, x.p) == 1
    if isinstance(x, QuadExtElement):
        # x is a square in F_{p^2} iff its norm is a square in F_p
        return is_square(x.norm())
    raise UnsupportedField(f"unsupported scalar {type(x).__name__}")


def square_class(x) -> SquareClass:
    """Canonical square class of a nonzero field element."""
    if x == 0:
        raise ZeroElement("0 has no square class")
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return SquareClass(RATIONAL, squarefree_part(q.numerator * q.denominator))
    if isinstance(x, float):
        return SquareClass(REAL, 1 if x > 0 else -1)
    if isinstance(x, complex):
        return SquareClass(COMPLEX, 1)
    if isinstance(x, PrimeFieldElement):
        if is_square(x):
            return SquareClass(prime_field_tag(x.p), 1)
        return SquareClass(prime_field_tag(x.p), PrimeField(x.p).least_nonresidue)
    if isinstance(x, QuadExtElement):
        if is_square(x):
            return SquareClass(quad_ext_tag(x.field.p), (1, 0))
        nr = x.field.canonical_nonresidue
        return SquareClass(quad_ext_tag(x.field.p), (nr.c0, nr.c1))
    raise UnsupportedField(f"unsupported scalar {type(x).__name__}")


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def complex_to_json(z: complex) -> list:
    z = ensure_finite(complex(z))
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    return ensure_finite(complex(v[0], v[1]))
