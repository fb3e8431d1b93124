"""Exact coefficient arithmetic: rationals, Gaussian rationals, and the
small real quadratic extensions used for fixture projection centers.

Everything downstream of curve input and upstream of root finding runs on
these types, so elimination is exact end to end.  Floating point enters
only when roots are located and signs of well-separated determinants are
taken.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = ["QQ", "GaussianRational", "QuadExt", "parse_scalar", "format_scalar"]

QQ = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # floats are dyadic, so this is exact
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class GaussianRational:
    """An element of Q(i), stored as exact real and imaginary rationals.

    Instances are immutable and normalized by Fraction itself (lowest
    terms, positive denominator).  A value with zero imaginary part
    compares equal to the corresponding rational.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(*a):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ----------------------------------------------------
    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- conversions ---------------------------------------------------
    def __complex__(self):
        return complex(self.re, self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


class QuadExt:
    """A real value a + b*sqrt(n) with a, b rational and n a fixed
    positive non-square integer.

    Only the handful of operations needed to validate and project exact
    fixture centers (the sqrt(2) lift of the trefoil projection point)
    are provided.
    """

    __slots__ = ("a", "b", "n")

    def __init__(self, a, b=0, n=0):
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)
        self.n = int(n)
        if self.b and self.n <= 0:
            raise ValueError("radicand must be a positive integer")
        if not self.b:
            self.n = 0

    def _unify(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadExt(other)
        if not isinstance(other, QuadExt):
            return None
        if self.n and other.n and self.n != other.n:
            raise ValueError("mixed radicands are not supported")
        return other

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __add__(self, other):
        o = self._unify(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.n or o.n)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.n)

    def __sub__(self, other):
        o = self._unify(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._unify(other)
        if o is None:
            return NotImplemented
        n = self.n or o.n
        return QuadExt(self.a * o.a + self.b * o.b * n, self.a * o.b + self.b * o.a, n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._unify(other)
        if o is None:
            return NotImplemented
        n = self.n or o.n
        denom = o.a * o.a - n * o.b * o.b
        if not denom:
            if not o:
                raise ZeroDivisionError("division by zero in Q(sqrt n)")
            # o = b*sqrt(n) with a = 0, or conjugate-norm zero (impossible
            # for non-square n); rationalize against sqrt(n) directly
            return (self * QuadExt(0, 1, n)) / QuadExt(o.b * n, 0, n)
        conj = QuadExt(o.a, -o.b, n)
        num = self * conj
        return QuadExt(num.a / denom, num.b / denom, n)

    def __eq__(self, other):
        o = self._unify(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.n))

    def is_rational(self) -> bool:
        return not self.b

    def as_fraction(self) -> Fraction:
        if self.b:
            raise ValueError("value has an irrational part")
        return self.a

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.n) if self.b else float(self.a)

    def __repr__(self):
        if not self.b:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a}, {self.b}, {self.n})"

    def __str__(self):
        return format_scalar(self)


# ---------------------------------------------------------------------------
# parsing / formatting of coefficient strings
# ---------------------------------------------------------------------------

_RAT = r"[+-]?\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"^\s*({_RAT})\s*$")
_RE_COMPLEX = re.compile(rf"^\s*({_RAT})\s*([+-])\s*(\d+(?:/\d+)?)\s*\*?\s*i\s*$")
_RE_IMAG = re.compile(rf"^\s*({_RAT})\s*\*?\s*i\s*$")
_RE_SQRT = re.compile(rf"^\s*({_RAT})?\s*([+-])?\s*(\d+(?:/\d+)?)\s*\*\s*sqrt\((\d+)\)\s*$")


def parse_scalar(text: str):
    """Parse "p/q", "p/q+r/s i", "r/s i" or "a+b*sqrt(n)" strings.

    Returns a GaussianRational, or a QuadExt for sqrt forms (accepted
    only where the caller allows exact-quadratic fixture input).
    """
    if not isinstance(text, str):
        raise ValueError(f"coefficient must be a string, got {type(text).__name__}")
    try:
        return _parse_scalar_inner(text)
    except ZeroDivisionError as e:
        raise ValueError(f"zero denominator in coefficient {text!r}") from e


def _parse_scalar_inner(text: str):
    m = _RE_RATIONAL.match(text)
    if m:
        return GaussianRational(Fraction(m.group(1)))
    m = _RE_COMPLEX.match(text)
    if m:
        im = Fraction(m.group(3))
        if m.group(2) == "-":
            im = -im
        return GaussianRational(Fraction(m.group(1)), im)
    m = _RE_IMAG.match(text)
    if m:
        return GaussianRational(0, Fraction(m.group(1)))
    m = _RE_SQRT.match(text)
    if m:
        a = Fraction(m.group(1)) if m.group(1) else Fraction(0)
        b = Fraction(m.group(3))
        if m.group(2) == "-":
            b = -b
        return QuadExt(a, b, int(m.group(4)))
    raise ValueError(f"malformed coefficient string: {text!r}")


def format_scalar(x) -> str:
    """Canonical string form, inverse to parse_scalar on its range."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, GaussianRational):
        if not x.im:
            return str(x.re)
        if not x.re:
            return f"{x.im} i"
        sign = "+" if x.im > 0 else "-"
        return f"{x.re}{sign}{abs(x.im)} i"
    if isinstance(x, QuadExt):
        if not x.b:
            return str(x.a)
        sign = "+" if x.b > 0 else "-"
        return f"{x.a}{sign}{abs(x.b)}*sqrt({x.n})"
    raise TypeError(f"cannot format {type(x).__name__}")
