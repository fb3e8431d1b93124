"""Exact scalars: rationals and Gaussian rationals, and the parsing of
coefficient strings.

Everything downstream of curve input and upstream of root finding runs on
these types, so elimination is exact end to end.  Floating point enters
only when roots are located and signs of well-separated determinants are
taken.  A sqrt form "a+b*sqrt(n)", allowed only in a sphere curve's
center lift, parses to plain data, a `Surd`; there is no arithmetic on it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

__all__ = ["QQ", "GaussianRational", "Surd", "surd_parts", "parse_scalar", "format_scalar"]

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


class Surd(NamedTuple):
    """A parsed sqrt form a + b*sqrt(n): a, b rational, b nonzero and n a
    positive integer that is not a square.  Plain data: a quadric lift's
    coordinates are split by `surd_parts`, with no arithmetic on Surds."""

    a: Fraction
    b: Fraction
    n: int

    def __str__(self):
        return format_scalar(self)


def surd_parts(values):
    """(A, B, n) with values = A + sqrt(n) B: A and B rational lists and n
    the least radicand of the Surd values (0 when there is none, so B = 0).
    Another radicand m names the same field when n m is a square k^2, and
    b sqrt(m) is then (b k / n) sqrt(n); raises ValueError otherwise."""
    n = min((v.n for v in values if isinstance(v, Surd)), default=0)
    A, B = [], []
    for v in values:
        if not isinstance(v, Surd):
            A.append(Fraction(v))
            B.append(Fraction(0))
            continue
        k = math.isqrt(n * v.n)
        if k * k != n * v.n:
            raise ValueError(f"lift mixes the radicands {n} and {v.n}")
        A.append(v.a)
        B.append(v.b * Fraction(k, n))
    return A, B, n


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

    Returns a GaussianRational, or a Surd for a sqrt form whose value is
    irrational (accepted only where the caller allows it).  A sqrt form
    with b = 0 or a square radicand k^2 is the rational a + b*k.
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
        n = int(m.group(4))
        k = math.isqrt(n)
        if not b or k * k == n:
            return GaussianRational(a + b * k)
        return Surd(a, b, n)
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
    if isinstance(x, Surd):
        sign = "+" if x.b > 0 else "-"
        return f"{x.a}{sign}{abs(x.b)}*sqrt({x.n})"
    raise TypeError(f"cannot format {type(x).__name__}")
