"""Exact scalars: the parsing and formatting of coefficient strings.

A coefficient string parses to plain data: a `GaussianRational` (p/q or
p/q + r/s i), or a `Surd` for a sqrt form "a+b*sqrt(n)", allowed only in
a sphere curve's center lift.  Neither carries arithmetic.  The exact
kernels, from curve input up to root finding, run on the polynomial
classes' integer tables (Gaussian integers over one denominator, see
`poly`), into which a parsed coefficient is read once, so elimination is
exact end to end.  Floating point enters only when roots are located and
signs of well-separated determinants are taken.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

__all__ = ["QQ", "GaussianRational", "Surd", "surd_parts", "parse_scalar", "format_scalar"]

QQ = Fraction


class GaussianRational(NamedTuple):
    """A parsed element re + im*i of Q(i), exact real and imaginary
    rationals.  Plain data, like `Surd`: what `parse_scalar` returns and
    what the `coeffs` / `rows` views of the polynomial classes give back,
    with no arithmetic on it; the polynomial classes read it into their
    integer tables.  As a tuple it is always truthy, and + and * on it
    concatenate and repeat."""

    re: Fraction
    im: Fraction = Fraction(0)

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

# a rational p or p/q as the groups (p, q), q possibly None; \d matches
# any Unicode decimal digit, which int() reads too
_RAT = r"([+-]?\d+)(?:/(\d+))?"
_URAT = r"(\d+)(?:/(\d+))?"
_RE_RATIONAL = re.compile(rf"^\s*{_RAT}\s*$")
_RE_COMPLEX = re.compile(rf"^\s*{_RAT}\s*([+-])\s*{_URAT}\s*\*?\s*i\s*$")
_RE_IMAG = re.compile(rf"^\s*{_RAT}\s*\*?\s*i\s*$")
_RE_SQRT = re.compile(rf"^\s*(?:{_RAT})?\s*([+-])?\s*{_URAT}\s*\*\s*sqrt\((\d+)\)\s*$")


def _rational(p, q):
    """The Fraction p/q of two matched digit strings (q None for 1)."""
    return Fraction(int(p), int(q)) if q is not None else Fraction(int(p))


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
        return GaussianRational(_rational(*m.groups()))
    m = _RE_COMPLEX.match(text)
    if m:
        p, q, sign, r, s = m.groups()
        im = _rational(r, s)
        return GaussianRational(_rational(p, q), -im if sign == "-" else im)
    m = _RE_IMAG.match(text)
    if m:
        return GaussianRational(Fraction(0), _rational(*m.groups()))
    m = _RE_SQRT.match(text)
    if m:
        p, q, sign, r, s, n = m.groups()
        a = _rational(p, q) if p is not None else Fraction(0)
        b = _rational(r, s)
        if sign == "-":
            b = -b
        n = int(n)
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
