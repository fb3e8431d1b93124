"""Differential tests of the one certified root path.

Every disk that complex_roots returns is checked against 300-bit mpmath
roots and recomputed exactly at its stored dyadic center; the real flags
and real_roots_sturm are checked against sympy's exact real-root count and
isolating intervals.  Polynomials are integer or Gaussian, of degree at
most 12, often with planted real roots, conjugate pairs and repeated
factors.  A second group disables Newton's method, so that the certifier
alone must reject or classify adversarial approximate roots.
"""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from shadecalc import roots as roots_mod
from shadecalc.poly import UPoly, real_roots_sturm, zx_mul, zx_strip
from shadecalc.roots import SLACK, complex_roots
from shadecalc.scalars import GaussianRational as G, QQ

X = sympy.symbols("x")
MP_BITS = 300
# 300-bit roots are off by far less than this; exact dyadic centers may sit
# on a root with radius 0
MP_SLACK = mp.mpf(2) ** -250

small = st.integers(-6, 6)


@st.composite
def planted_polys(draw):
    """Products of planted rational real roots, planted conjugate pairs and
    one random integer or Gaussian factor; degree 1 to 12."""
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(-9, 9)), draw(st.integers(1, 4))
        factors.append([(-a, 0), (b, 0)])
    for _ in range(draw(st.integers(0, 2))):
        a, b, c = draw(st.integers(-5, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
        # c^2 (x - (a + b i)/c)(x - (a - b i)/c)
        factors.append([(a * a + b * b, 0), (-2 * a * c, 0), (c * c, 0)])
    imag = small if draw(st.booleans()) else st.just(0)
    factors.append(draw(st.lists(st.tuples(small, imag), min_size=1, max_size=6)))
    f = [(1, 0)]
    for g in factors:
        f = zx_mul(f, zx_strip(g)) if zx_strip(g) else f
    assume(2 <= len(f) <= 13)
    return UPoly.from_zx(f)


def _sympy_poly(p):
    expr = sum((sympy.Integer(a) + sympy.I * b) * X**j for j, (a, b) in enumerate(p.num))
    return sympy.Poly(expr, X, domain=sympy.QQ_I if not p.is_real() else sympy.QQ)


def _mp_roots(cs, bits):
    """Roots of the polynomial with big-endian exact sympy coefficients."""
    with mp.workprec(bits):
        mcs = []
        for c in cs:
            re, im = (sympy.Rational(v) for v in c.as_real_imag())
            mcs.append(mp.mpc(mp.mpf(int(re.p)) / int(re.q), mp.mpf(int(im.p)) / int(im.q)))
        return mp.polyroots(mcs, maxsteps=400, extraprec=bits)


def _mp_distinct_roots(p):
    return _mp_roots(_sympy_poly(p).sqf_part().all_coeffs(), MP_BITS)


def _exact(r):
    one = 1 << r.prec
    return G(Fraction(r.re, one), Fraction(r.im, one)), Fraction(r.rad, one)


def _contains(r, z):
    one = mp.mpf(2) ** r.prec
    with mp.workprec(MP_BITS):
        return abs(mp.mpc(r.re, r.im) / one - z) <= mp.mpf(r.rad) / one + MP_SLACK


def _check_certified(p, roots):
    """Each disk holds exactly one distinct root, and every root is held."""
    zs = _mp_distinct_roots(p)
    assert len(roots) == len(zs)
    assert sum(r.multiplicity for r in roots) == p.degree
    for r in roots:
        assert sum(1 for z in zs if _contains(r, z)) == 1
    for z in zs:
        assert sum(1 for r in roots if _contains(r, z)) == 1
    if p.is_real():
        assert sum(r.real for r in roots) == _sympy_poly(p).sqf_part().count_roots()
    for r in roots:
        if r.real:
            assert r.im == 0 and r.center.imag == 0.0


class TestDisks:
    @settings(max_examples=80, deadline=None)
    @given(planted_polys())
    def test_disks_hold_mpmath_roots_and_flags_match_sympy(self, p):
        _check_certified(p, complex_roots(p))

    @settings(max_examples=60, deadline=None)
    @given(planted_polys())
    def test_radius_is_slack_times_newton_bound_at_exact_center(self, p):
        # for squarefree p the only factor is p itself: the stored radius must
        # be at least SLACK n |p(c) / p'(c)| at the stored center, recomputed
        # here in exact rationals, and the float view must cover the exact disk
        assume(_sympy_poly(p).is_sqf)
        n = p.degree
        dp = p.derivative()
        for r in complex_roots(p):
            c, rad = _exact(r)
            f, fp = p(c), dp(c)
            assert rad * rad * fp.abs2() >= (SLACK * n) ** 2 * f.abs2()
            fc = r.center
            err = abs(Fraction(fc.real) - c.re) + abs(Fraction(fc.imag) - c.im)
            assert Fraction(r.radius) >= rad + err


class TestRealRootIntervals:
    @settings(max_examples=60, deadline=None)
    @given(planted_polys().filter(lambda p: p.is_real()))
    def test_matches_sympy(self, p):
        width = QQ(1, 2**40)
        ivs = real_roots_sturm(p, width)
        ref = _sympy_poly(p).sqf_part().intervals(eps=QQ(1, 2**100))
        assert len(ivs) == len(ref)
        assert all(b - a <= width for a, b in ivs)
        assert all(a[1] < b[0] for a, b in zip(ivs, ivs[1:]))
        for (a, b), ((lo, hi), _k) in zip(ivs, ref):
            mid = (Fraction(int(lo.p), int(lo.q)) + Fraction(int(hi.p), int(hi.q))) / 2
            assert a <= mid <= b

    def test_perturbed_cubic(self):
        # K(u-1)(u-2)(u-3) - 1 with K = 1000: three roots within 0.01 of 1, 2, 3
        K = 1000
        ivs = real_roots_sturm(UPoly([-6 * K - 1, 11 * K, -6 * K, K]), width=QQ(1, 2**30))
        assert len(ivs) == 3
        for (a, b), target in zip(ivs, (1, 2, 3)):
            assert abs(float((a + b) / 2) - target) < 0.01

    def test_no_real_roots(self):
        assert real_roots_sturm(UPoly([1, 0, 1])) == []

    def test_cubic_three_roots(self):
        ivs = real_roots_sturm(UPoly([0, -1, 0, 1]), width=QQ(1, 2**30))
        assert [float((a + b) / 2) for a, b in ivs] == [-1.0, 0.0, 1.0]


def _without_newton(approximants):
    """Patches for roots: Newton returns its start, and each squarefree
    factor's approximate roots come from approximants(zx)."""
    return {
        "_newton": lambda shifted, x, y, prec, passes: (x, y),
        "_np_initial_roots": approximants,
    }


class TestCertifierAlone:
    """Newton disabled and approximate roots chosen adversarially, with a
    target radius loose enough to accept any disjoint disks: what the
    certifier accepts must still be right."""

    def test_axis_meeting_disk_of_nonreal_root_is_not_real(self, monkeypatch):
        # (x^2 + 1)(x - 5) seeded with 0.925i, -i and 5: the disk at 0.925i
        # has radius 0.939, so it meets the real axis, holds i and misses -i.
        # At its real center 0 the recomputed radius is 60, which swallows 5,
        # so the certifier must refine instead of flagging a real root at 0
        for name, fn in _without_newton(lambda zx: [0.925j, -1j, 5 + 0j]).items():
            monkeypatch.setattr(roots_mod, name, fn)
        p = UPoly([-5, 1, -5, 1])
        roots = complex_roots(p, target_radius=100)
        _check_certified(p, roots)
        assert [r.real for r in roots] == [False, False, True]

    @settings(max_examples=60, deadline=None)
    @given(
        planted_polys(),
        st.lists(st.complex_numbers(max_magnitude=0.3, allow_nan=False), min_size=12, max_size=12),
        st.integers(1, 40),
    )
    def test_perturbed_approximants(self, p, noise, shrink):
        # approximants off the true roots of each squarefree factor by up to
        # 0.3 / shrink, in any direction
        def perturbed(zx):
            rts = _mp_roots([sympy.Integer(a) + sympy.I * b for a, b in reversed(zx)], 64)
            return [complex(z) + e / shrink for z, e in zip(rts, noise)]

        patches = _without_newton(perturbed)
        saved = {name: getattr(roots_mod, name) for name in patches}
        try:
            for name, fn in patches.items():
                setattr(roots_mod, name, fn)
            roots = complex_roots(p, target_radius=100)
        finally:
            for name, fn in saved.items():
                setattr(roots_mod, name, fn)
        _check_certified(p, roots)
