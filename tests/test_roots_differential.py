"""Differential tests of the one certified root path.

Every disk that complex_roots returns is checked against 300-bit mpmath
roots and recomputed exactly at its stored dyadic center; the real flags
and real_roots_sturm are checked against sympy's exact real-root count and
isolating intervals.  Polynomials are integer or Gaussian, of degree at
most 12, often with planted real roots, conjugate pairs and repeated
factors.  The radius bound alone is checked against exact rational
evaluation at arbitrary dyadic centers, up to degree 44, and the float
view of a disk against a rational oracle.  A last group disables Newton's
method, so that the certifier alone must reject or classify adversarial
approximate roots.
"""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from shadecalc import roots as roots_mod
from shadecalc.poly import real_roots_sturm, zx_mul, zx_sqf_list, zx_strip
from shadecalc.roots import NEWTON_PASSES, SLACK, CertifiedRoot, complex_roots
from shadecalc.scalars import GaussianRational as G, QQ

from helpers import abs2, form, form_value, overlaps, zx_form

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
    return zx_form(f)


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
        dp = p.partials()[1]
        for r in complex_roots(p):
            c, rad = _exact(r)
            f, fp = form_value(p, 1, c), form_value(dp, 1, c)
            assert rad * rad * abs2(fp) >= (SLACK * n) ** 2 * abs2(f)
            fc = r.center
            err = abs(Fraction(fc.real) - c.re) + abs(Fraction(fc.imag) - c.im)
            assert Fraction(r.radius) >= rad + err


def _horner_calls(p, handoff):
    """complex_roots(p) and the argument tuples of every _horner call it
    made; without the handoff _radius evaluates afresh at each center."""
    horner, newton = roots_mod._horner, roots_mod._newton
    calls = []

    def spy(*args):
        calls.append(args)
        return horner(*args)

    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(roots_mod, "_horner", spy)
        if not handoff:
            mp_.setattr(roots_mod, "_newton", lambda *a: newton(*a)[:2] + (None,))
        return complex_roots(p), calls


class TestHornerHandoff:
    @settings(max_examples=40, deadline=None)
    @given(planted_polys())
    def test_disks_bit_identical_without_the_handoff(self, p):
        handed, calls = _horner_calls(p, True)
        fresh, fresh_calls = _horner_calls(p, False)
        assert handed == fresh
        assert len(calls) <= len(fresh_calls)
        # no point is evaluated twice in a row
        assert not any(a == b for a, b in zip(calls, calls[1:]))

    def test_one_evaluation_saved_per_converged_root(self):
        # (x - 1)(x - 2)(x^2 + 1): Newton ends on a zero step at all four
        p = form([2, -3, 3, -3, 1])
        _, calls = _horner_calls(p, True)
        _, fresh_calls = _horner_calls(p, False)
        assert len(fresh_calls) - len(calls) == 4


@st.composite
def dyadic_points(draw):
    """(table, x, y, prec): a Z or Z[i] coefficient table of degree 1 to 44
    with parts up to 2^210, and a dyadic center (x + y i) / 2^prec with
    |x|, |y| <= 2^(prec + 6).  Half of the centers lie a few grid steps
    from a Newton-polished root, where |f(c)| 2^prec is small and the
    truncation errors of the Horner values matter; a low prec makes them
    matter for f' too."""
    prec = draw(st.integers(1, 16) | st.integers(1, 300))
    bits = draw(st.integers(0, 4) | st.integers(0, 210))
    coeff = st.integers(-(1 << bits), 1 << bits)
    imag = coeff if draw(st.booleans()) else st.just(0)
    n = draw(st.integers(1, 44))
    table = draw(st.lists(st.tuples(coeff, imag), min_size=n + 1, max_size=n + 1))
    assume(table[-1] != (0, 0))
    lim = 1 << (prec + 6)
    if draw(st.booleans()):
        x, y = draw(st.integers(-lim, lim)), draw(st.integers(-lim, lim) | st.just(0))
    else:
        approx = roots_mod._np_initial_roots(table)
        assume(approx)
        z = approx[draw(st.integers(0, len(approx) - 1))]
        assume(abs(z) < 32)
        shifted = [(a << prec, b << prec) for a, b in table]
        x, y, _ = roots_mod._newton(shifted, roots_mod._fixed(z.real, prec),
                                    roots_mod._fixed(z.imag, prec), prec, NEWTON_PASSES)
        x, y = x + draw(st.integers(-4, 4)), y + draw(st.integers(-4, 4))
        assume(max(abs(x), abs(y)) <= lim)
    return table, x, y, prec


class TestRadiusBound:
    @settings(max_examples=200, deadline=None)
    @given(dyadic_points())
    # 1 + x^2 - x^3 at 46/32: the truncated f(c) 2^5 is 1 against an exact
    # 3.07, so the upper bound on |f| needs its error term e
    @example(([(1, 0), (0, 0), (1, 0), (-1, 0)], 46, 0, 5))
    # 1 - x^25 at 1/2 on the 2^-1 grid: the truncated f'(c) 2 is -2 against
    # an exact -25 / 2^23, so the lower bound on |f'| needs its error term e'
    @example(([(1, 0)] + [(0, 0)] * 24 + [(-1, 0)], 1, 0, 1))
    def test_covers_exact_newton_radius(self, point):
        # R is None, or R / 2^prec >= SLACK n |f(c) / f'(c)| with f(c) and
        # f'(c) exact rationals; an f' that vanishes at c must give None
        table, x, y, prec = point
        shifted = [(a << prec, b << prec) for a, b in table]
        R = roots_mod._radius(shifted, x, y, prec)
        p = zx_form(table)
        c = G(Fraction(x, 1 << prec), Fraction(y, 1 << prec))
        f2, fp2 = abs2(form_value(p, 1, c)), abs2(form_value(p.partials()[1], 1, c))
        if fp2 == 0:
            assert R is None
        elif R is not None:
            k = SLACK * (len(table) - 1)
            assert Fraction(R, 1 << prec) ** 2 * fp2 >= k * k * f2

    @settings(max_examples=60, deadline=None)
    @given(planted_polys())
    def test_bounded_at_every_newton_center(self, p):
        # at each Newton-polished center of a squarefree factor the lower
        # bound on |f'| is positive, so no precision round escalates for it
        for fac, _ in zx_sqf_list(p.to_zx()):
            if len(fac) < 2:
                continue
            prec = roots_mod._coeff_prec(fac)
            shifted = [(a << prec, b << prec) for a, b in fac]
            approx = roots_mod._np_initial_roots(fac)
            assert approx is not None and len(approx) == len(fac) - 1
            for z in approx:
                x, y, h = roots_mod._newton(shifted, roots_mod._fixed(z.real, prec),
                                            roots_mod._fixed(z.imag, prec), prec, NEWTON_PASSES)
                assert roots_mod._radius(shifted, x, y, prec, h) is not None
                # the Horner values Newton hands over are those at (x, y)
                assert h is None or h == roots_mod._horner(shifted, x, y, prec)


class TestSweep:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(CertifiedRoot, st.integers(-40, 40), st.integers(-40, 40),
                              st.integers(0, 25), st.integers(0, 3), st.just(1)), max_size=14))
    def test_meeting_pairs_match_the_all_pairs_test(self, disks):
        # small disks on grids of 2^-0 to 2^-3, so that touching and nested
        # disks and equal left ends are common: the sweep on the finest grid
        # finds every pair that meets on the finer of its own two grids
        want = [(i, j) for i, j in itertools.combinations(range(len(disks)), 2)
                if overlaps(disks[i], disks[j])]
        assert sorted(roots_mod._meeting_pairs(disks)) == want


def _scaled(max_bits):
    return st.integers(0, max_bits).flatmap(lambda b: st.integers(-(1 << b), 1 << b))


class TestFloatView:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 400).flatmap(lambda prec: st.tuples(
        _scaled(prec + 60), _scaled(prec + 60), _scaled(prec + 10).map(abs), st.just(prec))))
    def test_radius_is_least_float_covering_the_disk(self, disk):
        # the float radius is the least float >= rad / 2^prec plus the
        # distance of the float center from the exact one
        re, im, rad, prec = disk
        r = CertifiedRoot(re, im, rad, prec, 1)
        one = 1 << prec
        c = r.center
        q = Fraction(rad, one) + abs(Fraction(c.real) - Fraction(re, one)) \
            + abs(Fraction(c.imag) - Fraction(im, one))
        assert Fraction(r.radius) >= q
        assert Fraction(math.nextafter(r.radius, -math.inf)) < q


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
        ivs = real_roots_sturm(form([-6 * K - 1, 11 * K, -6 * K, K]), width=QQ(1, 2**30))
        assert len(ivs) == 3
        for (a, b), target in zip(ivs, (1, 2, 3)):
            assert abs(float((a + b) / 2) - target) < 0.01

    def test_no_real_roots(self):
        assert real_roots_sturm(form([1, 0, 1])) == []

    def test_cubic_three_roots(self):
        ivs = real_roots_sturm(form([0, -1, 0, 1]), width=QQ(1, 2**30))
        assert [float((a + b) / 2) for a, b in ivs] == [-1.0, 0.0, 1.0]


def _without_newton(approximants):
    """Patches for roots: Newton returns its start, and each squarefree
    factor's approximate roots come from approximants(zx)."""
    return {
        "_newton": lambda shifted, x, y, prec, passes: (x, y, None),
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
        p = form([-5, 1, -5, 1])
        roots = complex_roots(p, target_radius=100)
        _check_certified(p, roots)
        assert [r.real for r in roots] == [False, False, True]

    @settings(max_examples=60, deadline=None)
    @given(
        planted_polys(),
        st.lists(st.complex_numbers(max_magnitude=0.3, allow_nan=False), min_size=12, max_size=12),
        st.integers(1, 40),
    )
    # x^2 (x - 1) seeded with 0.25 and 1.25: the first disks of the coprime
    # factors x and x - 1 have radius 1 and overlap, so both must be refined
    @example(form([0, 0, -1, 1]), [0.25 + 0j] + [0j] * 11, 1)
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
