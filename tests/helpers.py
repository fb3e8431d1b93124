"""Shared oracle helpers for the unit and acceptance suites."""

import math
import random

import numpy as np

from shadecalc.poly import BivarPoly, UPoly, bivar_resultant_w, gmul, zx_diff
from shadecalc.scalars import QQ, GaussianRational


def bp(m, n, entries):
    rows = [[0] * (n + 1) for _ in range(m + 1)]
    for (j, k), c in entries.items():
        rows[j][k] = c
    return BivarPoly(m, n, rows)


def exact(x):
    """x as a GaussianRational; a float or complex counts at its exact
    binary value."""
    if isinstance(x, GaussianRational):
        return x
    x = complex(x)
    return GaussianRational(x.real, x.imag)


def derivative(p):
    """p' of a UPoly, from the kernel's zx_diff."""
    return UPoly._from_ints(p.den, zx_diff(p.num))


def abs2(z):
    """|z|^2 of a GaussianRational, as an exact rational."""
    return z.re * z.re + z.im * z.im


def _integer_powers(pair, deg):
    """A pair of exact scalars scaled by a common denominator d to
    Gaussian integers (a, b), as [a^(deg-j) b^j for j = 0..deg] and d^deg."""
    pair = [exact(x) for x in pair]
    d = math.lcm(*(q.denominator for x in pair for q in (x.re, x.im)))
    a, b = ((int(x.re * d), int(x.im * d)) for x in pair)
    apow, bpow = [(1, 0)], [(1, 0)]
    for _ in range(deg):
        apow.append(gmul(apow[-1], a))
        bpow.append(gmul(bpow[-1], b))
    return [gmul(apow[deg - j], bpow[j]) for j in range(deg + 1)], d**deg


def bivar_value(p, st, uv):
    """p at the parameter pairs st = (s, t) and uv = (u, v), exactly: by
    homogeneity, p's integer table summed against the powers of the pairs
    scaled to Gaussian integers, over den and the scales."""
    S, ds = _integer_powers(st, p.m)
    U, du = _integer_powers(uv, p.n)
    re = im = 0
    for j, row in enumerate(p.num):
        for k, c in enumerate(row):
            x = gmul(gmul(c, S[j]), U[k])
            re, im = re + x[0], im + x[1]
    den = p.den * ds * du
    return GaussianRational(QQ(re, den), QQ(im, den))


# the pole (1, 1, 1, 1)/2 of the unit sphere and an orthonormal basis of
# its orthogonal complement with det[pole, b1, b2, b3] < 0, the orientation
# under which diagrammatic linking numbers match the Gauss integral
STEREO_POLE = np.full(4, 0.5)
STEREO_BASIS = np.array([[1, -1, 0, 0], [0, 0, 1, -1], [-1, -1, 1, 1]]) / np.array(
    [[math.sqrt(2)], [math.sqrt(2)], [2.0]])


def stereo_r3(x):
    """Stereographic image in R^3 of the unit-sphere point x of R^4 from
    STEREO_POLE, in the coordinates of STEREO_BASIS."""
    x = np.asarray(x, dtype=float)
    return STEREO_BASIS @ x / (1.0 - STEREO_POLE @ x)


def same_point(a, b):
    """Projective equality of two exact homogeneous coordinate lists."""
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(len(a)))


def same_param(p, q, tol=1e-9):
    """Parameter points p, q agree to within tol or their certified radii."""
    return p.dist(q) <= max(tol, 4 * (p.radius + q.radius))


def conjugate_params(p, q, tol=1e-9):
    """p is the complex conjugate of q, by same_param."""
    return same_param(p, q.conjugate(), tol)


def resultant_root_product_check(cases=200, seed=20240809, rel=1e-8):
    """Resultant values against the brute-force root-product formula
    lc_f^(deg g) lc_g^(deg f) prod (beta_j - alpha_i) at random rational
    evaluation points; returns the number of verified cases."""
    rng = random.Random(seed)
    checked = 0
    while checked < cases:
        m1, n1 = rng.randint(1, 3), rng.randint(1, 3)
        m2, n2 = rng.randint(1, 3), rng.randint(1, 3)
        f = bp(m1, n1, {(j, k): rng.randint(-6, 6) for j in range(m1 + 1) for k in range(n1 + 1)})
        g = bp(m2, n2, {(j, k): rng.randint(-6, 6) for j in range(m2 + 1) for k in range(n2 + 1)})
        if f.is_zero() or g.is_zero():
            continue
        r = bivar_resultant_w(f, g).chart_t()
        z0 = QQ(rng.randint(-4, 4), rng.randint(1, 3))
        fw = [complex(sum(complex(f.rows[j][k]) * complex(z0) ** j for j in range(m1 + 1))) for k in range(n1 + 1)]
        gw = [complex(sum(complex(g.rows[j][k]) * complex(z0) ** j for j in range(m2 + 1))) for k in range(n2 + 1)]
        if abs(fw[-1]) < 1e-9 or abs(gw[-1]) < 1e-9:
            continue
        alpha = np.roots(list(reversed(fw)))
        beta = np.roots(list(reversed(gw)))
        prod = fw[-1] ** n2 * gw[-1] ** n1
        for b in beta:
            for a in alpha:
                prod *= b - a
        mine = complex(r(z0))
        scale = max(abs(prod), abs(mine), 1e-30)
        assert abs(mine - prod) <= rel * scale, (fw, gw, mine, prod)
        checked += 1
    return checked
