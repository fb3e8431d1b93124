"""Shared oracle helpers for the unit and acceptance suites."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import sympy
from sympy import QQ_I, ZZ_I
from sympy.polys.matrices import DomainMatrix

from shadecalc import chords
from shadecalc.curves import CurveComponent, CurveModel, ParamPoint, _jet
from shadecalc.poly import BinaryForm, BivarPoly, bivar_resultant_w, gdivexact, glist_gcd, gmul
from shadecalc.scalars import QQ, GaussianRational


def bp(m, n, entries):
    rows = [[0] * (n + 1) for _ in range(m + 1)]
    for (j, k), c in entries.items():
        rows[j][k] = c
    return BivarPoly(m, n, rows)


def form(cs):
    """The binary form f of degree len(cs) - 1 with f(1, t) = sum cs[k] t^k."""
    return BinaryForm(len(cs) - 1, cs)


def zx_form(f):
    """The binary form of degree len(f) - 1 whose f(1, t) has the Z[i]
    coefficient table f, little-endian in t."""
    return BinaryForm._from_ints(len(f) - 1, 1, f)


def flipped(f):
    """f(s, -t): the binary form f with its parameter reversed."""
    num = [(a * (-1) ** k, b * (-1) ** k) for k, (a, b) in enumerate(f.num)]
    return BinaryForm._from_ints(f.degree, f.den, num)


def exact(x):
    """x as an element of sympy's Q(i), QQ_I, the suites' exact
    arithmetic: a parsed GaussianRational, a rational, or a float or
    complex at its exact binary value."""
    if isinstance(x, QQ_I.dtype):
        return x
    if isinstance(x, GaussianRational):
        return QQ_I(x.re, x.im)
    if isinstance(x, (int, Fraction)):
        return QQ_I(x, 0)
    x = complex(x)
    return QQ_I(Fraction(x.real), Fraction(x.imag))


def conj(z):
    """The complex conjugate of an exact value, in QQ_I."""
    z = exact(z)
    return QQ_I(z.x, -z.y)


def parts(z):
    """(re, im) of an exact value, as Fractions."""
    z = exact(z)
    return tuple(Fraction(q.numerator, q.denominator) for q in (z.x, z.y))


def abs2(z):
    """|z|^2 of an exact value, as a Fraction."""
    re, im = parts(z)
    return re * re + im * im


def to_complex(z):
    """An exact value as a complex, each part rounded on its own (the
    engine's `complex_coeffs` rule)."""
    z = exact(z)
    return complex(z.x, z.y)


def _integer_powers(pair, deg):
    """A pair of exact scalars scaled by a common denominator d to
    Gaussian integers (a, b), as [a^(deg-j) b^j for j = 0..deg] and d^deg."""
    pair = [exact(x) for x in pair]
    d = math.lcm(*(q.denominator for x in pair for q in (x.x, x.y)))
    a, b = ((int(x.x * d), int(x.y * d)) for x in pair)
    apow, bpow = [(1, 0)], [(1, 0)]
    for _ in range(deg):
        apow.append(gmul(apow[-1], a))
        bpow.append(gmul(bpow[-1], b))
    return [gmul(apow[deg - j], bpow[j]) for j in range(deg + 1)], d**deg


def form_value(f, s, t):
    """The binary form f at the exact point (s, t), in QQ_I: by
    homogeneity, f's integer table summed against the powers of the pair
    scaled to Gaussian integers, over den and the scale."""
    if not (exact(s) or exact(t)):
        raise ValueError("(0, 0) is not a point of the parameter line")
    S, ds = _integer_powers((s, t), f.degree)
    re = im = 0
    for c, x in zip(f.num, S):
        a, b = gmul(c, x)
        re, im = re + a, im + b
    den = f.den * ds
    return QQ_I(Fraction(re, den), Fraction(im, den))


def bivar_value(p, st, uv):
    """p at the parameter pairs st = (s, t) and uv = (u, v), exactly, in
    QQ_I: by homogeneity, p's integer table summed against the powers of
    the pairs scaled to Gaussian integers, over den and the scales."""
    S, ds = _integer_powers(st, p.m)
    U, du = _integer_powers(uv, p.n)
    re = im = 0
    for j, row in enumerate(p.num):
        for k, c in enumerate(row):
            x = gmul(gmul(c, S[j]), U[k])
            re, im = re + x[0], im + x[1]
    den = p.den * ds * du
    return QQ_I(Fraction(re, den), Fraction(im, den))



def sympy_bivar_gcd(polys):
    """The suites' oracle gcd of nonzero bihomogeneous polynomials, as a
    BivarPoly primitive over Z[i]: sympy's gcd over QQ_I of the affine
    polynomials p(1, z; 1, w), times the common s- and u-powers that the
    affine chart cannot see."""
    z, w = sympy.symbols("z w")
    affine = [sympy.Poly.from_dict(
        {(j, k): QQ_I(Fraction(a, p.den), Fraction(b, p.den))
         for j, r in enumerate(p.num) for k, (a, b) in enumerate(r) if a or b},
        z, w, domain=QQ_I) for p in polys]
    g = affine[0]
    for f in affine[1:]:
        g = g.gcd(f)
    m = g.degree(z) + min(p.m - f.degree(z) for p, f in zip(polys, affine))
    n = g.degree(w) + min(p.n - f.degree(w) for p, f in zip(polys, affine))
    terms = g.as_dict(native=True)
    den = math.lcm(*(q.denominator for c in terms.values() for q in (c.x, c.y)))
    rows = [[(0, 0)] * (n + 1) for _ in range(m + 1)]
    for (j, k), c in terms.items():
        rows[j][k] = (int(c.x * den), int(c.y * den))
    k = glist_gcd([c for r in rows for c in r])
    return BivarPoly._from_ints(m, n, 1, [[gdivexact(c, k) for c in r] for r in rows])


def sylvester_resultant(p, q):
    """The suites' oracle for `bivar_resultant_w(p, q)`: sympy's
    determinant over Z[i][z] of the Sylvester matrix whose rows hold
    w^i p (i < q.n) and w^i q (i < p.n) by ascending power of w = v/u, in
    the formal degrees p.n and q.n, whatever the top or bottom w-rows
    are: the classical resultant times (-1)^(p.n q.n).  Returned as the
    D + 1 coefficients, in QQ_I and little-endian in t, of the resultant
    form of degree D = p.m q.n + q.m p.n."""
    K = ZZ_I[sympy.Symbol("z")]

    def entries(f):
        return [K.ring.from_dict({(j,): ZZ_I(*r[k]) for j, r in enumerate(f.num)})
                for k in range(f.n + 1)]
    na, nb = p.n, q.n
    rows = [[K.zero] * (na + nb) for _ in range(na + nb)]
    for i in range(nb):
        rows[i][i:i + na + 1] = entries(p)
    for i in range(na):
        rows[nb + i][i:i + nb + 1] = entries(q)
    det = DomainMatrix(rows, (na + nb, na + nb), K).det()
    den = p.den**nb * q.den**na  # the tables are p.den p and q.den q
    coeffs = [QQ_I(0)] * (p.m * q.n + q.m * p.n + 1)
    for (j,), c in det.terms():
        coeffs[j] = QQ_I(Fraction(int(c.x), den), Fraction(int(c.y), den))
    return coeffs


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


def gauss_linking_oracle(poly_a, poly_b):
    """Discretized Gauss linking integral of two closed polylines (lists
    of 3-vectors, closure implied).  Returns (value, error_estimate,
    proximity_warning)."""
    A = np.asarray(poly_a, dtype=float)
    B = np.asarray(poly_b, dtype=float)
    if A.ndim != 2 or A.shape[1] != 3 or B.ndim != 2 or B.shape[1] != 3:
        raise ValueError("polylines must be (n, 3) arrays")

    def lk(As, Bs):
        a1 = As
        a2 = np.roll(As, -1, axis=0)
        b1 = Bs
        b2 = np.roll(Bs, -1, axis=0)
        total = 0.0
        for k in range(len(b1)):
            a = a1 - b1[k]
            b = a1 - b2[k]
            c = a2 - b2[k]
            d = a2 - b1[k]
            an = np.linalg.norm(a, axis=1)
            bn = np.linalg.norm(b, axis=1)
            cn = np.linalg.norm(c, axis=1)
            dn = np.linalg.norm(d, axis=1)
            p = np.einsum("ij,ij->i", a, np.cross(b, c))
            d1 = an * bn * cn + np.einsum("ij,ij->i", a, b) * cn \
                + np.einsum("ij,ij->i", b, c) * an + np.einsum("ij,ij->i", c, a) * bn
            d2 = an * dn * cn + np.einsum("ij,ij->i", a, d) * cn \
                + np.einsum("ij,ij->i", d, c) * an + np.einsum("ij,ij->i", c, a) * dn
            total += float(np.sum(np.arctan2(p, d1) + np.arctan2(p, d2)))
        return total / (2 * math.pi)

    val = lk(A, B)
    coarse = lk(A[::2], B[::2]) if len(A) > 8 and len(B) > 8 else val
    err = abs(val - coarse) + 1e-9
    dmin = min(
        float(np.min(np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2))), 1e9
    )
    scale = max(np.ptp(A), np.ptp(B)) or 1.0
    warning = dmin < 0.05 * scale
    return val, err, warning


def same_point(a, b):
    """Projective equality of two exact homogeneous coordinate lists."""
    a, b = [exact(x) for x in a], [exact(x) for x in b]
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
        r = bivar_resultant_w(f, g)
        z0 = QQ(rng.randint(-4, 4), rng.randint(1, 3))
        fw = [complex(sum(to_complex(f.rows[j][k]) * complex(z0) ** j for j in range(m1 + 1))) for k in range(n1 + 1)]
        gw = [complex(sum(to_complex(g.rows[j][k]) * complex(z0) ** j for j in range(m2 + 1))) for k in range(n2 + 1)]
        if abs(fw[-1]) < 1e-9 or abs(gw[-1]) < 1e-9:
            continue
        alpha = np.roots(list(reversed(fw)))
        beta = np.roots(list(reversed(gw)))
        prod = fw[-1] ** n2 * gw[-1] ** n1
        for b in beta:
            for a in alpha:
                prod *= b - a
        mine = to_complex(form_value(r, 1, z0))
        scale = max(abs(prod), abs(mine), 1e-30)
        assert abs(mine - prod) <= rel * scale, (fw, gw, mine, prod)
        checked += 1
    return checked


def ladder_curve(d):
    """The degree-ladder curve of degree d: four seeded random binary
    forms with integer coefficients in [-3, 3]."""
    rng = random.Random(1000 + d)
    forms = [BinaryForm(d, [rng.randint(-3, 3) for _ in range(d + 1)]) for _ in range(4)]
    return CurveModel("P3", [CurveComponent(forms)])


def _scalar_jets(T, zx, wx, z_chart_t, w_chart_t):
    """Value, z-partial and w-partial of every table of T at one point with
    local coordinates zx, wx in the given charts (True: chart t)."""
    G = _jet(zx, T.shape[1] - 1, z_chart_t) @ T @ _jet(wx, T.shape[2] - 1, w_chart_t).T
    return G[:, 0, 0], G[:, 1, 0], G[:, 0, 1]  # G[i] = [[f, f_w], [f_z, f_zw]]


def _scalar_polish(T, zp, wp):
    """2x2 Newton against the tables T = (u, v) in the local charts of the
    start point, kept through every step; None on a singular Jacobian."""
    (z_chart_t, zx), (w_chart_t, wx) = zp.local(), wp.local()
    dz = dw = 0.0
    for _ in range(chords.POLISH_STEPS):
        (fa, fb), (da_dz, db_dz), (da_dw, db_dw) = (
            g.tolist() for g in _scalar_jets(T, zx, wx, z_chart_t, w_chart_t))
        det = da_dz * db_dw - da_dw * db_dz
        if abs(det) < 1e-300:
            return None
        dz = (fa * db_dw - fb * da_dw) / det
        dw = (fb * da_dz - fa * db_dz) / det
        zx, wx = zx - dz, wx - dw
        if abs(dz) + abs(dw) < 1e-14:
            break
    zp2 = ParamPoint(*((1.0, zx) if z_chart_t else (zx, 1.0)),
                     max(zp.radius, abs(dz)), zp.real, zp.root)
    wp2 = ParamPoint(*((1.0, wx) if w_chart_t else (wx, 1.0)),
                     max(wp.radius, abs(dw)), wp.real, wp.root)
    return zp2, wp2


def pair_and_polish_oracle(minors, u, v, zroots, wroots):
    """`chords._pair_and_polish` one candidate at a time: each candidate
    is polished by its own Newton loop, and its residuals and Jacobian
    margin come from its own evaluation of the minors."""
    T, scales = chords._coeff_tables([u, v, *minors])
    sols = []
    for zi, wi in chords._candidates(T, scales, zroots, wroots):
        zp, wp = zroots[zi], wroots[wi]
        z2, w2 = _scalar_polish(T[:2], zp, wp) or (zp, wp)
        (z_chart_t, zx), (w_chart_t, wx) = z2.local(), w2.local()
        f, fz, fw = _scalar_jets(T[2:], zx, wx, z_chart_t, w_chart_t)
        if np.max(np.abs(f) / scales[2:]) > chords.ACCEPT_TOL:
            continue
        if z2.dist(zp) > 1e-5 or w2.dist(wp) > 1e-5:
            continue
        svals = np.linalg.svd(np.stack([fz, fw], axis=1) / scales[2:, None], compute_uv=False)
        sols.append(chords.PairSolution(z2, w2, float(svals[-1]) if len(svals) >= 2 else 0.0))
    return sols


def overlaps(a, b):
    """The certified disks a and b meet: the integer test on the finer of
    their two grids."""
    a, b = (a, b) if a.prec >= b.prec else (b, a)
    k = a.prec - b.prec
    dx, dy = a.re - (b.re << k), a.im - (b.im << k)
    s = a.rad + (b.rad << k)
    return dx * dx + dy * dy <= s * s


def mirror_scan_oracle(roots):
    """The conjugation map on certified roots of a real form by the
    all-pairs scan: root j is the conjugate of root i when disk j is the
    one disk that meets the mirror image of disk i; None when a mirror
    meets no disk or several."""
    conj = []
    for r in roots:
        mirror = dataclasses.replace(r, im=-r.im)
        hits = [j for j, o in enumerate(roots) if overlaps(o, mirror)]
        if len(hits) != 1:
            return None
        conj.append(hits[0])
    return conj
