"""Certified generic projections and the local writhe recipes.

A projection of a curve from a real center c produces three kinds of
chord data: real-real crossings (two real preimages), solitary crossings
(conjugate non-real preimages over a real image point), and non-real
chord pairs that contribute nothing.  Signs:

* P3 real crossings: the sign of the frame (v, u, w) at one endpoint,
  where v, w are the curve tangents at the two endpoints (in one fixed
  orientation of the real parameter circle), u points from the evaluation
  endpoint to the other one along the straight chart segment, and the
  chart parity converts to the global RP3 orientation.  The third frame
  vector of the verbatim recipe is w' = alpha w + beta u with alpha > 0,
  so w may replace it under the determinant.
* Sphere (Q3) real crossings: the stereographic recipe; project from one
  lift of the center, push the tangents down, orient the connecting
  great-circle arc from the evaluation point into the arc, and flip the
  other endpoint's tangent when the antipodal lift lies on the arc.
  Evaluated at both endpoints; the two evaluations must agree.
* Solitary crossings: the complex-orientation test of (u, w, f, i f)
  where (u, w) completes the induced real line direction v to a positive
  RP3 frame and f is the projected branch tangent.

The residual global signs of the recipes are pinned by the trefoil
calibration (wr part +3, sh part +1) and validated against the Gauss
linking oracle; see SPHERE_PAIR_SIGN / SOLITARY_SIGN / P3_REAL_SIGN.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .chords import canonical_unordered, collinearity_system, solve_minor_system
from .curves import CurveComponent, CurveModel, ParamPoint, p3_forms
from .errors import GenericityError, PreconditionError
from .poly import form_gcd
from .projective import (
    REALNESS_TOL,
    DegenerateFrameError,
    LineParam,
    ProjPoint,
    QuadricSpec,
    chart_parity,
    complex_frame_sign,
    orientation_sign,
    pi_project,
    quadric_residual,
    stereographic,
)
from .scalars import GaussianRational, QQ

__all__ = [
    "ProjectionCenter",
    "GenericityCertificate",
    "Crossing",
    "ProjectionData",
    "select_center",
    "project_curve",
    "real_crossing_writhe",
    "sphere_real_pair_sign",
    "solitary_writhe",
    "branch_frame_sign",
    "render_diagram_svg",
]

# Calibration constants: one residual global sign per recipe, pinned so
# the trefoil reports wr_part = +3 and sh_part = +1 and the diagrammatic
# linking numbers match the Gauss integral oracle.
SPHERE_PAIR_SIGN = 1
SOLITARY_SIGN = 1
P3_REAL_SIGN = 1

SEAM_TOL = 1e-6
MAX_CENTER_ATTEMPTS = 50


@dataclass
class ProjectionCenter:
    point: ProjPoint  # real center in RP3 (for Q3: the image of the lifts)
    hyperplane: int  # index m of the coordinate hyperplane H = {y_m = 0}
    lift0: ProjPoint | None = None
    lift1: ProjPoint | None = None
    seed: int = 0
    attempt: int = 0

    def describe(self):
        d = {
            "point": [str(c) for c in self.point.coords],
            "hyperplane": self.hyperplane,
            "seed": self.seed,
            "attempt": self.attempt,
        }
        if self.lift0 is not None:
            d["lift0"] = [str(c) for c in self.lift0.coords]
        return d


@dataclass
class GenericityCertificate:
    center_off_curve: bool = False
    all_chords_simple: bool = False
    no_triple_points: bool = False
    no_tangent_chords: bool = False
    no_crossing_at_chart_seam: bool = False
    margins: dict = field(default_factory=dict)

    def all_ok(self):
        return (
            self.center_off_curve
            and self.all_chords_simple
            and self.no_triple_points
            and self.no_tangent_chords
            and self.no_crossing_at_chart_seam
        )

    def describe(self):
        return {
            "flags": {
                "center_off_curve": self.center_off_curve,
                "all_chords_simple": self.all_chords_simple,
                "no_triple_points": self.no_triple_points,
                "no_tangent_chords": self.no_tangent_chords,
                "no_crossing_at_chart_seam": self.no_crossing_at_chart_seam,
            },
            "margins": {k: float(f"{v:.6e}") for k, v in self.margins.items()},
        }


@dataclass
class Crossing:
    kind: str  # "real-real" | "solitary"
    comp_i: int
    comp_j: int
    z: ParamPoint
    w: ParamPoint
    image: ProjPoint  # diagram point in H
    writhe: int = 0
    same_component: bool = True
    radius: float = 0.0

    def describe(self):
        return {
            "kind": self.kind,
            "components": [self.comp_i, self.comp_j],
            "same_component": self.same_component,
            "z": _fmt_param(self.z),
            "w": _fmt_param(self.w),
            "image": [_fmt_c(c) for c in self.image.normalized().as_complex()],
            "writhe": self.writhe,
        }


def _fmt_c(c):
    c = complex(c)
    return [float(f"{c.real:.12g}"), float(f"{c.imag:.12g}")]


def _fmt_param(p: ParamPoint):
    a = p.affine()
    if a.real == float("inf"):
        return "inf"
    return [float(f"{a.real:.12g}"), float(f"{a.imag:.12g}")]


@dataclass
class ProjectionData:
    center: ProjectionCenter
    certificate: GenericityCertificate
    crossings: list  # real-real and solitary, with writhes
    complex_pairs: int  # non-contributing chord pairs (unordered count)
    mode: str  # "diagram" | "shade"


# ---------------------------------------------------------------------------
# center generation
# ---------------------------------------------------------------------------


def _rand_fraction(rng, span=6):
    return QQ(rng.randint(-span, span), rng.randint(1, span))


def _four_square(n: int):
    """Some (a,b,c,d) with a^2+b^2+c^2+d^2 = n (n >= 0, search is fine at
    the sizes quadric scales take)."""
    m = int(math.isqrt(n))
    for a in range(m, -1, -1):
        r1 = n - a * a
        s1 = int(math.isqrt(r1))
        for b in range(s1, -1, -1):
            r2 = r1 - b * b
            s2 = int(math.isqrt(r2))
            for c in range(s2, -1, -1):
                r3 = r2 - c * c
                d = int(math.isqrt(r3))
                if d * d == r3:
                    return a, b, c, d
    raise ArithmeticError(f"no four-square decomposition of {n}")


def rational_quadric_point(q: QuadricSpec, rng) -> ProjPoint:
    """A random rational point on -c x0^2 + sum xi^2 = 0, by sweeping
    lines through a base point found with a four-square decomposition."""
    c = QQ(q.c)
    a, b, cc, d = _four_square(c.numerator * c.denominator)
    base = [QQ(c.denominator), QQ(a), QQ(b), QQ(cc), QQ(d)]
    for _ in range(64):
        direction = [QQ(0)] + [_rand_fraction(rng) for _ in range(4)]
        A = sum(di * di for di in direction[1:])
        B = 2 * sum(bi * di for bi, di in zip(base[1:], direction[1:]))
        if not A:
            continue
        t = -B / A
        pt = [base[i] + t * direction[i] for i in range(5)]
        if not any(pt[1:]):
            continue
        if not pt[0]:
            continue  # want x0 != 0 so the point is on the real sphere
        return ProjPoint([GaussianRational(x) for x in pt], "P4")
    raise GenericityError("could not draw a rational quadric point")


def draw_center(curve: CurveModel, rng) -> ProjectionCenter:
    q = curve.quadric()
    if q is None:
        pt = ProjPoint(
            [GaussianRational(1)] + [GaussianRational(_rand_fraction(rng)) for _ in range(3)]
        )
        return ProjectionCenter(pt, hyperplane=0)
    lift0 = rational_quadric_point(q, rng)
    center = pi_project(lift0)
    if not center.is_exact():
        raise GenericityError("quadric center does not project to a rational point")
    lift1 = ProjPoint([-lift0.coords[0]] + list(lift0.coords[1:]), "P4")
    return ProjectionCenter(center, hyperplane=0, lift0=lift0, lift1=lift1)


def center_from_lift(lift: ProjPoint, q: QuadricSpec) -> ProjectionCenter:
    """Projection data from an explicit quadric lift (exact rational or
    quadratic-surd coordinates, e.g. the trefoil's sqrt(2) center)."""
    res = quadric_residual(lift, q)
    off = abs(res) > 1e-9 if isinstance(res, complex) else bool(res)
    if off:
        raise PreconditionError("explicit center lift is not on the quadric")
    center = pi_project(lift)
    if not center.is_exact():
        raise PreconditionError(
            "explicit center lift must project to a rational point of RP3"
        )
    anti = ProjPoint([-1 * lift.coords[0]] + list(lift.coords[1:]), "P4")
    return ProjectionCenter(center, hyperplane=0, lift0=lift, lift1=anti)


# ---------------------------------------------------------------------------
# projected forms and center checks
# ---------------------------------------------------------------------------


def _center_off_component(center: ProjPoint, forms) -> bool:
    """Exact check that the projected curve never passes through the
    center: the 2x2 minors of [c | psi(z)] must have constant gcd."""
    c = center.coords
    minors = []
    n = len(forms)
    for a in range(n):
        for b in range(a + 1, n):
            minors.append(forms[b] * c[a] - forms[a] * c[b])
    live = [m for m in minors if not m.is_zero()]
    if not live:
        return False
    return form_gcd(live).degree == 0


# ---------------------------------------------------------------------------
# oriented tangents
# ---------------------------------------------------------------------------


def oriented_real_tangent(comp: CurveComponent, param: ParamPoint, chart: int, forms=None):
    """Affine velocity of the real locus at a real parameter in the given
    projective chart, oriented by the fixed parameter-circle orientation
    (s, t) = (cos a, sin a).

    Returns (affine point, velocity) as real float lists.
    """
    if forms is None:
        forms = comp.coords
    s, t = param.s.real, param.t.real
    vals = [complex(f.eval(complex(s), complex(t))) for f in forms]
    vel = [
        complex((f.d_dt().eval(complex(s), complex(t)) * s - f.d_ds().eval(complex(s), complex(t)) * t))
        for f in forms
    ]
    xk, dxk = vals[chart], vel[chart]
    if abs(xk) < 1e-12 * max(abs(v) for v in vals):
        raise DegenerateFrameError(f"real point not in chart {chart}")
    pt, tv = [], []
    for j in range(len(vals)):
        if j == chart:
            continue
        pt.append((vals[j] / xk).real)
        tv.append(((vel[j] * xk - vals[j] * dxk) / (xk * xk)).real)
    scale = max(map(abs, pt)) + 1.0
    if max(map(abs, tv)) < 1e-9 * scale:
        raise GenericityError("projected curve is not immersed at a crossing parameter")
    return pt, tv


# ---------------------------------------------------------------------------
# writhe recipes
# ---------------------------------------------------------------------------


def real_crossing_writhe(comp_i, comp_j, zp, wp, center: ProjPoint, forms_i=None, forms_j=None):
    """P3 recipe: sign of (v, u, w) with v, w the endpoint tangents and u
    the chord direction from the evaluation endpoint to the other one."""
    forms_i = forms_i or p3_forms(comp_i.coords)
    forms_j = forms_j or p3_forms(comp_j.coords)
    a_pt = ProjPoint([f.eval(zp.s, zp.t) for f in forms_i])
    b_pt = ProjPoint([f.eval(wp.s, wp.t) for f in forms_j])
    av = a_pt.normalized().as_complex()
    bv = b_pt.normalized().as_complex()
    best_k, best = None, -1.0
    for k in range(4):
        val = min(abs(av[k]), abs(bv[k]))
        if val > best:
            best, best_k = val, k
    k = best_k
    a_aff, v = oriented_real_tangent(comp_i, zp, k, forms_i)
    b_aff, w = oriented_real_tangent(comp_j, wp, k, forms_j)
    u = [b_aff[m] - a_aff[m] for m in range(3)]
    sign = orientation_sign([v, u, w], chart_parity(k))
    return P3_REAL_SIGN * sign


def sphere_real_pair_sign(comp_i, comp_j, zp, wp, center: ProjectionCenter, q: QuadricSpec):
    """Q3 recipe via stereographic projection from lift0 with the antipode
    lift1 at the origin; evaluated at both endpoints, which must agree."""
    x_aff, X = oriented_real_tangent(comp_i, zp, 0)
    y_aff, Y = oriented_real_tangent(comp_j, wp, 0)
    pv = [float(c) for c in center.lift0.normalized().real_vector()]
    pv = [pv[i] / pv[0] for i in range(1, 5)]
    r = math.sqrt(sum(c * c for c in pv))
    ph = [c / r for c in pv]
    # plane of the great circle through the lifts and x
    xdot = sum(x_aff[i] * ph[i] for i in range(4))
    e2 = [x_aff[i] - xdot * ph[i] for i in range(4)]
    n2 = math.sqrt(sum(c * c for c in e2))
    if n2 < 1e-9 * r:
        raise GenericityError("crossing point sits on the pole axis")
    e2 = [c / n2 for c in e2]
    # both points must lie on the circle: y decomposes in (ph, e2)
    ydot1 = sum(y_aff[i] * ph[i] for i in range(4))
    ydot2 = sum(y_aff[i] * e2[i] for i in range(4))
    resid = math.sqrt(
        sum((y_aff[i] - ydot1 * ph[i] - ydot2 * e2[i]) ** 2 for i in range(4))
    )
    if resid > 1e-6 * r:
        raise GenericityError("chord endpoints do not share a great circle")
    alpha_x = math.atan2(sum(x_aff[i] * e2[i] for i in range(4)), xdot)
    alpha_y = math.atan2(ydot2, ydot1) % (2 * math.pi)
    alpha_x = alpha_x % (2 * math.pi)
    # pole at angle 0, antipode at pi; the arc between the endpoints that
    # avoids the pole is the plain interval [min, max]
    lo, hi = min(alpha_x, alpha_y), max(alpha_x, alpha_y)
    if min(lo, 2 * math.pi - hi) < 1e-7 or abs(hi - lo) < 1e-7:
        raise GenericityError("chord endpoint too close to the projection pole")
    eps = -1 if (lo < math.pi < hi) else 1
    if abs(lo - math.pi) < 1e-9 or abs(hi - math.pi) < 1e-9:
        raise GenericityError("antipodal lift sits on the chord arc")

    def circle_dir(alpha):
        return [r * (-math.sin(alpha) * ph[i] + math.cos(alpha) * e2[i]) for i in range(4)]

    u_x = circle_dir(alpha_x)
    if alpha_y < alpha_x:
        u_x = [-c for c in u_x]
    u_y = circle_dir(alpha_y)
    if alpha_x < alpha_y:
        u_y = [-c for c in u_y]
    _, dst_x = stereographic(_aff_point(x_aff), center.lift0, q)
    _, dst_y = stereographic(_aff_point(y_aff), center.lift0, q)
    sX, sY = dst_x(X), dst_y(Y)
    s_at_x = orientation_sign([dst_x(u_x), [eps * c for c in sY], sX])
    s_at_y = orientation_sign([dst_y(u_y), [eps * c for c in sX], sY])
    if s_at_x != s_at_y:
        raise GenericityError("sphere pair sign disagrees between the two endpoints")
    return SPHERE_PAIR_SIGN * s_at_x


def _aff_point(vec4):
    return ProjPoint([1.0 + 0j] + [complex(v) for v in vec4], "P4")


def solitary_writhe(comp, zp: ParamPoint, center: ProjectionCenter, forms=None):
    """Solitary recipe at the real image point s of the conjugate branch
    pair: sign of (u, w, f, i f) against the complex orientation of CH,
    with (u, w, v) a positive RP3 frame and v induced by the half plane
    holding the branch point."""
    forms = forms or p3_forms(comp.coords)
    x = [complex(f.eval(zp.s, zp.t)) for f in forms]
    dx = _param_derivative(forms, zp)
    cvec = center.point.normalized().as_complex()
    return branch_frame_sign(x, dx, cvec, center.hyperplane)


def branch_frame_sign(x, dx, cvec, m):
    """Local writhe of one complex branch over a real image point: the
    branch through x with tangent dx, projected from the center to the
    hyperplane {y_m = 0}.  Everything downstream of the curve model runs
    through here, including the range-family driver."""
    if abs(cvec[m]) < 1e-9:
        raise GenericityError("projection center lies on the chosen hyperplane")
    # projection to H along the center: N = x - (x_m / c_m) c
    N = _project_to_h(x, cvec, m)
    dN = _project_to_h(dx, cvec, m)
    s_pt = ProjPoint(N)
    if not s_pt.is_real(REALNESS_TOL):
        raise GenericityError("solitary image point failed the realness test")
    sv = s_pt.real_vector()
    # chart for the sign evaluation: s must be visible (the center may sit
    # at the chart's infinity; the line keeps a well-defined direction)
    k, margin = None, -1.0
    sn = [abs(v) / max(abs(t) for t in sv) for v in sv]
    for j in range(4):
        if j == m:
            continue
        if sn[j] > margin:
            margin, k = sn[j], j
    if margin < 1e-9:
        raise GenericityError("no usable affine chart for the solitary sign")
    line = LineParam(ProjPoint(cvec), ProjPoint(sv), chart=k)
    tau = line.tau_of(ProjPoint(x))
    if abs(tau.imag) < 1e-9 * (1 + abs(tau)):
        raise GenericityError("solitary branch parameter is real (tangency)")
    v = line.real_direction()
    v = [c.real for c in v]
    if tau.imag < 0:
        v = [-c for c in v]
    # chart coordinate slots (chart coords = indices != k in order)
    idx = [j for j in range(4) if j != k]
    h_slots = [i for i, j in enumerate(idx) if j != m]
    u3 = [0.0, 0.0, 0.0]
    w3 = [0.0, 0.0, 0.0]
    u3[h_slots[0]] = 1.0
    w3[h_slots[1]] = 1.0
    if orientation_sign([u3, w3, v], chart_parity(k)) < 0:
        w3 = [-c for c in w3]
    # branch tangent f of the projected curve in the chart, restricted to H
    fk = (lambda j: (dN[j] * N[k] - N[j] * dN[k]) / (N[k] * N[k]))
    f2 = [fk(idx[h_slots[0]]), fk(idx[h_slots[1]])]
    u2 = [u3[h_slots[0]], u3[h_slots[1]]]
    w2 = [w3[h_slots[0]], w3[h_slots[1]]]
    sign = complex_frame_sign([u2, w2], [f2])
    return SOLITARY_SIGN * sign


def _param_derivative(forms, zp: ParamPoint):
    """d/dz of the homogeneous coordinates in the parameter chart holding
    zp (local coordinate of the smaller pair entry)."""
    if abs(zp.t) <= abs(zp.s):
        z = zp.t / zp.s
        return [f.chart_t().derivative()(z) for f in forms]
    z = zp.s / zp.t
    return [f.chart_s().derivative()(z) for f in forms]

# ---------------------------------------------------------------------------
# full projection pipeline
# ---------------------------------------------------------------------------


def _expected_same(d):
    return (d - 1) * (d - 2)


def _classify_pairs(solutions, same_component):
    """(real pairs, solitary pairs, complex pair count); raises on
    ambiguous mixed classifications."""
    real_pairs, solitary, complex_count = [], [], 0
    for s in solutions:
        zr, wr = s.z.real, s.w.real
        if zr and wr:
            real_pairs.append(s)
        elif not zr and not wr and s.conjugate:
            solitary.append(s)
        elif not zr and not wr:
            complex_count += 1
        else:
            raise GenericityError(
                "chord solution mixes a real and a non-real preimage "
                "(triple point or uncertified classification)"
            )
    return real_pairs, solitary, complex_count


def _project_to_h(xvec, cvec, m):
    lam = xvec[m] / cvec[m]
    return [xvec[j] - lam * cvec[j] for j in range(4)]


def project_curve(curve: CurveModel, center: ProjectionCenter, seed=0, mode=None,
                  tol=1e-12) -> ProjectionData:
    """Solve every chord system for the given center, classify, evaluate
    writhes, and assemble the genericity certificate.  Raises
    GenericityError whenever any margin fails."""
    comps = curve.components
    q = curve.quadric()
    if mode is None:
        mode = "diagram" if curve.is_real() else "shade"
    cert = GenericityCertificate()
    margins = cert.margins
    cvec = center.point.normalized().as_complex()

    for i, comp in enumerate(comps):
        if not _center_off_component(center.point, p3_forms(comp.coords)):
            raise GenericityError(f"center lies on the projected component {i}")
    cert.center_off_curve = True

    raw = []  # (comp_i, comp_j, unordered solutions, same_component)
    complex_pairs = 0
    min_jac = float("inf")
    if mode == "diagram":
        for i, comp in enumerate(comps):
            minors = collinearity_system(
                center.point.normalized().coords, comp.coords, comp.coords
            )
            res = solve_minor_system(
                minors, seed=seed + 101 * i, w_mode="swap",
                expected=_expected_same(comp.degree), context=f"chords[{i},{i}]",
                target_radius=tol,
            )
            min_jac = min(min_jac, res.min_jac_margin)
            raw.append((i, i, canonical_unordered(res.solutions), True))
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                minors = collinearity_system(
                    center.point.normalized().coords, comps[i].coords, comps[j].coords
                )
                res = solve_minor_system(
                    minors, seed=seed + 101 * i + 31 * j, w_mode="solve",
                    expected=comps[i].degree * comps[j].degree,
                    context=f"chords[{i},{j}]", target_radius=tol,
                )
                min_jac = min(min_jac, res.min_jac_margin)
                raw.append((i, j, res.solutions, False))
    else:
        for i, comp in enumerate(comps):
            minors = collinearity_system(
                center.point.normalized().coords, comp.coords, comp.conj_coords
            )
            res = solve_minor_system(
                minors, seed=seed + 101 * i, w_mode="conj",
                expected=comp.degree * comp.degree, context=f"shade[{i}]",
                target_radius=tol,
            )
            min_jac = min(min_jac, res.min_jac_margin)
            raw.append((i, i, res.solutions, True))
    margins["chord_jacobian"] = min_jac if min_jac < float("inf") else 1.0
    cert.all_chords_simple = min_jac >= 1e-6 or min_jac == float("inf")
    if not cert.all_chords_simple:
        raise GenericityError(f"chord Jacobian margin {min_jac:.2e} below 1e-6")

    # classify
    entries = []  # (kind, i, j, z, w, same)
    tangent_margin = float("inf")
    for i, j, sols, same in raw:
        if mode == "shade":
            for s in sols:
                if s.conjugate:
                    entries.append(("solitary", i, j, s.z, s.w, True))
                else:
                    complex_pairs += 1
            continue
        if same:
            real_pairs, solitary, cc = _classify_pairs(sols, True)
            complex_pairs += cc // 2
            for s in sols:
                tangent_margin = min(tangent_margin, s.z.dist(s.w))
            for s in real_pairs:
                entries.append(("real-real", i, j, s.z, s.w, True))
            for s in solitary:
                entries.append(("solitary", i, j, s.z, s.w, True))
        else:
            real_pairs, solitary, cc = _classify_pairs(sols, False)
            complex_pairs += cc
            for s in real_pairs:
                entries.append(("real-real", i, j, s.z, s.w, False))
            for s in solitary:
                entries.append(("solitary", i, j, s.z, s.w, False))
    margins["tangent_chord"] = tangent_margin if tangent_margin < float("inf") else 1.0
    cert.no_tangent_chords = margins["tangent_chord"] >= 1e-6
    if not cert.no_tangent_chords:
        raise GenericityError("tangent chord detected (z = w within margin)")

    # hyperplane selection: seam margins over candidate H indices
    hyperplane_order = sorted(
        [m for m in range(4) if abs(cvec[m]) > 1e-9],
        key=lambda m: -abs(cvec[m]),
    )
    chosen = None
    for m in hyperplane_order:
        images = []
        ok = True
        for kind, i, j, zp, wp, same in entries:
            forms = p3_forms(comps[i].coords)
            x = [complex(f.eval(zp.s, zp.t)) for f in forms]
            svec = _project_to_h(x, cvec, m)
            spt = ProjPoint(svec)
            if kind == "solitary" and not spt.is_real(REALNESS_TOL):
                ok = False
                break
            images.append(spt.normalized().as_complex())
        if not ok:
            continue
        if images:
            seam = min(
                max(abs(v[kk]) for kk in range(4) if kk != m) for v in images
            )
        else:
            seam = 1.0
        if seam < SEAM_TOL:
            continue
        # triple-point separation in this hyperplane: on the sphere,
        # antipodally related chords of one great circle share a P3 image
        # legitimately (their signs are intrinsic), so only solitary
        # images need separating there; in P3 every image must be simple
        sep = 1.0
        for a in range(len(images)):
            for b in range(a + 1, len(images)):
                if q is not None and entries[a][0] == "real-real" and entries[b][0] == "real-real":
                    continue
                d = max(
                    abs(images[a][p] * images[b][r] - images[a][r] * images[b][p])
                    for p in range(4)
                    for r in range(4)
                )
                sep = min(sep, d)
        if sep < 1e-6:
            continue
        chosen = (m, seam, sep, images)
        break
    if chosen is None:
        raise GenericityError("no coordinate hyperplane avoids seams and triple points")
    m, seam, sep, images = chosen
    center.hyperplane = m
    margins["chart_seam"] = seam
    margins["triple_point_separation"] = sep
    cert.no_crossing_at_chart_seam = True
    cert.no_triple_points = True

    # writhes
    crossings = []
    for (kind, i, j, zp, wp, same), img in zip(entries, images):
        image_pt = ProjPoint(img)
        if kind == "real-real":
            if q is not None:
                wr = sphere_real_pair_sign(comps[i], comps[j], zp, wp, center, q)
            else:
                wr = real_crossing_writhe(comps[i], comps[j], zp, wp, center.point)
        else:
            wr = solitary_writhe(comps[i], zp, center)
        crossings.append(
            Crossing(
                kind, i, j, zp, wp, image_pt, wr, same,
                radius=max(zp.radius, wp.radius),
            )
        )
    crossings.sort(key=lambda c: (c.kind, c.comp_i, c.comp_j, c.z.root))
    return ProjectionData(center, cert, crossings, complex_pairs, mode)


def select_center(curve: CurveModel, seed=0, mode=None, forced_center=None,
                  max_attempts=MAX_CENTER_ATTEMPTS, tol=1e-12):
    """Draw seeded rational candidate centers and accept the first whose
    projection certifies; deterministic given the seed.

    Returns the full ProjectionData of the accepted center.
    """
    rng = random.Random(seed)
    failures = []
    if forced_center is not None:
        data = project_curve(curve, forced_center, seed=seed, mode=mode, tol=tol)
        data.center.seed = seed
        return data
    for attempt in range(max_attempts):
        try:
            center = draw_center(curve, rng)
        except GenericityError as e:
            failures.append(str(e))
            continue
        center.seed = seed
        center.attempt = attempt
        try:
            return project_curve(curve, center, seed=seed, mode=mode, tol=tol)
        except GenericityError as e:
            failures.append(f"attempt {attempt}: {e}")
    raise GenericityError(
        f"no generic center found in {max_attempts} attempts", attempts=failures
    )


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _rot3(a, b, c):
    """Deterministic orthonormal 3x3 matrix seeded by three integers."""
    rows = [[1.0 + a, 2.0 + b, 3.0 + c], [4.0 + c, 5.0 + a, 6.0 + b], [7.0 + b, 8.0 + c, 9.0 + a]]
    out = []
    for r in rows:
        v = list(r)
        for u in out:
            d = sum(x * y for x, y in zip(v, u))
            v = [x - d * y for x, y in zip(v, u)]
        n = math.sqrt(sum(x * x for x in v))
        out.append([x / n for x in v])
    return out


def render_diagram_svg(curve: CurveModel, data: ProjectionData, samples=720) -> str:
    """Projected real locus as polylines in the H chart, real crossings
    marked with their signs, solitary points as dots; deterministic."""
    m = data.center.hyperplane
    cvec = data.center.point.normalized().as_complex()
    idx = [j for j in range(4) if j != m]

    # fixed generic rotations of the H coordinates: one affine chart must
    # show every crossing mark on its strand, and coordinate charts of
    # RP2 always lose a line, so rotate first and dehomogenize at slot 0
    rotations = [_rot3(7, 3, 1), _rot3(2, 9, 5), _rot3(4, 1, 8)]

    def h_coords(point_vals, rot):
        h = _project_to_h(point_vals, cvec, m)
        v = [h[j].real for j in idx]
        return [sum(rot[r][o] * v[o] for o in range(3)) for r in range(3)]

    probe_pts = [[complex(c) for c in cr.image.normalized().as_complex()]
                 for cr in data.crossings]
    rot = rotations[0]
    for cand in rotations:
        vis = [h_coords(p, cand) for p in probe_pts]
        if all(abs(v[0]) >= 1e-3 * (max(map(abs, v)) or 1.0) for v in vis):
            rot = cand
            break
    probe = [h_coords(p, rot) for p in probe_pts]
    kh = 0

    paths = []
    pts2d = []
    for comp in curve.components:
        if not comp.is_real():
            continue
        forms = p3_forms(comp.coords)
        run = []
        runs = []
        for kk in range(samples + 1):
            a = math.pi * kk / samples
            s, t = math.cos(a), math.sin(a)
            x = [complex(f.eval(complex(s), complex(t))) for f in forms]
            vals = h_coords(x, rot)
            scale = max(map(abs, vals)) or 1.0
            den = vals[kh]
            if abs(den) < 1e-7 * scale:
                if len(run) > 1:
                    runs.append(run)
                run = []
                continue
            p2 = [vals[r] / den for r in range(3) if r != kh]
            if run and (abs(p2[0] - run[-1][0]) + abs(p2[1] - run[-1][1]) > 10.0):
                runs.append(run)
                run = []
            run.append(p2)
            pts2d.append(p2)
        if len(run) > 1:
            runs.append(run)
        paths.append(runs)
    marks = []
    for c, vals in zip(data.crossings, probe):
        den = vals[kh]
        if abs(den) < 1e-9 * (max(map(abs, vals)) or 1.0):
            continue
        p2 = [vals[r] / den for r in range(3) if r != kh]
        marks.append((c.kind, c.writhe, p2))
        pts2d.append(p2)
    if not pts2d:
        pts2d = [[0.0, 0.0]]
    # frame the view on the marks and the bulk of the strands; strand
    # tails running off toward the chart's vanishing line are clipped by
    # the viewBox instead of inflating it
    if marks:
        mx = [p[0] for _, _, p in marks]
        my = [p[1] for _, _, p in marks]
        cx, cy = (min(mx) + max(mx)) / 2, (min(my) + max(my)) / 2
        span0 = max(max(mx) - min(mx), max(my) - min(my), 1.0)
        keep = [p for p in pts2d if abs(p[0] - cx) < 2.5 * span0 and abs(p[1] - cy) < 2.5 * span0]
    else:
        xs_all = sorted(p[0] for p in pts2d)
        ys_all = sorted(p[1] for p in pts2d)
        lo, hi = len(xs_all) // 20, max(len(xs_all) - 1 - len(xs_all) // 20, 0)
        keep = [
            p for p in pts2d
            if xs_all[lo] - 1 <= p[0] <= xs_all[hi] + 1 and ys_all[lo] - 1 <= p[1] <= ys_all[hi] + 1
        ]
    keep = keep or pts2d
    xs = [p[0] for p in keep]
    ys = [p[1] for p in keep]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0) or 1.0
    pad = 0.08 * span
    sc = 800.0 / (span + 2 * pad)

    def to_px(p):
        return ((p[0] - x0 + pad) * sc, 800.0 - (p[1] - y0 + pad) * sc)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 800 800">',
        '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>',
    ]
    for runs in paths:
        for run in runs:
            if len(run) < 2:
                continue
            d = " ".join(
                f"{'M' if i == 0 else 'L'}{to_px(p)[0]:.2f},{to_px(p)[1]:.2f}"
                for i, p in enumerate(run)
            )
            parts.append(
                f'<path d="{d}" fill="none" stroke="#1a1a1a" stroke-width="1.5"/>'
            )
    for kind, wr, p2 in marks:
        X, Y = to_px(p2)
        if kind == "real-real":
            parts.append(
                f'<circle cx="{X:.2f}" cy="{Y:.2f}" r="6" fill="none" stroke="#c02020" stroke-width="1.2"/>'
            )
            parts.append(
                f'<text x="{X + 8:.2f}" y="{Y - 8:.2f}" font-size="16" fill="#c02020">{"+" if wr > 0 else "-"}</text>'
            )
        else:
            parts.append(
                f'<circle cx="{X:.2f}" cy="{Y:.2f}" r="4" fill="#2040c0"/>'
            )
            parts.append(
                f'<text x="{X + 7:.2f}" y="{Y - 7:.2f}" font-size="16" fill="#2040c0">{"+" if wr > 0 else "-"}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
