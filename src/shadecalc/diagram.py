"""Certified generic projections and the local writhe recipes.

A projection of a curve from a real center c produces three kinds of
chord data: real-real crossings (two real preimages), solitary crossings
(conjugate non-real preimages over a real image point), and non-real
chord pairs that contribute nothing.  Signs:

* P3 real crossings: the sign of
  det[f(z), sigma_z f'(z), f(w), sigma_w f'(w)] over the homogeneous
  curve values and their derivatives at the two endpoints, where
  sigma = +1 in parameter chart t and -1 in chart s orients the real
  parameter circle (`_oriented_jet`).  Rescaling the two real points by
  lambda and mu (their velocities pick up only multiples of the points)
  multiplies the determinant by lambda^2 mu^2 > 0, so no chart is
  chosen; in the chart [1, a] it is the frame (v, b - a, w) of the two
  tangents and the chord (see projective).  Swapping the endpoints is
  an even permutation of the columns.
* Sphere (Q3) real crossings: the sign of
  det[q, f(z), sigma_z f'(z), f(w), sigma_w f'(w)] over the five sphere
  coordinates, q the antipode of the center's lift in the chart x0 = 1
  (`ProjectionCenter.antipode`), the point the diagram projects
  radially from.  The rescaling and endpoint-swap arguments above carry
  over unchanged, so neither a chart nor a choice of endpoint enters.
* Solitary crossings: the sign of det[Re x, Im x, Re dx, Im dx] at the
  non-real branch point x with tangent dx, which is -1/4 of
  det[x, conj x, dx, conj dx]: the orientation of the two conjugate
  branches through the real image point (Viro's encomplexed writhe).
  A complex rescaling x -> kappa x acts on each (Re, Im) column pair by
  a 2x2 block of determinant |kappa|^2, so the determinant scales by
  |kappa|^4, and a multiple of x added to dx drops out; neither the
  chart nor the projection center enters the sign.

The residual global signs of the recipes are pinned by the trefoil
calibration (wr part +3, sh part +1) and validated against the Gauss
linking oracle; see SPHERE_PAIR_SIGN / SOLITARY_SIGN / P3_REAL_SIGN.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .chords import (canonical_unordered, coincidence_system, collinearity_system, double_points,
                     secants, solve_minor_system)
from .curves import CurveModel, ParamPoint, p3_forms
from .errors import DoublePointError, GenericityError, InstabilityError, PreconditionError
from .poly import BinaryForm, form_gcd
from .projective import ProjPoint, QuadricSpec, is_real_vector, normalize, orientation_sign
from .roots import DEFAULT_TARGET_RADIUS
from .scalars import QQ, surd_parts

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

MAX_CENTER_ATTEMPTS = 50
SVG_SAMPLES = 720  # parameter samples per real component in render_diagram_svg


@dataclass
class ProjectionCenter:
    """A rational projection center and what the diagram derives from it:
    its normalized coordinates, the diagram hyperplane and, for a sphere
    curve, the antipode of its lift."""

    point: ProjPoint  # rational center in RP3 (for Q3: the image of the lifts)
    lift0: ProjPoint | None = None  # Q3: the lift whose antipode orients real pairs
    seed: int = 0
    attempt: int = 0

    @cached_property
    def coords(self):
        """The center's normalized rational coordinates, computed once."""
        return self.point.normalized().coords

    @cached_property
    def hyperplane(self):
        """The index m of the diagram hyperplane H = {y_m = 0}: the first
        index of largest |c_m|, where the normalized coordinate is exactly
        1.  Projecting from c onto H then gives y_m = 0 exactly, and the
        normalized image keeps an entry 1 away from the seam y_m = 0."""
        return self.coords.index(1)

    @cached_property
    def cvec(self):
        """The center as a normalized complex vector, for the float recipes."""
        return [complex(c) for c in self.coords]

    @cached_property
    def antipode(self):
        """The antipode (1, -x1/x0, ..., -x4/x0) of lift0 (Q3 centers) as a
        float vector.  Each ratio xi/x0 = p + q sqrt(n) is formed exactly
        and rounded once; x0 != 0 on the real quadric."""
        A, B, n = surd_parts(self.lift0.coords)
        a0, b0 = A[0], B[0]
        den = a0 * a0 - n * b0 * b0
        q = [1.0]
        for ai, bi in zip(A[1:], B[1:]):
            p, r = (ai * a0 - n * bi * b0) / den, (bi * a0 - ai * b0) / den
            q.append(-(float(p) + float(r) * math.sqrt(n) if r else float(p)))
        return q

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


# every check of project_curve raises when it fails, so a returned
# certificate has passed them all; no_crossing_at_chart_seam holds by the
# choice of ProjectionCenter.hyperplane
CERTIFIED_FLAGS = ("center_off_curve", "all_chords_simple", "no_triple_points",
                   "no_tangent_chords", "no_crossing_at_chart_seam")


@dataclass
class GenericityCertificate:
    margins: dict = field(default_factory=dict)

    def describe(self):
        return {
            "flags": dict.fromkeys(CERTIFIED_FLAGS, True),
            "margins": {k: float(f"{v:.6e}") for k, v in self.margins.items()},
        }


@dataclass
class Crossing:
    kind: str  # "real-real" | "solitary"
    comp_i: int
    comp_j: int
    z: ParamPoint
    w: ParamPoint
    image: list  # diagram point in H, a normalized complex vector
    writhe: int = 0

    @property
    def same_component(self) -> bool:
        return self.comp_i == self.comp_j

    def describe(self):
        return {
            "kind": self.kind,
            "components": [self.comp_i, self.comp_j],
            "same_component": self.same_component,
            "z": _fmt_param(self.z),
            "w": _fmt_param(self.w),
            "image": [_fmt_c(c) for c in normalize(self.image)],
            "writhe": self.writhe,
        }


def _fmt_c(c):
    """An entry of a normalized vector (|c| <= 1) to 1e-12 absolute, so
    a round-off zero prints as 0.0; adding 0.0 turns -0.0 into 0.0."""
    c = complex(c)
    return [float(f"{c.real:.12f}") + 0.0, float(f"{c.imag:.12f}") + 0.0]


def _fmt_param(p: ParamPoint):
    """The affine parameter t/s to 12 significant digits.  Round-off must
    not show here either: a point within 1e-12 of infinity (s <= 1e-12
    on the normalized pair) prints as "inf", and a part below 1e-12 of
    max(1, |t/s|) as 0.0."""
    if abs(p.s) <= 1e-12:
        return "inf"
    a = p.t / p.s
    eps = 1e-12 * max(1.0, abs(a))
    return [float(f"{x:.12g}") + 0.0 if abs(x) > eps else 0.0 for x in (a.real, a.imag)]


@dataclass
class ProjectionData:
    center: ProjectionCenter
    certificate: GenericityCertificate
    crossings: list  # real-real and solitary, with writhes
    complex_pairs: int  # non-contributing chord pairs (unordered count)


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
        return ProjPoint(pt)
    raise GenericityError("could not draw a rational quadric point")


def draw_center(curve: CurveModel, rng) -> ProjectionCenter:
    """A seeded rational center; for a sphere curve, the image in RP3
    (project from [1,0,0,0,0], drop x0) of a rational quadric point."""
    q = curve.quadric()
    if q is None:
        return ProjectionCenter(ProjPoint([1] + [_rand_fraction(rng) for _ in range(3)]))
    lift0 = rational_quadric_point(q, rng)
    return ProjectionCenter(ProjPoint(lift0.coords[1:]), lift0=lift0)


def center_from_lift(lift: ProjPoint, q: QuadricSpec) -> ProjectionCenter:
    """Projection data from an explicit quadric lift x = A + sqrt(n) B
    (A, B rational, n not a square; e.g. the trefoil's sqrt(2) center).

    With Q(x) = -c x0^2 + sum xi^2 and its bilinear form Q(A, B), x is on
    the quadric iff Q(A) + n Q(B) = 0 and Q(A, B) = 0, and its image
    [x1 : ... : x4] in RP3 is rational iff A[1:] and B[1:] are linearly
    dependent; the image is then scaled to 1 at its first nonzero entry.
    Raises ValueError when the lift mixes radicands."""
    A, B, n = surd_parts(lift.coords)

    def form(x, y):
        return -q.c * x[0] * y[0] + sum(a * b for a, b in zip(x[1:], y[1:]))

    if form(A, A) + n * form(B, B) or form(A, B):
        raise PreconditionError("explicit center lift is not on the quadric")
    if any(A[i] * B[j] != A[j] * B[i] for i, j in combinations(range(1, 5), 2)):
        raise PreconditionError(
            "explicit center lift must project to a rational point of RP3"
        )
    v = B[1:] if any(B[1:]) else A[1:]
    pivot = next(x for x in v if x)
    return ProjectionCenter(ProjPoint([x / pivot for x in v]), lift0=lift)


# ---------------------------------------------------------------------------
# projected forms and center checks
# ---------------------------------------------------------------------------


def _center_off_component(c, forms) -> bool:
    """Exact check that the projected curve never passes through the
    center c: the 2x2 minors of [c | psi(z)] must have constant gcd.  With
    c_m != 0, c_m (c_a x_b - c_b x_a) is a combination of the three minors
    against column m, so they generate the same ideal and have the same gcd.
    Scaling c and each minor by a nonzero rational leaves the gcd alone, so
    the minors c_m x_j - c_j x_m are built on the integer tables, times the
    two forms' denominators and c's common one."""
    scale = math.lcm(*(x.denominator for x in c))
    c = [x.numerator * (scale // x.denominator) for x in c]
    m = next(k for k, x in enumerate(c) if x)
    xm = forms[m]
    minors = []
    for j, f in enumerate(forms):
        if j != m:
            u, v = c[m] * xm.den, c[j] * f.den
            minors.append(BinaryForm._from_ints(f.degree, 1, [
                (u * a - v * b, u * ai - v * bi) for (a, ai), (b, bi) in zip(f.num, xm.num)]))
    live = [f for f in minors if not f.is_zero()]
    if not live:
        return False
    return form_gcd(live).degree == 0


# ---------------------------------------------------------------------------
# writhe recipes
# ---------------------------------------------------------------------------


def _oriented_jet(p: ParamPoint, jet):
    """The real point f(p) and its velocity sigma f'(p) as two real float
    columns, from the component's jet at the real parameter p: sigma = +1
    in parameter chart t and -1 in chart s, so the velocity is
    (s f_t - t f_s) / (1 + x^2) plus a multiple of f (Euler's identity),
    the orientation of the parameter circle (s, t) = (cos a, sin a)."""
    vals, dvals = jet
    sigma = 1 if p.local()[0] else -1
    return [[v.real for v in vals], [sigma * d.real for d in dvals]]


def real_crossing_writhe(zp, wp, jz, jw):
    """P3 recipe: the sign of det[f(z), sigma_z f'(z), f(w), sigma_w f'(w)]
    from the components' jets jz, jw at the real parameters zp, wp, with
    sigma as in `_oriented_jet`."""
    return P3_REAL_SIGN * orientation_sign(_oriented_jet(zp, jz) + _oriented_jet(wp, jw))


def sphere_real_pair_sign(zp, wp, jz, jw, center: ProjectionCenter):
    """Q3 recipe: the sign of
    det[q, f(z), sigma_z f'(z), f(w), sigma_w f'(w)] over the five sphere
    coordinates, with q the center's `antipode` and the other columns as
    in `real_crossing_writhe`."""
    return SPHERE_PAIR_SIGN * orientation_sign(
        [center.antipode] + _oriented_jet(zp, jz) + _oriented_jet(wp, jw))


def solitary_writhe(jet):
    """Solitary recipe at one branch point of a conjugate pair; jet is
    the component's jet there."""
    x, dx = (p3_forms(v) for v in jet)
    return branch_frame_sign(x, dx)


def branch_frame_sign(x, dx):
    """Local writhe of one complex branch over a real image point: the
    sign of det[Re x, Im x, Re dx, Im dx] for the branch through the
    non-real point x of P3 with tangent dx.  Every solitary crossing of a
    curve model is signed here."""
    if is_real_vector(x):
        raise GenericityError("solitary branch point is real (tangency)")
    cols = [[c.real for c in x], [c.imag for c in x], [c.real for c in dx], [c.imag for c in dx]]
    return SOLITARY_SIGN * orientation_sign(cols)


# ---------------------------------------------------------------------------
# full projection pipeline
# ---------------------------------------------------------------------------


def _expected_same(d):
    return (d - 1) * (d - 2)


def _chord_systems(comps, shade):
    """(i, j, w_mode, expected count, seed offset, context) of every chord
    system a projection solves: each component against itself and every
    pair of components (a real curve), or each against its conjugate (a
    curve without real points, whose crossings are its shade points)."""
    if shade:
        return [(i, i, "conj", c.degree * c.degree, 101 * i, f"shade[{i}]")
                for i, c in enumerate(comps)]
    same = [(i, i, "swap", _expected_same(c.degree), 101 * i, f"chords[{i},{i}]")
            for i, c in enumerate(comps)]
    return same + [(i, j, "solve", comps[i].degree * comps[j].degree, 101 * i + 31 * j,
                    f"chords[{i},{j}]") for i, j in combinations(range(len(comps)), 2)]


def _project_to_h(xvec, cvec, m):
    lam = xvec[m] / cvec[m]
    return [xvec[j] - lam * cvec[j] for j in range(4)]


def _deck_double_points(curve: CurveModel):
    """Kinds of the double points that P3-image records hid.  Immersed
    components are birational, so a loss beyond the diagonal is a shared
    image curve (PreconditionError) unless it is a sphere curve's deck
    graph x(z) = lambda deck y(w) (x0 -> -x0).  Its double points are the
    roots of x0, none real (c > 0): one each across components, paired on
    one component less the two fixed points of the involution."""
    comps, kinds = curve.components, []
    for i in range(len(comps)):
        for j in range(i, len(comps)):
            if secants(curve, i, j, p3=True).diagonal_only:
                continue
            if curve.quadric() is None or (
                    i != j and not secants(curve, i, j, p3=False).diagonal_only):
                raise PreconditionError(f"components {i} and {j} share a curve of double "
                                        "points; invariants need a smooth embedding")
            x0 = comps[i].coords[0]
            roots = x0.degree - form_gcd([x0, *x0.partials()]).degree
            kinds += ["complex"] * (roots if i != j else (roots - 2) // 2)
    return kinds


def project_curve(curve: CurveModel, center: ProjectionCenter, seed=0,
                  tol=DEFAULT_TARGET_RADIUS, smoothness=False) -> ProjectionData:
    """Solve every chord system for the given center, classify, evaluate
    writhes, and assemble the genericity certificate.  Raises
    GenericityError whenever any margin fails.  The crossings are imaged
    in the center's one diagram hyperplane (ProjectionCenter.hyperplane);
    the center itself is left as it was passed.

    With `smoothness`, for a curve with no double point on the deck graphs
    that saturation removed (`_deck_double_points`), the chord solutions
    also answer the smoothness question: a double point zeroes every
    saturated P3-image form, hence every collinearity minor, so at a
    center where it is a simple solution it is among the chord solutions.
    A P3 curve keeps every solution that zeroes those forms; a sphere
    curve those that also zero the raw forms of its five coordinates,
    since its P3 image also identifies antipodal pairs.  Any found raise
    DoublePointError before anything is classified or signed."""
    comps = curve.components
    q = curve.quadric()
    shade = not curve.is_real()  # chords against the conjugate only
    cert = GenericityCertificate()
    margins = cert.margins
    cvec, c = center.cvec, center.coords

    for i, comp in enumerate(comps):
        if not _center_off_component(c, p3_forms(comp.coords)):
            raise GenericityError(f"center lies on the projected component {i}")

    raw = []  # (comp_i, comp_j, unordered solutions)
    for i, j, w_mode, expected, offset, context in _chord_systems(comps, shade):
        sec = secants(curve, i, "conj" if w_mode == "conj" else j, p3=True)
        sols = solve_minor_system(
            replace(sec, minors=collinearity_system(c, sec.minors)), seed=seed + offset,
            w_mode=w_mode, expected=expected, context=context, target_radius=tol, center=c,
        )
        raw.append((i, j, canonical_unordered(sols) if w_mode == "swap" else sols))
    if smoothness:
        kinds = []
        for i, j, sols in raw:
            found = double_points(secants(curve, i, j, p3=True).minors, sols)
            if q is not None and found:  # set antipodal pairs, x(z) = deck y(w), apart
                found = double_points(coincidence_system(comps[i].coords, comps[j].coords), found)
            kinds += [s.double_point_kind for s in found]
        if kinds:
            raise DoublePointError(kinds)
    # solve_minor_system rejects every margin below JAC_MARGIN
    margins["chord_jacobian"] = min((s.jac_margin for *_, sols in raw for s in sols), default=1.0)

    # classify: real-real (real curves only), solitary (conjugate
    # preimages) or a non-contributing complex pair
    entries = []  # (kind, i, j, z, w)
    complex_pairs = 0
    tangent_margin = float("inf")
    for i, j, sols in raw:
        n_complex = 0
        for s in sols:
            if shade or not (s.z.real or s.w.real):
                kind = "solitary" if s.conjugate else None
            elif s.z.real and s.w.real:
                kind = "real-real"
            else:
                raise GenericityError(
                    "chord solution mixes a real and a non-real preimage "
                    "(triple point or uncertified classification)"
                )
            if kind is None:
                n_complex += 1
            else:
                entries.append((kind, i, j, s.z, s.w))
            if i == j and not shade:
                tangent_margin = min(tangent_margin, s.z.dist(s.w))
        if not shade and n_complex % 2:
            # conjugation pairs up the non-contributing solutions of a
            # real curve's system, so an odd count is a misclassification
            raise InstabilityError(
                f"chords[{i},{j}]: {n_complex} non-contributing chord solutions, "
                "an odd count (conjugation pairs them)"
            )
        complex_pairs += n_complex if shade else n_complex // 2
    margins["tangent_chord"] = tangent_margin if tangent_margin < float("inf") else 1.0
    if not margins["tangent_chord"] >= 1e-6:
        raise GenericityError("tangent chord detected (z = w within margin)")

    # diagram images in H = {y_m = 0}, m = center.hyperplane
    m = center.hyperplane
    jets = [comps[i].jet(zp) for _, i, _, zp, _ in entries]
    images = [normalize(_project_to_h(p3_forms(x), cvec, m)) for x, _ in jets]
    if any(e[0] == "solitary" and not is_real_vector(v) for e, v in zip(entries, images)):
        raise GenericityError("solitary crossing has a non-real diagram image")
    # triple-point separation: on the sphere, antipodally related chords
    # of one great circle share a P3 image legitimately (their signs are
    # intrinsic), so only solitary images need separating there; in P3
    # every image must be simple
    sep = 1.0
    for a, b in combinations(range(len(images)), 2):
        if q is not None and entries[a][0] == "real-real" and entries[b][0] == "real-real":
            continue
        sep = min(sep, max(abs(images[a][p] * images[b][r] - images[a][r] * images[b][p])
                           for p in range(4) for r in range(4)))
    if sep < 1e-6:
        raise GenericityError(f"two crossings share a diagram point (separation {sep:.2e})")
    # y_m = 0 exactly and normalize scales the largest entry to 1, so every
    # image stays at distance 1 from the seam; kept for the report's bytes
    margins["chart_seam"] = 1.0
    margins["triple_point_separation"] = sep

    # writhes
    crossings = []
    for (kind, i, j, zp, wp), jz, img in zip(entries, jets, images):
        if kind == "solitary":
            wr = solitary_writhe(jz)
        elif q is not None:
            wr = sphere_real_pair_sign(zp, wp, jz, comps[j].jet(wp), center)
        else:
            wr = real_crossing_writhe(zp, wp, jz, comps[j].jet(wp))
        crossings.append(Crossing(kind, i, j, zp, wp, img, wr))
    crossings.sort(key=lambda c: (c.kind, c.comp_i, c.comp_j, c.z.root))
    return ProjectionData(center, cert, crossings, complex_pairs)


def select_center(curve: CurveModel, seed=0, forced_center=None,
                  tol=DEFAULT_TARGET_RADIUS, smoothness=False):
    """Draw seeded rational candidate centers and accept the first whose
    projection certifies; deterministic given the seed.  With
    `smoothness`, double points on a deck graph raise DoublePointError
    before any center is drawn or projected; otherwise every attempt's
    chord solutions check smoothness (project_curve).

    Returns the full ProjectionData of the accepted center.
    """
    rng = random.Random(seed)
    failures = []
    if smoothness and (deck := _deck_double_points(curve)):
        raise DoublePointError(deck, where=" on its deck graph")
    if forced_center is not None:
        data = project_curve(curve, forced_center, seed=seed, tol=tol, smoothness=smoothness)
        data.center.seed = seed
        return data
    for attempt in range(MAX_CENTER_ATTEMPTS):
        try:
            center = draw_center(curve, rng)
        except GenericityError as e:
            failures.append(str(e))
            continue
        center.seed = seed
        center.attempt = attempt
        try:
            return project_curve(curve, center, seed=seed, tol=tol, smoothness=smoothness)
        except GenericityError as e:
            failures.append(f"attempt {attempt}: {e}")
    raise GenericityError(
        f"no generic center found in {MAX_CENTER_ATTEMPTS} attempts", attempts=failures
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


def _h_rotated(X, cvec, m, rot):
    """The rotated H coordinates of the points in the rows of X (complex,
    4 columns) as three float arrays: _project_to_h on the columns, then
    each rotated coordinate summed left to right.  The center is real
    with cvec[m] = 1, so numpy's complex quotient and products round
    exactly as Python's do.  No matrix product here: its summation order
    is not fixed."""
    h = _project_to_h(X.T, cvec, m)
    v = [h[j].real for j in range(4) if j != m]
    return [(r[0] * v[0] + r[1] * v[1]) + r[2] * v[2] for r in rot]


def _chart_points(vals, tol):
    """Per row of the rotated coordinates `vals`: whether it lies on the
    seam of the chart at slot 0 (|vals[0]| below tol times the largest
    entry, or all zero), and its two chart coordinates; three arrays."""
    scale = np.maximum(np.maximum(abs(vals[0]), abs(vals[1])), abs(vals[2]))
    scale[scale == 0] = 1.0
    seam = abs(vals[0]) < tol * scale
    den = np.where(seam, 1.0, vals[0])
    return seam, vals[1] / den, vals[2] / den


def _runs(cut, u, v):
    """The runs of one strand's samples in chart coordinates (u, v), as
    (starts, stops) index arrays: maximal stretches of samples off the
    seam (`cut` false) with no jump, |du| + |dv| > 10, between
    neighbours.  A run of one sample draws no path."""
    # brk[i]: no run goes on from sample i - 1 to sample i
    brk = np.ones(len(cut) + 1, dtype=bool)
    brk[1:-1] = cut[:-1] | cut[1:] | (abs(u[1:] - u[:-1]) + abs(v[1:] - v[:-1]) > 10.0)
    return np.flatnonzero(~cut & brk[:-1]), np.flatnonzero(~cut & brk[1:]) + 1


def _framed(x, y, k):
    """Which of the points (x, y), the last k of them crossing marks,
    frame the view.  With marks: those within 2.5 times the marks' span
    of their center, so that strand tails off toward the chart's
    vanishing line are clipped, not framed.  Without: those within 1 of
    the 5th to 95th percentile box.  All points when that leaves none."""
    if k:
        mx, my = x[len(x) - k:], y[len(y) - k:]
        cx, cy = (mx.min() + mx.max()) / 2, (my.min() + my.max()) / 2
        span0 = max(mx.max() - mx.min(), my.max() - my.min(), 1.0)
        keep = (abs(x - cx) < 2.5 * span0) & (abs(y - cy) < 2.5 * span0)
    else:
        xs, ys = np.sort(x), np.sort(y)
        lo, hi = len(xs) // 20, max(len(xs) - 1 - len(xs) // 20, 0)
        keep = (xs[lo] - 1 <= x) & (x <= xs[hi] + 1) & (ys[lo] - 1 <= y) & (y <= ys[hi] + 1)
    return keep if keep.any() else ~keep


# fixed generic rotations of the H coordinates: one affine chart must
# show every crossing mark on its strand, and coordinate charts of RP2
# always lose a line, so rotate first and dehomogenize at slot 0
_ROTATIONS = [_rot3(7, 3, 1), _rot3(2, 9, 5), _rot3(4, 1, 8)]
# the strand samples: (cos, sin) at SVG_SAMPLES + 1 angles over a half turn
_SVG_PAIRS = np.array([(math.cos(a), math.sin(a)) for a in
                       (math.pi * kk / SVG_SAMPLES for kk in range(SVG_SAMPLES + 1))], dtype=complex)


def render_diagram_svg(curve: CurveModel, data: ProjectionData) -> str:
    """Projected real locus as polylines in the H chart, real crossings
    marked with their signs, solitary points as dots; deterministic.

    The strands are drawn in whole-array passes, with the bytes of taking
    their points one by one in Python floats.  Each strand is projected as one
    array through _project_to_h, whose float operations are elementwise,
    and each rotated coordinate is summed left to right.  numpy's float64
    + - * /, abs and comparisons round as Python's floats do; min, max
    and sort only pick values.  The pixel coordinates keep one point's
    order of operations, and "%.2f" % x makes the float-to-string
    conversion of f"{x:.2f}"."""
    m, cvec = data.center.hyperplane, data.center.cvec

    probe_pts = np.array([normalize(cr.image) for cr in data.crossings],
                         dtype=complex).reshape(-1, 4)
    rot = next((r for r in _ROTATIONS
                if not _chart_points(_h_rotated(probe_pts, cvec, m, r), 1e-3)[0].any()),
               _ROTATIONS[0])

    strands, xs, ys = [], [], []
    for comp in curve.components:
        if comp.is_real():
            # the P3 image (p3_forms) of every sample, as one array
            X = comp.values(_SVG_PAIRS)[:, -4:]
            cut, u, v = _chart_points(_h_rotated(X, cvec, m, rot), 1e-7)
            strands.append((u, v, *_runs(cut, u, v)))
            xs.append(u[~cut])
            ys.append(v[~cut])
    cut, mu, mv = _chart_points(_h_rotated(probe_pts, cvec, m, rot), 1e-9)
    marks = [(c.kind, c.writhe) for c, seam in zip(data.crossings, cut) if not seam]
    x, y = np.concatenate(xs + [mu[~cut]]), np.concatenate(ys + [mv[~cut]])
    if not len(x):
        x = y = np.zeros(1)
    keep = _framed(x, y, len(marks))
    x0, x1 = x[keep].min(), x[keep].max()
    y0, y1 = y[keep].min(), y[keep].max()
    span = max(x1 - x0, y1 - y0) or 1.0
    pad = 0.08 * span
    sc = 800.0 / (span + 2 * pad)

    def to_px(u, v):
        return (u - x0 + pad) * sc, 800.0 - (v - y0 + pad) * sc

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 800 800">',
        '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>',
    ]
    for u, v, starts, stops in strands:
        xy = np.column_stack(to_px(u, v))
        for a, b in zip(starts.tolist(), stops.tolist()):
            if b - a > 1:
                d = ("M%.2f,%.2f" + " L%.2f,%.2f" * (b - a - 1)) % tuple(xy[a:b].ravel().tolist())
                parts.append(f'<path d="{d}" fill="none" stroke="#1a1a1a" stroke-width="1.5"/>')
    for (kind, wr), X, Y in zip(marks, *(t.tolist() for t in to_px(mu[~cut], mv[~cut]))):
        if kind == "real-real":
            parts.append(
                f'<circle cx="{X:.2f}" cy="{Y:.2f}" r="6" fill="none" stroke="#c02020" stroke-width="1.2"/>'
            )
            parts.append(
                f'<text x="{X + 8:.2f}" y="{Y - 8:.2f}" font-size="16" fill="#c02020">{"+" if wr > 0 else "-"}</text>'
            )
        else:
            parts.append(f'<circle cx="{X:.2f}" cy="{Y:.2f}" r="4" fill="#2040c0"/>')
            parts.append(
                f'<text x="{X + 7:.2f}" y="{Y - 7:.2f}" font-size="16" fill="#2040c0">{"+" if wr > 0 else "-"}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
