"""Projection, classification and sign-recipe behavior."""

import math

import pytest

from shadecalc.curves import (
    CurveComponent,
    CurveModel,
    ParamPoint,
    hopf_pair_curve,
    kae_curve,
    lp_line_curve,
    p3_forms,
    trefoil_curve,
    unknot_curve,
)
from shadecalc.diagram import (
    ProjectionCenter,
    branch_frame_sign,
    center_from_lift,
    project_curve,
    real_crossing_writhe,
    render_diagram_svg,
    select_center,
    sphere_real_pair_sign,
)
from shadecalc.errors import GenericityError
from shadecalc.invariants import encomplexed_writhe
from shadecalc.poly import BinaryForm
from shadecalc.projective import ProjPoint
from shadecalc.scalars import GaussianRational as G, QQ, Surd

from helpers import conjugate_params


def sqrt2_trefoil_center():
    tr = trefoil_curve()
    lift = ProjPoint([1, 0, Surd(QQ(0), QQ(1), 2), 0, 0])
    return tr, center_from_lift(lift, tr.quadric())


@pytest.fixture(scope="module")
def trefoil_data():
    tr, center = sqrt2_trefoil_center()
    return tr, project_curve(tr, center, seed=11)


class TestSelectCenter:
    def test_deterministic(self):
        u = unknot_curve()
        d1 = select_center(u, seed=5)
        d2 = select_center(u, seed=5)
        assert d1.center.describe() == d2.center.describe()

    def test_center_on_curve_rejected(self):
        # force the center onto the projected curve: the unknot's image
        # passes through curve points; take a point of the projected
        # conic itself as the center
        u = unknot_curve()
        comp = u.components[0]
        pt = ProjPoint([f.eval(G(1), G(2)).re for f in p3_forms(comp.coords)])
        bad = ProjectionCenter(pt)
        with pytest.raises(GenericityError):
            project_curve(u, bad, seed=1)

    def test_center_in_the_plane_of_a_plane_curve_rejected(self):
        # every chord of a plane cubic meets a center in its plane: the
        # one nonzero collinearity minor is a common factor that only this
        # center brings, and it must end in GenericityError, not in a
        # projection without crossings
        coords = [BinaryForm(3, [1, 0, -1, 0]), BinaryForm(3, [0, 1, 1, -1]),
                  BinaryForm(3, [1, 0, 0, 1]), BinaryForm(3, [0, 0, 0, 0])]
        curve = CurveModel("P3", [CurveComponent(coords)])
        pt = ProjPoint([1, QQ(2, 7), QQ(-3, 5), 0])
        with pytest.raises(GenericityError, match="positive-dimensional"):
            project_curve(curve, ProjectionCenter(pt), seed=0)

    def test_project_curve_leaves_the_center_unmodified(self):
        # the diagram hyperplane is the center's first largest coordinate,
        # derived from the center rather than written back by the projection
        center = ProjectionCenter(ProjPoint([1, QQ(1, 3), QQ(-2, 5), 2]), seed=4, attempt=2)
        before = center.describe()
        assert before["hyperplane"] == 3
        project_curve(lp_line_curve(), center, seed=0)
        assert center.describe() == before

    def test_certificate_flags_all_true(self):
        d = select_center(trefoil_curve(), seed=1)
        flags = d.certificate.describe()["flags"]
        assert len(flags) == 5 and all(v is True for v in flags.values())
        assert d.certificate.margins["chord_jacobian"] >= 1e-6

    def test_center_normalized_once(self, monkeypatch):
        # select_center draws, rejects and accepts centers; project_curve
        # reads the one cached normalization per center
        calls = []
        normalized = ProjPoint.normalized

        def spy(self):
            calls.append(self)
            return normalized(self)

        monkeypatch.setattr(ProjPoint, "normalized", spy)
        for curve, seed, attempt in [(kae_curve(QQ(1, 2), -1), 197, 1), (unknot_curve(), 0, 1),
                                     (kae_curve(QQ(1, 2), 1), 3, 0)]:
            calls.clear()
            d = select_center(curve, seed=seed)
            assert d.center.attempt == attempt
            assert len(calls) == attempt + 1
            assert len({id(p) for p in calls}) == len(calls)


class TestTrefoilSqrt2Center:
    def test_crossing_counts(self, trefoil_data):
        _, data = trefoil_data
        rr = [c for c in data.crossings if c.kind == "real-real"]
        so = [c for c in data.crossings if c.kind == "solitary"]
        assert len(rr) == 9 and len(so) == 1
        assert data.complex_pairs == 0

    def test_writhe_structure(self, trefoil_data):
        _, data = trefoil_data
        type1, type2 = [], []
        for c in data.crossings:
            if c.kind != "real-real":
                continue
            d = abs(_angle(c.z) - _angle(c.w)) % 360
            d = min(d, 360 - d)
            (type2 if abs(d - 180) < 1e-5 else type1).append(c.writhe)
        assert sorted(type2) == [1, 1, 1]
        assert sum(type1) == 0 and sorted(type1) == [-1, -1, -1, 1, 1, 1]

    def test_solitary_sign_and_parameters(self, trefoil_data):
        _, data = trefoil_data
        (so,) = [c for c in data.crossings if c.kind == "solitary"]
        assert so.writhe == 1
        assert abs(so.z.affine() + 1j) < 1e-8 or abs(so.z.affine() - 1j) < 1e-8
        assert conjugate_params(so.z, so.w)

    def test_parts(self, trefoil_data):
        _, data = trefoil_data
        wr = sum(c.writhe for c in data.crossings if c.kind == "real-real")
        sh = sum(c.writhe for c in data.crossings if c.kind == "solitary")
        assert (wr, sh) == (3, 1)


def _angle(p):
    if abs(p.s) < 1e-12:
        return 180.0
    return math.degrees(2 * math.atan(p.affine().real)) % 360


class TestRecipeInvariances:
    def test_conjugate_branch_same_sign(self, trefoil_data):
        tr, data = trefoil_data
        from shadecalc.diagram import solitary_writhe

        (so,) = [c for c in data.crossings if c.kind == "solitary"]
        comp = tr.components[0]
        s1 = solitary_writhe(comp.jet(so.z))
        s2 = solitary_writhe(comp.jet(so.w))
        assert s1 == s2 == so.writhe

    def test_branch_tangent_phase_invariance(self):
        # a complex rescaling of the point or of its tangent acts on its
        # (Re, Im) column pair with determinant |kappa|^2 > 0, and a
        # multiple of the point added to the tangent drops out
        x = [1 + 0j, 1.5 + 0j, -3.25 + 0j, 1.75j]
        dx = [0j, -1j * 2.0, 3.0 + 0j, -2.0 - 3.0j]
        base = branch_frame_sign(x, dx)
        for kappa in (-1, 1j, -0.7 + 0.2j, 3.0):
            kx = [kappa * v for v in x]
            kdx = [kappa * v for v in dx]
            assert branch_frame_sign(x, kdx) == base
            assert branch_frame_sign(kx, dx) == base
            assert branch_frame_sign(kx, kdx) == base
            assert branch_frame_sign(x, [d + kappa * v for d, v in zip(dx, x)]) == base
        # the conjugate branch carries the same sign
        assert branch_frame_sign([v.conjugate() for v in x],
                                 [v.conjugate() for v in dx]) == base

    def test_real_branch_point_rejected(self):
        with pytest.raises(GenericityError, match="real"):
            branch_frame_sign([1 + 1j, 2 + 2j, 0j, -1 - 1j], [1j, 0j, 1 + 0j, 2 + 0j])

    def test_orientation_reversal_of_parameter(self):
        # reparameterizing (s, t) -> (s, -t) reverses the real locus;
        # every writhe must survive (Cw is orientation independent)
        curve = kae_curve(QQ(1, 2), -1)
        rcurve = _reversed_model(curve)
        d1 = select_center(curve, seed=3)
        d2 = select_center(rcurve, seed=3)
        w1 = sorted((c.kind, c.writhe) for c in d1.crossings)
        w2 = sorted((c.kind, c.writhe) for c in d2.crossings)
        assert w1 == w2

    def test_sphere_pair_sign_survives_endpoint_swap(self, trefoil_data):
        # swapping the endpoints swaps two column pairs of the
        # determinant, an even permutation
        tr, data = trefoil_data
        comp = tr.components[0]
        rr = [c for c in data.crossings if c.kind == "real-real"]
        assert len(rr) == 9
        for c in rr:
            jz, jw = comp.jet(c.z), comp.jet(c.w)
            assert sphere_real_pair_sign(c.w, c.z, jw, jz, data.center) == c.writhe
            assert sphere_real_pair_sign(c.z, c.w, jz, jw, data.center) == c.writhe

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("curve, changed", [(trefoil_curve(), 6), (hopf_pair_curve(), 2)],
                             ids=["trefoil", "hopf_pair"])
    def test_antipodal_lift_keeps_cw(self, curve, changed, seed):
        # both lifts [x0, x1..x4] and [x0, -x1..-x4] of one RP3 center give
        # the same crossings; the real-pair signs read the lift's antipode,
        # and the ones that flip sum to 0, so Cw does not move
        q = curve.quadric()
        x = select_center(curve, seed=seed).center.lift0.coords
        reps = [encomplexed_writhe(curve, seed=seed,
                                   forced_center=center_from_lift(ProjPoint(lift), q))
                for lift in (x, [x[0]] + [-c for c in x[1:]])]
        assert reps[0].Cw == reps[1].Cw
        crossings = [r.projection.crossings for r in reps]
        ids = [[(c.kind, c.z.root, c.w.root) for c in cs] for cs in crossings]
        assert ids[0] == ids[1]
        flipped = [a.writhe for a, b in zip(*crossings) if a.writhe != b.writhe]
        assert len(flipped) == changed and sum(flipped) == 0


def _reversed_model(curve):
    comps = []
    for comp in curve.components:
        coords = []
        for f in comp.coords:
            coeffs = [c * ((-1) ** k) for k, c in enumerate(f.coeffs)]
            coords.append(BinaryForm(f.degree, coeffs))
        comps.append(CurveComponent(coords, comp.label + "-rev"))
    return CurveModel(curve.ambient, comps, curve.metadata)


def _line(*forms):
    """A real line of P3 from four (s, t) coefficient pairs."""
    return CurveComponent([BinaryForm(1, f) for f in forms])


class TestP3RealWritheFixture:
    # l1 = [s, t, 0, 0] is the x axis, traversed toward +x; l2 = [s, 0, s, t]
    # is the line (0, 1, z), traversed toward +z.  The center [0:0:1:0]
    # (the y direction) sees them cross on the chord from a = (0, 0, 0) to
    # b = (0, 1, 0).  Seen from y = -inf, l1 is over: e1 x e3 = -e2 points
    # at the viewer, a positive crossing (from y = +inf, l2 is over and
    # e3 x e1 = e2 points at the viewer).  In the chart the frame
    # (v, b - a, w) = (e1, e2, e3) is the identity.
    L1 = _line([1, 0], [0, 1], [0, 0], [0, 0])
    L2 = _line([1, 0], [0, 0], [1, 0], [0, 1])
    # l1 traversed toward -x: the crossing sits at parameter infinity,
    # where the local coordinate is s and sigma = -1 carries the
    # circle orientation (s, t) = (cos a, sin a)
    L1_AT_INF = _line([0, 1], [1, 0], [0, 0], [0, 0])

    @staticmethod
    def _writhe(l1, z, l2, w):
        zp, wp = ParamPoint(*z, real=True), ParamPoint(*w, real=True)
        return real_crossing_writhe(zp, wp, l1.jet(zp), l2.jet(wp))

    def test_right_handed_configuration(self):
        assert self._writhe(self.L1, (1, 0), self.L2, (1, 0)) == 1
        assert self._writhe(self.L2, (1, 0), self.L1, (1, 0)) == 1
        # the same endpoint swap on a crossing of a real kae curve
        curve = kae_curve(QQ(1, 2), -1)
        d = select_center(curve, seed=0)
        (c,) = [c for c in d.crossings if c.kind == "real-real"]
        comp = curve.components[0]
        jz, jw = comp.jet(c.z), comp.jet(c.w)
        s1 = real_crossing_writhe(c.z, c.w, jz, jw)
        s2 = real_crossing_writhe(c.w, c.z, jw, jz)
        assert s1 == s2 == c.writhe

    @pytest.mark.parametrize("l1, z, l2, w", [
        (L1_AT_INF, (0, 1), L2, (1, 0)),
        (L1, (1, 0), _line([1, 0], [0, 0], [1, 0], [0, -1]), (1, 0)),
    ], ids=["l1_at_infinity", "l2_reversed"])
    def test_reversed_strand_is_left_handed(self, l1, z, l2, w):
        assert self._writhe(l1, z, l2, w) == -1


class TestShadeMode:
    def test_lp_line_single_shade_point(self):
        d = select_center(lp_line_curve(), seed=4)
        so = [c for c in d.crossings if c.kind == "solitary"]
        assert len(so) == 1
        assert so[0].writhe in (-1, 1)


class TestSvg:
    def test_deterministic_and_marked(self, trefoil_data):
        tr, data = trefoil_data
        svg1 = render_diagram_svg(tr, data)
        svg2 = render_diagram_svg(tr, data)
        assert svg1 == svg2
        assert svg1.startswith("<?xml")
        assert svg1.count("<circle") == 10  # 9 real crossings + 1 solitary
        assert 'viewBox="0 0 800 800"' in svg1

    def test_unknot_no_marks(self):
        u = unknot_curve()
        d = select_center(u, seed=2)
        svg = render_diagram_svg(u, d)
        assert svg.count("<circle") == 0
        assert svg.count("<path") >= 1

    def test_shade_only_dots(self):
        lp = lp_line_curve()
        d = select_center(lp, seed=2)
        svg = render_diagram_svg(lp, d)
        assert svg.count("<path") == 0  # no real locus
        assert svg.count("<circle") == 1
