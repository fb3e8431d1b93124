import pytest

from shadecalc.curves import (
    CurveComponent,
    CurveModel,
    ParamPoint,
    kae_curve,
    lp_line_curve,
    real_locus_sample,
    trefoil_curve,
    unknot_curve,
)
from shadecalc.diagram import oriented_real_tangent
from shadecalc.errors import GenericityError, PreconditionError
from shadecalc.invariants import find_real_points, self_double_points
from shadecalc.poly import BinaryForm
from shadecalc.projective import ProjPoint, QuadricSpec, quadric_residual
from shadecalc.scalars import GaussianRational as G, QQ


class TestValidation:
    def test_trefoil(self):
        rep = trefoil_curve().validate()
        assert rep["valid"]
        assert rep["components"][0]["degree"] == 6
        assert rep["components"][0]["real_coefficients"]
        assert rep["components"][0]["on_quadric"]

    def test_unknot(self):
        rep = unknot_curve().validate()
        assert rep["valid"] and rep["components"][0]["degree"] == 2

    def test_common_factor_rejected(self):
        s = BinaryForm(1, [1, 0])
        comp = CurveComponent([s, s, s, s], "bad")
        rep = CurveModel("P3", [comp]).validate()
        assert not rep["valid"]
        assert "factor" in rep["components"][0]["error"]

    def test_quadric_violation_detected(self):
        f = BinaryForm(1, [1, 0])
        g = BinaryForm(1, [0, 1])
        z = BinaryForm(1, [0, 0])
        comp = CurveComponent([f, g, z, z, z], "off")
        rep = CurveModel(QuadricSpec(QQ(1)), [comp]).validate()
        assert not rep["valid"]


class TestEvaluation:
    def test_unknot_at_zero(self):
        p = unknot_curve().components[0].eval_point((G(1), G(0)))
        assert p.same_point(ProjPoint([1, 0, 1, 0, 0]))

    def test_kae_at_i(self):
        comp = kae_curve(QQ(1, 2), 1).components[0]
        p = comp.eval_point((G(1), G(0, 1)))
        assert p.same_point(ProjPoint([1, 0, 0, G(0, QQ(1, 2))]))

    def test_infinity_is_zero_one(self):
        comp = unknot_curve().components[0]
        assert comp.eval_point("inf").same_point(comp.eval_point((G(0), G(1))))

    def test_trefoil_solitary_parameter(self):
        comp = trefoil_curve().components[0]
        p = comp.eval_point((G(1), G(0, 1)))
        assert p.same_point(ProjPoint([0, G(0, 1), 1, 0, 0]))


class TestTangent:
    """The immersion check of the live tangent, diagram.oriented_real_tangent."""

    def test_unknot_direction_at_zero(self):
        _, tv = oriented_real_tangent(unknot_curve().components[0], ParamPoint(1, 0), 0)
        assert abs(tv[0] - 2) < 1e-12
        assert all(abs(v) < 1e-12 for v in tv[1:])

    def test_cusp_rejected(self):
        cusp = CurveComponent(
            [
                BinaryForm(3, [1, 0, 0, 0]),
                BinaryForm(3, [0, 0, 1, 0]),
                BinaryForm(3, [0, 0, 0, 1]),
                BinaryForm(3, [0, 0, 0, 0]),
            ],
            "cusp",
        )
        with pytest.raises(GenericityError, match="not immersed"):
            oriented_real_tangent(cusp, ParamPoint(1, 0), 0)


class TestSelfDoublePoints:
    def test_k0_minus_real_node(self):
        pts = self_double_points(kae_curve(0, -1))
        assert len(pts) == 1
        sdp = pts[0]
        assert sdp.kind == "real-real"
        assert sdp.image.same_point(ProjPoint([1, 0, 0, 0]), 1e-8)
        params = sorted(p.affine().real for p in sdp.params)
        assert abs(params[0] + 1) < 1e-9 and abs(params[1] - 1) < 1e-9

    def test_k0_plus_conjugate_node(self):
        pts = self_double_points(kae_curve(0, 1))
        assert len(pts) == 1
        sdp = pts[0]
        assert sdp.kind == "complex-conjugate"
        assert sdp.image.same_point(ProjPoint([1, 0, 0, 0]), 1e-8)
        zs = sorted(p.affine().imag for p in sdp.params)
        assert abs(zs[0] + 1) < 1e-9 and abs(zs[1] - 1) < 1e-9

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("seed", [21, 27, 48])
    def test_node_found_when_combo_jacobian_singular(self, eps, seed):
        # at these seeds the random combination pair has a singular
        # Jacobian at the node; the node must still be found
        assert len(self_double_points(kae_curve(0, eps), seed)) == 1

    def test_smooth_members(self):
        for eps in (1, -1):
            assert self_double_points(kae_curve(QQ(1, 2), eps)) == []
        assert self_double_points(trefoil_curve()) == []


class TestRealPoints:
    def test_lp_line_empty(self):
        assert find_real_points(lp_line_curve(), 0) == []

    def test_real_component_rejected(self):
        with pytest.raises(PreconditionError):
            find_real_points(unknot_curve(), 0)


class TestRealLocus:
    def test_unknot_sample_on_plane_circle(self):
        pts = real_locus_sample(unknot_curve(), 4)
        assert len(pts) == 4
        q = QuadricSpec(QQ(1))
        for p in pts:
            v = p.normalized().as_complex()
            assert abs(v[3]) < 1e-12 and abs(v[4]) < 1e-12
            assert abs(complex(quadric_residual(p, q))) < 1e-9

    def test_trefoil_closed_polyline(self):
        pts = real_locus_sample(trefoil_curve(), 360)
        first = pts[0].normalized().as_complex()
        # the sample covers the projective parameter circle once; the
        # image is a closed trefoil on the sphere
        assert len(pts) == 360
        assert all(abs(v.imag) < 1e-9 for p in pts for v in p.normalized().as_complex())

    def test_no_real_locus(self):
        with pytest.raises(PreconditionError):
            real_locus_sample(lp_line_curve(), 4)


class TestConjugationEquivariance:
    def test_eval_conj(self):
        comp = kae_curve(QQ(1, 3), 1).components[0]
        z = (G(QQ(2, 7)), G(QQ(1, 2), QQ(5, 3)))
        zc = (z[0].conjugate(), z[1].conjugate())
        a = comp.eval_point(z).as_complex()
        b = comp.eval_point(zc, conj=True).as_complex()
        assert max(abs(x.conjugate() - y) for x, y in zip(a, b)) < 1e-12
