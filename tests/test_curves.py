import copy

import pytest
from hypothesis import assume, given, settings, strategies as st

from shadecalc.curves import (
    CurveComponent,
    CurveModel,
    ParamPoint,
    kae_curve,
    lp_line_curve,
    trefoil_curve,
    unknot_curve,
)
from shadecalc.diagram import _oriented_jet
from shadecalc.errors import PreconditionError
from shadecalc.invariants import find_real_points, self_double_points
from shadecalc.poly import BinaryForm
from shadecalc.projective import QuadricSpec, normalize
from shadecalc.scalars import GaussianRational as G, QQ

from helpers import conj, exact, form_value, same_point, to_complex


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


class TestValidationReport:
    def test_made_once_and_handed_out_as_copies(self, monkeypatch):
        want = unknot_curve().validate()
        model = unknot_curve()
        first = model.validate()
        first["forced_center"] = True
        first["components"][0]["degree"] = 0
        monkeypatch.setattr(CurveComponent, "base_point_free",
                            lambda self: pytest.fail("validated twice"))
        assert model.validate() == want
        assert model.require_valid() == model.validate()

    def test_a_changed_copy_changes_no_later_report(self, monkeypatch):
        # validate() hands out copies, which API callers may change;
        # require_valid reads the cached report and copies nothing
        want = unknot_curve().validate()
        model = unknot_curve()
        rep = model.validate()
        rep["valid"] = False
        rep["components"][0]["error"] = "changed"
        assert model.validate() == want
        monkeypatch.setattr(copy, "deepcopy", lambda x: pytest.fail("copied"))
        assert model.require_valid() == want


def _times(forms, c):
    return [f * c for f in forms]


class TestRealMultiple:
    @pytest.mark.parametrize("c", [G(0, 1), G(1, 2), G(QQ(-1, 3), QQ(1, 2))],
                             ids=["i", "1+2i", "-1/3+1/2 i"])
    @pytest.mark.parametrize("make", [unknot_curve, trefoil_curve, lambda: kae_curve(QQ(1, 2), -1)],
                             ids=["unknot", "trefoil", "kae"])
    def test_a_scalar_times_real_forms_is_stored_real(self, make, c):
        # each form times conj(c): |c|^2 times the real forms
        real = make().components[0].coords
        comp = CurveComponent(_times(real, c), "scaled")
        assert comp.is_real()
        assert comp.coords == tuple(_times(real, c.re**2 + c.im**2))
        assert comp.conj_coords == comp.coords

    def test_real_and_non_real_forms_stay_as_given(self):
        for model in (unknot_curve(), kae_curve(QQ(1, 2), 1), lp_line_curve()):
            forms = model.components[0].coords
            comp = CurveComponent(forms, "same")
            assert comp.coords is forms
        forms = tuple(_times(lp_line_curve().components[0].coords, G(1, 2)))
        comp = CurveComponent(forms, "lp")
        assert comp.coords is forms and not comp.is_real()


def _exact_value(comp, s, t):
    return [form_value(f, s, t) for f in comp.coords]


class TestEvaluation:
    def test_unknot_at_zero(self):
        p = _exact_value(unknot_curve().components[0], G(1), G(0))
        assert same_point(p, [1, 0, 1, 0, 0])

    def test_kae_at_i(self):
        comp = kae_curve(QQ(1, 2), 1).components[0]
        p = _exact_value(comp, G(1), G(0, 1))
        assert same_point(p, [1, 0, 0, G(0, QQ(1, 2))])

    def test_infinity_is_zero_one(self):
        # the point at infinity of the t chart, (s, t) = (0, 1), is the
        # vector of the t^d coefficients
        comp = unknot_curve().components[0]
        assert same_point([f.coeffs[-1] for f in comp.coords], _exact_value(comp, G(0), G(1)))

    def test_trefoil_solitary_parameter(self):
        comp = trefoil_curve().components[0]
        p = _exact_value(comp, G(1), G(0, 1))
        assert same_point(p, [0, G(0, 1), 1, 0, 0])


class TestTangent:
    """The oriented velocity column of both real sign recipes,
    diagram._oriented_jet."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda d: st.lists(
               st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1), min_size=4, max_size=4)),
           st.integers(-64, 64), st.integers(-64, 64))
    def test_velocity_is_exact_s_ft_minus_t_fs(self, rows, a, b):
        # in both parameter charts (|t| < |s| and |t| > |s|) the velocity
        # column is the exact (s f_t - t f_s) / (1 + x^2), x the local
        # coordinate, plus a multiple of f
        assume((a or b) and any(any(r) for r in rows))
        comp = CurveComponent([BinaryForm(len(r) - 1, r) for r in rows])
        p = ParamPoint(a / 16, b / 16)
        s, t = exact(p.s), exact(p.t)
        d = comp.degree
        vals = [to_complex(form_value(f, s, t)).real for f in comp.coords]
        # f_s and f_t by the power rule on the coefficients of s^(d-k) t^k
        f_s = [BinaryForm(d - 1, [(d - k) * c for k, c in enumerate(r[:d])]) for r in rows]
        f_t = [BinaryForm(d - 1, [k * c for k, c in enumerate(r) if k]) for r in rows]
        x = p.local()[1].real
        want = [to_complex(s * form_value(ft, s, t) - t * form_value(fs, s, t)).real / (1 + x * x)
                for fs, ft in zip(f_s, f_t)]
        norm2 = sum(v * v for v in vals)
        assume(norm2 >= 1e-6)  # f vanishes at a common root of the forms
        f_col, v_col = _oriented_jet(p, comp.jet(p))
        r = [g - w for g, w in zip(v_col, want)]
        mu = sum(ri * v for ri, v in zip(r, vals)) / norm2
        scale = 1 + max(map(abs, want)) + max(map(abs, vals))
        assert max(abs(g - v) for g, v in zip(f_col, vals)) <= 1e-9 * scale
        assert max(abs(ri - mu * v) for ri, v in zip(r, vals)) <= 1e-9 * scale


class TestImmersion:
    @pytest.mark.parametrize("curve", [kae_curve(0, 1), kae_curve(QQ(1, 2), -1), trefoil_curve(),
                                       unknot_curve(), lp_line_curve()],
                             ids=["k0_plus", "kae_half_minus", "trefoil", "unknot", "lp_line"])
    def test_fixtures_are_immersed(self, curve):
        assert all(c.is_immersion() for c in curve.components)

    @pytest.mark.parametrize("rows", [
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],  # cuspidal cubic
        [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
    ])
    def test_cusps(self, rows):
        comp = CurveComponent([BinaryForm(len(r) - 1, r) for r in rows])
        assert not comp.is_immersion()

    def test_complex_cusp(self):
        # the cuspidal cubic [v^3, v u^2, u^3, 0] in u = t - i s, v = t + i s:
        # stationary at the non-real parameter t = i s
        u, v = BinaryForm(1, [G(0, -1), 1]), BinaryForm(1, [G(0, 1), 1])
        comp = CurveComponent([v * v * v, v * u * u, u * u * u, BinaryForm(3, [0] * 4)])
        assert comp.base_point_free() and not comp.is_immersion()


class TestSelfDoublePoints:
    def test_k0_minus_real_node(self):
        pts = self_double_points(kae_curve(0, -1))
        assert len(pts) == 1
        sdp = pts[0]
        assert sdp.kind == "real-real"
        assert _close(normalize(sdp.image), [1, 0, 0, 0], 1e-8)
        params = sorted(p.affine().real for p in sdp.params)
        assert abs(params[0] + 1) < 1e-9 and abs(params[1] - 1) < 1e-9

    def test_k0_plus_conjugate_node(self):
        pts = self_double_points(kae_curve(0, 1))
        assert len(pts) == 1
        sdp = pts[0]
        assert sdp.kind == "complex-conjugate"
        assert _close(normalize(sdp.image), [1, 0, 0, 0], 1e-8)
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


class TestConjugationEquivariance:
    def test_eval_conj(self):
        comp = kae_curve(QQ(1, 3), 1).components[0]
        z = (QQ(2, 7), G(QQ(1, 2), QQ(5, 3)))
        zc = (conj(z[0]), conj(z[1]))
        a = [form_value(f, *z) for f in comp.coords]
        b = [form_value(f, *zc) for f in comp.conj_coords]
        assert [conj(x) for x in a] == b


def _close(u, v, tol):
    return max(abs(a - b) for a, b in zip(u, v)) <= tol
