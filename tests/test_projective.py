import math
import random

import pytest

from shadecalc.projective import (
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
    stereographic_inverse,
)
from shadecalc.scalars import GaussianRational as G, QuadExt, QQ


class TestOrientation:
    def test_identity_and_swap(self):
        assert orientation_sign([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
        assert orientation_sign([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1

    def test_positive_rescale_invariance(self):
        rng = random.Random(3)
        frame = [[1, 2, 0], [0, 1, 1], [1, 0, 3]]
        s0 = orientation_sign(frame)
        for _ in range(5):
            scaled = [[x * rng.uniform(0.1, 7) for x in v] for v in frame]
            assert orientation_sign(scaled) == s0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateFrameError):
            orientation_sign([[1, 0, 0], [1, 1e-9, 0], [0, 0, 1]])

    def test_six_frame_by_hand(self):
        # (v, iv, u, w, f, if) with v = e3, u = e1, w = e2, f = e1 + i e2:
        # hand expansion of the 6x6 determinant gives +1
        assert complex_frame_sign([[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 1j, 0]]) == 1

    def test_chart_parity(self):
        assert [chart_parity(k) for k in range(4)] == [1, -1, 1, -1]


class TestQuadric:
    def test_pi_project_examples(self):
        lift = ProjPoint([QuadExt(1), QuadExt(0), QuadExt(0, 1, 2), QuadExt(0), QuadExt(0)])
        img = pi_project(lift)
        assert img.is_exact()
        assert img.same_point(ProjPoint([0, 1, 0, 0]))
        with pytest.raises(ValueError):
            pi_project(ProjPoint([1, 0, 0, 0, 0]))

    def test_antipodal_identification(self):
        x = ProjPoint([1, QQ(3, 5), QQ(4, 5), 0, 0])
        anti = ProjPoint([-1, QQ(3, 5), QQ(4, 5), 0, 0])
        assert pi_project(x).same_point(pi_project(anti))

    def test_residual_examples(self):
        q1 = QuadricSpec(QQ(1))
        assert not quadric_residual(ProjPoint([1, 1, 0, 0, 0]), q1)
        assert quadric_residual(ProjPoint([1, 1, 1, 0, 0]), q1) == G(1)
        q2 = QuadricSpec(QQ(2))
        assert not quadric_residual(ProjPoint([G(1), G(0), G(-1), G(-1), G(0)]), q2)

    def test_unknot_identity_symbolic(self):
        from shadecalc.curves import quadric_identity_residual, unknot_curve

        comp = unknot_curve().components[0]
        assert quadric_identity_residual(comp, QuadricSpec(QQ(1))).is_zero()


class TestStereographic:
    def setup_method(self):
        self.q = QuadricSpec(QQ(1))
        self.pole = ProjPoint([1, 1, 0, 0, 0])

    def test_antipode_maps_to_origin(self):
        img, _ = stereographic(ProjPoint([1, -1, 0, 0, 0]), self.pole, self.q)
        assert max(abs(v) for v in img) < 1e-12

    def test_round_trip_rational_points(self):
        rng = random.Random(0)
        count = 0
        while count < 100:
            d = [QQ(0)] + [QQ(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)]
            A = sum(x * x for x in d[1:])
            base = [QQ(1), QQ(0), QQ(1), QQ(0), QQ(0)]
            B = 2 * sum(b * x for b, x in zip(base[1:], d[1:]))
            if not A:
                continue
            t = -B / A
            pt_coords = [base[i] + t * d[i] for i in range(5)]
            if not any(pt_coords[1:]) or not pt_coords[0]:
                continue
            pt = ProjPoint([G(c) for c in pt_coords])
            if pt.same_point(self.pole):
                continue
            img, _ = stereographic(pt, self.pole, self.q)
            back = stereographic_inverse(img, self.pole, self.q)
            assert back.same_point(pt, 1e-10)
            count += 1

    def test_equatorial_point_on_unit_sphere(self):
        q2 = QuadricSpec(QQ(2))
        pole = ProjPoint([QuadExt(1), QuadExt(0), QuadExt(0, 1, 2), QuadExt(0), QuadExt(0)])
        x = ProjPoint([QuadExt(1), QuadExt(0, 1, 2), QuadExt(0), QuadExt(0), QuadExt(0)])
        img, _ = stereographic(x, pole, q2)
        assert abs(math.sqrt(sum(v * v for v in img)) - 1.0) < 1e-12

    def test_differential_preserves_independence(self):
        img, dst = stereographic(ProjPoint([1, 0, 1, 0, 0]), self.pole, self.q)
        # tangent frame at (0,1,0,0): orthogonal to the position vector
        u1 = [1.0, 0.0, 0.0, 0.0]
        u2 = [0.0, 0.0, 1.0, 0.0]
        u3 = [0.0, 0.0, 0.0, 1.0]
        assert orientation_sign([dst(u1), dst(u2), dst(u3)]) in (-1, 1)


class TestLineParam:
    def test_range_family_tau(self):
        theta, phi = 1.5, -3.25
        c = ProjPoint([0, 0, 0, 1])
        s = ProjPoint([1, theta, phi, 0])
        line = LineParam(c, s)
        x = ProjPoint([1, theta, phi, complex(0, -(theta + phi))])
        tau = line.tau_of(x)
        assert abs(tau - complex(0, -(theta + phi))) < 1e-9
        assert line.half_plane(x) == "upper"  # theta + phi < 0
        assert line.half_plane(x.conjugate()) == "lower"

    def test_explicit_imaginary_point(self):
        c = ProjPoint([1, 0, 0, 0])
        s = ProjPoint([0, 1, 1, 1])
        line = LineParam(c, s)
        x = line.point_at(1j)
        assert line.half_plane(x) == "upper"

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            LineParam(ProjPoint([1, 2, 3, 4]), ProjPoint([2, 4, 6, 8]))


class TestRealness:
    def test_pairwise_product_criterion(self):
        x = ProjPoint([G(0, 1), G(0, -1), 0, 0])  # i * [1, -1, 0, 0]: real
        assert x.is_real()
        y = ProjPoint([1, G(0, 1), 1, 0])
        assert not y.is_real()
        assert not ProjPoint([G(0, 1), 1, 0, 0]).is_real()

    def test_scaling_invariant(self):
        x = ProjPoint([G(0, 2), G(0, -6), 0, 0])
        assert x.is_real()
        assert x.normalized().is_real()
        assert x.real_vector()[0] != 0
