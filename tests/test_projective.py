import math
import random

import pytest

from shadecalc.diagram import center_from_lift
from shadecalc.errors import GenericityError, PreconditionError
from shadecalc.projective import (
    DegenerateFrameError,
    ProjPoint,
    QuadricSpec,
    is_real_vector,
    normalize,
    orientation_sign,
    pole_frame,
    stereographic,
    stereographic_inverse,
)
from shadecalc.scalars import GaussianRational as G, QQ, Surd

from helpers import same_point


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


SQRT2 = Surd(QQ(0), QQ(1), 2)


class TestQuadric:
    """`center_from_lift`: a lift A + sqrt(n) B is on the quadric and has a
    rational image in RP3, decided by exact rational tests."""

    def test_sqrt2_trefoil_lift(self):
        center = center_from_lift(ProjPoint([1, 0, SQRT2, 0, 0]), QuadricSpec(QQ(2)))
        assert center.point.coords == (0, 1, 0, 0)
        assert center.lift0.coords == (1, 0, SQRT2, 0, 0)

    def test_surd_in_x0_with_rational_image(self):
        # [sqrt 2, 1, 1, 0, 0] on -x0^2 + sum xi^2 = 0: B[1:] = 0
        center = center_from_lift(ProjPoint([SQRT2, 1, 1, 0, 0]), QuadricSpec(QQ(1)))
        assert center.point.coords == (1, 1, 0, 0)
        assert center.pole.pv == [math.sqrt(2) / 2, math.sqrt(2) / 2, 0.0, 0.0]

    def test_antipodal_identification(self):
        q = QuadricSpec(QQ(1))
        x = center_from_lift(ProjPoint([1, QQ(3, 5), QQ(4, 5), 0, 0]), q)
        anti = center_from_lift(ProjPoint([-1, QQ(3, 5), QQ(4, 5), 0, 0]), q)
        assert x.point.coords == anti.point.coords == (1, QQ(4, 3), 0, 0)

    def test_off_quadric(self):
        q1, q2 = QuadricSpec(QQ(1)), QuadricSpec(QQ(2))
        center_from_lift(ProjPoint([1, 1, 0, 0, 0]), q1)
        center_from_lift(ProjPoint([1, 0, -1, -1, 0]), q2)
        for lift, q in [([1, 1, 1, 0, 0], q1), ([1, 0, 0, 0, 0], q1), ([1, 0, SQRT2, 0, 0], q1),
                        ([1, 1, SQRT2, 0, 0], q2)]:
            with pytest.raises(PreconditionError, match="not on the quadric"):
                center_from_lift(ProjPoint(lift), q)

    def test_irrational_image(self):
        # [1, 1, sqrt 2, 0, 0] is on the c = 3 quadric, but A[1:] and B[1:]
        # are independent, so [1 : sqrt 2 : 0 : 0] is not a rational point
        with pytest.raises(PreconditionError, match="rational point of RP3"):
            center_from_lift(ProjPoint([1, 1, SQRT2, 0, 0]), QuadricSpec(QQ(3)))

    def test_mixed_radicands(self):
        # on the c = 5 quadric, but Q(sqrt 2, sqrt 3) is not one Q(sqrt n)
        with pytest.raises(ValueError, match="mixes the radicands 2 and 3"):
            center_from_lift(ProjPoint([1, SQRT2, Surd(QQ(0), QQ(1), 3), 0, 0]),
                             QuadricSpec(QQ(5)))

    def test_unknot_identity_symbolic(self):
        from shadecalc.curves import quadric_identity_residual, unknot_curve

        comp = unknot_curve().components[0]
        assert quadric_identity_residual(comp, QuadricSpec(QQ(1))).is_zero()


class TestStereographic:
    def setup_method(self):
        self.pole = ProjPoint([1, 1, 0, 0, 0])  # on the unit quadric
        self.frame = pole_frame(self.pole)

    def test_antipode_maps_to_origin(self):
        img, _ = stereographic([-1.0, 0.0, 0.0, 0.0], self.frame)
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
            pt = ProjPoint(pt_coords)
            if same_point(pt.coords, self.pole.coords):
                continue
            xv = [float(c / pt_coords[0]) for c in pt_coords[1:]]
            img, _ = stereographic(xv, self.frame)
            back = stereographic_inverse(img, self.frame)
            assert max(abs(a - b) for a, b in zip(back, xv)) <= 1e-10
            count += 1

    def test_equatorial_point_on_unit_sphere(self):
        pole = ProjPoint([1, 0, SQRT2, 0, 0])
        img, _ = stereographic([math.sqrt(2), 0.0, 0.0, 0.0], pole_frame(pole))
        assert abs(math.sqrt(sum(v * v for v in img)) - 1.0) < 1e-12

    def test_differential_preserves_independence(self):
        img, dst = stereographic([0.0, 1.0, 0.0, 0.0], self.frame)
        # tangent frame at (0,1,0,0): orthogonal to the position vector
        u1 = [1.0, 0.0, 0.0, 0.0]
        u2 = [0.0, 0.0, 1.0, 0.0]
        u3 = [0.0, 0.0, 0.0, 1.0]
        assert orientation_sign([dst(u1), dst(u2), dst(u3)]) in (-1, 1)

    def test_pole_and_off_sphere_points_are_genericity_failures(self):
        # float checks of the pipeline end in GenericityError (exit 2)
        with pytest.raises(GenericityError, match="pole itself"):
            stereographic([1.0, 0.0, 0.0, 0.0], self.frame)
        with pytest.raises(GenericityError, match="not on the quadric"):
            stereographic([1.0, 1.0, 0.0, 0.0], self.frame)


class TestRealness:
    """The pairwise-product test on float vectors, `is_real_vector`."""

    def test_pairwise_product_criterion(self):
        assert is_real_vector([1j, -1j, 0j, 0j])  # i * [1, -1, 0, 0]: real
        assert not is_real_vector([1 + 0j, 1j, 1 + 0j, 0j])
        assert not is_real_vector([1j, 1 + 0j, 0j, 0j])

    def test_scaling_invariant(self):
        x = [2j, -6j, 0j, 0j]
        assert is_real_vector(x)
        assert is_real_vector(normalize(x))
        assert normalize(x)[0].real != 0


class TestExactCoordinates:
    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            ProjPoint([1.0, 0j, 0j, 0j])
        with pytest.raises(TypeError):
            ProjPoint([1, 0, 0, 1e-3])

    def test_normalized_needs_rational_coordinates(self):
        x = ProjPoint([QQ(2), -6, 0, 0]).normalized()
        assert x.coords == (QQ(-1, 3), 1, 0, 0)
        assert all(type(c) is QQ for c in x.coords)
        with pytest.raises(TypeError):
            ProjPoint([G(0, 2), G(0, -6), 0, 0])  # non-real coordinates
        with pytest.raises(TypeError):
            ProjPoint([1, 0, SQRT2, 0, 0]).normalized()
