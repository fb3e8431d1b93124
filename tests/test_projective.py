import math
import random

import pytest

from shadecalc.diagram import center_from_lift
from shadecalc.errors import PreconditionError
from shadecalc.projective import (
    DegenerateFrameError,
    ProjPoint,
    QuadricSpec,
    is_real_vector,
    normalize,
    orientation_sign,
)
from shadecalc.scalars import GaussianRational as G, QQ, Surd


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
        assert center.antipode == [1.0, -math.sqrt(2) / 2, -math.sqrt(2) / 2, 0.0, 0.0]

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
