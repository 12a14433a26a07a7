"""Frame-path functionals: area, extremality, second variation, curvature."""
import math

import numpy as np
import pytest

from hexameral.chain import ChainParams, chain_area
from hexameral.errors import (
    FrameDeterminantError,
    ParameterOutOfRange,
    SignCondition,
    StarViolation,
)
from hexameral.sl2 import DET_REJECT_TOL, DET_TOL, SQRT3, FrameMatrix, TangentElement
from hexameral.variational import (
    FramePath,
    Rank2Report,
    Sampled,
    area_functional,
    chain_path,
    curvature_lemma_value,
    euler_lagrange_residual,
    from_absolute,
    rank2_first_variation,
    rotation_path,
    second_variation_circle,
)

from conftest import random_frame, random_star_tangent, uniform_grid


def identities(n: int) -> np.ndarray:
    return np.tile(np.eye(2), (n, 1, 1))


def constant_path(n: int = 32) -> FramePath:
    return FramePath(np.linspace(0.0, 1.0, n), identities(n))


class TestFramePath:
    def test_too_few_points(self):
        with pytest.raises(ParameterOutOfRange):
            FramePath(np.array([0.0, 1.0]), identities(2))

    def test_grid_must_increase(self):
        grid = np.concatenate(([0.0, 1.0, 0.5], np.arange(2.0, 15.0)))
        with pytest.raises(ParameterOutOfRange):
            FramePath(grid, identities(16))

    def test_must_start_at_identity(self):
        grid = np.arange(16.0)
        frames = identities(16)
        frames[0, 0, 1] = 0.5
        with pytest.raises(ParameterOutOfRange):
            FramePath(grid, frames)

    def test_length_mismatch(self):
        grid = np.arange(16.0)
        with pytest.raises(ParameterOutOfRange):
            FramePath(grid, identities(15))

    def test_from_absolute_relativizes(self, octagon):
        g0 = np.reshape(octagon.chain.initial.frame, (2, 2))
        grid = np.arange(16.0)
        path = from_absolute(grid, np.tile(g0, (16, 1, 1)))
        assert path.frames[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert area_functional(path) == 0.0

    @pytest.mark.parametrize("frames", [np.empty((0, 2, 2)), np.tile(np.eye(2).ravel(), (16, 1))])
    def test_from_absolute_rejects_bad_shapes(self, frames):
        with pytest.raises(ParameterOutOfRange, match="frames have shape"):
            from_absolute(np.arange(float(len(frames))), frames)


def _scaled_frames(rng, det_offsets) -> np.ndarray:
    """The identity, then random SL2 frames scaled to det 1 + each offset."""
    frames = identities(len(det_offsets) + 1)
    for frame, offset in zip(frames[1:], det_offsets):
        frame[:] = np.reshape(random_frame(rng), (2, 2)) * math.sqrt(1.0 + offset)
    return frames


class TestFramePathDeterminant:
    """FramePath applies FrameMatrix's determinant rule, bit for bit."""

    def test_rescale_band_matches_frame_matrix(self, rng):
        # offsets on both sides of one, between DET_TOL and DET_REJECT_TOL
        offsets = rng.uniform(2.0 * DET_TOL, 0.9 * DET_REJECT_TOL, 31)
        offsets *= np.where(np.arange(31) % 2 == 0, 1.0, -1.0)
        frames = _scaled_frames(rng, offsets)
        path = FramePath(np.arange(32.0), frames)
        assert not np.array_equal(path.frames[1:], frames[1:])
        for row, frame in zip(path.frames, frames):
            expected = FrameMatrix(*frame.ravel().tolist())
            assert [v.hex() for v in row.ravel().tolist()] == [v.hex() for v in expected]

    @pytest.mark.parametrize("offset", [2.0 * DET_REJECT_TOL, -1e-6, 3.0, math.nan])
    def test_reject_band_and_nan_raise(self, rng, offset):
        frames = _scaled_frames(rng, np.zeros(15))
        frames[7] = np.reshape(random_frame(rng), (2, 2)) * math.sqrt(1.0 + offset)
        with pytest.raises(FrameDeterminantError):
            FrameMatrix(*frames[7].ravel().tolist())
        with pytest.raises(FrameDeterminantError):
            FramePath(np.arange(16.0), frames)


class TestAreaFunctional:
    def test_constant_path_zero(self):
        assert area_functional(constant_path()) == 0.0

    def test_rotation_path_gives_pi(self):
        assert abs(area_functional(rotation_path()) - math.pi) < 1e-3
        fine = rotation_path(samples=2048)
        assert abs(area_functional(fine) - math.pi) < 1e-6

    def test_single_link_doubles_chain_area(self, octagon):
        one = ChainParams(octagon.chain.initial, octagon.chain.links[:1])
        value = area_functional(chain_path(one, per_link=256))
        assert abs(value - 2.0 * chain_area(one)) < 1e-6

    def test_full_chain_gives_domain_area(self, octagon):
        value = area_functional(chain_path(octagon.chain, per_link=256))
        assert abs(value - octagon.area) < 1e-6

    def test_refinement_order_two(self, octagon):
        target = octagon.area
        e1 = abs(area_functional(chain_path(octagon.chain, 256)) - target)
        e2 = abs(area_functional(chain_path(octagon.chain, 512)) - target)
        assert e1 / e2 > 3.5


class TestEulerLagrange:
    def test_rotation_is_extremal(self):
        assert euler_lagrange_residual(rotation_path()) < 1e-12

    def test_constant_path_is_extremal(self):
        assert euler_lagrange_residual(constant_path()) == 0.0

    def test_hyperbolic_link_is_not(self, octagon):
        one = ChainParams(octagon.chain.initial, octagon.chain.links[:1])
        assert euler_lagrange_residual(chain_path(one, 64)) > 1e-2

    def test_chain_path_per_link_guard(self, octagon):
        for per_link in (1, 40.5, True):
            with pytest.raises(ParameterOutOfRange, match=f"per_link = {per_link!r}"):
                chain_path(octagon.chain, per_link=per_link)

    def test_chain_path_needs_a_full_grid(self, octagon):
        # four links share three points: 4 * (per_link - 1) + 1 >= 16
        for per_link in (2, 4):
            with pytest.raises(ParameterOutOfRange, match=f"per_link = {per_link}"):
                chain_path(octagon.chain, per_link)
        assert len(chain_path(octagon.chain, 5).grid) == 17


class TestSecondVariation:
    def test_neutral_direction(self):
        g = uniform_grid(257)
        w = Sampled(np.sin(g), np.cos(g))
        assert abs(second_variation_circle(np.sin(g), w, g)) < 1e-12

    def test_positive_direction(self):
        g = uniform_grid(257)
        w = Sampled(np.sin(g), np.cos(g))
        value = second_variation_circle(np.cos(g), w, g)
        assert abs(value - 4.0 * math.pi) < 1e-9

    def test_negative_direction(self):
        g = uniform_grid(257)
        w = Sampled(np.sin(g), np.cos(g))
        value = second_variation_circle(-np.cos(g), w, g)
        assert abs(value + 4.0 * math.pi) < 1e-9

    def test_linear_in_u(self):
        g = uniform_grid(129)
        w = Sampled(np.sin(g), np.cos(g))
        one = second_variation_circle(np.cos(g), w, g)
        three = second_variation_circle(3.0 * np.cos(g), w, g)
        assert abs(three - 3.0 * one) < 1e-12

    def test_accepts_sampled_u(self):
        g = uniform_grid(129)
        w = Sampled(np.sin(g), np.cos(g))
        raw = second_variation_circle(np.cos(g), w, g)
        wrapped = second_variation_circle(Sampled(np.cos(g)), w, g)
        assert raw == wrapped

    def test_w_needs_derivative(self):
        g = uniform_grid(64)
        with pytest.raises(ParameterOutOfRange):
            second_variation_circle(np.cos(g), Sampled(np.sin(g)), g)

    def test_small_grid_rejected(self):
        for g in (uniform_grid(8), 3.0):  # a scalar grid has one point
            with pytest.raises(ParameterOutOfRange):
                second_variation_circle(np.cos(g), Sampled(np.sin(g), np.cos(g)), g)

    @pytest.mark.parametrize("bad", ["u", "deriv", "grid"])
    def test_non_numeric_input_rejected(self, bad):
        inputs = {"u": np.ones(20), "deriv": np.ones(20), "grid": uniform_grid(20)}
        inputs[bad] = ["a"] * 20
        w = Sampled(np.ones(20), inputs["deriv"])
        with pytest.raises(ParameterOutOfRange, match="must be numbers"):
            second_variation_circle(inputs["u"], w, inputs["grid"])

    @pytest.mark.parametrize("u_size, deriv_size", [(1, 20), (20, 1), (19, 20), (20, 21)])
    def test_sample_lengths_must_match_grid(self, u_size, deriv_size):
        g = uniform_grid(20)
        w = Sampled(np.ones(deriv_size), np.ones(deriv_size))
        with pytest.raises(ParameterOutOfRange, match="lengths differ"):
            second_variation_circle(np.ones(u_size), w, g)


class TestCurvatureLemma:
    def test_reference_tangent(self):
        assert abs(curvature_lemma_value(TangentElement(0.0, -1.0, 1.0))
                   - 3.0) < 1e-12

    def test_star_violation_rejected(self):
        with pytest.raises(StarViolation):
            curvature_lemma_value(TangentElement(0.0, 1.0, 1.0))

    def test_positive_on_star_tangents(self, rng):
        for _ in range(200):
            assert curvature_lemma_value(random_star_tangent(rng)) > 0.0

    def test_scales_cubically(self):
        # disc^2 / linear: scaling the tangent by c scales the value by c^3
        base = curvature_lemma_value(TangentElement(0.0, -1.0, 1.0))
        scaled = curvature_lemma_value(TangentElement(0.0, -2.0, 2.0))
        assert abs(scaled - 8.0 * base) < 1e-10


class TestRank2FirstVariation:
    def test_constant_x(self):
        g = np.linspace(0.0, 1.0, 101)
        s = Sampled(-0.8 + 0.4 * g, np.full_like(g, 0.4))
        x = Sampled(np.zeros_like(g), np.zeros_like(g))
        report = rank2_first_variation(s, x, g)
        assert abs(report.integral - SQRT3 * 0.4 / 4.0) < 1e-12
        assert report.constraint_residual == 0.0
        assert report.x_variation_sign == -1

    def test_constant_s_rejected(self):
        g = np.linspace(0.0, 1.0, 101)
        s = Sampled(np.full_like(g, -0.6), np.zeros_like(g))
        x = Sampled(g.copy(), np.ones_like(g))
        with pytest.raises(SignCondition):
            rank2_first_variation(s, x, g)

    def test_constraint_recovered_exactly(self):
        g = np.linspace(0.0, 1.0, 101)
        sv = -0.8 + 0.4 * g
        sd = np.full_like(g, 0.4)
        z = 0.1
        xd = sd * z / (sv * sv - 1.0)
        x = Sampled(np.zeros_like(g), xd)  # values unused by the constraint
        report = rank2_first_variation(Sampled(sv, sd), x, g, z=z)
        assert report.constraint_residual < 1e-12

    def test_mixed_sign_reports_zero(self):
        g = np.linspace(0.0, 1.0, 101)
        s = Sampled(-0.2 + 0.4 * g, np.full_like(g, 0.4))
        x = Sampled(np.zeros_like(g), np.zeros_like(g))
        assert rank2_first_variation(s, x, g).x_variation_sign == 0

    def test_nan_slope_rejected(self):
        # NaN fails "s must increase strictly" as any other slope that is not positive
        g = np.linspace(0.0, 1.0, 101)
        sd = np.full_like(g, 0.4)
        sd[50] = np.nan
        x = Sampled(np.zeros_like(g), np.zeros_like(g))
        with pytest.raises(SignCondition):
            rank2_first_variation(Sampled(-0.8 + 0.4 * g, sd), x, g)

    def test_length_mismatch(self):
        g = np.linspace(0.0, 1.0, 101)
        s = Sampled(-0.8 + 0.4 * g, np.full_like(g, 0.4))
        x = Sampled(np.zeros(50), np.zeros(50))
        with pytest.raises(ParameterOutOfRange):
            rank2_first_variation(s, x, g)

    @pytest.mark.parametrize("size", [1, 100])
    def test_z_length_must_match_grid(self, size):
        g = np.linspace(0.0, 1.0, 101)
        s = Sampled(-0.8 + 0.4 * g, np.full_like(g, 0.4))
        x = Sampled(np.zeros_like(g), np.zeros_like(g))
        with pytest.raises(ParameterOutOfRange, match="lengths differ"):
            rank2_first_variation(s, x, g, z=np.full(size, 0.1))

    @pytest.mark.parametrize("bad", ["s", "x", "grid", "z", "scalar z", "ragged z"])
    def test_non_numeric_input_rejected(self, bad):
        g = np.linspace(0.0, 1.0, 21)
        inputs = {"s": -0.8 + 0.4 * g, "x": np.zeros_like(g), "grid": g, "z": None}
        inputs[bad.split()[-1]] = {"scalar z": "a", "ragged z": [[1.0], [1.0, 2.0]]}.get(
            bad, ["a"] * 21)
        s = Sampled(inputs["s"], np.full_like(g, 0.4))
        x = Sampled(np.zeros_like(g), inputs["x"])
        with pytest.raises(ParameterOutOfRange, match="must be numbers"):
            rank2_first_variation(s, x, inputs["grid"], inputs["z"])

    @pytest.mark.parametrize("grid", [[], [0.0]])
    def test_grid_needs_two_points(self, grid):
        # an empty grid has no minimum slope, and one point no interval
        s = Sampled(np.full(len(grid), -0.8), np.full(len(grid), 0.4))
        x = Sampled(np.zeros(len(grid)), np.zeros(len(grid)))
        with pytest.raises(ParameterOutOfRange, match="at least 2 points"):
            rank2_first_variation(s, x, grid)

    def test_missing_derivatives(self):
        g = np.linspace(0.0, 1.0, 101)
        s = Sampled(-0.8 + 0.4 * g)
        x = Sampled(np.zeros_like(g), np.zeros_like(g))
        with pytest.raises(ParameterOutOfRange):
            rank2_first_variation(s, x, g)

    def test_report_type(self):
        g = np.linspace(0.0, 1.0, 101)
        s = Sampled(-0.8 + 0.4 * g, np.full_like(g, 0.4))
        x = Sampled(np.zeros_like(g), np.zeros_like(g))
        assert isinstance(rank2_first_variation(s, x, g), Rank2Report)
