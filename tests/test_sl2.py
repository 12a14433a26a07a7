"""Plane, group and algebra primitives."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexameral.errors import FrameDeterminantError
from hexameral.sl2 import (
    DET_TOL,
    IDENTITY,
    ROT60,
    FrameMatrix,
    TangentElement,
    adjoint,
    exp_tangent,
    frame_distance,
    rotation,
    star_check,
    wedge,
)

from conftest import random_frame, random_star_tangent
from test_benchmark_calls import PERFBENCH, _load

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def vec(x, y):
    return np.array([x, y], dtype=float)


class TestWedge:
    def test_identity_basis(self):
        assert wedge(vec(1, 0), vec(0, 1)) == 1.0

    def test_sixth_roots(self):
        u0 = vec(1.0, 0.0)
        u2 = vec(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        assert abs(wedge(u0, u2) - math.sqrt(3) / 2) < 1e-15

    @given(finite, finite)
    def test_self_wedge_vanishes(self, x, y):
        assert wedge(vec(x, y), vec(x, y)) == 0.0

    @given(finite, finite, finite, finite)
    def test_antisymmetry(self, ax, ay, bx, by):
        u, v = vec(ax, ay), vec(bx, by)
        assert wedge(u, v) == -wedge(v, u)


class TestFrameMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(FrameDeterminantError):
            FrameMatrix(2.0, 0.0, 0.0, 1.0)

    def test_nan_determinant_rejected(self):
        # 1e200 * 1e200 overflows, so the determinant is inf - inf = nan
        with pytest.raises(FrameDeterminantError):
            FrameMatrix(1e200, 1e200, 1e200, 1e200)

    def test_small_drift_repaired(self):
        eps = 1e-10
        g = FrameMatrix(1.0 + eps, 0.0, 0.0, 1.0)
        assert abs(g.det() - 1.0) < 1e-12
        with pytest.raises(FrameDeterminantError):
            FrameMatrix(1.0 + 1e-6, 0.0, 0.0, 1.0)

    def test_frame_is_its_entry_tuple(self):
        g = FrameMatrix(1.0, 0.0, 0.0, 1.0)
        assert isinstance(IDENTITY, tuple) and g == (1.0, 0.0, 0.0, 1.0) == IDENTITY
        assert hash(g) == hash((1.0, 0.0, 0.0, 1.0))
        assert g + (2.0,) == (1.0, 0.0, 0.0, 1.0, 2.0) and g * 2 == (1.0, 0.0, 0.0, 1.0) * 2
        assert type(g + ()) is tuple
        with pytest.raises(FrameDeterminantError):
            g._replace(alpha=2.0)
        assert not {"__init__", "__eq__", "__hash__"} & set(vars(FrameMatrix))

    def test_tracer_sees_the_given_entries(self):
        # the benchmark's frame counters read the entries before the rule
        tracer = _load("perfbench_tracing", PERFBENCH / "tracing.py").Tracer()
        tracer.install()
        try:
            g = FrameMatrix(1.0 + 1e-10, 0.0, 0.0, 1.0)
        finally:
            tracer.uninstall()
        assert abs(g.det() - 1.0) <= DET_TOL
        assert (tracer.counters["sl2.frames_built"], tracer.counters["sl2.det_repairs"]) == (1, 1)

    def test_apply_identity(self):
        assert np.array_equal(IDENTITY.apply(vec(3, 4)), vec(3.0, 4.0))

    def test_rotation_advances_roots(self):
        u0 = vec(1.0, 0.0)
        u1 = vec(math.cos(math.pi / 3), math.sin(math.pi / 3))
        assert np.linalg.norm(ROT60.apply(u0) - u1) < 1e-15

    def test_rotation_composition(self):
        g = rotation(0.4).compose(rotation(0.3))
        assert frame_distance(g, rotation(0.7)) < 1e-12

    def test_inverse_roundtrip(self, rng):
        for _ in range(50):
            g = random_frame(rng)
            assert frame_distance(g.compose(g.inverse()), IDENTITY) < 1e-12

    def test_matmul_matches_compose(self, rng):
        g, h = random_frame(rng), random_frame(rng)
        assert frame_distance(g @ h, g.compose(h)) == 0.0

    def test_wedge_preserved(self, rng):
        # invariant: |wedge(gu, gv) - wedge(u, v)| < 1e-10
        for _ in range(200):
            g = random_frame(rng)
            u = vec(*rng.uniform(-5, 5, 2))
            v = vec(*rng.uniform(-5, 5, 2))
            assert abs(wedge(g.apply(u), g.apply(v)) - wedge(u, v)) < 1e-10


class TestAdjoint:
    def test_identity_fixes(self):
        x = TangentElement(0.3, -1.2, 0.9)
        y = adjoint(IDENTITY, x)
        assert (y.a, y.b, y.c) == (x.a, x.b, x.c)

    def test_quarter_turn_flips_a(self):
        y = adjoint(rotation(math.pi / 2), TangentElement(1.0, 0.0, 0.0))
        assert abs(y.a + 1.0) < 1e-12 and abs(y.b) < 1e-12 and abs(y.c) < 1e-12

    def test_preserves_determinant(self, rng):
        for _ in range(100):
            g = random_frame(rng)
            x = TangentElement(*rng.uniform(-2, 2, 3))
            assert abs(adjoint(g, x).det() - x.det()) < 1e-10

    def test_composition(self, rng):
        # adjoint(g1, adjoint(g2, x)) = adjoint(g1 g2, x) within 1e-10
        for _ in range(100):
            g1, g2 = random_frame(rng), random_frame(rng)
            x = TangentElement(*rng.uniform(-2, 2, 3))
            lhs = adjoint(g1, adjoint(g2, x))
            rhs = adjoint(g1.compose(g2), x)
            err = max(abs(lhs.a - rhs.a), abs(lhs.b - rhs.b), abs(lhs.c - rhs.c))
            assert err < 1e-10

    def test_conjugation_action_on_vectors(self, rng):
        g = random_frame(rng)
        x = TangentElement(0.2, -0.7, 1.1)
        v = vec(0.6, -0.9)
        lhs = adjoint(g, x).apply(g.apply(v))
        rhs = g.apply(x.apply(v))
        assert np.linalg.norm(lhs - rhs) < 1e-12


class TestStarCheck:
    def test_rotation_generator(self):
        assert star_check(TangentElement(0.0, -1.0, 1.0))

    def test_second_inequality_fails(self):
        assert not star_check(TangentElement(0.0, 1.0, 1.0))

    def test_first_inequality_fails(self):
        assert not star_check(TangentElement(1.0, -2.0, 1.0))

    def test_star_implies_positive_det(self, rng):
        for _ in range(10_000):
            x = random_star_tangent(rng)
            assert star_check(x)
            assert x.det() > 0.0


class TestExpTangent:
    def test_zero_time_is_identity(self):
        x = TangentElement(0.4, 1.3, -0.2)
        assert frame_distance(exp_tangent(x, 0.0), IDENTITY) == 0.0

    def test_rotation_subgroup(self):
        g = exp_tangent(TangentElement(0.0, -1.0, 1.0), math.pi / 3)
        assert frame_distance(g, ROT60) < 1e-12

    @given(small, small, small, small)
    @settings(max_examples=50)
    def test_group_inverse(self, a, b, c, t):
        x = TangentElement(a, b, c)
        g = exp_tangent(x, t).compose(exp_tangent(x, -t))
        assert frame_distance(g, IDENTITY) < 1e-12

    def test_one_parameter_additivity(self, rng):
        x = TangentElement(*rng.uniform(-1, 1, 3))
        g = exp_tangent(x, 0.7).compose(exp_tangent(x, 0.5))
        assert frame_distance(g, exp_tangent(x, 1.2)) < 1e-12

    def test_unit_determinant(self, rng):
        for _ in range(100):
            x = TangentElement(*rng.uniform(-3, 3, 3))
            assert abs(exp_tangent(x, rng.uniform(-2, 2)).det() - 1.0) < 1e-12


class TestUnitTangent:
    def test_unit_norm(self):
        p = TangentElement(3.0, -4.0, 12.0).unit()
        assert abs(p.norm() - 1.0) < 1e-12

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_positive_scale_invariance(self, lam):
        x = TangentElement(0.2, -1.1, 0.8)
        p = x.unit()
        q = x.scaled(lam).unit()
        assert p.distance(q) < 1e-12

    def test_normalization_idempotent(self):
        p = TangentElement(0.5, -0.6, 0.7).unit()
        q = p.unit()
        assert p.distance(q) < 1e-15

    def test_distance_of_equal_tangents_is_zero(self, rng):
        for _ in range(200):
            p = TangentElement(*rng.uniform(-1, 1, 3)).unit()
            assert p.distance(TangentElement(*p)) == 0.0

    def test_distance_is_the_chord(self):
        # unit tangents at angle t read 2 sin(t / 2), linear in t
        for t in (4.5e-5, 0.3, 2.0):
            p = TangentElement(1.0, 0.0, 0.0)
            q = TangentElement(math.cos(t), math.sin(t), 0.0)
            assert abs(p.distance(q) - 2.0 * math.sin(t / 2.0)) < 1e-16

    def test_distance_separates_orientation(self):
        x = TangentElement(0.0, -1.0, 1.0)
        p = x.unit()
        q = x.scaled(-1.0).unit()
        assert p.distance(q) > 1.0

    def test_distance_symmetric(self, rng):
        p = TangentElement(*rng.uniform(-1, 1, 3)).unit()
        q = TangentElement(*rng.uniform(-1, 1, 3)).unit()
        assert abs(p.distance(q) - q.distance(p)) < 1e-15
