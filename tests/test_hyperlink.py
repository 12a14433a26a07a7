"""Square representations: canonical curves, areas, frames, propagation."""
import math

import numpy as np
import pytest

from hexameral.domain import octagon_square_rep, OCTAGON_LINK_AREA, OCTAGON_TAU
from hexameral.errors import (
    NotRankOneCompatible,
    ParameterOutOfRange,
    ScaleTooSmall,
)
from hexameral.hyperlink import (
    LinkState,
    SquareRep,
    circle_tangent,
    frame_at,
    k_of,
    link_area,
    link_curves,
    link_map,
    link_multicurve,
    propagate,
    state_is_convex,
    t_end,
    transform_state,
)
from hexameral.multicurve import MultiPoint, convexity_value
from hexameral.sl2 import (
    IDENTITY,
    ProjectiveTangent,
    TangentElement,
    frame_distance,
    star_check,
    wedge,
)

from conftest import curve_positions, random_frame, random_square_rep, sector_quadrature
from test_kernel_identity import curve_frames

SQRT2 = math.sqrt(2.0)


class TestScale:
    def test_octagon_k(self):
        assert abs(k_of(octagon_square_rep().a) - (4.0 - SQRT2) / 4.0) < 1e-14

    def test_monotone_decreasing(self):
        assert k_of(10.0) < k_of(2.0) < k_of(1.0)

    def test_boundary_rejected(self):
        with pytest.raises(ScaleTooSmall):
            k_of(math.sqrt(math.sqrt(3.0) / 2.0))

    def test_negative_rejected(self):
        with pytest.raises(ScaleTooSmall):
            k_of(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ScaleTooSmall):
            k_of(float("nan"))


class TestSquareRep:
    def test_octagon_values(self):
        rep = octagon_square_rep()
        assert rep.t0 == -1.0 / SQRT2
        assert rep.tau == 2.0 - SQRT2
        assert rep.j == 0

    def test_t0_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            SquareRep(1.2, -1.5, 0.5, 0)
        with pytest.raises(ParameterOutOfRange):
            SquareRep(1.2, 0.5, 0.5, 0)

    def test_tau_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            SquareRep(1.2, -0.5, 1.5, 0)

    def test_odd_index_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            SquareRep(1.2, -0.5, 0.5, 1)


class TestTEnd:
    def test_octagon_lands_at_minus_half(self):
        assert abs(t_end(octagon_square_rep()) + 0.5) < 1e-14

    def test_degenerate(self):
        rep = SquareRep(1.2, -0.5, 0.0, 0)
        assert t_end(rep) == rep.t0

    def test_full_turn(self):
        rep = SquareRep(1.2, -0.5, 1.0, 0)
        assert abs(t_end(rep) - (rep.k - 1.0)) < 1e-15

    def test_within_range(self, rng):
        for _ in range(100):
            rep = random_square_rep(rng)
            assert rep.t0 < t_end(rep) < rep.k - 1.0


class TestLinkArea:
    def test_octagon_closed_form(self):
        expected = (math.sqrt(3.0) * (8.0 - 8.0 * SQRT2 + SQRT2 * math.log(2.0))
                    / (4.0 * (-4.0 + SQRT2)))
        assert abs(expected - OCTAGON_LINK_AREA) == 0.0
        assert abs(link_area(octagon_square_rep()) - expected) < 1e-15

    def test_degenerate_is_zero(self):
        assert link_area(SquareRep(1.2, -0.5, 0.0, 0)) == 0.0

    def test_quadrature_oracle(self, rng):
        for _ in range(3):
            rep = random_square_rep(rng)
            oracle = sector_quadrature(rep, 100_000)
            assert abs(link_area(rep) - oracle) < 1e-9

    def test_positive(self, rng):
        for _ in range(100):
            assert link_area(random_square_rep(rng)) > 0.0


class TestCanonicalMultipoint:
    def test_multipoint_relations_hold(self, rng):
        # MultiPoint construction inside validates all three relations
        for _ in range(50):
            rep = random_square_rep(rng)
            t = rng.uniform(rep.t0, t_end(rep))
            mc = curve_positions(rep, float(t))
            MultiPoint(mc)
            assert abs(wedge(mc[(rep.j + 2) % 6],
                             mc[(rep.j + 4) % 6])
                       - math.sqrt(3.0) / 2.0) < 1e-12

    def test_hyperbola_equation(self, rng):
        # the index-j curve lies on (x+a)(y+a) = a^2 (1-k)
        for _ in range(50):
            rep = random_square_rep(rng)
            t = float(rng.uniform(rep.t0, t_end(rep)))
            px, py = curve_positions(rep, t)[rep.j]
            a = rep.a
            assert abs((px + a) * (py + a) - a * a * (1.0 - rep.k)) < 1e-10

    def test_octagon_sign_constraints(self):
        rep = octagon_square_rep()
        t = rep.t0
        s = (1.0 - rep.k) / t
        assert -1.0 < s < 0.0 and -1.0 < t < 0.0

    def test_out_of_range(self):
        rep = octagon_square_rep()
        with pytest.raises(ParameterOutOfRange):
            link_curves(rep, [0.5])

    def test_hyperbolic_curve_convex_linear_flat(self, rng):
        rep = random_square_rep(rng)
        t = float(rng.uniform(rep.t0, t_end(rep)))
        mc = link_curves(rep, [t])
        assert convexity_value(mc[rep.j])[0] > 0.0
        for r in (2, 4):
            assert convexity_value(mc[(rep.j + r) % 6])[0] == 0.0


class TestCurvePoints:
    def test_matches_canonical_samples(self, rng):
        rep = random_square_rep(rng)
        ts = np.linspace(rep.t0, t_end(rep), 7)
        for m in range(6):
            pts = link_curves(rep, ts)[m, 0]
            for row, t in zip(pts, ts):
                px, py = curve_positions(rep, float(t))[m]
                assert abs(row[0] - px) < 1e-12 and abs(row[1] - py) < 1e-12

    def test_central_reflection(self, rng):
        rep = random_square_rep(rng)
        ts = np.linspace(rep.t0, t_end(rep), 5)
        for m in range(3):
            assert np.max(np.abs(link_curves(rep, ts)[m, 0]
                                 + link_curves(rep, ts)[m + 3, 0])) < 1e-12


class TestFrameAt:
    def test_sends_standard_to_positions(self, rng):
        for _ in range(20):
            rep = random_square_rep(rng)
            t = float(rng.uniform(rep.t0, t_end(rep)))
            state = frame_at(rep, t)
            mc = curve_positions(rep, t)
            from hexameral.multicurve import STANDARD
            for m in range(6):
                err = np.linalg.norm(state.frame.apply(STANDARD[m]) - mc[m])
                assert err < 1e-10

    def test_unit_determinant(self, rng):
        for _ in range(1000):
            rep = random_square_rep(rng)
            t = float(rng.uniform(rep.t0, t_end(rep)))
            assert abs(frame_at(rep, t).frame.det() - 1.0) < 1e-12

    def test_octagon_start_satisfies_star(self):
        rep = octagon_square_rep()
        state = frame_at(rep, rep.t0)
        assert star_check(circle_tangent(state))
        assert state_is_convex(state)

    def test_frame_grid_consistency(self, rng):
        rep = random_square_rep(rng)
        ts = np.linspace(rep.t0, t_end(rep), 9)
        grid = curve_frames(rep, ts)
        for mat, t in zip(grid, ts):
            state = frame_at(rep, float(t))
            assert np.max(np.abs(
                mat - np.array(state.frame.entries()).reshape(2, 2))) < 1e-12


class TestPropagate:
    def test_octagon_roundtrip(self):
        rep = octagon_square_rep()
        start = frame_at(rep, rep.t0)
        out, found = propagate(start, OCTAGON_TAU, 0)
        assert abs(found.a - rep.a) < 1e-12
        assert abs(found.t0 - rep.t0) < 1e-12
        end = frame_at(rep, t_end(rep))
        assert frame_distance(out.frame, end.frame) < 1e-10
        assert out.tangent.distance(end.tangent) < 1e-10

    def test_degenerate_link_identity(self):
        rep = octagon_square_rep()
        start = frame_at(rep, rep.t0)
        out, found = propagate(start, 0.0, 2)
        assert out is start
        assert found.tau == 0.0

    def test_star_violation_rejected(self):
        bad = LinkState(IDENTITY,
                        ProjectiveTangent.from_tangent(TangentElement(0, 1, 1)))
        with pytest.raises(NotRankOneCompatible):
            propagate(bad, 0.5, 0)

    def test_invalid_parameters(self):
        state = frame_at(octagon_square_rep(), -0.6)
        with pytest.raises(ParameterOutOfRange):
            propagate(state, 1.0, 0)
        with pytest.raises(ParameterOutOfRange):
            propagate(state, 0.5, 3)

    def test_semigroup_same_index(self, rng):
        state = frame_at(octagon_square_rep(), -1.0 / SQRT2)
        for _ in range(20):
            ta, tb = rng.uniform(0.05, 0.9, 2)
            mid, _ = propagate(state, float(ta), 0)
            two, _ = propagate(mid, float(tb), 0)
            merged = ta + tb - ta * tb
            one, _ = propagate(state, float(merged), 0)
            assert frame_distance(two.frame, one.frame) < 1e-9
            assert two.tangent.distance(one.tangent) < 1e-9

    def test_sl2_equivariance(self, rng):
        rep = octagon_square_rep()
        state = frame_at(rep, rep.t0)
        for _ in range(50):
            g = random_frame(rng)
            out, found = propagate(state, 0.4, 0)
            out_g, found_g = propagate(transform_state(g, state), 0.4, 0)
            expected = transform_state(g, out)
            assert frame_distance(out_g.frame, expected.frame) < 1e-9
            assert out_g.tangent.distance(expected.tangent) < 1e-9
            assert abs(found_g.a - found.a) < 1e-9
            assert abs(found_g.t0 - found.t0) < 1e-9

    def test_area_invariant_under_sl2(self, rng):
        rep = octagon_square_rep()
        state = frame_at(rep, rep.t0)
        base = link_area(propagate(state, 0.4, 0)[1])
        for _ in range(20):
            g = random_frame(rng)
            moved = link_area(propagate(transform_state(g, state), 0.4, 0)[1])
            assert abs(moved - base) < 1e-9


class TestLinkMulticurve:
    def test_rank_one_composition(self, octagon):
        curves = link_multicurve(octagon.assembled.reps[0])
        hyperbolic = [m for m in range(6)
                      if all(convexity_value(curves[m]) > 0)]
        assert hyperbolic == [0, 3]

    def test_degenerate_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            link_multicurve(SquareRep(1.2, -0.5, 0.0, 0))

    def test_transform_applied(self, octagon, rng):
        state, rep = octagon.assembled.states[0], octagon.assembled.reps[0]
        g = link_map(state, rep)
        curves = link_multicurve(rep, samples=4, g=g)
        plain = link_multicurve(rep, samples=4)
        for m in range(6):
            for s_g, s in zip(curves[m, 0], plain[m, 0]):
                assert np.linalg.norm(s_g - g.apply(s)) < 1e-12
