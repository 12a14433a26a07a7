"""Multi-point relations, convexity sampling, rank classification."""
import itertools
import math

import numpy as np
import pytest

from hexameral.domain import circle_multicurve
from hexameral.errors import (
    MissingAcceleration,
    RankUndefined,
    RankZero,
    WedgeMismatch,
)
from hexameral.hyperlink import link_curves
from hexameral.multicurve import (
    HALF_SQRT3,
    MultiPoint,
    RankLabel,
    convexity_value,
    multipoint_from_pair,
    rank_classify,
    standard_multipoint,
)
from hexameral.sl2 import wedge

from conftest import curve_positions, random_frame

STANDARD = standard_multipoint()


def check_multipoint_relations(mp: MultiPoint, tol: float = 1e-9):
    for j in range(6):
        assert np.linalg.norm(mp[j] + mp[j + 2] + mp[j + 4]) < tol
        assert np.linalg.norm(mp[j] + mp[j + 3]) < tol
        assert abs(wedge(mp[j], mp[j + 2]) - HALF_SQRT3) < tol


class TestStandardMultipoint:
    def test_index_zero(self):
        assert np.linalg.norm(STANDARD[0] - np.array([1.0, 0.0])) < 1e-15

    def test_index_three_is_negation(self):
        assert np.linalg.norm(STANDARD[3] + STANDARD[0]) < 1e-15

    def test_relations(self):
        check_multipoint_relations(standard_multipoint())

    def test_cyclic_indexing(self):
        assert np.array_equal(STANDARD[7], STANDARD[1])
        assert np.array_equal(STANDARD[-1], STANDARD[5])

    def test_membership_compares_rows_by_value(self):
        assert (1.0, 0.0) in STANDARD and np.array([1.0, 0.0]) in STANDARD
        assert [float(v) for v in STANDARD[4]] in STANDARD
        for point in ((2.0, 0.0), (1.0, 0.0, 0.0), 1.0, STANDARD.points, (math.nan, 0.0)):
            assert point not in STANDARD

    def test_iteration_ends_after_six_rows(self):
        # indexing wraps, so iteration cannot fall back on it
        rows = list(itertools.islice(iter(STANDARD), 7))
        assert len(rows) == 6
        assert np.array_equal(np.array(rows), STANDARD.points)


class TestMultiPointValidation:
    def test_wrong_count(self):
        with pytest.raises(WedgeMismatch):
            MultiPoint(STANDARD.points[:5])

    def test_broken_wedge(self):
        # NaN fails every relation, as a far-off value does
        for pts in (2.0 * STANDARD.points, np.full((6, 2), np.nan)):
            with pytest.raises(WedgeMismatch):
                MultiPoint(pts)

    def test_sl2_equivariance(self, rng):
        for _ in range(100):
            g = random_frame(rng)
            check_multipoint_relations(STANDARD.transformed(g))


class TestMultipointFromPair:
    def test_completes_standard(self):
        mp = multipoint_from_pair(STANDARD[0], STANDARD[2])
        for j in range(6):
            assert np.linalg.norm(mp[j] - STANDARD[j]) < 1e-12

    def test_octagon_initial_pair(self):
        # the two linear-curve points of the octagon link at its start
        from hexameral.domain import octagon_square_rep
        rep = octagon_square_rep()
        s0 = (1.0 - rep.k) / rep.t0
        mp = multipoint_from_pair(
            (rep.a, rep.a * rep.t0),
            (rep.a * s0, rep.a),
        )
        check_multipoint_relations(mp)
        canon = curve_positions(rep, rep.t0)
        err = max(
            np.linalg.norm(mp[m] - canon[(m + 2) % 6])
            for m in range(6)
        )
        assert err < 1e-12

    def test_bad_wedge_rejected(self):
        for u0, u2 in (((1.0, 0.0), (0.0, 1.0)), ((math.nan, 0.0), (0.0, math.nan))):
            with pytest.raises(WedgeMismatch):
                multipoint_from_pair(u0, u2)

    def test_random_valid_pairs(self, rng):
        for _ in range(1000):
            g = random_frame(rng)
            mp = multipoint_from_pair(g.apply(STANDARD[0]), g.apply(STANDARD[2]))
            check_multipoint_relations(mp)


def circle_curve(ts) -> np.ndarray:
    """Unit circle samples at angles ts: (3, n, 2) positions, velocities, accelerations."""
    p = np.stack((np.cos(ts), np.sin(ts)), axis=-1)
    return np.stack((p, np.stack((-p[:, 1], p[:, 0]), axis=-1), -p))


def line_curve(ts) -> np.ndarray:
    """The line (t, 1) at parameters ts, in the same layout."""
    ts = np.asarray(ts, dtype=float)
    curve = np.zeros((3, ts.size, 2))
    curve[0, :, 0], curve[0, :, 1] = ts, 1.0
    curve[1, :, 0] = 1.0
    return curve


class TestConvexityValue:
    def test_circle_curvature_one(self):
        assert abs(convexity_value(circle_curve([0.3]))[0] - 1.0) < 1e-15

    def test_line_vanishes(self):
        assert convexity_value(line_curve([0.5]))[0] == 0.0

    def test_octagon_hyperbola_positive(self):
        from hexameral.domain import octagon_square_rep
        rep = octagon_square_rep()
        sample = link_curves(rep, [-0.6])[rep.j]
        assert convexity_value(sample)[0] > 0.0

    def test_missing_acceleration(self):
        s = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        with pytest.raises(MissingAcceleration):
            convexity_value(s)


class TestRankClassify:
    def test_circle_is_rank_three(self):
        assert rank_classify(circle_multicurve()).value == 3

    def test_octagon_link_is_rank_one(self, octagon):
        from hexameral.hyperlink import link_multicurve
        assert rank_classify(link_multicurve(octagon.assembled.reps[0])).value == 1

    def test_all_linear_is_rank_zero(self):
        ts = [i / 9 for i in range(10)]
        curves = np.stack([line_curve(ts)] * 6)
        with pytest.raises(RankZero):
            rank_classify(curves)

    def test_needs_six_curves(self):
        with pytest.raises(RankUndefined):
            rank_classify(circle_multicurve()[:4])

    @pytest.mark.parametrize("shape", [(6, 3, 16), (6, 3, 16, 3), (6, 4, 16, 2), (1, 6, 3, 16, 2)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(RankUndefined):
            rank_classify(np.ones(shape))

    def test_missing_acceleration(self):
        with pytest.raises(MissingAcceleration):
            rank_classify(circle_multicurve()[:, :2])

    def test_zero_velocity_rejected(self):
        curves = circle_multicurve()
        curves[3, 1, 5] = 0.0
        with pytest.raises(WedgeMismatch):
            rank_classify(curves)

    def test_too_few_samples(self):
        curves = np.stack([circle_curve([0.0, 0.1, 0.2])] * 6)
        with pytest.raises(RankUndefined):
            rank_classify(curves)

    def test_mixed_behaviour_rejected(self):
        ts = [i / 9 for i in range(10)]
        mixed = np.concatenate((circle_curve(ts[:5]), line_curve(ts[5:])), axis=1)
        curves = np.stack([mixed] + [circle_curve(ts)] * 5)
        with pytest.raises(RankUndefined):
            rank_classify(curves)

    def test_sl2_invariance(self, rng):
        from hexameral.hyperlink import link_map, link_multicurve
        from hexameral.domain import smoothed_octagon
        dom = smoothed_octagon()
        state, rep = dom.assembled.states[0], dom.assembled.reps[0]
        for _ in range(10):
            g = random_frame(rng).compose(link_map(state, rep))
            assert rank_classify(link_multicurve(rep, g=g)).value == 1

    def test_reparametrization_invariance(self):
        lam = 2.5
        curves = circle_multicurve()
        curves[:, 1] *= 1.0 / lam
        curves[:, 2] *= 1.0 / (lam * lam)
        assert rank_classify(curves).value == 3

    def test_rank_label_bounds(self):
        with pytest.raises(RankZero):
            RankLabel(0)
        with pytest.raises(RankZero):
            RankLabel(4)
