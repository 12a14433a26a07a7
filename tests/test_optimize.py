"""Five-link density search and the six-to-five link refit experiment."""
import itertools
import math

import numpy as np
import pytest

from hexameral import optimize
from hexameral.chain import (
    ANGLE_TOL,
    STRICT_TOL,
    ChainParams,
    LinkParam,
    angle_margin_of,
    assemble,
    chain_area,
)
from hexameral.domain import OCTAGON_DENSITY, OCTAGON_TAU
from hexameral.errors import GeometryError, InfeasibleInput
from hexameral.optimize import (
    BOUND_FRACTION,
    DEFAULT_BOUNDS,
    FAIL_RESIDUAL,
    FIVE_LINK_PATTERN,
    ROOT_TOL,
    SEGMENT_BOUNDS,
    SNAP_EVALS,
    START_DRAWS,
    TAU_HI,
    EndpointProblem,
    SearchSpec,
    _qp,
    _rank,
    _root,
    _density,
    _Search,
    _stacked_steps,
    _step,
    _trial,
    five_link_problem,
    five_link_search,
    link_reduction_experiment,
    octagon_embedding,
)
from hexameral.sl2 import frame_distance

from conftest import random_reduce_segment, split_octagon_period


def _criterion_13_starts():
    """The twenty starts of acceptance criterion 13, drawn the same way."""
    emb = octagon_embedding()
    lo, hi = five_link_problem().box()
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = rng.standard_normal(7)
        d *= 1e-3 / np.linalg.norm(d)
        yield np.clip(emb + d, lo, hi)


def _branch_counts(monkeypatch) -> dict[str, int]:
    """Counts of the solver branches a search takes, read from the functions
    that choose them: ``_descend``'s Hessian restarts (a QP on the identity
    after its first), and the rounds of ``_roots`` that raise lam on a
    repeated trial, or stop a solve on a tiny step or on a singular system
    (``_step`` hands x itself back)."""
    counts = dict.fromkeys(("restart", "repeat", "stop", "singular"), 0)
    qp, descend, step, stacked = (optimize._qp, optimize._descend, optimize._step,
                                  optimize._stacked_steps)
    first = [True]

    def counted_descend(*args):
        first[0] = True
        return descend(*args)

    def counted_qp(hess, *args):
        counts["restart"] += not first[0] and np.array_equal(hess, np.eye(len(hess)))
        first[0] = False
        return qp(hess, *args)

    def counted_step(x, *args):
        trial, stop, repeat = got = step(x, *args)
        counts["singular"] += trial is x
        counts["stop"] += bool(stop) and trial is not x
        counts["repeat"] += bool(repeat)
        return got

    def counted_stacked(*args):
        got = stacked(*args)
        counts["stop"] += int(got[1].sum())
        counts["repeat"] += int(got[2].sum())
        return got
    for name, counted in (("_qp", counted_qp), ("_descend", counted_descend),
                          ("_step", counted_step), ("_stacked_steps", counted_stacked)):
        monkeypatch.setattr(optimize, name, counted)
    return counts


def _cap_draws(monkeypatch, cap: int) -> None:
    """Fail the test once a search's generator draws more than ``cap``
    times, before starts the budget cannot assemble fill memory."""
    real = np.random.default_rng

    class Capped:
        def __init__(self, seed):
            self.rng, self.draws = real(seed), 0

        def uniform(self, *args, **kwargs):
            self.draws += 1
            assert self.draws <= cap, "drew starts the budget cannot assemble"
            return self.rng.uniform(*args, **kwargs)
    monkeypatch.setattr(np.random, "default_rng", Capped)


class TestDecodeFiveLink:
    def test_wrong_shape(self):
        with pytest.raises(InfeasibleInput):
            five_link_problem().decode([0.0, -0.5, 0.3, 0.3, 0.3])

    def test_tangent_outside_disk(self):
        for a in (0.8, math.nan):  # NaN compares false with the disk's edge
            with pytest.raises(InfeasibleInput):
                five_link_problem().decode([a, -0.7, 0.3, 0.3, 0.3, 0.3, 0.3])

    def test_embedding_structure(self):
        chain = five_link_problem().decode(octagon_embedding())
        f = chain.initial.frame
        assert (f.alpha, f.beta, f.gamma, f.delta) == (1.0, 0.0, 0.0, 1.0)
        assert tuple(l.j for l in chain.links) == FIVE_LINK_PATTERN
        assert chain.links[3].tau == 0.0

    def test_tangent_unit_norm(self):
        chain = five_link_problem().decode([0.1, -0.4, 0.2, 0.2, 0.2, 0.2, 0.2])
        a, b, c = chain.initial.tangent
        assert abs(a * a + b * b + c * c - 1.0) < 1e-15
        assert c > 0.0


class TestFiveLinkObjective:
    def test_embedding_is_feasible_octagon(self):
        ev = five_link_problem().evaluate(octagon_embedding())
        assert abs(ev.value - OCTAGON_DENSITY) < 1e-12
        assert ev.feasible()
        assert ev.violation() < 1e-12

    def test_degenerate_taus_fail_closure(self):
        ev = five_link_problem().evaluate([0.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert ev.value == 0.0
        assert not ev.feasible()
        assert ev.violation() > 0.1

    def test_failed_assembly_is_infinitely_far(self):
        ev = five_link_problem().evaluate([0.9, -0.9, 0.3, 0.3, 0.3, 0.3, 0.3])
        assert (ev.value, ev.report, ev.violation()) == (1.0, None, math.inf)
        point = five_link_problem().point(ev)
        assert point.value == 1.0
        assert np.all(point.gradient == 0.0)
        assert np.all(point.equation_jacobian == 0.0)

    def test_pure_function(self):
        p = [0.05, -0.6, 0.4, 0.5, 0.3, 0.2, 0.6]
        first, second = (five_link_problem().evaluate(p) for _ in range(2))
        assert (first.value, first.violation()) == (second.value, second.violation())

    def test_point_extends_evaluate(self):
        p = [0.05, -0.6, 0.4, 0.5, 0.3, 0.2, 0.6]
        problem = five_link_problem()
        ev = problem.evaluate(p)
        point = problem.point(ev)
        assert point.value == ev.value
        assert point.report == ev.report
        assert np.array_equal(point.residuals, ev.residuals)
        assert ev.gradient is None and point.gradient.shape == (7,)


class TestEndpointProblem:
    def test_bounds_must_fit_the_pattern(self, octagon):
        # two bounds for (a, b) beside one per link when closed, none when open
        with pytest.raises(InfeasibleInput):
            EndpointProblem(FIVE_LINK_PATTERN, _density, 1.0, SEGMENT_BOUNDS)
        segment = (octagon.chain.initial, octagon.chain.initial)
        with pytest.raises(InfeasibleInput):
            EndpointProblem(FIVE_LINK_PATTERN, _density, 1.0, DEFAULT_BOUNDS, segment)

    def test_x_of_the_wrong_length_is_rejected(self, octagon):
        # decode raises InfeasibleInput, and residuals read the failure
        # value, for an open segment's x as for a closed chain's
        six = split_octagon_period(octagon)
        open_problem = EndpointProblem(FIVE_LINK_PATTERN, lambda area: area, 0.0,
                                       SEGMENT_BOUNDS, (six.initial, assemble(six).final))
        for problem, size in ((open_problem, 5), (five_link_problem(), 7)):
            for x in ([0.3] * (size - 2), [0.3] * (size + 2)):
                with pytest.raises(InfeasibleInput):
                    problem.decode(x)
                assert np.array_equal(problem.residuals(x), np.full(7, FAIL_RESIDUAL))
            assert len(problem.decode([0.05, -0.6, 0.3, 0.3, 0.3, 0.3, 0.3][-size:]).links) == 5

    def test_closed_octagon_on_its_own_pattern(self):
        # the octagon's four links (0, 2, 4, 0), without five-link's empty one
        problem = EndpointProblem((0, 2, 4, 0), _density, 1.0,
                                  DEFAULT_BOUNDS[:2] + ((0.0, TAU_HI),) * 4)
        x = np.append(octagon_embedding()[:2], [OCTAGON_TAU] * 4)
        point = problem.point(problem.evaluate(x))
        assert point.feasible()
        assert abs(point.value - OCTAGON_DENSITY) <= 4e-16
        assert np.abs(point.residuals).max() <= 2e-15
        assert point.equation_jacobian.shape == (5, 6)
        sing = np.linalg.svd(point.equation_jacobian, compute_uv=False)
        assert np.linalg.matrix_rank(point.equation_jacobian) == 5
        assert abs(sing[-1] - 0.7776) <= 1e-3


class TestEndpointEquations:
    """The five equations the SQP holds at zero, at the octagon embedding."""

    def test_rank_five(self):
        problem = five_link_problem()
        point = problem.point(problem.evaluate(octagon_embedding()))
        assert np.abs(point.equations).max() < 1e-14
        sing = np.linalg.svd(point.equation_jacobian, compute_uv=False)
        assert sing.shape == (5,)
        assert sing[-1] > 0.5

    def test_jacobian_matches_differences(self):
        # central differences, one-sided in the fourth tau, which sits on its
        # lower bound 0
        problem = five_link_problem()
        x = octagon_embedding()
        point = problem.point(problem.evaluate(x))
        h = 1e-5
        for c in range(7):
            e = np.eye(7)[c]
            read = [np.append(p.equations, p.value)
                    for p in (problem.point(problem.evaluate(x + k * h * e))
                              for k in (-1, 1, 2))]
            if x[c] == 0.0:
                here = np.append(point.equations, point.value)
                diff = (4.0 * read[1] - read[2] - 3.0 * here) / (2.0 * h)
            else:
                diff = (read[1] - read[0]) / (2.0 * h)
            exact = np.append(point.equation_jacobian[:, c], point.gradient[c])
            assert np.abs(diff - exact).max() < 1e-7, (c, diff - exact)


def test_kkt_multipliers_at_the_octagon():
    # the SQP subproblem's multipliers at the embedding: the gradient is a
    # combination of the five equation rows and the active bound tau4 = 0
    problem = five_link_problem()
    x = octagon_embedding()
    point = problem.point(problem.evaluate(x))
    step, lam, nu = _qp(np.eye(7), point, x, *problem.box())
    assert np.abs(step).max() <= 1e-14
    assert np.flatnonzero(nu).tolist() == [5]
    assert nu[5] > 0.0 and abs(nu[5] - 4.563e-3) <= 1e-6
    stationarity = point.gradient + point.equation_jacobian.T @ lam - nu
    assert np.abs(stationarity).max() <= 1e-12
    stacked = np.vstack((point.equation_jacobian, np.eye(7)[5]))
    assert np.linalg.matrix_rank(stacked) == 6


def test_second_order_conditions_at_the_octagon():
    # the active face, where the five equations and tau4 = 0 hold to first
    # order, is one line; the Lagrangian g + A'lam curves upward along it.
    # A face direction with a rounding-level tau4 < 0 fails to assemble on
    # one side, and that side's zero stand-in gradient halves the reading.
    problem = five_link_problem()
    x = octagon_embedding()
    point = problem.point(problem.evaluate(x))
    _, lam, _ = _qp(np.eye(7), point, x, *problem.box())
    stacked = np.vstack((point.equation_jacobian, np.eye(7)[5]))
    assert abs(np.linalg.cond(stacked) - 3.169) <= 1e-3
    face = np.linalg.svd(stacked)[2][-1]
    face[5] = 0.0  # exactly on the bound, so both sides of x stay in the box
    face /= np.linalg.norm(face)

    def lagrangian_gradient(y):
        at = problem.point(problem.evaluate(y))
        return at.gradient + at.equation_jacobian.T @ lam

    h = 1e-5
    curvature = face @ (lagrangian_gradient(x + h * face)
                        - lagrangian_gradient(x - h * face)) / (2.0 * h)
    assert abs(curvature - 0.10777) <= 1e-5


class TestSpecValidation:
    def test_restarts_positive(self):
        with pytest.raises(InfeasibleInput):
            SearchSpec(restarts=0)

    def test_max_evals_nonnegative(self):
        with pytest.raises(InfeasibleInput):
            SearchSpec(max_evals=-1)

    def test_start_dimension(self):
        with pytest.raises(InfeasibleInput):
            SearchSpec(start=(0.0, -0.5, 0.3))

    def test_seed_nonnegative(self):
        with pytest.raises(InfeasibleInput):
            SearchSpec(seed=-1)

    @pytest.mark.parametrize("field,value", [("restarts", 1.5), ("max_evals", 10.7),
                                             ("seed", 0.5), ("seed", 2.0), ("restarts", True),
                                             ("max_evals", False), ("seed", "1")])
    def test_counts_are_integers(self, field, value):
        with pytest.raises(InfeasibleInput, match="must be an integer"):
            SearchSpec(**{field: value})

    def test_malformed_start(self):
        # a start that is no number
        with pytest.raises(InfeasibleInput, match="malformed start"):
            SearchSpec(start=("x",) * 7)

    @pytest.mark.parametrize("index,value", [(0, "0.1"), (2, b"0.3"), (6, False), (3, True)],
                             ids=["str", "bytes", "False", "True"])
    def test_start_entries_are_real_numbers(self, index, value):
        # float() would read "0.1", b"0.3" and the booleans
        start = list(octagon_embedding())
        start[index] = value
        with pytest.raises(InfeasibleInput, match="malformed start"):
            SearchSpec(start=start)

    def test_start_beyond_float_range_rejected(self):
        with pytest.raises(InfeasibleInput, match="malformed start"):
            SearchSpec(start=[10**400] + [0.0] * 6)

    def test_start_of_numeric_strings_rejected(self):
        with pytest.raises(InfeasibleInput, match="malformed start"):
            SearchSpec(start=[str(v) for v in octagon_embedding()])

    def test_numpy_integers_accepted(self):
        spec = SearchSpec(restarts=np.int64(2), max_evals=np.int32(0), seed=np.uint8(3))
        assert (spec.restarts, spec.max_evals, spec.seed) == (2, 0, 3)
        assert all(type(v) is int for v in (spec.restarts, spec.max_evals, spec.seed))

    @pytest.mark.parametrize("index,value", [(0, 0.7), (1, -1.0), (2, 1.2), (6, -0.1),
                                             (3, float("nan"))])
    def test_start_inside_bounds(self, index, value):
        start = list(octagon_embedding())
        SearchSpec(start=start)
        start[index] = value
        with pytest.raises(InfeasibleInput):
            SearchSpec(start=start, max_evals=0)


class TestNewtonTrial:
    """The trial of a Newton step in the box [0, 1]^3.  With J = I and
    lam = 0, ``_step`` and ``_stacked_steps`` step from x by -r."""

    lo, hi = np.zeros(3), np.ones(3)

    def _stepped(self, x, step):
        x, r = np.array(x), -np.array(step)
        alone, stop, _ = _step(x, np.eye(3), r, self.lo, self.hi, 0.0, np.full(3, np.nan))
        stacked = _stacked_steps(x[None], np.eye(3)[None], r[None], self.lo[None],
                                 self.hi[None], np.zeros(1), np.full((1, 3), np.nan))[0][0]
        assert not stop and alone.tobytes() == stacked.tobytes()
        return alone

    def test_upper_bound_stops_the_step_short(self):
        x, step = np.full(3, 0.5), np.array([1.0, 0.2, -0.2])
        trial = self._stepped(x, step)
        # BOUND_FRACTION of the way to the bound, in the step's direction
        assert trial[0] < 1.0 and abs(trial[0] - (0.5 + BOUND_FRACTION * 0.5)) < 1e-15
        assert np.allclose(trial - x, 0.5 * BOUND_FRACTION * step, rtol=0.0, atol=1e-15)

    def test_first_upper_bound_crossed_binds(self):
        trial = self._stepped([0.5, 0.5, 0.5], [1.0, 2.0, 0.0])
        assert np.allclose(trial, 0.5 + 0.25 * BOUND_FRACTION * np.array([1.0, 2.0, 0.0]),
                           rtol=0.0, atol=1e-15)

    def test_lower_bound_clips_onto_it(self):
        trial = self._stepped([0.5, 0.5, 0.5], [-1.0, 0.2, 0.0])
        assert trial.tolist() == [0.0, 0.7, 0.5]

    def test_coordinate_on_an_upper_bound_leaves_the_others_free(self):
        trial = _trial(np.array([1.0, 0.5, 0.5]), np.array([0.3, 0.2, -0.1]), self.lo, self.hi)
        assert trial.tolist() == [1.0, 0.7, 0.4]

    def test_singular_system_stops_its_solve_alone(self, monkeypatch):
        # one free set, so one stacked solve, which raises: the second
        # Jacobian has a zero column, so its system is singular
        xs, lo, hi = np.full((2, 3), 0.5), np.zeros((2, 3)), np.ones((2, 3))
        js = np.stack((np.eye(3), np.diag([1.0, 1.0, 0.0])))
        rs, lam = np.tile([0.1, -0.2, 0.05], (2, 1)), np.full(2, 1e-3)
        rejected = np.full((2, 3), np.nan)
        alone = [_step(*row) for row in zip(xs, js, rs, lo, hi, lam, rejected)]
        solve, shapes = np.linalg.solve, []

        def counted(a, b):
            shapes.append(np.shape(a))
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted)
        trials, stop, repeat = _stacked_steps(xs, js, rs, lo, hi, lam, rejected)
        assert shapes == [(2, 3, 3), (3, 3), (3, 3)]
        assert stop.tolist() == [False, True] and repeat.tolist() == [False, False]
        # each row as _step gives it alone: a step, and x itself on the singular system
        assert not alone[0][1] and trials[0].tobytes() == alone[0][0].tobytes()
        assert alone[1][1:] == (True, False)
        assert trials[1].tobytes() == alone[1][0].tobytes() == xs[1].tobytes()

    def test_stacked_rows_take_the_bits_of_each_alone(self, rng):
        xs = rng.uniform(0.0, 1.0, (64, 5))
        xs[::4, 0], xs[1::4, 1] = 1.0, 0.0
        steps = rng.normal(scale=0.5, size=(64, 5))
        lo, hi = np.zeros((64, 5)), np.ones((64, 5))
        stacked = _trial(xs, steps, lo, hi)
        assert np.all((lo <= stacked) & (stacked <= hi))
        for k in range(64):
            assert stacked[k].tobytes() == _trial(xs[k], steps[k], lo[k], hi[k]).tobytes()


class TestFiveLinkSearch:
    def test_zero_budget_reports_start(self):
        start = tuple(float(v) for v in octagon_embedding())
        spec = SearchSpec(start=start, max_evals=0)
        result = five_link_search(spec)
        assert result.best_params == start
        assert result.eval_count == 1
        assert result.feasible

    def test_deterministic(self):
        spec = SearchSpec(restarts=2, max_evals=400, seed=3)
        r1 = five_link_search(spec)
        r2 = five_link_search(spec)
        assert r1.best_params == r2.best_params
        assert r1.best_density == r2.best_density
        assert r1.eval_count == r2.eval_count

    def test_embedding_seeded_stays_at_octagon(self):
        start = tuple(float(v) for v in octagon_embedding())
        spec = SearchSpec(start=start, restarts=1, max_evals=1500, seed=0)
        result = five_link_search(spec)
        assert result.feasible
        assert result.best_density <= OCTAGON_DENSITY + 1e-12
        assert result.best_density >= OCTAGON_DENSITY - 1e-9
        assert result.closure.residual() < STRICT_TOL

    @pytest.mark.parametrize("max_evals", [1, 2, 5, 13, 40, 150])
    def test_max_evals_caps_evaluations(self, max_evals):
        for seed in (0, 1):
            spec = SearchSpec(restarts=3, max_evals=max_evals, seed=seed)
            assert 1 <= five_link_search(spec).eval_count <= max_evals
        start = tuple(float(v) for v in octagon_embedding() + 1e-3)
        result = five_link_search(SearchSpec(start=start, restarts=1, max_evals=max_evals))
        assert 1 <= result.eval_count <= max_evals

    def test_cold_seed_reaches_octagon(self):
        result = five_link_search(SearchSpec(restarts=3, max_evals=6000, seed=1))
        assert result.feasible
        assert result.eval_count <= 6000
        assert abs(result.best_density - OCTAGON_DENSITY) <= 1e-12

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_cold_starts_that_never_assemble_are_redrawn(self, seed):
        # all three up-front starts of these seeds fail at link 0 or at
        # decoding
        result = five_link_search(SearchSpec(restarts=3, max_evals=6000, seed=seed))
        assert result.feasible
        assert abs(result.best_density - OCTAGON_DENSITY) <= 1e-9

    def test_given_start_is_not_redrawn(self):
        # tangent components outside the unit disk: the start cannot decode
        start = (0.6, -0.99, 0.5, 0.5, 0.5, 0.5, 0.5)
        result = five_link_search(SearchSpec(start=start, restarts=1, max_evals=50))
        assert not result.feasible
        assert result.best_params == start

    @pytest.mark.parametrize("seed", [1, 13])
    def test_each_point_is_assembled_once(self, seed, monkeypatch):
        # seeds whose restoring solves end on a rejected trial, after which
        # the descent must not assemble the solve's end again
        real, seen = EndpointProblem.assembly, []

        def recorded(self, x):
            seen.append(np.asarray(x, dtype=float).tobytes())
            return real(self, x)
        monkeypatch.setattr(EndpointProblem, "assembly", recorded)
        result = five_link_search(SearchSpec(seed=seed))
        assert len(seen) == result.eval_count
        assert len(seen) - len(set(seen)) == 0  # no point assembled twice

    def test_criterion_13_starts_reach_octagon(self):
        for i, start in enumerate(_criterion_13_starts()):
            result = five_link_search(SearchSpec(start=tuple(float(v) for v in start),
                                                 restarts=1, max_evals=2000, seed=i))
            assert result.feasible
            assert abs(result.best_density - OCTAGON_DENSITY) <= 1e-13, i

    def test_criterion_13_snaps_end_at_roots(self):
        # a solve runs on while its residual exceeds ROOT_TOL: its step test
        # must not end it a step short
        for i, start in enumerate(_criterion_13_starts()):
            end = _root(_Search(), five_link_problem(), start, SNAP_EVALS)
            assert np.abs(end.residuals).max() <= ROOT_TOL, i

    @pytest.mark.parametrize("seed,branch", [(42, "restart"), (62, "restart"), (12, "repeat"),
                                             (17, "stop"), (45, "singular"), (65, "singular")])
    def test_cold_seed_takes_a_rare_solver_branch(self, seed, branch, monkeypatch):
        counts = _branch_counts(monkeypatch)
        result = five_link_search(SearchSpec(seed=seed))
        assert counts[branch] >= 1, counts
        assert result.feasible and abs(result.best_density - OCTAGON_DENSITY) <= 1.7e-15

    def test_restarts_past_the_budget_draw_one_start(self, monkeypatch):
        # max_evals // restarts is 0 from 6001 restarts on, so only the
        # first start, redraws included, can assemble
        _cap_draws(monkeypatch, START_DRAWS)
        results = [five_link_search(SearchSpec(restarts=n, seed=1)) for n in (6001, 10**6)]
        assert results[0] == results[1]
        assert results[0].eval_count == 1

    def test_cold_seeds_report_no_closure_slack(self):
        # only points on closure compete on density: no seed reports a
        # density below the octagon's bought with a closure residual
        for seed in range(12):
            result = five_link_search(SearchSpec(restarts=3, max_evals=6000, seed=seed))
            assert result.feasible, seed
            assert result.closure.residual() <= 1e-13, seed
            assert OCTAGON_DENSITY - 1e-13 <= result.best_density <= OCTAGON_DENSITY + 1e-9

    def test_runs_without_scipy(self, monkeypatch):
        # every scipy module made unimportable: neither search may need one
        import sys
        for name in ["scipy"] + [m for m in sys.modules if m.startswith("scipy.")]:
            monkeypatch.setitem(sys.modules, name, None)
        start = tuple(float(v) for v in octagon_embedding() + 1e-3)
        assert five_link_search(SearchSpec(start=start, restarts=1, max_evals=200)).feasible
        assert five_link_search(SearchSpec(restarts=2, max_evals=600, seed=1)).feasible

    def test_infeasible_points_rank_by_violation(self):
        from hexameral.optimize import _rank
        problem = five_link_problem()
        near = problem.evaluate(octagon_embedding() + 1e-4)
        far = problem.evaluate([0.0, -0.5, 0.3, 0.3, 0.3, 0.3, 0.3])
        failed = problem.evaluate([0.9, -0.9, 0.3, 0.3, 0.3, 0.3, 0.3])
        assert not (near.feasible() or far.feasible())
        assert near.violation() < far.violation() < failed.violation()
        assert _rank(near) < _rank(far) < _rank(failed)

    def test_feasible_means_closed(self):
        spec = SearchSpec(restarts=2, max_evals=1200, seed=1)
        result = five_link_search(spec)
        if result.feasible:
            assert result.closure.closed(STRICT_TOL)
            chain = five_link_problem().decode(np.array(result.best_params))
            area = 2.0 * chain_area(chain)
            assert abs(area / math.sqrt(12.0) - result.best_density) < 1e-12


class TestLinkReduction:
    def test_wrong_length_rejected(self, octagon):
        with pytest.raises(InfeasibleInput):
            link_reduction_experiment(octagon.chain, SearchSpec())

    def test_start_rejected(self, octagon):
        # the taus span SEGMENT_BOUNDS from the search's own starts
        with pytest.raises(InfeasibleInput, match="no start point"):
            link_reduction_experiment(split_octagon_period(octagon),
                                      SearchSpec(start=octagon_embedding()))

    def test_non_assembling_rejected(self):
        from hexameral.hyperlink import LinkState
        from hexameral.sl2 import FrameMatrix, TangentElement
        bad_state = LinkState(
            FrameMatrix(1.0, 0.0, 0.0, 1.0),
            TangentElement(0.0, 1.0, 1.0).unit())
        bad = ChainParams(bad_state, (LinkParam(0.2, 0),) * 6)
        with pytest.raises(InfeasibleInput):
            link_reduction_experiment(bad, SearchSpec())

    def test_octagon_period_refits_exactly(self, octagon):
        six = split_octagon_period(octagon)
        assert abs(chain_area(six) - chain_area(octagon.chain)) < 1e-12
        spec = SearchSpec(restarts=1, max_evals=3000, seed=5)
        report = link_reduction_experiment(six, spec)
        assert report.feasible
        assert not report.improved
        assert abs(report.five_area - report.six_area) < 1e-8
        assert report.endpoint_residual < STRICT_TOL
        assert report.five_area >= report.six_area - 1e-9

    @pytest.mark.parametrize("max_evals", [1, 7, 60, 250, 600])
    def test_max_evals_caps_evaluations(self, octagon, max_evals):
        for six in (split_octagon_period(octagon), random_reduce_segment(octagon)):
            report = link_reduction_experiment(
                six, SearchSpec(restarts=1, max_evals=max_evals))
            assert 1 <= report.eval_count <= max_evals

    def test_zero_budget_evaluates_once(self, octagon):
        report = link_reduction_experiment(split_octagon_period(octagon),
                                           SearchSpec(restarts=1, max_evals=0))
        assert report.eval_count == 1
        assert report.root_count == 0

    def test_default_budgets_do_not_bind(self, octagon):
        six = random_reduce_segment(octagon)
        reports = [link_reduction_experiment(six, SearchSpec(restarts=1, max_evals=m))
                   for m in (3000, 6000)]
        assert reports[0] == reports[1]
        assert reports[0].eval_count < 1000

    def test_every_assembly_is_counted_once(self, octagon, monkeypatch):
        import hexameral.chain as chain_module
        import hexameral.optimize as optimize_module
        real, real_rows = chain_module.assemble, optimize_module.assemble_rows
        calls = []

        def counted(chain):
            # a list of chains is one batched assembly
            calls.extend(chain if isinstance(chain, list) else [chain])
            return real(chain)

        def counted_rows(starts, taus, js):
            # one assembly per row
            calls.extend(starts)
            return real_rows(starts, taus, js)
        monkeypatch.setattr(chain_module, "assemble", counted)
        monkeypatch.setattr(optimize_module, "assemble", counted)
        monkeypatch.setattr(optimize_module, "assemble_rows", counted_rows)
        report = link_reduction_experiment(split_octagon_period(octagon),
                                           SearchSpec(restarts=1, max_evals=3000))
        # the segment's own assembly, then one per evaluation
        assert len(calls) == report.eval_count + 1

    def test_iterates_stay_in_the_box_and_assemble_once(self, octagon, monkeypatch):
        import hexameral.optimize as optimize_module
        real, real_rows = optimize_module.assemble, optimize_module.assemble_rows
        for six in (split_octagon_period(octagon), random_reduce_segment(octagon)):
            calls = []

            def recorded(chain):
                # a list of chains is one batched assembly
                calls.extend(c.links for c in (chain if isinstance(chain, list) else [chain]))
                return real(chain)

            def recorded_rows(starts, taus, js):
                # one assembly per row, its links (tau, j)
                calls.extend(tuple(zip(*row)) for row in zip(taus.tolist(), js.tolist()))
                return real_rows(starts, taus, js)
            monkeypatch.setattr(optimize_module, "assemble", recorded)
            monkeypatch.setattr(optimize_module, "assemble_rows", recorded_rows)
            link_reduction_experiment(six, SearchSpec(restarts=1, max_evals=3000))
            refits = calls[1:]
            assert all(0.0 <= tau <= TAU_HI for links in refits for tau, _ in links)
            assert len(set(refits)) == len(refits)

    def test_chains_are_built_only_where_evaluated(self, octagon, monkeypatch):
        # a chain is decoded for an assembly on floats (small rounds) or for
        # an evaluation, never for each row of a batched round
        import hexameral.optimize as optimize_module
        counts = {}

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        count(optimize_module, "ChainParams")
        count(EndpointProblem, "assembly")
        count(EndpointProblem, "evaluate")
        report = link_reduction_experiment(split_octagon_period(octagon),
                                           SearchSpec(restarts=1, max_evals=3000))
        assert counts["ChainParams"] <= counts["assembly"] + counts["evaluate"]
        assert counts["ChainParams"] < report.eval_count / 2

    @pytest.mark.parametrize("max_evals", [17, 40, 60])
    def test_best_is_the_first_least_start_or_end(self, octagon, monkeypatch, max_evals):
        # the incumbent, against every start and end of every solve, each
        # evaluated on floats, taken in the order the solves offer them
        import hexameral.optimize as optimize_module
        real = optimize_module._roots
        for six in (split_octagon_period(octagon), random_reduce_segment(octagon)):
            seen = []

            def recorded(run, solves):
                seen.append((solves, real(run, solves)))
                return seen[-1][1]
            monkeypatch.setattr(optimize_module, "_roots", recorded)
            report = link_reduction_experiment(six, SearchSpec(restarts=1, max_evals=max_evals))
            ((solves, ends),) = seen
            best = None
            # one _roots call, handed only the solves whose starts the budget admits
            for (problem, x, _, _), end in zip(solves, ends):
                lo, hi = problem.box()
                start = problem.evaluate(np.minimum(np.maximum(x, lo), hi))
                for ev in (start, end):
                    if ev is not None and (best is None or _rank(ev) < _rank(best)):
                        best = ev
            assert report.five_area == best.value
            assert report.five_links == best.chain.links
            assert report.endpoint_residual == float(np.max(np.abs(best.residuals)))
            assert report.feasible == best.feasible()

    def test_restarts_past_the_budget_draw_no_more_starts(self, octagon, monkeypatch):
        # only the first max_evals starts can assemble
        _cap_draws(monkeypatch, 3000)
        for six in (split_octagon_period(octagon), random_reduce_segment(octagon)):
            reports = [link_reduction_experiment(six, SearchSpec(restarts=n, max_evals=3000))
                       for n in (3000, 10**6)]
            assert reports[0] == reports[1]

    def test_rootless_pattern_stops_within_its_budget(self, octagon):
        six = split_octagon_period(octagon)
        problem = EndpointProblem((0, 2, 0, 2, 0), lambda area: area, 0.0, SEGMENT_BOUNDS,
                                  (six.initial, assemble(six).final))
        for budget in (1, 3, 61):
            run = _Search()
            end = _root(run, problem, np.full(5, 0.3), budget)
            assert not end.feasible()
            assert 1 <= run.evals <= budget
        # the stall, not the budget, ends the full solve
        assert run.evals < 30

    def test_reaches_the_lower_root(self, octagon):
        report = link_reduction_experiment(random_reduce_segment(octagon),
                                           SearchSpec(restarts=1, max_evals=3000))
        assert report.feasible and report.improved
        assert report.five_area <= 0.3125330071980235
        assert report.root_count >= 1


def _random_segments(octagon, rng, count: int):
    """Six consecutive-distinct links from the octagon's start that assemble
    and meet the angle condition."""
    segments = []
    while len(segments) < count:
        js = [int(rng.choice((0, 2, 4)))]
        while len(js) < 6:
            js.append(int(rng.choice([j for j in (0, 2, 4) if j != js[-1]])))
        taus = rng.uniform(0.05, 0.4, 6)
        segment = ChainParams(octagon.chain.initial,
                              tuple(LinkParam(float(t), j) for t, j in zip(taus, js)))
        try:
            assembled = assemble(segment)
        except GeometryError:
            continue
        if angle_margin_of(segment, assembled) >= -ANGLE_TOL:
            segments.append(segment)
    return segments


def test_feasible_refits_reassemble_to_the_target(octagon):
    feasible = 0
    for segment in _random_segments(octagon, np.random.default_rng(7), 4):
        report = link_reduction_experiment(segment, SearchSpec(restarts=1, max_evals=3000))
        if not report.feasible:
            continue
        feasible += 1
        target = assemble(segment).final
        refit = ChainParams(segment.initial, report.five_links)
        assembled = assemble(refit)
        assert frame_distance(assembled.final.frame, target.frame) <= STRICT_TOL
        assert target.tangent.distance(assembled.final.tangent) <= STRICT_TOL
        assert angle_margin_of(refit, assembled) >= -ANGLE_TOL
        assert abs(assembled.area() - report.five_area) <= 1e-12
    assert feasible >= 2


def test_feasible_reductions_end_at_roots(octagon):
    # segments whose best stopped a step short of a root under a looser step test
    segments = [random_reduce_segment(octagon)]
    for seed in (5, 7, 9):
        segments += _random_segments(octagon, np.random.default_rng(seed), 3)
    for segment in segments:
        report = link_reduction_experiment(segment, SearchSpec(restarts=1, max_evals=3000))
        assert report.feasible
        assert report.endpoint_residual <= ROOT_TOL


def _polished_root(problem: EndpointProblem, x) -> np.ndarray | None:
    """x with every tau within 1e-6 of a bound held on it and the others
    moved by Gauss-Newton steps to a residual of at most 1e-13; None where
    that fails or leaves the box."""
    lo, hi = problem.box()
    x = np.where(x - lo <= 1e-6, lo, np.where(hi - x <= 1e-6, hi, x))
    free = (lo < x) & (x < hi)
    for _ in range(10):
        r = problem.residuals(x)
        if np.max(np.abs(r)) <= 1e-13:
            return x if np.all((lo <= x) & (x <= hi)) else None
        x[free] -= np.linalg.lstsq(problem.jacobian(x)[:, free], r, rcond=None)[0]
    return None


def _least_reference_root(segment: ChainParams) -> float | None:
    """The least area among strictly closed exact roots from a per-pattern
    Newton solve from tau = 0.3, run with scipy's gtol and ftol off and a
    generous iteration bound, its end point polished to a residual of at
    most 1e-13; None where no pattern has one."""
    from scipy.optimize import least_squares
    ends = (segment.initial, assemble(segment).final)
    lo, hi = np.array(SEGMENT_BOUNDS).T
    least = None
    for pattern in itertools.product((0, 2, 4), repeat=5):
        if any(a == b for a, b in zip(pattern, pattern[1:])):
            continue
        problem = EndpointProblem(pattern, lambda area: area, 0.0, SEGMENT_BOUNDS, ends)
        x = least_squares(problem.residuals, np.full(5, 0.3), jac=problem.jacobian,
                          bounds=(lo, hi), ftol=None, gtol=None, max_nfev=100).x
        x = _polished_root(problem, x)
        if x is None:
            continue
        ev = problem.evaluate(x)
        if ev.feasible() and (least is None or ev.value < least):
            least = ev.value
    return least


def test_reduction_reaches_the_least_reference_root(octagon):
    """The stop rule ends no solve short of an exact root the reference
    reaches, and the reported refit is itself an exact root."""
    rooted = 0
    for segment in _random_segments(octagon, np.random.default_rng(11), 8):
        least = _least_reference_root(segment)
        report = link_reduction_experiment(segment, SearchSpec(restarts=1, max_evals=3000))
        if least is None:
            continue
        rooted += 1
        assert report.feasible
        assert report.five_area <= least + 1e-12
        assert report.endpoint_residual <= 1e-12
    assert rooted >= 6


def test_embedding_closure_is_tight():
    chain = five_link_problem().decode(octagon_embedding())
    from hexameral.chain import closure_report
    report = closure_report(chain)
    assert report.frame_residual < 1e-12
    assert report.tangent_residual < 1e-12
    assert report.angle_ok


def test_embedding_matches_octagon_tangent(octagon):
    from hexameral.hyperlink import circle_tangent
    chain = five_link_problem().decode(octagon_embedding())
    target = circle_tangent(octagon.chain.initial).unit()
    assert chain.initial.tangent.distance(target) < 1e-15
    assert abs(chain.links[0].tau - octagon.chain.links[0].tau) < 1e-15


def test_solvers_are_module_attributes():
    # no search calls scipy's solvers, but the benchmark's tracer still binds
    # them under these names, which import scipy.optimize on lookup
    import scipy.optimize

    from hexameral import optimize
    assert optimize.minimize is scipy.optimize.minimize
    assert optimize.least_squares is scipy.optimize.least_squares
    with pytest.raises(AttributeError):
        optimize.differential_evolution
