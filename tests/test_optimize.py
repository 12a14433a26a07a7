"""Five-link density search and the six-to-five link refit experiment."""
import itertools
import math

import numpy as np
import pytest

from hexameral.chain import (
    ANGLE_TOL,
    STRICT_TOL,
    ChainParams,
    LinkParam,
    angle_margin_of,
    assemble,
    chain_area,
)
from hexameral.domain import OCTAGON_DENSITY
from hexameral.errors import GeometryError, InfeasibleInput
from hexameral.optimize import (
    DEFAULT_BOUNDS,
    FIVE_LINK_PATTERN,
    SEGMENT_BOUNDS,
    TAU_HI,
    EndpointProblem,
    SearchSpec,
    _qp,
    _root,
    _Search,
    decode_five_link,
    five_link_problem,
    five_link_search,
    link_reduction_experiment,
    octagon_embedding,
)
from hexameral.sl2 import frame_distance

from conftest import random_reduce_segment, split_octagon_period


class TestDecodeFiveLink:
    def test_wrong_shape(self):
        with pytest.raises(InfeasibleInput):
            decode_five_link([0.0, -0.5, 0.3, 0.3, 0.3])

    def test_tangent_outside_disk(self):
        with pytest.raises(InfeasibleInput):
            decode_five_link([0.8, -0.7, 0.3, 0.3, 0.3, 0.3, 0.3])

    def test_embedding_structure(self):
        chain = decode_five_link(octagon_embedding())
        f = chain.initial.frame
        assert (f.alpha, f.beta, f.gamma, f.delta) == (1.0, 0.0, 0.0, 1.0)
        assert tuple(l.j for l in chain.links) == FIVE_LINK_PATTERN
        assert chain.links[3].tau == 0.0

    def test_tangent_unit_norm(self):
        chain = decode_five_link([0.1, -0.4, 0.2, 0.2, 0.2, 0.2, 0.2])
        a, b, c = chain.initial.tangent.components()
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
    def test_empty_bound_interval(self):
        bounds = (((0.5, 0.5),) + SearchSpec().bounds[1:])
        with pytest.raises(InfeasibleInput):
            SearchSpec(bounds=bounds)

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
        # the twenty starts of acceptance criterion 13, drawn the same way
        emb = octagon_embedding()
        lo = np.array([b[0] for b in DEFAULT_BOUNDS])
        hi = np.array([b[1] for b in DEFAULT_BOUNDS])
        rng = np.random.default_rng(0)
        for i in range(20):
            d = rng.standard_normal(7)
            d *= 1e-3 / np.linalg.norm(d)
            start = np.clip(emb + d, lo, hi)
            result = five_link_search(SearchSpec(start=tuple(float(v) for v in start),
                                                 restarts=1, max_evals=2000, seed=i))
            assert result.feasible
            assert abs(result.best_density - OCTAGON_DENSITY) <= 1e-13, i

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
            chain = decode_five_link(np.array(result.best_params))
            area = 2.0 * chain_area(chain)
            assert abs(area / math.sqrt(12.0) - result.best_density) < 1e-12


class TestLinkReduction:
    def test_wrong_length_rejected(self, octagon):
        with pytest.raises(InfeasibleInput):
            link_reduction_experiment(octagon.chain, SearchSpec())

    def test_non_assembling_rejected(self):
        from hexameral.hyperlink import LinkState
        from hexameral.sl2 import (FrameMatrix, ProjectiveTangent,
                                   TangentElement)
        bad_state = LinkState(
            FrameMatrix(1.0, 0.0, 0.0, 1.0),
            ProjectiveTangent.from_tangent(TangentElement(0.0, 1.0, 1.0)))
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
        real = chain_module.assemble
        calls = []

        def counted(chain):
            # a list of chains is one batched assembly
            calls.extend(chain if isinstance(chain, list) else [chain])
            return real(chain)
        monkeypatch.setattr(chain_module, "assemble", counted)
        monkeypatch.setattr(optimize_module, "assemble", counted)
        report = link_reduction_experiment(split_octagon_period(octagon),
                                           SearchSpec(restarts=1, max_evals=3000))
        # the segment's own assembly, then one per evaluation
        assert len(calls) == report.eval_count + 1

    def test_iterates_stay_in_the_box_and_assemble_once(self, octagon, monkeypatch):
        import hexameral.optimize as optimize_module
        real = optimize_module.assemble
        for six in (split_octagon_period(octagon), random_reduce_segment(octagon)):
            calls = []

            def recorded(chain):
                # a list of chains is one batched assembly
                calls.extend(c.links for c in (chain if isinstance(chain, list) else [chain]))
                return real(chain)
            monkeypatch.setattr(optimize_module, "assemble", recorded)
            link_reduction_experiment(six, SearchSpec(restarts=1, max_evals=3000))
            refits = calls[1:]
            assert all(0.0 <= tau <= TAU_HI for links in refits for tau, _ in links)
            assert len(set(refits)) == len(refits)

    def test_rootless_pattern_stops_within_its_budget(self, octagon):
        six = split_octagon_period(octagon)
        problem = EndpointProblem(
            lambda taus: ChainParams(six.initial, tuple(zip(taus, (0, 2, 0, 2, 0)))),
            lambda area: area, 0.0, SEGMENT_BOUNDS, assemble(six).final)
        for budget in (1, 3, 61):
            run = _Search(False)
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
    target = assemble(segment).final
    lo, hi = np.array(SEGMENT_BOUNDS).T
    least = None
    for pattern in itertools.product((0, 2, 4), repeat=5):
        if any(a == b for a, b in zip(pattern, pattern[1:])):
            continue
        problem = EndpointProblem(
            lambda taus, p=pattern: ChainParams(segment.initial, tuple(zip(taus, p))),
            lambda area: area, 0.0, SEGMENT_BOUNDS, target)
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
    chain = decode_five_link(octagon_embedding())
    from hexameral.chain import closure_report
    report = closure_report(chain)
    assert report.frame_residual < 1e-12
    assert report.tangent_residual < 1e-12
    assert report.angle_ok


def test_embedding_matches_octagon_tangent(octagon):
    from hexameral.hyperlink import circle_tangent
    from hexameral.sl2 import ProjectiveTangent
    chain = decode_five_link(octagon_embedding())
    target = ProjectiveTangent.from_tangent(
        circle_tangent(octagon.chain.initial))
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
