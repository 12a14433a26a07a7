"""Searches over chain parameters.

Both experiments are one endpoint problem: minimise an area functional over
link parameters subject to the chain ending in a target state, with the
endpoint residuals and their exact Jacobian.  The five-link density search
targets the start state turned by pi/3 (a closed chain) and runs
Nelder-Mead with quadratic exterior penalties, a least-squares feasibility
polish and a projected descent, so reported incumbents sit on the
constraint set rather than inside the penalty dead band.  Link reduction
refits a six-link segment with five links ending in the segment's own end
state: per index pattern that is five equations in five turning fractions,
solved by bounded Newton steps (``least_squares`` on the exact Jacobian)
from each start; the least area among the strictly closed roots wins.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chain import (
    ANGLE_TOL,
    FEASIBLE_TOL,
    STRICT_TOL,
    ChainParams,
    ClosureReport,
    LinkParam,
    angle_margin_of,
    assemble,
    assemble_jacobian,
    closure_of,
    end_target,
    merged_links,
)
from .domain import SQRT12, smoothed_octagon
from .errors import GeometryError, InfeasibleInput
from .hyperlink import LinkState, circle_tangent
from .sl2 import (
    IDENTITY,
    ROT60,
    ProjectiveTangent,
    TangentElement,
    _adjoint_matrix,
    _inverse,
    _sphere_basis,
)

FIVE_LINK_PATTERN = (0, 2, 4, 2, 0)
TAU_HI = 1.0 - 1e-6
FAIL_PENALTY_SCALE = 7.0
FAIL_RESIDUAL = 1.0e3
IMPROVEMENT_MARGIN = 1e-9

DEFAULT_BOUNDS = (
    (-0.6, 0.6),
    (-0.99, -0.01),
    (0.0, TAU_HI),
    (0.0, TAU_HI),
    (0.0, TAU_HI),
    (0.0, TAU_HI),
    (0.0, TAU_HI),
)
SEGMENT_BOUNDS = ((0.0, TAU_HI),) * 5

_NO_CLOSURE = ClosureReport(math.inf, math.inf, False, -math.inf)

# scipy's solvers become the module globals ``least_squares`` and
# ``minimize`` on first use, through _load_solvers or a module attribute
# lookup: importing scipy.optimize costs about half a second that callers
# who never search should not pay.
_SOLVERS = ("least_squares", "minimize")


def _load_solvers() -> None:
    if "minimize" not in globals():
        from scipy import optimize as solvers

        for name in _SOLVERS:
            globals()[name] = getattr(solvers, name)


def __getattr__(name: str):
    if name in _SOLVERS:
        _load_solvers()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class PenaltyWeights:
    """Positive weights for closure, angle, and assembly-failure penalties."""

    closure: float = 1.0e6
    angle: float = 1.0e6
    feasibility: float = 10.0

    def __post_init__(self) -> None:
        if min(self.closure, self.angle, self.feasibility) <= 0.0:
            raise InfeasibleInput("penalty weights must be positive")


@dataclass(frozen=True)
class SearchSpec:
    bounds: tuple[tuple[float, float], ...] = DEFAULT_BOUNDS
    penalty_weights: PenaltyWeights = PenaltyWeights()
    restarts: int = 3
    max_evals: int = 6000
    seed: int = 0
    start: tuple[float, ...] | None = None
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.bounds:
            raise InfeasibleInput("bounds must be nonempty")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise InfeasibleInput(f"empty bound interval ({lo!r}, {hi!r})")
        if self.restarts < 1:
            raise InfeasibleInput("restarts must be at least 1")
        if self.max_evals < 0:
            raise InfeasibleInput("max_evals must be nonnegative")
        if self.start is not None:
            object.__setattr__(self, "start", tuple(float(v) for v in self.start))
            if len(self.start) != len(self.bounds):
                raise InfeasibleInput("start point has the wrong dimension")


@dataclass(frozen=True)
class SearchResult:
    best_params: tuple[float, ...]
    best_density: float
    closure: ClosureReport
    feasible: bool
    eval_count: int
    trace: tuple[tuple[int, float], ...] | None


def _hinge(value: float, slack: float) -> float:
    return max(0.0, value - slack)


def _closure_penalty(report: ClosureReport, w: PenaltyWeights) -> float:
    pen = w.closure * (
        _hinge(report.frame_residual, FEASIBLE_TOL) ** 2
        + _hinge(report.tangent_residual, FEASIBLE_TOL) ** 2
    )
    pen += w.angle * _hinge(-report.angle_margin, ANGLE_TOL) ** 2
    return pen


def _endpoint_residuals(final: LinkState, target: LinkState) -> np.ndarray:
    """End state minus target: four frame entries, three tangent components."""
    frame_diff = np.array(final.frame.entries()) - np.array(target.frame.entries())
    tangent_diff = np.array(final.tangent.components()) - np.array(
        target.tangent.components()
    )
    return np.concatenate([frame_diff, tangent_diff])


def _endpoint_jacobian(state: LinkState) -> np.ndarray:
    """Derivative of a state's seven residual entries in its local coordinates.

    The frame F moves as F exp(xi), so its entries move as F xi; the tangent
    moves along its sphere basis.
    """
    al, be, ga, de = state.frame.entries()
    (p0, p1, p2), (q0, q1, q2) = _sphere_basis(*state.tangent.components())
    return np.array(((al, 0.0, be, 0.0, 0.0), (-be, al, 0.0, 0.0, 0.0),
                     (ga, 0.0, de, 0.0, 0.0), (-de, ga, 0.0, 0.0, 0.0),
                     (0.0, 0.0, 0.0, p0, q0), (0.0, 0.0, 0.0, p1, q1),
                     (0.0, 0.0, 0.0, p2, q2)))


# A start frame F0 moved to F0 exp(xi) turns its target F0 R into
# F0 R exp(Ad(R^{-1}) xi), R the rotation by pi/3.
_TARGET_TURN = np.array(_adjoint_matrix(_inverse(ROT60.entries())))


def _fixed_start(x, chain: ChainParams) -> np.ndarray:
    """Start-state derivative of a decoder whose variables are all taus."""
    return np.zeros((5, len(x) - len(chain.links)))


class Evaluation(NamedTuple):
    """One point of an endpoint problem; ``report`` is None where assembly failed."""

    value: float
    penalty: float
    residuals: np.ndarray
    report: ClosureReport | None
    chain: ChainParams | None

    def feasible(self) -> bool:
        """Strict closure, not merely a vanishing penalty.

        The penalty's dead band (residuals up to the feasibility tolerance)
        admits chains that miss their target by enough to shift the value
        at the same order, and those must not be reported as optima.
        """
        return self.report is not None and self.report.closed(STRICT_TOL)


@dataclass(frozen=True)
class EndpointProblem:
    """Minimise ``value(area)`` over a box subject to the chain ending in a target.

    ``decode`` maps search variables to a chain whose link taus are the
    last variables; ``start_jacobian(x, chain)`` is the derivative (5, m) of
    the decoded start state in the m variables before them, in
    ``propagate_jacobian``'s coordinates.  A ``target`` of None means the
    chain's own start state turned by pi/3.  ``fail_value`` stands in for
    the value where no chain can be assembled.
    """

    decode: Callable[[np.ndarray], ChainParams]
    value: Callable[[float], float]
    fail_value: float
    weights: PenaltyWeights
    bounds: tuple[tuple[float, float], ...]
    target: LinkState | None = None
    start_jacobian: Callable[[np.ndarray, ChainParams], np.ndarray] = _fixed_start

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([b[0] for b in self.bounds]),
                np.array([b[1] for b in self.bounds]))

    def residuals(self, x) -> np.ndarray:
        """Endpoint equations as a residual vector for the feasibility polish."""
        try:
            chain = self.decode(x)
            final = assemble(chain).final
        except GeometryError:
            return np.full(7, FAIL_RESIDUAL)
        return _endpoint_residuals(final, end_target(chain, self.target))

    def jacobian(self, x) -> np.ndarray:
        """The exact 7 x n Jacobian of ``residuals``; zero where no chain assembles."""
        try:
            chain = self.decode(x)
            head = self.start_jacobian(x, chain)
            assembled, d_state = assemble_jacobian(chain, head)
        except GeometryError:
            return np.zeros((7, len(x)))
        jac = _endpoint_jacobian(assembled.final) @ d_state[:5]
        if self.target is None:
            # the target, the start turned by pi/3, moves with the start
            d_target = head.copy()
            d_target[:3] = _TARGET_TURN @ head[:3]
            jac[:, :head.shape[1]] -= _endpoint_jacobian(end_target(chain)) @ d_target
        return jac

    def evaluate(self, x) -> Evaluation:
        """Value plus quadratic penalty; zero penalty exactly on feasible chains.

        A chain that fails to assemble at link i is charged on a slope that
        falls as i grows, so the search can climb out of the failure plateau.
        """
        w = self.weights
        try:
            chain = self.decode(x)
        except GeometryError:
            return Evaluation(self.fail_value, w.feasibility * FAIL_PENALTY_SCALE,
                              np.full(7, FAIL_RESIDUAL), None, None)
        try:
            assembled = assemble(chain)
        except GeometryError as exc:
            slope = 1.0 + len(chain.links) - exc.link_index
            return Evaluation(self.fail_value, w.feasibility * slope,
                              np.full(7, FAIL_RESIDUAL), None, chain)
        target = end_target(chain, self.target)
        report = closure_of(chain, assembled, target=target)
        return Evaluation(self.value(assembled.area()), _closure_penalty(report, w),
                          _endpoint_residuals(assembled.final, target), report, chain)


def _rank(ev: Evaluation) -> tuple[int, float]:
    """Incumbent order: feasible points by value, then the rest by value + penalty."""
    return (0, ev.value) if ev.feasible() else (1, ev.value + ev.penalty)


class _Search:
    """Evaluation count and incumbent shared by every stage of one search.

    Every chain assembly counts as an evaluation: ``measure``, and the
    residual and Jacobian callables handed to the solvers through ``counted``.
    """

    def __init__(self, trace_on: bool) -> None:
        self.evals = 0
        self.x: np.ndarray | None = None
        self.best: Evaluation | None = None
        self.trace: list[tuple[int, float]] | None = [] if trace_on else None

    def measure(self, problem: EndpointProblem, x) -> Evaluation:
        self.evals += 1
        return problem.evaluate(x)

    def objective(self, problem: EndpointProblem) -> Callable[[np.ndarray], float]:
        def penalized(x) -> float:
            ev = self.measure(problem, x)
            return ev.value + ev.penalty
        return penalized

    def counted(self, fn: Callable[[np.ndarray], np.ndarray]
                ) -> Callable[[np.ndarray], np.ndarray]:
        """``fn`` with every call counted as an evaluation."""
        def call(x) -> np.ndarray:
            self.evals += 1
            return fn(x)
        return call

    def offer(self, problem: EndpointProblem, x) -> None:
        ev = self.measure(problem, x)
        if self.best is None or _rank(ev) < _rank(self.best):
            self.x = np.array(x, dtype=float)
            self.best = ev
            if self.trace is not None and ev.feasible():
                self.trace.append((self.evals, ev.value))


def _snap(run: _Search, problem: EndpointProblem, x, max_nfev: int,
          jac="2-point") -> np.ndarray:
    """Least-squares projection onto the endpoint constraint, inside the box."""
    _load_solvers()
    lo, hi = problem.box()
    return least_squares(run.counted(problem.residuals), np.clip(x, lo, hi), jac=jac,
                         bounds=(lo, hi), max_nfev=max_nfev).x


def _refine(run: _Search, problem: EndpointProblem, x0, maxfev: int,
            xatol: float, polish_nfev: int) -> np.ndarray:
    """Nelder-Mead on the penalized value, then the polish; both are offered."""
    _load_solvers()
    res = minimize(
        run.objective(problem), x0, method="Nelder-Mead", bounds=problem.bounds,
        options={"maxfev": maxfev, "xatol": xatol, "fatol": 1e-12,
                 "adaptive": True},
    )
    lo, hi = problem.box()
    run.offer(problem, np.clip(res.x, lo, hi))
    polished = _snap(run, problem, res.x, polish_nfev)
    run.offer(problem, polished)
    return polished


def _manifold_descent(run: _Search, problem: EndpointProblem, x0,
                      polish_nfev: int, iters=25, fd_step=1e-7) -> np.ndarray:
    """Projected-gradient descent of the value along the endpoint manifold.

    Nelder-Mead stalls once the simplex straddles the constraint set, so the
    final approach re-snaps feasibility after every step and moves only in
    the numerical null space of the endpoint Jacobian.  Steps are accepted
    only when the snapped point stays feasible and lowers the value, which
    also keeps reported values on the honest side of the dead band.
    """
    _, hi = problem.box()
    x = _snap(run, problem, np.asarray(x0, dtype=float), polish_nfev)
    residuals = run.counted(problem.residuals)
    here = run.measure(problem, x)
    if not here.feasible():
        return x
    value = here.value
    n = len(x)
    for _ in range(iters):
        base = residuals(x)
        jac = np.empty((len(base), n))
        grad = np.empty(n)
        for k in range(n):
            sign = 1.0 if x[k] + fd_step <= hi[k] else -1.0
            step = np.zeros(n)
            step[k] = sign * fd_step
            jac[:, k] = (residuals(x + step) - base) / (sign * fd_step)
            grad[k] = (run.measure(problem, x + step).value - value) / (sign * fd_step)
        _, sing, vt = np.linalg.svd(jac)
        null = vt[sing < 1e-4 * sing[0]] if sing[0] > 0.0 else vt
        if len(null) == 0:
            null = vt[-2:]
        direction = null.T @ (null @ grad)
        norm = np.linalg.norm(direction)
        if norm < 1e-14:
            break
        direction /= norm
        scale = 1e-2
        while scale > 1e-12:
            cand = _snap(run, problem, x - scale * direction, polish_nfev)
            ev = run.measure(problem, cand)
            if ev.feasible() and ev.value < value:
                x, value = cand, ev.value
                break
            scale /= 4.0
        else:
            break
    return x


def decode_five_link(params) -> ChainParams:
    """Seven search variables to a chain: two tangent components, five taus.

    The initial frame is the identity and the tangent is completed to unit
    norm with positive third component, using up the group action so the
    search space stays seven dimensional.
    """
    p = np.asarray(params, dtype=float)
    if p.shape != (7,):
        raise InfeasibleInput(f"expected 7 parameters, got shape {p.shape}")
    a, b = float(p[0]), float(p[1])
    r2 = a * a + b * b
    if r2 >= 1.0:
        raise InfeasibleInput("tangent components leave the unit disk")
    x = TangentElement(a, b, math.sqrt(1.0 - r2))
    initial = LinkState(IDENTITY, ProjectiveTangent.from_tangent(x))
    links = tuple(
        LinkParam(float(t), j) for t, j in zip(p[2:], FIVE_LINK_PATTERN)
    )
    return ChainParams(initial, links)


def _five_link_start(params, chain: ChainParams) -> np.ndarray:
    """Derivative of decode_five_link's start state in (a, b): only the tangent moves."""
    a, b = float(params[0]), float(params[1])
    c = math.sqrt(1.0 - a * a - b * b)
    # the tangent (a, b, c) moves by (1, 0, -a/c) and (0, 1, -b/c)
    (p0, p1, p2), (q0, q1, q2) = _sphere_basis(*chain.initial.tangent.components())
    return np.array(((0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                     (p0 - p2 * a / c, p1 - p2 * b / c), (q0 - q2 * a / c, q1 - q2 * b / c)))


def _density(chain_area: float) -> float:
    """Packing density of the domain: twice the chain area over sqrt(12)."""
    return 2.0 * chain_area / SQRT12


def five_link_problem(weights: PenaltyWeights = PenaltyWeights(),
                      bounds=DEFAULT_BOUNDS) -> EndpointProblem:
    """Closed five-link chains with density as the value."""
    return EndpointProblem(decode_five_link, _density, 1.0, weights, bounds,
                           start_jacobian=_five_link_start)


def octagon_embedding() -> np.ndarray:
    """The smoothed octagon as a seven-vector of the five-link search space."""
    dom = smoothed_octagon()
    unit = ProjectiveTangent.from_tangent(circle_tangent(dom.chain.initial))
    a, b, _ = unit.components()
    tau = dom.chain.links[0].tau
    return np.array([a, b, tau, tau, tau, 0.0, tau])


def five_link_search(spec: SearchSpec) -> SearchResult:
    """Multi-start penalized Nelder-Mead with a least-squares polish."""
    rng = np.random.default_rng(spec.seed)
    problem = five_link_problem(spec.penalty_weights, spec.bounds)
    lo, hi = problem.box()
    run = _Search(spec.trace)

    starts = []
    if spec.start is not None:
        starts.append(np.asarray(spec.start, dtype=float))
    while len(starts) < spec.restarts:
        starts.append(lo + (hi - lo) * rng.uniform(size=len(lo)))

    if spec.max_evals == 0:
        run.offer(problem, starts[0])
    else:
        budget = max(50, spec.max_evals // len(starts))
        objective = run.objective(problem)
        for p0 in starts:
            run.offer(problem, p0)
            # pull the start onto the closure manifold first: cold starts
            # otherwise leave Nelder-Mead on the assembly-failure plateau
            snapped = _snap(run, problem, p0, 200)
            run.offer(problem, snapped)
            if objective(snapped) < objective(p0):
                p0 = snapped
            polished = _refine(run, problem, p0, budget, 1e-9, 200)
            run.offer(problem, _manifold_descent(run, problem, polished, 200))

    best = run.best
    return SearchResult(
        tuple(float(v) for v in run.x),
        best.value,
        best.report if best.report is not None else _NO_CLOSURE,
        best.feasible(),
        run.evals,
        tuple(run.trace) if run.trace is not None else None,
    )


def _consecutive_distinct_patterns() -> list[tuple[int, ...]]:
    patterns = [(j,) for j in (0, 2, 4)]
    for _ in range(4):
        patterns = [p + (j,) for p in patterns for j in (0, 2, 4) if j != p[-1]]
    return patterns


@dataclass(frozen=True)
class LinkReductionReport:
    six_area: float
    five_area: float
    five_links: tuple[LinkParam, ...]
    endpoint_residual: float
    feasible: bool
    improved: bool
    eval_count: int


def link_reduction_experiment(six_link: ChainParams,
                              spec: SearchSpec) -> LinkReductionReport:
    """Search five-link chains joining the endpoint states of a six-link one.

    Hyperbolic indices are enumerated over all consecutive-distinct patterns.
    Per pattern the five turning fractions solve the endpoint equations by
    bounded Newton steps from each start; the start itself is offered too,
    and the merged input links seed their own pattern, so degenerate
    six-link chains are refit exactly.
    """
    if len(six_link.links) != 6:
        raise InfeasibleInput(f"expected six links, got {len(six_link.links)}")
    try:
        assembled = assemble(six_link)
    except GeometryError as exc:
        raise InfeasibleInput(f"six-link segment does not assemble: {exc}")
    margin = angle_margin_of(six_link, assembled)
    if margin < -ANGLE_TOL:
        raise InfeasibleInput(
            f"six-link segment violates the angle condition by {-margin:.3e}"
        )

    six_area = assembled.area()
    rng = np.random.default_rng(spec.seed)
    run = _Search(False)

    def segment_problem(pattern: tuple[int, ...]) -> EndpointProblem:
        def decode(taus) -> ChainParams:
            return ChainParams(six_link.initial, tuple(zip(taus, pattern)))
        return EndpointProblem(decode, lambda area: area, 0.0,
                               spec.penalty_weights, SEGMENT_BOUNDS,
                               assembled.final)

    patterns = _consecutive_distinct_patterns()
    seed_links = merged_links(six_link.links)
    seed_pattern = None
    if 1 <= len(seed_links) <= 5:
        seed_taus = np.array([l.tau for l in seed_links]
                             + [0.0] * (5 - len(seed_links)))
        js = [l.j for l in seed_links]
        while len(js) < 5:
            js.append((js[-1] + 2) % 6)
        seed_pattern = tuple(js)

    per_pattern = max(60, spec.max_evals // (len(patterns) + 1))
    for pattern in patterns:
        problem = segment_problem(pattern)
        starts = [np.full(5, 0.3)]
        for _ in range(spec.restarts - 1):
            starts.append(rng.uniform(0.05, 0.9, size=5))
        if pattern == seed_pattern:
            starts.insert(0, seed_taus)
        for t0 in starts:
            run.offer(problem, t0)
            # five equations in five taus: bounded Newton on the exact Jacobian
            run.offer(problem, _snap(run, problem, t0, per_pattern,
                                     jac=run.counted(problem.jacobian)))

    best = run.best
    feasible = best.feasible()
    return LinkReductionReport(
        six_area, best.value, best.chain.links,
        float(np.max(np.abs(best.residuals))), feasible,
        feasible and best.value < six_area - IMPROVEMENT_MARGIN, run.evals,
    )


def spec_to_dict(spec: SearchSpec) -> dict:
    return {
        "variable_count": len(spec.bounds),
        "bounds": [list(b) for b in spec.bounds],
        "penalty_weights": asdict(spec.penalty_weights),
        "restarts": spec.restarts,
        "max_evals": spec.max_evals,
        "seed": spec.seed,
        "start": None if spec.start is None else list(spec.start),
    }


def result_to_dict(result: SearchResult) -> dict:
    return {
        "best_params": list(result.best_params),
        "best_density": result.best_density,
        "feasible": result.feasible,
        "eval_count": result.eval_count,
        "closure": asdict(result.closure),
        "trace": None if result.trace is None else [list(t) for t in result.trace],
    }
