"""Searches over chain parameters, on the module's own solvers.

Both experiments are one endpoint problem: minimise a multiple of the chain
area over link parameters in a box, subject to the chain ending in a target
state.  One Newton solve, ``_root`` (bounded Levenberg-Marquardt on the exact
Jacobian), serves both.  The five-link density search targets the start
state turned by pi/3: per start, ``_root`` snaps onto closure, then an
active-set SQP (``_descend``) lowers density with five endpoint equations as
equality constraints.  Link reduction refits a six-link segment with five
links ending in its end state: per index pattern, ``_root`` solves five
equations in five turning fractions, and the least closed root wins.  Every
chain assembly counts as an evaluation; ``SearchSpec.max_evals`` caps them.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chain import (
    ANGLE_TOL,
    STRICT_TOL,
    AssembledChain,
    ChainParams,
    ClosureReport,
    LinkParam,
    _endpoint_equations,
    _endpoint_jacobian,
    _endpoint_residuals,
    _TARGET_TURN,
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
from .sl2 import IDENTITY, ProjectiveTangent, TangentElement, _sphere_basis

FIVE_LINK_PATTERN = (0, 2, 4, 2, 0)
TAU_HI = 1.0 - 1e-6
FAIL_RESIDUAL = 1.0e3
IMPROVEMENT_MARGIN = 1e-9
# The stop rule of a Newton solve (_root): a root is a residual of at most
# ROOT_TOL; an accepted step that cuts the cost by under ROOT_FTOL of it is a
# stall, which is how a pattern without a root plateaus; a step under
# STEP_TOL relative to x ends it too.  LM_DAMPING is the first
# Levenberg-Marquardt parameter.
ROOT_TOL = 1e-14
ROOT_FTOL = 1e-2
STEP_TOL = 1e-12
LM_DAMPING = 1e-3
# Assemblies of the solve that snaps a five-link start onto closure, and of
# each that restores an SQP trial, which sits so near closure that its solve
# starts almost undamped and stops short of a root only on a tiny step.
SNAP_EVALS = 200
RESTORE_EVALS = 20
RESTORE_DAMPING = 1e-9
RESTORE_XTOL = 1e-15
# The SQP stops where its model promises a fall under SQP_FTOL; a trial step
# halves at most SQP_HALVINGS times, an active set changes QP_CHANGES times.
SQP_FTOL = 1e-15
SQP_HALVINGS = 6
QP_CHANGES = 20
# Draws of a random five-link start, the first included, until one assembles:
# about 42 % of uniform draws in DEFAULT_BOUNDS do.
START_DRAWS = 100

SEGMENT_BOUNDS = ((0.0, TAU_HI),) * 5
# the start tangent's (a, b), then the five taus
DEFAULT_BOUNDS = ((-0.6, 0.6), (-0.99, -0.01)) + SEGMENT_BOUNDS

_NO_CLOSURE = ClosureReport(math.inf, math.inf, False, -math.inf)


def __getattr__(name: str):
    """scipy's ``least_squares`` and ``minimize``, imported on lookup: no
    search calls them, but the benchmark's tracer binds them by name."""
    if name in ("least_squares", "minimize"):
        from scipy import optimize as solvers

        return getattr(solvers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SearchSpec:
    bounds: tuple[tuple[float, float], ...] = DEFAULT_BOUNDS
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


def _fixed_start(x, chain: ChainParams) -> np.ndarray:
    """Start-state derivative of a decoder whose variables are all taus."""
    return np.zeros((5, len(x) - len(chain.links)))


class Evaluation(NamedTuple):
    """One point of an endpoint problem; ``report`` is None where assembly failed.

    ``EndpointProblem.point`` adds the value's gradient and the five endpoint
    equations with their Jacobian, zero-slope where assembly failed.
    """

    value: float
    residuals: np.ndarray
    report: ClosureReport | None
    chain: ChainParams | None
    gradient: np.ndarray | None = None
    equations: np.ndarray | None = None
    equation_jacobian: np.ndarray | None = None

    def feasible(self) -> bool:
        """Strict closure with the angle condition met."""
        return self.report is not None and self.report.closed(STRICT_TOL)

    def violation(self) -> float:
        """The worse of the closure residual and the angle deficit."""
        if self.report is None:
            return math.inf
        return max(self.report.residual(), -self.report.angle_margin)


@dataclass(frozen=True)
class EndpointProblem:
    """Minimise ``value(area)`` over a box subject to the chain ending in a target.

    ``decode`` maps search variables to a chain whose link taus are the
    last variables; ``start_jacobian(x, chain)`` is the derivative (5, m) of
    the decoded start state in the m variables before them, in
    ``propagate_jacobian``'s coordinates.  ``value`` is linear, so it also
    maps the area gradient to the value's.  A ``target`` of None means the
    chain's own start state turned by pi/3.  ``fail_value`` stands in for
    the value where no chain can be assembled.  Methods that take an
    ``assembly`` accept ``self.assembly(x)`` from a caller who holds it.
    """

    decode: Callable[[np.ndarray], ChainParams]
    value: Callable[[float], float]
    fail_value: float
    bounds: tuple[tuple[float, float], ...]
    target: LinkState | None = None
    start_jacobian: Callable[[np.ndarray, ChainParams], np.ndarray] = _fixed_start

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([b[0] for b in self.bounds]),
                np.array([b[1] for b in self.bounds]))

    def assembly(self, x) -> tuple[ChainParams | None, AssembledChain | None]:
        """The chain decoded from x and its assembly, None where either fails."""
        chain = None
        try:
            chain = self.decode(x)
            return chain, assemble(chain)
        except GeometryError:
            return chain, None

    def residuals(self, x, assembly=None) -> np.ndarray:
        """Endpoint equations as a residual vector of seven entries."""
        chain, assembled = self.assembly(x) if assembly is None else assembly
        if assembled is None:
            return np.full(7, FAIL_RESIDUAL)
        return _endpoint_residuals(assembled.final, end_target(chain, self.target))

    def _derivatives(self, x, chain: ChainParams, assembled: AssembledChain):
        """The derivative (6, n) of the chain's final state and area, and the
        target's (5, n), None where the target is fixed."""
        head = self.start_jacobian(x, chain)
        _, d_state = assemble_jacobian(chain, head, assembled)
        d_target = None
        if self.target is None:
            # the target, the start turned by pi/3, moves with the start
            d_target = np.zeros((5, len(x)))
            d_target[:, :head.shape[1]] = np.vstack((_TARGET_TURN @ head[:3], head[3:]))
        return d_state, d_target

    def jacobian(self, x, assembly=None) -> np.ndarray:
        """The exact 7 x n Jacobian of ``residuals``; zero where no chain assembles."""
        chain, assembled = self.assembly(x) if assembly is None else assembly
        if assembled is None:
            return np.zeros((7, len(x)))
        d_state, d_target = self._derivatives(x, chain, assembled)
        jac = _endpoint_jacobian(assembled.final) @ d_state[:5]
        if d_target is not None:
            jac -= _endpoint_jacobian(end_target(chain)) @ d_target
        return jac

    def _evaluation(self, chain: ChainParams, assembled: AssembledChain,
                    *derivatives) -> Evaluation:
        target = end_target(chain, self.target)
        return Evaluation(self.value(assembled.area()),
                          _endpoint_residuals(assembled.final, target),
                          closure_of(chain, assembled, target=target), chain, *derivatives)

    def evaluate(self, x, assembly=None) -> Evaluation:
        """Value, residuals and closure report of the chain at x."""
        chain, assembled = self.assembly(x) if assembly is None else assembly
        if assembled is None:
            return Evaluation(self.fail_value, np.full(7, FAIL_RESIDUAL), None, chain)
        return self._evaluation(chain, assembled)

    def point(self, x, assembly=None) -> Evaluation:
        """``evaluate`` with the derivatives an SQP step needs, from one assembly."""
        chain, assembled = self.assembly(x) if assembly is None else assembly
        if assembled is None:
            n = len(x)
            return Evaluation(self.fail_value, np.full(7, FAIL_RESIDUAL), None, chain,
                              np.zeros(n), np.full(5, FAIL_RESIDUAL), np.zeros((5, n)))
        d_state, d_target = self._derivatives(x, chain, assembled)
        target = end_target(chain, self.target)
        equations, d_end, d_moved = _endpoint_equations(assembled.final, target)
        jac = d_end @ d_state[:5]
        if d_target is not None:
            jac += d_moved @ d_target
        return self._evaluation(chain, assembled, self.value(d_state[5]), equations, jac)


def _rank(ev: Evaluation, closure_tol: float = math.inf) -> tuple[int, float]:
    """Incumbent order: feasible points by value, then the rest by violation;
    with a ``closure_tol``, only those whose residual entries are within it
    rank by value, so closure slack never passes for a lower value."""
    if ev.feasible() and np.max(np.abs(ev.residuals)) <= closure_tol:
        return (0, ev.value)
    return (1, ev.violation())


class _Exhausted(Exception):
    """The evaluation budget of the current start is spent."""


class _Search:
    """Evaluation count, budget and incumbent shared by every stage of one search.

    Every chain assembly goes through ``assembly`` and counts as an
    evaluation, except the point assembled last, which is kept.  One past
    ``limit`` raises _Exhausted.  The trace records each new incumbent of
    rank 0.
    """

    def __init__(self, trace_on: bool, closure_tol: float = math.inf) -> None:
        self.evals = 0
        self.limit = math.inf
        self.closure_tol = closure_tol
        self.x: np.ndarray | None = None
        self.best: Evaluation | None = None
        self.trace: list[tuple[int, float]] | None = [] if trace_on else None
        self._held: tuple | None = None

    def assembly(self, problem: EndpointProblem, x):
        """``problem.assembly(x)``, counted unless x is the point assembled last."""
        held, key = self._held, np.asarray(x, dtype=float).tobytes()
        if held is None or held[0] is not problem or held[1] != key:
            if self.evals >= self.limit:
                raise _Exhausted
            self.evals += 1
            held = self._held = (problem, key, problem.assembly(x))
        return held[2]

    def consider(self, x, ev: Evaluation) -> Evaluation:
        rank = _rank(ev, self.closure_tol)
        if self.best is None or rank < _rank(self.best, self.closure_tol):
            self.x = np.array(x, dtype=float)
            self.best = ev
            if self.trace is not None and rank[0] == 0:
                self.trace.append((self.evals, ev.value))
        return ev

    def offer(self, problem: EndpointProblem, x) -> Evaluation:
        """``problem.evaluate`` at x, offered to the incumbent."""
        return self.consider(x, problem.evaluate(x, self.assembly(problem, x)))

    def point(self, problem: EndpointProblem, x) -> Evaluation:
        """``problem.point`` at x, offered to the incumbent."""
        return self.consider(x, problem.point(x, self.assembly(problem, x)))


def _root(run: _Search, problem: EndpointProblem, x, budget: int,
          damping: float = LM_DAMPING, xtol: float = STEP_TOL
          ) -> tuple[np.ndarray, Evaluation]:
    """Levenberg-Marquardt on the endpoint residuals from x, inside the box.

    Marquardt's step solves (J'J + lam diag(J'J)) dx = -J'r over the
    variables not held at a bound that the gradient pushes against, and is
    clipped to the box.  A step is taken if the chain assembles there and
    the cost |r|^2 / 2 falls, and lam falls tenfold; otherwise lam rises
    tenfold from ``damping``.  The solve stops at a root (max |r| <= ROOT_TOL),
    on a stall (a step taken cuts the cost by under ROOT_FTOL of it), on a
    step under ``xtol`` relative to x or a singular step system, or after
    ``budget`` assemblies, the start's included.  No point is assembled
    twice, and the start and the end are offered to the incumbent.  Returns
    the end and its evaluation.
    """
    lo, hi = problem.box()
    x = np.clip(x, lo, hi)
    held = run.assembly(problem, x)
    start = run.consider(x, problem.evaluate(x, held))
    if held[1] is None:
        return x, start
    x0, r = x, start.residuals
    cost = 0.5 * (r @ r)
    lam, spent, jac, rejected = damping, 1, None, None
    while spent < budget and np.max(np.abs(r)) > ROOT_TOL:
        if jac is None:
            jac = problem.jacobian(x, held)
        grad = jac.T @ r
        free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
        normal = jac[:, free].T @ jac[:, free]
        step = np.zeros_like(x)
        try:
            step[free] = np.linalg.solve(normal + lam * np.diag(np.diag(normal)), -grad[free])
        except np.linalg.LinAlgError:
            break
        trial = np.clip(x + step, lo, hi)
        if np.linalg.norm(trial - x) <= xtol * (xtol + np.linalg.norm(x)):
            break
        if rejected is None or not np.array_equal(trial, rejected):
            trial_held = run.assembly(problem, trial)
            spent += 1
            if trial_held[1] is not None:
                trial_r = problem.residuals(trial, trial_held)
                trial_cost = 0.5 * (trial_r @ trial_r)
                if trial_cost < cost:
                    stalled = cost - trial_cost < ROOT_FTOL * cost
                    x, held, r, cost = trial, trial_held, trial_r, trial_cost
                    lam, jac, rejected = lam / 10.0, None, None
                    if stalled:
                        break
                    continue
        lam, rejected = lam * 10.0, trial
    return x, start if x is x0 else run.consider(x, problem.evaluate(x, held))


def _qp(hess: np.ndarray, at: Evaluation, x, lo, hi):
    """The SQP subproblem at x by a primal active set over the bounds:
    min g'd + d'Hd/2 subject to c + A d = 0 and lo <= x + d <= hi, with g, c
    and A read from the point ``at``.  A move that would cross a bound stops
    there and pins it; a pinned bound whose multiplier pulls the wrong way is
    freed.  Returns d and the multipliers lam of the equations and nu of the
    bounds, g + H d + A'lam = nu: nu >= 0 holds a lower bound, nu <= 0 an
    upper one, and nu is zero off the working set.
    """
    g, c, a = at.gradient, at.equations, at.equation_jacobian
    n, m = len(x), len(c)
    d = np.zeros(n)
    # -1 where a lower bound is in the working set, +1 an upper one
    side = np.where(x <= lo, -1.0, np.where(x >= hi, 1.0, 0.0))
    for _ in range(QP_CHANGES):
        pinned = side != 0.0
        rows = np.vstack((a, -np.eye(n)[pinned]))
        kkt = np.block([[hess, rows.T], [rows, np.zeros((len(rows),) * 2)]])
        solved = np.linalg.lstsq(kkt, np.concatenate((-g, -c, -d[pinned])), rcond=None)[0]
        lam, nu = solved[n:n + m], np.zeros(n)
        nu[pinned] = solved[n + m:]
        move = np.where(pinned, 0.0, solved[:n] - d)
        # the fraction of the move that takes each free variable to its bound
        room = np.full(n, np.inf)
        going = move != 0.0
        room[going] = (np.where(move < 0.0, lo, hi) - x - d)[going] / move[going]
        block = int(np.argmin(room))
        if room[block] < 1.0:
            d += max(room[block], 0.0) * move
            side[block] = math.copysign(1.0, move[block])
            d[block] = (lo if side[block] < 0.0 else hi)[block] - x[block]
            continue
        d += move
        wrong = side * nu > 0.0
        if not wrong.any():
            break
        side[np.argmax(np.where(wrong, np.abs(nu), -1.0))] = 0.0
    return d, lam, nu


def _descend(run: _Search, problem: EndpointProblem, x) -> None:
    """Active-set SQP from x: ``_qp`` steps on a damped-BFGS Hessian of the
    Lagrangian.  Each trial x + d / 2^h is restored onto closure by ``_root``
    before it is judged, so the closure surface's curvature cannot reject
    full steps as under a penalty merit (the Maratos effect).  The first
    trial that ranks above x in the incumbent's order is taken, h <=
    SQP_HALVINGS.  Where none is, the Hessian restarts from the identity
    once; the descent stops there, or on closure where the model promises a
    fall under SQP_FTOL."""
    lo, hi = problem.box()
    here = run.point(problem, x)
    hess, fresh = np.eye(len(x)), True
    while here.report is not None:
        step, lam, _ = _qp(hess, here, x, lo, hi)
        if (_rank(here, run.closure_tol)[0] == 0
                and -(here.gradient @ step + 0.5 * step @ hess @ step) <= SQP_FTOL):
            return
        for halving in range(SQP_HALVINGS + 1):
            new_x, new = _root(run, problem, np.clip(x + step / 2 ** halving, lo, hi),
                               RESTORE_EVALS, RESTORE_DAMPING, RESTORE_XTOL)
            if _rank(new, run.closure_tol) < _rank(here, run.closure_tol):
                break
        else:
            if fresh:
                return
            hess, fresh = np.eye(len(x)), True
            continue
        fresh = False
        new = run.point(problem, new_x)
        # Powell's damping keeps the update positive definite
        s, jump = new_x - x, new.equation_jacobian - here.equation_jacobian
        y, hs = new.gradient - here.gradient + jump.T @ lam, hess @ s
        shs, sy = s @ hs, s @ y
        theta = 1.0 if sy >= 0.2 * shs else 0.8 * shs / (shs - sy)
        y = theta * y + (1.0 - theta) * hs
        hess = hess + np.outer(y, y) / (s @ y) - np.outer(hs, hs) / shs
        x, here = new_x, new


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
    links = tuple(LinkParam(float(t), j) for t, j in zip(p[2:], FIVE_LINK_PATTERN))
    return ChainParams(initial, links)


def _five_link_start(params, chain: ChainParams) -> np.ndarray:
    """Derivative of decode_five_link's start state in (a, b): only the tangent moves."""
    a, b = float(params[0]), float(params[1])
    c = math.sqrt(1.0 - a * a - b * b)
    # the tangent (a, b, c) moves by (1, 0, -a/c) and (0, 1, -b/c)
    (p0, p1, p2), (q0, q1, q2) = _sphere_basis(*chain.initial.tangent.components())
    return np.array(((0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                     (p0 - p2 * a / c, p1 - p2 * b / c), (q0 - q2 * a / c, q1 - q2 * b / c)))


def _density(chain_area):
    """Packing density of the domain: twice the chain area over sqrt(12)."""
    return 2.0 * chain_area / SQRT12


def five_link_problem(bounds=DEFAULT_BOUNDS) -> EndpointProblem:
    """Closed five-link chains with density as the value."""
    return EndpointProblem(decode_five_link, _density, 1.0, bounds,
                           start_jacobian=_five_link_start)


def octagon_embedding() -> np.ndarray:
    """The smoothed octagon as a seven-vector of the five-link search space."""
    dom = smoothed_octagon()
    unit = ProjectiveTangent.from_tangent(circle_tangent(dom.chain.initial))
    a, b, _ = unit.components()
    tau = dom.chain.links[0].tau
    return np.array([a, b, tau, tau, tau, 0.0, tau])


def five_link_search(spec: SearchSpec) -> SearchResult:
    """Multi-start constrained descent: per start, a ``_root`` snap onto
    closure, then the SQP ``_descend`` on density.  Every point assembled is
    offered to the incumbent, and only points on closure (roots in
    ``_root``'s sense) compete on density.  A random start that does not
    assemble is redrawn, each draw counted, up to ``START_DRAWS`` draws; a
    given start is kept.  Each start may assemble ``max_evals // restarts``
    chains, the first at least one, so ``eval_count`` never exceeds a
    positive ``max_evals``."""
    rng = np.random.default_rng(spec.seed)
    problem = five_link_problem(spec.bounds)
    lo, hi = problem.box()
    run = _Search(spec.trace, ROOT_TOL)

    def draw() -> np.ndarray:
        return lo + (hi - lo) * rng.uniform(size=len(lo))

    starts = [] if spec.start is None else [np.asarray(spec.start, dtype=float)]
    while len(starts) < spec.restarts:
        starts.append(draw())

    per_start = spec.max_evals // len(starts)
    for i, p0 in enumerate(starts):
        run.limit = run.evals + max(per_start, 1 if i == 0 else 0)
        try:
            ev = run.offer(problem, p0)
            # a random start that does not assemble gives the solvers no slope
            redraws = START_DRAWS - 1 if spec.start is None or i > 0 else 0
            while ev.report is None and redraws > 0:
                p0, redraws = draw(), redraws - 1
                ev = run.offer(problem, p0)
            _descend(run, problem, _root(run, problem, p0, SNAP_EVALS)[0])
        except _Exhausted:
            pass

    best = run.best
    return SearchResult(
        tuple(float(v) for v in run.x), best.value,
        best.report if best.report is not None else _NO_CLOSURE, best.feasible(),
        run.evals, tuple(run.trace) if run.trace is not None else None)


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
    # patterns with a solve that ended strictly closed, angle condition met
    root_count: int


def link_reduction_experiment(six_link: ChainParams,
                              spec: SearchSpec) -> LinkReductionReport:
    """Search five-link chains joining the endpoint states of a six-link one.

    Hyperbolic indices run over all consecutive-distinct patterns; per
    pattern, ``_root`` solves the endpoint equations in the five turning
    fractions from each start.  The merged input links seed their own
    pattern, so degenerate six-link chains are refit exactly.  ``max_evals``
    caps the assemblies of the whole search, the first evaluation excepted;
    the patterns are tried in order until it is spent.
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
            f"six-link segment violates the angle condition by {-margin:.3e}")

    six_area = assembled.area()
    rng = np.random.default_rng(spec.seed)
    run = _Search(False)
    run.limit = max(spec.max_evals, 1)

    def segment_problem(pattern: tuple[int, ...]) -> EndpointProblem:
        def decode(taus) -> ChainParams:
            return ChainParams(six_link.initial, tuple(zip(taus, pattern)))
        return EndpointProblem(decode, lambda area: area, 0.0, SEGMENT_BOUNDS,
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
    roots = 0
    try:
        for pattern in patterns:
            problem = segment_problem(pattern)
            starts = [np.full(5, 0.3)]
            for _ in range(spec.restarts - 1):
                starts.append(rng.uniform(0.05, 0.9, size=5))
            if pattern == seed_pattern:
                starts.insert(0, seed_taus)
            rooted = False
            for t0 in starts:
                # five equations in five taus: bounded Levenberg-Marquardt
                rooted = _root(run, problem, t0, per_pattern)[1].feasible() or rooted
            roots += rooted
    except _Exhausted:
        pass

    best = run.best
    feasible = best.feasible()
    return LinkReductionReport(
        six_area, best.value, best.chain.links,
        float(np.max(np.abs(best.residuals))), feasible,
        feasible and best.value < six_area - IMPROVEMENT_MARGIN, run.evals, roots,
    )


def spec_to_dict(spec: SearchSpec) -> dict:
    return {
        "variable_count": len(spec.bounds),
        "bounds": [list(b) for b in spec.bounds],
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
