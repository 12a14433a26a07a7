"""Searches over chain parameters, on the module's own solvers.

Both experiments are one endpoint problem, stated as data (an index
pattern, a value, a box, an open segment's end states or none for a closed
chain): minimise a multiple of the chain area over link parameters in the
box, subject to the chain ending in a target state.  One Newton solve,
``_roots`` (Levenberg-Marquardt on the exact Jacobian, stepping short of the
upper bounds, many solves in lockstep), serves both.  The five-link density
search runs on closed chains: per start, one solve snaps onto closure, then
an active-set SQP (``_descend``) lowers density with five endpoint equations
as constraints.  Link reduction refits a six-link segment with five links
ending in its end state, solving five equations in five turning fractions
per index pattern; the least closed root wins.  Every chain assembly counts
as an evaluation; ``SearchSpec.max_evals`` caps them.
"""
from __future__ import annotations

import contextlib
import math
import numbers
from typing import Callable, NamedTuple

from . import _np as np
from .chain import (
    ANGLE_TOL, STRICT_TOL, AssembledChain, ChainBatch, ChainParams, ClosureReport, LinkParam,
    _endpoint_equations, _endpoint_jacobian, _endpoint_residuals, angle_margin_of,
    assemble, assemble_jacobian, closure_of, merged_links,
)
from .domain import SQRT12, smoothed_octagon
from .errors import GeometryError, InfeasibleInput
from .hyperlink import LinkState, circle_tangent
from .sl2 import IDENTITY, ROT60, TangentElement, _Checked, _sphere_basis

FIVE_LINK_PATTERN = (0, 2, 4, 2, 0)
TAU_HI = 1.0 - 1e-6
FAIL_RESIDUAL = 1.0e3
IMPROVEMENT_MARGIN = 1e-9
# The stop rule of every Newton solve (_roots): a root is a point whose
# residual entries are within ROOT_TOL; an accepted step that cuts the cost
# by under ROOT_FTOL of it is a stall, which is how a pattern without a root
# plateaus; a step under STEP_TOL relative to x ends it too.  LM_DAMPING is
# the first Levenberg-Marquardt parameter.
ROOT_TOL = 1e-14
ROOT_FTOL = 1e-2
STEP_TOL = 1e-15
LM_DAMPING = 1e-3
# A Newton trial stops this fraction of the way to an upper bound, where chains
# barely assemble, and clips onto a lower one: tau = 0 is an empty link.
BOUND_FRACTION = 0.9
# Assemblies of the solve that snaps a five-link start onto closure, and of
# each that restores an SQP trial, which sits so near closure that its solve
# starts almost undamped.
SNAP_EVALS = 200
RESTORE_EVALS = 20
RESTORE_DAMPING = 1e-9
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


class _SearchFields(NamedTuple):
    restarts: int = 3
    max_evals: int = 6000
    seed: int = 0
    start: tuple[float, ...] | None = None


class SearchSpec(_Checked, _SearchFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SearchSpec:
        *counts, start = super().__new__(cls, *args, **kwargs)
        try:  # a start entry that is no number
            start = None if start is None else tuple(float(v) for v in start)
        except (TypeError, ValueError) as exc:
            raise InfeasibleInput(f"malformed start: {exc}") from None
        for k, (name, least) in enumerate((("restarts", 1), ("max_evals", 0), ("seed", 0))):
            value = counts[k]
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InfeasibleInput(f"{name} = {value!r} must be an integer")
            if value < least:
                raise InfeasibleInput(f"{name} must be {'at least 1' if least else 'nonnegative'}")
            counts[k] = int(value)
        if start is not None:
            if len(start) != len(DEFAULT_BOUNDS):
                raise InfeasibleInput("start point has the wrong dimension")
            # NaN lies in no interval
            if not all(lo <= v <= hi for v, (lo, hi) in zip(start, DEFAULT_BOUNDS)):
                raise InfeasibleInput("start point lies outside the bounds")
        return super().__new__(cls, *counts, start)


class SearchResult(NamedTuple):
    best_params: tuple[float, ...]
    best_density: float
    feasible: bool
    eval_count: int
    closure: ClosureReport


class Evaluation(NamedTuple):
    """One point x of an endpoint problem with the assembly it was computed
    from: ``assembled`` is an AssembledChain, or None where assembly failed,
    as ``report`` is.

    ``EndpointProblem.point`` adds the value's gradient and the five endpoint
    equations with their Jacobian, zero-slope where assembly failed.
    """

    x: np.ndarray
    value: float
    residuals: np.ndarray
    report: ClosureReport | None
    chain: ChainParams | None
    assembled: AssembledChain | None
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


class EndpointProblem(_Checked, NamedTuple("EndpointProblem", [
        ("pattern", tuple[int, ...]), ("value", Callable[[float], float]), ("fail_value", float),
        ("bounds", tuple[tuple[float, float], ...]),
        ("segment", tuple[LinkState, tuple] | None)])):
    """Minimise ``value(area)`` over a box subject to the chain ending in a target.

    The links follow the index ``pattern``, their taus the last variables.
    ``segment`` is an open segment's start state and target, a state or its
    entries (frame, tangent), and then the taus are all the variables.  A
    ``segment`` of None is a closed chain: it starts on the identity frame
    with the tangent (a, b, sqrt(1 - a^2 - b^2)) from two leading variables,
    and must end in that start state turned by pi/3.  ``value`` is linear,
    so it also maps the area gradient to the value's.  ``fail_value`` stands
    in for the value where no chain can be assembled.  Methods that take an
    ``assembly`` accept ``self.assembly(x)`` from a caller who holds it, and
    ``evaluate`` a record of ``_assemblies`` too.
    """

    __slots__ = ()

    def __new__(cls, pattern, value, fail_value, bounds, segment=None) -> EndpointProblem:
        if len(bounds) != len(pattern) + (2 if segment is None else 0):
            raise InfeasibleInput(f"{len(bounds)} bounds do not fit pattern {pattern}")
        return super().__new__(cls, pattern, value, fail_value, bounds, segment)

    def decode(self, x) -> ChainParams:
        """The chain at the search variables x, which must be one per bound."""
        if self.segment is not None and len(x) == len(self.pattern):
            return ChainParams(self.segment[0], zip(x, self.pattern))
        p = np.asarray(x, dtype=float)  # a closed chain's x, or an open one's of the wrong size
        if p.shape != (len(self.bounds),):
            raise InfeasibleInput(f"expected {len(self.bounds)} parameters, got shape {p.shape}")
        a, b = float(p[0]), float(p[1])
        r2 = a * a + b * b
        if not r2 < 1.0:  # NaN too
            raise InfeasibleInput("tangent components leave the unit disk")
        tangent = TangentElement(a, b, math.sqrt(1.0 - r2)).unit()
        return ChainParams(LinkState(IDENTITY, tangent), zip(p[2:], self.pattern))

    def start_jacobian(self, x, chain: ChainParams) -> np.ndarray:
        """The derivative (5, m) of the decoded start state in the m variables
        before the taus, in a state's five local coordinates."""
        if self.segment is not None:
            return np.zeros((5, 0))
        a, b = float(x[0]), float(x[1])
        c = math.sqrt(1.0 - a * a - b * b)
        # only the tangent (a, b, c) moves, by (1, 0, -a/c) and (0, 1, -b/c)
        (p0, p1, p2), (q0, q1, q2) = _sphere_basis(*chain.initial[1])
        return np.array(((0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                         (p0 - p2 * a / c, p1 - p2 * b / c), (q0 - q2 * a / c, q1 - q2 * b / c)))

    def target(self, chain: ChainParams) -> tuple:
        """The state the decoded chain must end in: its identity start frame
        turned by pi/3 with its start tangent, or the segment's target."""
        return LinkState(ROT60, chain.initial[1]) if self.segment is None else self.segment[1]

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([b[0] for b in self.bounds]), np.array([b[1] for b in self.bounds])

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
        return _endpoint_residuals(assembled.end, self.target(chain))

    def _derivatives(self, x, chain: ChainParams, assembled: AssembledChain):
        """The derivative (6, n) of the chain's final state and area, and the
        target's (5, n), None where the target is fixed."""
        head = self.start_jacobian(x, chain)
        # a closed chain's target, its start turned by pi/3, moves as its
        # start: the tangent alone, as the start frame is the identity at every x
        d_target = (None if self.segment is not None
                    else np.concatenate((head, np.zeros((5, len(x) - 2))), axis=1))
        return assemble_jacobian(assembled, head), d_target

    def jacobian(self, x, assembly=None) -> np.ndarray:
        """The exact 7 x n Jacobian of ``residuals``; zero where no chain assembles."""
        chain, assembled = self.assembly(x) if assembly is None else assembly
        if assembled is None:
            return np.zeros((7, len(x)))
        d_state, d_target = self._derivatives(x, chain, assembled)
        jac = _endpoint_jacobian(*assembled.end) @ d_state[:5]
        if d_target is not None:
            jac -= _endpoint_jacobian(*self.target(chain)) @ d_target
        return jac

    def evaluate(self, x, assembly=None) -> Evaluation:
        """Value, residuals and closure report of the chain at x."""
        chain, assembled = self.assembly(x) if assembly is None else assembly
        if isinstance(assembled, _Member):
            assembled = assembled.batch.assembled(chain, assembled.b)
        if assembled is None:
            return Evaluation(x, self.fail_value, np.full(7, FAIL_RESIDUAL), None, chain, None)
        target = self.target(chain)
        return Evaluation(x, self.value(assembled.area()),
                          _endpoint_residuals(assembled.end, target),
                          closure_of(chain, assembled, target=target), chain, assembled)

    def point(self, ev: Evaluation) -> Evaluation:
        """The evaluation ``ev`` with the derivatives an SQP step needs, from
        its assembly."""
        x, chain, assembled = ev.x, ev.chain, ev.assembled
        if assembled is None:
            return ev._replace(gradient=np.zeros(len(x)), equations=np.full(5, FAIL_RESIDUAL),
                               equation_jacobian=np.zeros((5, len(x))))
        d_state, d_target = self._derivatives(x, chain, assembled)
        target = self.target(chain)
        equations, d_end, d_moved = _endpoint_equations(assembled.end, target)
        jac = d_end @ d_state[:5]
        if d_target is not None:
            jac += d_moved @ d_target
        return ev._replace(gradient=self.value(d_state[5]), equations=equations,
                           equation_jacobian=jac)


def _rank(ev: Evaluation) -> tuple[int, float]:
    """Incumbent order: roots (feasible, residual entries within ROOT_TOL) by
    value, then the rest by violation, so closure slack never passes for a
    lower value."""
    if ev.feasible() and np.abs(ev.residuals).max() <= ROOT_TOL:
        return (0, ev.value)
    return (1, ev.violation())


class _Exhausted(Exception):
    """The evaluation budget of the current start is spent."""


class _Search:
    """Evaluation count, budget and incumbent shared by every stage of one search.

    Every chain assembly goes through ``_assemblies`` and counts as an
    evaluation; those past ``limit`` are refused.  The stages hand each
    other evaluations, which keep their assemblies, so no point is
    assembled twice.
    """

    def __init__(self) -> None:
        self.evals = 0
        self.limit = math.inf
        self.best: Evaluation | None = None

    def consider(self, ev: Evaluation) -> None:
        if self.best is None or _rank(ev) < _rank(self.best):
            self.best = ev


# A round of fewer trials assembles them chain by chain on floats: one batch
# of five-link chains costs about as much as 16 to 24 chains on floats at any
# size (link reduction tasks ran 4 % slower at 8).
BATCH_MIN = 16
# chain b of an assembled batch, with its residuals and their Jacobian
_Member = NamedTuple("_Member", [("batch", ChainBatch), ("b", int),
                                 ("residuals", np.ndarray), ("jac", np.ndarray)])


def _assemblies(run: _Search, asks: list) -> list:
    """The assembly (chain, assembled) of each (problem, x) in order, the
    only place a search assembles: the first ``room`` points, those the
    budget admits, are assembled and counted, and the rest read None.  With
    ``room`` at least BATCH_MIN, open segments and chains of one length,
    they are assembled in one batch, each assembled a ``_Member``; else
    each is ``problem.assembly(x)`` on floats."""
    room, chains = min(len(asks), max(run.limit - run.evals, 0)), []
    if room >= BATCH_MIN and all(problem.segment is not None for problem, _ in asks):
        with contextlib.suppress(GeometryError):
            chains = [problem.decode(x) for problem, x in asks[:room]]
    run.evals += room
    if len({len(c.links) for c in chains}) != 1:
        return [problem.assembly(x) for problem, x in asks[:room]] + [None] * (len(asks) - room)
    with np.errstate(all="ignore"):
        batch = assemble(chains)
        # open segments have no start variables
        heads = np.zeros((len(chains), 5, 0))
        final = (tuple(batch.frames[-1]), tuple(batch.tangents[-1]))
        jac = _endpoint_jacobian(*final) @ assemble_jacobian(batch, heads)[:, :5]
    # rows as the 7-vectors _endpoint_residuals gives
    r = np.concatenate(final).T - [sum(p.segment[1], ()) for p, _ in asks[:room]]
    held = [(c, None if batch.errors[n] else _Member(batch, n, r[n], jac[n]))
            for n, c in enumerate(chains)]
    return held + [None] * (len(asks) - room)


def _dots(u: np.ndarray) -> np.ndarray:
    """u @ u row by row, with the bits of each 1-D dot."""
    return (u[:, None, :] @ u[:, :, None])[:, 0, 0]


def _trial(x, step, lo, hi):
    """x + step cut to BOUND_FRACTION of the way to the first upper bound it
    crosses from below, then clipped to the box; rows of a stack as alone."""
    over = (x + step > hi) & (x < hi)
    room = np.divide(hi - x, step, out=np.full(np.shape(x), np.inf), where=over)
    scale = np.minimum(BOUND_FRACTION * room.min(axis=-1, keepdims=True), 1.0)
    return np.minimum(np.maximum(x + scale * step, lo), hi)


def _step(x, jac, r, lo, hi, lam, rejected):
    """``_stacked_steps`` for one solve, in 2-D calls with the stacked bits:
    at one solve they cost about half the stacked step, which is cheaper
    from two solves on, so only a lone live solve steps here."""
    grad = jac.T @ r
    free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
    normal = jac[:, free].T @ jac[:, free]
    step = np.zeros_like(x)
    try:
        step[free] = np.linalg.solve(normal + lam * np.diag(np.diag(normal)), -grad[free])
    except np.linalg.LinAlgError:
        return x, True, False
    trial = _trial(x, step, lo, hi)
    stop = math.sqrt((trial - x) @ (trial - x)) <= STEP_TOL * (STEP_TOL + math.sqrt(x @ x))
    return trial, stop, not stop and (trial == rejected).all()


def _stacked_steps(xs, js, rs, lo, hi, lam, rejected):
    """The Marquardt trials of a round's solves, stacked: the stacked
    products and solves give the bits of each solve's own 2-D calls.
    Returns the trials, where each solve stops, and where its trial is the
    one it had rejected."""
    grad = (js.transpose(0, 2, 1) @ rs[:, :, None])[:, :, 0]
    free = ~(((xs <= lo) & (grad > 0.0)) | ((xs >= hi) & (grad < 0.0)))
    steps, solved, groups = np.zeros(xs.shape), np.ones(len(xs), dtype=bool), {}
    for k, mask in enumerate(free):  # the solves of each free set
        groups.setdefault(mask.tobytes(), []).append(k)
    for rows in groups.values():
        cols = np.flatnonzero(free[rows[0]])
        part = js[rows][:, :, cols]
        # two copies, as jac[:, free].T @ jac[:, free] multiplies two
        normal = part.transpose(0, 2, 1) @ part.copy()
        systems = normal + lam[rows, None, None] * (normal * np.eye(cols.size))
        rhs = -grad[rows][:, cols, None]
        try:
            steps[np.ix_(rows, cols)] = np.linalg.solve(systems, rhs)[:, :, 0]
        except np.linalg.LinAlgError:  # one at a time, to find the singular ones
            for k, system, b in zip(rows, systems, rhs):
                try:
                    steps[k, cols] = np.linalg.solve(system, b)[:, 0]
                except np.linalg.LinAlgError:
                    solved[k] = False
    trials = _trial(xs, steps, lo, hi)
    solved &= ~(np.sqrt(_dots(trials - xs)) <= STEP_TOL * (STEP_TOL + np.sqrt(_dots(xs))))
    return trials, ~solved, solved & np.all(trials == rejected, axis=1)


def _roots(run: _Search, solves: list) -> list:
    """Levenberg-Marquardt solves (problem, x, budget, damping) of the
    endpoint residuals, over one number of variables, in lockstep.

    From x, clipped to the box, Marquardt's step solves (J'J + lam diag(J'J))
    dx = -J'r over the variables not held at a bound that the gradient
    pushes against; its trial (``_trial``) stops short of the upper bounds
    and clips onto the lower ones.  It is taken if its chain assembles
    and the cost |r|^2 / 2 falls, and lam falls tenfold; else lam rises
    tenfold from ``damping``.  A solve stops by the rule above, on a
    singular system, or after ``budget`` assemblies, its start's included.
    Each round steps the live solves together (``_stacked_steps``; ``_step``
    for one) and assembles their trials in order, each with the bits it has
    alone; one refused an assembly stops.  Starts and ends, but a refused
    solve's end, go to the incumbent solve by solve.  Returns the ends'
    evaluations, None for a refused solve.
    """
    problems, count = [solve[0] for solve in solves], len(solves)
    boxes = [problem.box() for problem in problems]
    x = [np.minimum(np.maximum(solve[1], lo), hi) for solve, (lo, hi) in zip(solves, boxes)]
    lam, held = [solve[3] for solve in solves], _assemblies(run, list(zip(problems, x)))
    starts = [None if got is None else problems[i].evaluate(x[i], got)
              for i, got in enumerate(held)]
    live = [i for i, start in enumerate(starts) if start is not None and start.report is not None]
    r = [None if start is None else start.residuals for start in starts]
    cost = [None if v is None else 0.5 * (v @ v) for v in r]
    ends, jac, spent, moved = list(starts), [None] * count, [1] * count, [False] * count
    rejected = [np.full(len(v), np.nan) for v in x]  # NaN equals nothing: none rejected
    while live := [i for i in live if spent[i] < solves[i][2] and np.abs(r[i]).max() > ROOT_TOL]:
        for i in live:
            if jac[i] is None:
                got = held[i][1]
                jac[i] = (got.jac if isinstance(got, _Member)
                          else problems[i].jacobian(x[i], held[i]))
        rows = [(x[i], jac[i], r[i], *boxes[i], lam[i], rejected[i]) for i in live]
        steps = [_step(*rows[0])] if len(rows) == 1 else zip(*_stacked_steps(
            *(np.array(column) for column in zip(*rows))))
        go, stop = [], set()
        for i, (trial, stopped, repeat) in zip(live, steps):
            if stopped:
                stop.add(i)
            elif repeat:
                lam[i] *= 10.0
            else:
                go.append((i, trial))
        for (i, trial), got in zip(go, _assemblies(run, [(problems[i], t) for i, t in go])):
            if got is None:
                stop.add(i)
                ends[i] = None
                continue
            spent[i] += 1
            trial_r = (None if got[1] is None else got[1].residuals
                       if isinstance(got[1], _Member) else problems[i].residuals(trial, got))
            trial_cost = math.inf if trial_r is None else 0.5 * (trial_r @ trial_r)
            if not trial_cost < cost[i]:
                lam[i], rejected[i] = lam[i] * 10.0, trial
                continue
            if cost[i] - trial_cost < ROOT_FTOL * cost[i]:
                stop.add(i)  # a stall
            x[i], held[i], r[i], cost[i], moved[i] = trial, got, trial_r, trial_cost, True
            lam[i], jac[i], rejected[i] = lam[i] / 10.0, None, np.full(len(trial), np.nan)
        live = [i for i in live if i not in stop]
    for i, start in enumerate(starts):
        if start is not None:
            run.consider(start)
        if moved[i] and ends[i] is not None:
            ends[i] = problems[i].evaluate(x[i], held[i])
            run.consider(ends[i])
    return ends


def _root(run: _Search, problem: EndpointProblem, x, budget: int,
          damping: float = LM_DAMPING) -> Evaluation:
    """One solve of ``_roots``, on floats; _Exhausted where the budget binds."""
    (end,) = _roots(run, [(problem, x, budget, damping)])
    if end is None:
        raise _Exhausted
    return end


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
        kkt = np.zeros((n + len(rows),) * 2)
        kkt[:n, :n], kkt[:n, n:], kkt[n:, :n] = hess, rows.T, rows
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


def _descend(run: _Search, problem: EndpointProblem, here: Evaluation) -> None:
    """Active-set SQP from the point x of ``here``, an evaluation already
    offered to the incumbent: ``_qp`` steps on a damped-BFGS Hessian of the
    Lagrangian.  Each trial x + d / 2^h is restored onto closure by
    ``_root`` before it is judged, so the closure surface's curvature cannot
    reject full steps as under a penalty merit (the Maratos effect).  The
    first trial that ranks above x in the incumbent's order is taken, h <=
    SQP_HALVINGS, and ``point`` completes the evaluation ``_root`` returned.
    Where none is, the Hessian restarts from the identity once; the descent
    stops there, or on closure where the model promises a fall under
    SQP_FTOL."""
    lo, hi = problem.box()
    here = problem.point(here)
    hess, fresh = np.eye(len(here.x)), True
    while here.report is not None:
        step, lam, _ = _qp(hess, here, here.x, lo, hi)
        if (_rank(here)[0] == 0
                and -(here.gradient @ step + 0.5 * step @ hess @ step) <= SQP_FTOL):
            return
        for halving in range(SQP_HALVINGS + 1):
            new = _root(run, problem, here.x + step / 2 ** halving, RESTORE_EVALS, RESTORE_DAMPING)
            if _rank(new) < _rank(here):
                break
        else:
            if fresh:
                return
            hess, fresh = np.eye(len(here.x)), True
            continue
        fresh = False
        new = problem.point(new)
        # Powell's damping keeps the update positive definite
        s, jump = new.x - here.x, new.equation_jacobian - here.equation_jacobian
        y, hs = new.gradient - here.gradient + jump.T @ lam, hess @ s
        shs, sy = s @ hs, s @ y
        theta = 1.0 if sy >= 0.2 * shs else 0.8 * shs / (shs - sy)
        y = theta * y + (1.0 - theta) * hs
        hess = hess + np.outer(y, y) / (s @ y) - np.outer(hs, hs) / shs
        here = new


def _density(chain_area):
    """Packing density of the domain: twice the chain area over sqrt(12)."""
    return 2.0 * chain_area / SQRT12


def five_link_problem() -> EndpointProblem:
    """Closed five-link chains in DEFAULT_BOUNDS with density as the value."""
    return EndpointProblem(FIVE_LINK_PATTERN, _density, 1.0, DEFAULT_BOUNDS)


def octagon_embedding() -> np.ndarray:
    """The smoothed octagon as a seven-vector of the five-link search space."""
    dom = smoothed_octagon()
    a, b, _ = circle_tangent(dom.chain.initial).unit()
    tau = dom.chain.links[0].tau
    return np.array([a, b, tau, tau, tau, 0.0, tau])


def five_link_search(spec: SearchSpec) -> SearchResult:
    """Multi-start constrained descent: per start, a ``_root`` snap onto
    closure, then the SQP ``_descend`` on density.  Every start and end of a
    solve is offered to the incumbent, and only roots compete on density.
    A random start that does not assemble is redrawn, each draw counted, up
    to ``START_DRAWS`` draws; a given start is kept.  Each start may
    assemble ``max_evals // restarts`` chains, the first at least one, so
    ``eval_count`` never exceeds a positive ``max_evals``; where that share
    is zero, only the first start is drawn, as no other could assemble."""
    rng = np.random.default_rng(spec.seed)
    problem = five_link_problem()
    lo, hi = problem.box()
    run = _Search()

    def draw() -> np.ndarray:
        return lo + (hi - lo) * rng.uniform(size=len(lo))

    per_start = spec.max_evals // spec.restarts
    starts = [] if spec.start is None else [np.asarray(spec.start, dtype=float)]
    while len(starts) < (spec.restarts if per_start else 1):
        starts.append(draw())

    for i, p0 in enumerate(starts):
        run.limit = run.evals + max(per_start, 1 if i == 0 else 0)
        try:
            ev = _root(run, problem, p0, SNAP_EVALS)
            # a random start that does not assemble gives the solvers no slope
            redraws = START_DRAWS - 1 if spec.start is None or i > 0 else 0
            while ev.report is None and redraws > 0:
                ev, redraws = _root(run, problem, draw(), SNAP_EVALS), redraws - 1
            _descend(run, problem, ev)
        except _Exhausted:
            pass

    best = run.best
    return SearchResult(
        tuple(float(v) for v in best.x), best.value, best.feasible(), run.evals,
        best.report if best.report is not None else _NO_CLOSURE)


def _consecutive_distinct_patterns() -> list[tuple[int, ...]]:
    patterns = [(j,) for j in (0, 2, 4)]
    for _ in range(4):
        patterns = [p + (j,) for p in patterns for j in (0, 2, 4) if j != p[-1]]
    return patterns


class LinkReductionReport(NamedTuple):
    six_area: float
    five_area: float
    five_links: tuple[LinkParam, ...]
    endpoint_residual: float
    feasible: bool
    improved: bool
    eval_count: int
    # patterns with a solve that ended at a root
    root_count: int


def link_reduction_experiment(six_link: ChainParams, spec: SearchSpec) -> LinkReductionReport:
    """Search five-link chains joining the endpoint states of a six-link one.

    Hyperbolic indices run over all consecutive-distinct patterns, and one
    ``_roots`` call solves the endpoint equations in the five turning
    fractions from each start of each pattern.  The merged input links seed
    their own pattern, so degenerate six-link chains are refit exactly.
    ``max_evals`` caps the assemblies, the first evaluation excepted; where
    it binds, they go to the solves pattern by pattern, and no start is
    drawn for a solve that could not assemble it.  The taus span
    SEGMENT_BOUNDS from their own starts: a spec's start raises.
    """
    if spec.start is not None:
        raise InfeasibleInput("link reduction takes no start point")
    if len(six_link.links) != 6:
        raise InfeasibleInput(f"expected six links, got {len(six_link.links)}")
    try:
        assembled = assemble(six_link)
    except GeometryError as exc:
        raise InfeasibleInput(f"six-link segment does not assemble: {exc}")
    margin = angle_margin_of(six_link, assembled)
    if margin < -ANGLE_TOL:
        raise InfeasibleInput(f"six-link segment violates the angle condition by {-margin:.3e}")

    six_area = assembled.area()
    rng = np.random.default_rng(spec.seed)
    run = _Search()
    run.limit = max(spec.max_evals, 1)

    patterns = _consecutive_distinct_patterns()
    seed_links = merged_links(six_link.links)
    seed_pattern = None
    if 1 <= len(seed_links) <= 5:
        # zero-length links pad the merged links to five, the index advancing
        seed_taus = np.array([l.tau for l in seed_links] + [0.0] * (5 - len(seed_links)))
        seed_pattern = tuple([l.j for l in seed_links] + [
            (seed_links[-1].j + 2 * n) % 6 for n in range(1, 6 - len(seed_links))])

    per_pattern = max(60, spec.max_evals // (len(patterns) + 1))
    solves, owners = [], []
    for n, pattern in enumerate(patterns):
        if len(solves) >= run.limit:  # _assemblies refuses every later start
            break
        problem = EndpointProblem(pattern, lambda area: area, 0.0, SEGMENT_BOUNDS,
                                  (six_link.initial, assembled.end))
        starts = [np.full(5, 0.3)] + [rng.uniform(0.05, 0.9, size=5)
                                      for _ in range(min(spec.restarts, run.limit) - 1)]
        if pattern == seed_pattern:
            starts.insert(0, seed_taus)
        # five equations in five taus: bounded Levenberg-Marquardt
        solves += [(problem, t0, per_pattern, LM_DAMPING) for t0 in starts]
        owners += [n] * len(starts)
    ends = _roots(run, solves[:run.limit])
    roots = len({n for n, end in zip(owners, ends) if end is not None and _rank(end)[0] == 0})

    best = run.best
    feasible = best.feasible()
    return LinkReductionReport(
        six_area, best.value, best.chain.links, float(np.max(np.abs(best.residuals))), feasible,
        feasible and best.value < six_area - IMPROVEMENT_MARGIN, run.evals, roots)

