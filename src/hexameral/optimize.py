"""Searches over chain parameters, on the module's own solvers.

Both experiments are one endpoint problem: minimise a multiple of the chain
area over link parameters in a box, subject to the chain ending in a target
state.  One Newton solve, ``_roots`` (bounded Levenberg-Marquardt on the
exact Jacobian, many solves in lockstep), serves both.  The five-link density
search targets the start state turned by pi/3: per start, one solve snaps
onto closure, then an active-set SQP (``_descend``) lowers density with five
endpoint equations as equality constraints.  Link reduction refits a six-link
segment with five links ending in its end state, solving five equations in
five turning fractions per index pattern; the least closed root wins.  Every
chain assembly counts as an evaluation; ``SearchSpec.max_evals`` caps them.
"""
from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .chain import (
    ANGLE_TOL, STRICT_TOL, AssembledChain, ChainBatch, ChainParams, ClosureReport, LinkParam,
    _endpoint_equations, _endpoint_jacobian, _endpoint_residuals, _TARGET_TURN, angle_margin_of,
    assemble, assemble_jacobian, closure_of, end_target, merged_links,
)
from .domain import SQRT12, smoothed_octagon
from .errors import GeometryError, InfeasibleInput
from .hyperlink import LinkState, circle_tangent
from .sl2 import IDENTITY, ProjectiveTangent, TangentElement, _sphere_basis

FIVE_LINK_PATTERN = (0, 2, 4, 2, 0)
TAU_HI = 1.0 - 1e-6
FAIL_RESIDUAL = 1.0e3
IMPROVEMENT_MARGIN = 1e-9
# The stop rule of a Newton solve (_roots): a root is a residual of at most
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

    def __post_init__(self) -> None:
        if not self.bounds:
            raise InfeasibleInput("bounds must be nonempty")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise InfeasibleInput(f"empty bound interval ({lo!r}, {hi!r})")
        for name, least in (("restarts", 1), ("max_evals", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InfeasibleInput(f"{name} = {value!r} must be an integer")
            if value < least:
                raise InfeasibleInput(f"{name} must be {'at least 1' if least else 'nonnegative'}")
            object.__setattr__(self, name, int(value))
        if self.start is not None:
            object.__setattr__(self, "start", tuple(float(v) for v in self.start))
            if len(self.start) != len(self.bounds):
                raise InfeasibleInput("start point has the wrong dimension")
            # NaN lies in no interval
            if not all(lo <= v <= hi for v, (lo, hi) in zip(self.start, self.bounds)):
                raise InfeasibleInput("start point lies outside the bounds")


@dataclass(frozen=True)
class SearchResult:
    best_params: tuple[float, ...]
    best_density: float
    feasible: bool
    eval_count: int
    closure: ClosureReport


def _fixed_start(x, chain: ChainParams) -> np.ndarray:
    """Start-state derivative of a decoder whose variables are all taus."""
    return np.zeros((5, len(x) - len(chain.links)))


class Evaluation(NamedTuple):
    """One point x of an endpoint problem with the assembly it was computed
    from: ``assembled`` is an AssembledChain, a batch member (``_Member``),
    or None where assembly failed, as ``report`` is.

    ``EndpointProblem.point`` adds the value's gradient and the five endpoint
    equations with their Jacobian, zero-slope where assembly failed.
    """

    x: np.ndarray
    value: float
    residuals: np.ndarray
    report: ClosureReport | None
    chain: ChainParams | None
    assembled: AssembledChain | _Member | None
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
    the decoded start state in the m variables before them, in a state's
    five local coordinates.  ``value`` is linear, so it also maps the area
    gradient to the value's.  A ``target`` of None means the
    chain's own start state turned by pi/3.  ``fail_value`` stands in for
    the value where no chain can be assembled.  Methods that take an
    ``assembly`` accept ``self.assembly(x)`` from a caller who holds it, and
    ``evaluate`` a record of ``_assemblies`` too.
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
            d_target[:3, :head.shape[1]] = _TARGET_TURN @ head[:3]
            d_target[3:, :head.shape[1]] = head[3:]
        return d_state, d_target

    def jacobian(self, x, assembly=None) -> np.ndarray:
        """The exact 7 x n Jacobian of ``residuals``; zero where no chain assembles."""
        chain, assembled = self.assembly(x) if assembly is None else assembly
        if assembled is None:
            return np.zeros((7, len(x)))
        d_state, d_target = self._derivatives(x, chain, assembled)
        jac = _endpoint_jacobian(*assembled.final.entries()) @ d_state[:5]
        if d_target is not None:
            jac -= _endpoint_jacobian(*end_target(chain).entries()) @ d_target
        return jac

    def evaluate(self, x, assembly=None) -> Evaluation:
        """Value, residuals and closure report of the chain at x."""
        held = self.assembly(x) if assembly is None else assembly
        chain, assembled = _whole(held)
        if assembled is None:
            return Evaluation(x, self.fail_value, np.full(7, FAIL_RESIDUAL), None, chain, None)
        target = end_target(chain, self.target)
        return Evaluation(x, self.value(assembled.area()),
                          _endpoint_residuals(assembled.final, target),
                          closure_of(chain, assembled, target=target), chain, held[1])

    def point(self, ev: Evaluation) -> Evaluation:
        """The evaluation ``ev`` with the derivatives an SQP step needs, from
        its assembly."""
        x, (chain, assembled) = ev.x, _whole((ev.chain, ev.assembled))
        if assembled is None:
            return ev._replace(gradient=np.zeros(len(x)), equations=np.full(5, FAIL_RESIDUAL),
                               equation_jacobian=np.zeros((5, len(x))))
        d_state, d_target = self._derivatives(x, chain, assembled)
        target = end_target(chain, self.target)
        equations, d_end, d_moved = _endpoint_equations(assembled.final, target)
        jac = d_end @ d_state[:5]
        if d_target is not None:
            jac += d_moved @ d_target
        return ev._replace(gradient=self.value(d_state[5]), equations=equations,
                           equation_jacobian=jac)


def _rank(ev: Evaluation, closure_tol: float = math.inf) -> tuple[int, float]:
    """Incumbent order: feasible points by value, then the rest by violation;
    with a ``closure_tol``, only those whose residual entries are within it
    rank by value, so closure slack never passes for a lower value."""
    if ev.feasible() and np.abs(ev.residuals).max() <= closure_tol:
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

    def __init__(self, closure_tol: float = math.inf) -> None:
        self.evals = 0
        self.limit = math.inf
        self.closure_tol = closure_tol
        self.best: Evaluation | None = None

    def consider(self, ev: Evaluation) -> None:
        if self.best is None or _rank(ev, self.closure_tol) < _rank(self.best, self.closure_tol):
            self.best = ev


# A round of fewer trials assembles them chain by chain on floats: a batched
# round of five links costs about as much as 16 to 24 chains on floats at any
# size (link reduction tasks ran 4 % slower at 8).
BATCH_MIN = 16
# chain b of an assembled batch, with its residuals and their Jacobian
_Member = NamedTuple("_Member", [("batch", ChainBatch), ("b", int),
                                 ("residuals", np.ndarray), ("jac", np.ndarray)])


def _whole(held):
    """A held assembly, a batch member built into its AssembledChain."""
    chain, got = held
    return (chain, got.batch.assembled(chain, got.b)) if isinstance(got, _Member) else held


def _assemblies(run: _Search, asks: list) -> list:
    """The assembly (chain, assembled) of each (problem, x) in order, the
    only place a search assembles: the first ``room`` points, those the
    budget admits, are assembled and counted, and the rest read None.  With
    ``room`` at least BATCH_MIN, fixed targets and chains of one length,
    they are assembled in one batch, each assembled a ``_Member``; else
    each is ``problem.assembly(x)`` on floats."""
    room, chains = min(len(asks), max(run.limit - run.evals, 0)), []
    if room >= BATCH_MIN and all(problem.target is not None for problem, _ in asks):
        with contextlib.suppress(GeometryError):
            chains = [problem.decode(x) for problem, x in asks[:room]]
    run.evals += room
    if len({len(c.links) for c in chains}) != 1:
        return [problem.assembly(x) for problem, x in asks[:room]] + [None] * (len(asks) - room)
    with np.errstate(all="ignore"):
        batch = assemble(chains)
        heads = np.array([p.start_jacobian(x, c) for (p, x), c in zip(asks, chains)])
        final = (tuple(batch.frames[-1]), tuple(batch.tangents[-1]))
        jac = _endpoint_jacobian(*final) @ assemble_jacobian(None, heads, batch)[1][:, :5]
    # rows as the 7-vectors _endpoint_residuals gives
    r = np.concatenate(final).T - [sum(p.target.entries(), ()) for p, _ in asks[:room]]
    held = [(c, None if batch.errors[n] else _Member(batch, n, r[n].copy(), jac[n].copy()))
            for n, c in enumerate(chains)]
    return held + [None] * (len(asks) - room)


def _dots(u: np.ndarray) -> np.ndarray:
    """u @ u row by row, with the bits of each 1-D dot."""
    return (u[:, None, :] @ u[:, :, None])[:, 0, 0]


def _step(x, jac, r, lo, hi, lam, xtol, rejected):
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
    trial = np.minimum(np.maximum(x + step, lo), hi)
    stop = math.sqrt((trial - x) @ (trial - x)) <= xtol * (xtol + math.sqrt(x @ x))
    return trial, stop, not stop and (trial == rejected).all()


def _stacked_steps(xs, js, rs, lo, hi, lam, xtol, rejected):
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
    trials = np.minimum(np.maximum(xs + steps, lo), hi)
    solved &= ~(np.sqrt(_dots(trials - xs)) <= xtol * (xtol + np.sqrt(_dots(xs))))
    return trials, ~solved, solved & np.all(trials == rejected, axis=1)


def _roots(run: _Search, solves: list) -> list:
    """Levenberg-Marquardt solves (problem, x, budget, damping, xtol) of the
    endpoint residuals, over one number of variables, in lockstep.

    From x, clipped to the box, Marquardt's step solves (J'J + lam diag(J'J))
    dx = -J'r over the variables not held at a bound that the gradient
    pushes against, clipped to the box.  It is taken if its chain assembles
    and the cost |r|^2 / 2 falls, and lam falls tenfold; else lam rises
    tenfold from ``damping``.  A solve stops by the rule above (with
    ``xtol``), on a singular system, or after ``budget`` assemblies, its
    start's included.  Each round steps the live solves together
    (``_stacked_steps``; ``_step`` for one) and assembles their trials in
    order, each with the bits it has alone; one refused an assembly stops.
    Starts and ends, but a refused solve's end, go to the incumbent solve by
    solve.  Returns the ends' evaluations, None for a refused solve.
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
        rows = [(x[i], jac[i], r[i], *boxes[i], lam[i], solves[i][4], rejected[i]) for i in live]
        steps = [_step(*rows[0])] if len(rows) == 1 else zip(*_stacked_steps(
            *(np.array(column) for column in zip(*rows))))
        go, stop, taken = [], set(), []
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
            taken += [i] if isinstance(got[1], _Member) else []
        if taken:  # hold copies of the taken chains, not the round's whole batch
            kept = held[taken[0]][1].batch.columns([held[i][1].b for i in taken])
            for b, i in enumerate(taken):
                held[i] = (held[i][0], held[i][1]._replace(batch=kept, b=b))
        live = [i for i in live if i not in stop]
    for i, start in enumerate(starts):
        if start is not None:
            run.consider(start)
        if moved[i] and ends[i] is not None:
            ends[i] = problems[i].evaluate(x[i], held[i])
            run.consider(ends[i])
    return ends


def _root(run: _Search, problem: EndpointProblem, x, budget: int,
          damping: float = LM_DAMPING, xtol: float = STEP_TOL) -> Evaluation:
    """One solve of ``_roots``, on floats; _Exhausted where the budget binds."""
    (end,) = _roots(run, [(problem, x, budget, damping, xtol)])
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
        if (_rank(here, run.closure_tol)[0] == 0
                and -(here.gradient @ step + 0.5 * step @ hess @ step) <= SQP_FTOL):
            return
        for halving in range(SQP_HALVINGS + 1):
            trial = np.minimum(np.maximum(here.x + step / 2 ** halving, lo), hi)
            new = _root(run, problem, trial, RESTORE_EVALS, RESTORE_DAMPING, RESTORE_XTOL)
            if _rank(new, run.closure_tol) < _rank(here, run.closure_tol):
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
    closure, then the SQP ``_descend`` on density.  Every start and end of a
    solve is offered to the incumbent, and only points on closure (roots in
    ``_root``'s sense) compete on density.  A random start that does not
    assemble is redrawn, each draw counted, up to ``START_DRAWS`` draws; a
    given start is kept.  Each start may assemble ``max_evals // restarts``
    chains, the first at least one, so ``eval_count`` never exceeds a
    positive ``max_evals``."""
    rng = np.random.default_rng(spec.seed)
    problem = five_link_problem(spec.bounds)
    lo, hi = problem.box()
    run = _Search(ROOT_TOL)

    def draw() -> np.ndarray:
        return lo + (hi - lo) * rng.uniform(size=len(lo))

    starts = [] if spec.start is None else [np.asarray(spec.start, dtype=float)]
    while len(starts) < spec.restarts:
        starts.append(draw())

    per_start = spec.max_evals // len(starts)
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

    Hyperbolic indices run over all consecutive-distinct patterns, and one
    ``_roots`` call solves the endpoint equations in the five turning
    fractions from each start of each pattern.  The merged input links seed
    their own pattern, so degenerate six-link chains are refit exactly.
    ``max_evals`` caps the assemblies, the first evaluation excepted; where
    it binds, they go to the solves pattern by pattern.
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
    run = _Search()
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
        # zero-length links pad the merged links to five, the index advancing
        seed_taus = np.array([l.tau for l in seed_links] + [0.0] * (5 - len(seed_links)))
        seed_pattern = tuple([l.j for l in seed_links] + [
            (seed_links[-1].j + 2 * n) % 6 for n in range(1, 6 - len(seed_links))])

    per_pattern = max(60, spec.max_evals // (len(patterns) + 1))
    solves, owners = [], []
    for n, pattern in enumerate(patterns):
        problem = segment_problem(pattern)
        starts = [np.full(5, 0.3)] + [rng.uniform(0.05, 0.9, size=5)
                                      for _ in range(spec.restarts - 1)]
        if pattern == seed_pattern:
            starts.insert(0, seed_taus)
        # five equations in five taus: bounded Levenberg-Marquardt
        solves += [(problem, t0, per_pattern, LM_DAMPING, STEP_TOL) for t0 in starts]
        owners += [n] * len(starts)
    ends = _roots(run, solves)
    roots = len({n for n, end in zip(owners, ends) if end is not None and end.feasible()})

    best = run.best
    feasible = best.feasible()
    return LinkReductionReport(
        six_area, best.value, best.chain.links,
        float(np.max(np.abs(best.residuals))), feasible,
        feasible and best.value < six_area - IMPROVEMENT_MARGIN, run.evals, roots,
    )

