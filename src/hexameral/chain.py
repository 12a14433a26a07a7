"""Chains of hyperbolic links and the rotation-by-pi/3 closure condition.

A chain is an initial link state plus a list of (tau, j) parameters.  A
closed chain covers the fundamental boundary interval: its final frame is
the initial frame composed with a rotation by pi/3 and its projective
tangent returns to the start.  The sweep angle of the relative position
frame(t0)^{-1} phi(t) u*_0 must grow monotonically from 0 to pi/3.

Inside one link that angle is monotone: the relative position moves on a
convex arc with wedge(p, X p) > 0 under the star conditions, which
``propagate`` checks at every link start.  So the angle's extremes and its
smallest increment over a chain are all taken at link ends, and the angle
condition is read from the link-end states that ``assemble`` returns.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    ChainFormatError,
    FrameDeterminantError,
    GeometryError,
    LinkLengthViolation,
    NotClosed,
    ParameterOutOfRange,
)
from .hyperlink import (
    LinkState,
    SquareRep,
    _entry,
    _transfer,
    link_area,
    propagate,
)
from .sl2 import (
    ROT60,
    FrameMatrix,
    ProjectiveTangent,
    TangentElement,
    _adjoint_matrix,
    _inverse,
    _product,
    _sphere_basis,
    frame_distance,
)

# Residual bound under which closure_report classifies a chain as closed.
FEASIBLE_TOL = 1e-6
# Stricter tier used by verification suites.
STRICT_TOL = 1e-9
ANGLE_TOL = 1e-9

SIXTH_TURN = math.pi / 3.0


class LinkParam(NamedTuple):
    tau: float
    j: int


@dataclass(frozen=True)
class ChainParams:
    """Initial state plus link parameters (tau in [0, 1), j in {0, 2, 4})."""

    initial: LinkState
    links: tuple[LinkParam, ...]

    def __post_init__(self) -> None:
        links = tuple(LinkParam(float(t), int(j)) for t, j in self.links)
        object.__setattr__(self, "links", links)
        for i, (tau, j) in enumerate(links):
            if not 0.0 <= tau < 1.0:
                raise ParameterOutOfRange(f"tau = {tau!r} outside [0, 1)").at_link(i)
            if j not in (0, 2, 4):
                raise ParameterOutOfRange(f"index j = {j!r} not in (0, 2, 4)").at_link(i)


@dataclass(frozen=True)
class AssembledChain:
    """Propagation record: states[0] is the initial state, one rep per link."""

    states: tuple[LinkState, ...]
    reps: tuple[SquareRep, ...]

    @property
    def final(self) -> LinkState:
        return self.states[-1]

    def area(self) -> float:
        return sum(link_area(r) for r in self.reps)


def assemble(chain: ChainParams) -> AssembledChain:
    """Propagate through every link; failures carry the index of their link.

    A failing link re-raises its own error with ``link_index`` set and the
    message prefixed by ``link <i>: ``.
    """
    states = [chain.initial]
    reps = []
    for i, (tau, j) in enumerate(chain.links):
        try:
            state, rep = propagate(states[-1], tau, j)
        except GeometryError as exc:
            exc.at_link(i)
            raise
        states.append(state)
        reps.append(rep)
    return AssembledChain(tuple(states), tuple(reps))


def assemble_jacobian(chain: ChainParams, head: np.ndarray,
                      assembled: AssembledChain | None = None
                      ) -> tuple[AssembledChain, np.ndarray]:
    """assemble, plus the derivatives of the final state and the area.

    The variables are m leading ones, whose derivative of the initial state
    is ``head`` (5, m) in propagate_jacobian's coordinates, then the link
    taus in order.  Returns the assembled chain and a (6, m + links) array:
    the final state's derivative over the area gradient.  A caller that
    already holds ``assemble(chain)`` passes it as ``assembled``, and the
    chain is not assembled again.

    This is propagate_jacobian composed link by link, except that between
    two links the out tangent's sphere coordinates and the next link's
    reading of them cancel: the chain carries (xi, da, dt0) of the next link
    and converts to sphere coordinates only at its two ends.
    """
    if assembled is None:
        assembled = assemble(chain)
    m = head.shape[1]
    links = chain.links
    d_state = np.zeros((6, m + len(links)))
    if not links:
        d_state[:5, :m] = head
        return assembled, d_state
    d_state[:3, :m] = head[:3]
    d_state[3:5, :m] = np.array(_entry(chain.initial, links[0].j)) @ head
    steps = zip(assembled.states, assembled.states[1:], assembled.reps)
    for i, (state, out, rep) in enumerate(steps):
        next_j = links[i + 1].j if i + 1 < len(links) else None
        transfer = np.array(_transfer(state.frame.entries(), out, rep, next_j))
        d_state = transfer[:, :6] @ d_state
        # no earlier link reads this tau
        d_state[:, m + i] = transfer[:, 6]
    return assembled, d_state


def chain_area(chain: ChainParams) -> float:
    """Sum of link_area over the chain's recovered square representations."""
    return assemble(chain).area()


@dataclass(frozen=True)
class ClosureReport:
    frame_residual: float
    tangent_residual: float
    angle_ok: bool
    angle_margin: float

    def residual(self) -> float:
        return max(self.frame_residual, self.tangent_residual)

    def closed(self, tol: float = FEASIBLE_TOL) -> bool:
        return self.residual() <= tol and self.angle_ok


def closure_report(chain: ChainParams) -> ClosureReport:
    """Frame and tangent closure residuals plus the sweep-angle check."""
    return closure_of(chain, assemble(chain))


def end_target(chain: ChainParams, target: LinkState | None = None) -> LinkState:
    """The state a chain must end in: ``target``, else its start turned by pi/3."""
    if target is not None:
        return target
    return LinkState(chain.initial.frame.compose(ROT60), chain.initial.tangent)


def closure_of(chain: ChainParams, assembled: AssembledChain,
               target: LinkState | None = None) -> ClosureReport:
    """closure_report for a chain that is already assembled.

    With a ``target`` the residuals measure an open segment's end state
    against it instead of against the closure condition.
    """
    target = end_target(chain, target)
    end = assembled.final
    frame_res = frame_distance(end.frame, target.frame)
    tangent_res = target.tangent.distance(end.tangent)
    margin = angle_margin_of(chain, assembled)
    return ClosureReport(frame_res, tangent_res, margin >= -ANGLE_TOL, margin)


def angle_margin_of(chain: ChainParams, assembled: AssembledChain | None = None) -> float:
    """Worst slack of the sweep-angle condition; negative means violated.

    The sweep angle must stay in [0, pi/3] and increase monotonically; the
    margin is the smallest of the two range slacks and the smallest
    increment.  Valid for open segments as well as closed chains.

    The angles are those of frame(t0)^{-1} phi u*_0 at the start and end of
    every non-degenerate link, after a leading 0.  Within a link the angle
    is monotone (see the module docstring), so denser samples inside a link
    add no extreme and no smaller increment; the increments across a link
    join compare two readings of the same state and sit at rounding level.
    Each ``atan2`` reading gains the whole turns that bring it within pi of
    the last, so a sweep past pi is charged in full on either side of the
    branch cut; without a wrap the angles are ``atan2``'s own floats.
    """
    if assembled is None:
        assembled = assemble(chain)
    inv0 = _inverse(chain.initial.frame.entries())
    angles = [0.0]
    turns = 0.0
    for start, end, rep in zip(assembled.states, assembled.states[1:], assembled.reps):
        if rep.tau == 0.0:
            continue
        for state in (start, end):
            # u*_0 = (1, 0): the relative position is the first column
            al, _, ga, _ = _product(inv0, state.frame.entries())
            angle = math.atan2(ga, al)
            turns += 2.0 * math.pi * round((angles[-1] - angle - turns) / (2.0 * math.pi))
            angles.append(angle + turns if turns else angle)
    mono = min((b - a for a, b in zip(angles, angles[1:])), default=0.0)
    return min(min(angles), SIXTH_TURN - max(angles), mono)


# Endpoint residuals.  A state moves in five local coordinates, as in
# hyperlink.propagate_jacobian: its frame F as F exp(xi), xi in sl2, and its
# unit tangent along the two directions _sphere_basis gives at it.

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


# The sl2 basis [[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]].
_SL2_BASIS = np.array((((1.0, 0.0), (0.0, -1.0)), ((0.0, 1.0), (0.0, 0.0)),
                       ((0.0, 0.0), (1.0, 0.0))))


def _sl2_coordinates(m: np.ndarray) -> np.ndarray:
    """(a, b, c) of the traceless part [[a, b], [c, -a]] of 2 x 2 matrices (..., 2, 2)."""
    return np.stack((0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1], m[..., 1, 0]),
                    axis=-1)


def _endpoint_equations(final: LinkState, target: LinkState):
    """Five independent endpoint equations, and their derivatives (5, 5) in
    the end state's and in the target's local coordinates.

    The seven residual entries have rank 5.  Here the frame gives the sl2
    coordinates of G - I, G = T^{-1} F: F exp(xi) moves G by G xi, and
    T exp(eta) by -eta G.  The tangent w gives its projections on the
    target u's sphere basis, (e_k - u_k u) / s and u x e_k / s with
    s = sqrt(1 - u_k^2), k the axis least aligned with u; the basis turns
    with u, which adds the terms in u_k / s^2.  The equations also vanish at
    F = -T, which closure_of does not count as closed.
    """
    g = np.array(_product(_inverse(target.frame.entries()),
                          final.frame.entries())).reshape(2, 2)
    u = np.array(target.tangent.components())
    w = np.array(final.tangent.components())
    basis = np.array(_sphere_basis(*u))
    k = int(np.argmin(np.abs(u)))  # _sphere_basis's choice, ties included
    s = math.sqrt(1.0 - u[k] * u[k])
    # G - I and G have the same sl2 coordinates
    equations = np.concatenate((_sl2_coordinates(g), basis @ w))
    axis = np.eye(3)[k]
    by_u = (np.array((-(u @ w) * axis - u[k] * w, np.cross(axis, w))) / s
            + np.outer(equations[3:], axis) * (u[k] / (s * s)))
    d_end, d_target = np.zeros((5, 5)), np.zeros((5, 5))
    d_end[:3, :3] = _sl2_coordinates(g @ _SL2_BASIS).T
    d_end[3:, 3:] = basis @ np.array(_sphere_basis(*w)).T
    d_target[:3, :3] = -_sl2_coordinates(_SL2_BASIS @ g).T
    d_target[3:, 3:] = by_u @ basis.T
    return equations, d_end, d_target


# A start frame F0 moved to F0 exp(xi) turns its target F0 R into
# F0 R exp(Ad(R^{-1}) xi), R the rotation by pi/3.
_TARGET_TURN = np.array(_adjoint_matrix(_inverse(ROT60.entries())))


def _merge(tau_a: float, tau_b: float) -> float:
    """Turning fraction of two consecutive links on the same hyperbola."""
    return tau_a + tau_b - tau_a * tau_b


def merged_links(links: Iterable[LinkParam]) -> list[LinkParam]:
    """Degenerate entries dropped, same-index neighbours merged."""
    stack: list[LinkParam] = []
    for tau, j in links:
        if tau == 0.0:
            continue
        if stack and stack[-1].j == j:
            stack[-1] = LinkParam(_merge(stack[-1].tau, tau), j)
        else:
            stack.append(LinkParam(tau, j))
    return stack


def normalize_links(chain: ChainParams) -> ChainParams:
    """Canonical link list: merged same-index runs, zero padding between jumps.

    Degenerate entries are dropped, adjacent links on the same hyperbolic
    index merge by the semigroup rule, and tau = 0 links are inserted so
    consecutive indices always advance by two.  Assembled geometry (area,
    closure) is unchanged.
    """
    padded: list[LinkParam] = []
    for link in merged_links(chain.links):
        if padded:
            j = (padded[-1].j + 2) % 6
            while j != link.j:
                padded.append(LinkParam(0.0, j))
                j = (j + 2) % 6
        padded.append(link)
    return ChainParams(chain.initial, tuple(padded))


def link_length(chain: ChainParams, closure_tol: float = FEASIBLE_TOL) -> int:
    """Normalized link count n + 1 of a closed chain; checks n = 0 mod 3.

    The count is invariant under relabeling the starting multi-point, so no
    j0 = 0 normalization is applied before counting.
    """
    require_closed(closure_report(chain), closure_tol)
    return normalized_length(chain)


def require_closed(report: ClosureReport, closure_tol: float) -> None:
    """Raise NotClosed where the report's residual exceeds ``closure_tol``."""
    if report.residual() > closure_tol:
        raise NotClosed(
            f"closure residual {report.residual():.3e} exceeds {closure_tol:.1e}"
        )


def normalized_length(chain: ChainParams) -> int:
    """link_length without its closure check, for chains already known closed."""
    links = normalize_links(chain).links
    if not links:
        raise LinkLengthViolation("closed chain has no non-degenerate links")
    n = len(links) - 1
    if n % 3 != 0:
        raise LinkLengthViolation(f"normalized chain has n = {n}, not 0 mod 3")
    return len(links)


# JSON chain dialect.

def chain_to_dict(chain: ChainParams) -> dict:
    f = chain.initial.frame
    a, b, c = chain.initial.tangent.components()
    return {
        "initial": {
            "frame": [f.alpha, f.beta, f.gamma, f.delta],
            "tangent": [a, b, c],
        },
        "links": [{"tau": tau, "j": j} for tau, j in chain.links],
    }


def _as_float(v: int | float) -> float:
    """float(v), with integers beyond float range as signed infinities."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _reals(raw, n: int, what: str) -> list[float]:
    if not isinstance(raw, list) or len(raw) != n:
        raise ChainFormatError(f"{what} must be a list of {n} numbers")
    out = []
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ChainFormatError(f"{what} must contain only numbers")
        x = _as_float(v)
        if not math.isfinite(x):
            raise ChainFormatError(f"{what} must contain only finite numbers")
        out.append(x)
    return out


def chain_from_dict(data: dict) -> ChainParams:
    if not isinstance(data, dict):
        raise ChainFormatError("chain document must be a JSON object")
    try:
        initial = data["initial"]
        frame_raw = initial["frame"]
        tangent_raw = initial["tangent"]
        links_raw = data["links"]
    except (KeyError, TypeError) as exc:
        raise ChainFormatError(f"missing chain field: {exc}") from exc
    al, be, ga, de = _reals(frame_raw, 4, "initial.frame")
    try:
        frame = FrameMatrix(al, be, ga, de)
    except FrameDeterminantError as exc:
        raise ChainFormatError(str(exc)) from exc
    ta, tb, tc = _reals(tangent_raw, 3, "initial.tangent")
    tangent = ProjectiveTangent.from_tangent(TangentElement(ta, tb, tc))
    if not isinstance(links_raw, list):
        raise ChainFormatError("links must be a list")
    links = []
    for i, entry in enumerate(links_raw):
        if not isinstance(entry, dict) or set(entry) != {"tau", "j"}:
            raise ChainFormatError(f"link {i} must be an object with keys tau, j")
        tau, j = entry["tau"], entry["j"]
        if isinstance(tau, bool) or not isinstance(tau, (int, float)):
            raise ChainFormatError(f"link {i}: tau must be a number")
        if isinstance(j, bool) or not isinstance(j, int):
            raise ChainFormatError(f"link {i}: j must be an integer")
        links.append(LinkParam(_as_float(tau), j))
    try:
        return ChainParams(LinkState(frame, tangent), tuple(links))
    except ParameterOutOfRange as exc:
        raise ChainFormatError(str(exc)) from exc


def save_chain(chain: ChainParams, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chain_to_dict(chain), fh, indent=2)
        fh.write("\n")


def load_chain(path: str) -> ChainParams:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also bad UTF-8 and over-long integers
            raise ChainFormatError(f"invalid JSON: {exc}") from exc
    return chain_from_dict(data)
