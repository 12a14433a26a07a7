"""Chains of hyperbolic links and the rotation-by-pi/3 closure condition.

A chain is an initial link state plus a list of (tau, j) parameters.  A
closed chain covers the fundamental boundary interval: its final frame is
the initial frame composed with a rotation by pi/3 and its unit
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
from functools import cached_property
from typing import Iterable, NamedTuple

from . import _np as np
from .errors import (
    ChainFormatError, FrameDeterminantError, GeometryError, LinkLengthViolation, NotClosed,
    ParameterOutOfRange,
)
from .hyperlink import LinkState, SquareRep, _entry, _link_area, _transfer, propagate
from .kit import ARRAYS, FLOATS, Arrays, kit_of
from .sl2 import ROT60, FrameMatrix, TangentElement, _Checked, _inverse, _product, _sphere_basis

# Residual bound under which closure_report classifies a chain as closed.
FEASIBLE_TOL = 1e-6
# Stricter tier used by verification suites.
STRICT_TOL = 1e-9
ANGLE_TOL = 1e-9

SIXTH_TURN = math.pi / 3.0


class LinkParam(NamedTuple):
    tau: float
    j: int


class ChainParams(_Checked, NamedTuple("ChainParams", [("initial", LinkState),
                                                       ("links", tuple[LinkParam, ...])])):
    """Initial state plus link parameters (tau in [0, 1), j in {0, 2, 4})."""

    __slots__ = ()

    def __new__(cls, initial: LinkState, links: Iterable) -> ChainParams:
        params = []
        for i, (tau, j) in enumerate(links):
            if not 0.0 <= (tau := float(tau)) < 1.0:
                raise ParameterOutOfRange(f"tau = {tau!r} outside [0, 1)").at_link(i)
            if isinstance(j, bool) or j not in (0, 2, 4):  # int() would read 2.7 as 2
                raise ParameterOutOfRange(f"index j = {j!r} not in (0, 2, 4)").at_link(i)
            params.append(LinkParam(tau, int(j)))
        return super().__new__(cls, initial, tuple(params))


class AssembledChain(NamedTuple("AssembledChain", [
        ("initial", LinkState), ("frames", tuple), ("tangents", tuple), ("links", tuple)])):
    """Propagation record from the ``initial`` state: link-end entries ``frames``
    and ``tangents`` (index 0 the initial state's), and (a, t0, tau, j) per link
    in ``links``.  ``states``, ``reps`` and ``final`` are objects built on first
    read, and cached in its ``__dict__``; ``states[0]`` is ``initial``, an empty
    link's state the one before it."""

    @cached_property
    def states(self) -> tuple[LinkState, ...]:
        states = [self.initial]
        for (_, _, tau, _), frame, tangent in zip(self.links, self.frames[1:], self.tangents[1:]):
            states.append(states[-1] if tau == 0.0 else LinkState(
                FrameMatrix(*frame), TangentElement(*tangent)))
        return tuple(states)

    @cached_property
    def reps(self) -> tuple[SquareRep, ...]:
        return tuple(SquareRep(*link) for link in self.links)

    @property
    def final(self) -> LinkState:
        return self.states[-1]

    @property
    def end(self) -> tuple:
        """The final state's entries (frame, tangent)."""
        return self.frames[-1], self.tangents[-1]

    def area(self) -> float:
        return sum(_link_area(a, t0, tau) for a, t0, tau, _ in self.links)


def assemble(chain: ChainParams | list[ChainParams]) -> AssembledChain | ChainBatch:
    """Propagate through every link; failures carry the index of their link.

    A failing link re-raises its own error with ``link_index`` set and the
    message prefixed by ``link <i>: ``.  A list of chains of one length,
    whose index patterns may differ, is assembled at once in array
    arithmetic with the bits of each chain's own assembly, into a ChainBatch
    where a chain that fails reads its error's class and link instead.
    """
    if not isinstance(chain, ChainParams):
        return _assemble_batch(chain)
    state = chain.initial
    frames, tangents, links = [state[0]], [state[1]], []
    for i, (tau, j) in enumerate(chain.links):
        try:
            state, a, t0 = propagate(state, tau, j)
        except GeometryError as exc:
            exc.at_link(i)
            raise
        frames.append(state[0])
        tangents.append(state[1])
        links.append((a, t0, tau, j))
    return AssembledChain(chain.initial, tuple(frames), tuple(tangents), tuple(links))


class ChainBatch(NamedTuple):
    """Chains assembled at once by ``assemble``: chain b is column b of the
    link-end states' entries, ``frames`` (links + 1, 4, B) and ``tangents``
    (links + 1, 3, B), and of each link's (a, t0, tau, j) in ``links``.
    ``errors`` and ``link`` hold the class and link of the error ``assemble``
    raises on it alone, or None and -1."""

    frames: np.ndarray
    tangents: np.ndarray
    links: list
    errors: np.ndarray
    link: np.ndarray

    def assembled(self, chain: ChainParams, b: int) -> AssembledChain:
        """``assemble(chain)`` bit for bit, where ``chain`` is chain b, which assembles."""
        return AssembledChain(
            chain.initial, tuple(map(tuple, self.frames[:, :, b].tolist())),
            tuple(map(tuple, self.tangents[:, :, b].tolist())),
            tuple((a[b].item(), t0[b].item(), tau, j)
                  for (a, t0, _, _), (tau, j) in zip(self.links, chain.links)))


def _assemble_batch(chains) -> ChainBatch:
    params = np.array([c.links for c in chains], dtype=float).reshape(len(chains), -1, 2).T
    frames = [np.array([c.initial[0] for c in chains]).T]
    tangents = [np.array([c.initial[1] for c in chains]).T]
    links, ends, kit = [], [], Arrays(checks := [])
    with np.errstate(all="ignore"):
        for tau, j in zip(params[0], params[1].astype(int)):
            (frame, x), a, t0 = propagate((tuple(frames[-1]), tuple(tangents[-1])), tau, j, kit)
            frames.append(frame)
            tangents.append(x)
            links.append((a, t0, tau, j))
            ends.append(len(checks))
    # each chain fails at the first check it is bad in; a last row, bad
    # everywhere with no error, stands for none
    first = np.array([b for b, _ in checks] + [np.ones(len(chains), dtype=bool)]).argmax(axis=0)
    return ChainBatch(np.array(frames), np.array(tangents), links,
                      np.array([e for _, e in checks] + [None], dtype=object)[first],
                      np.where(first < len(checks), np.searchsorted(ends, first, "right"), -1))


def assemble_jacobian(assembled: AssembledChain | ChainBatch, head: np.ndarray) -> np.ndarray:
    """The derivatives of an assembled chain's final state and area.

    The variables are m leading ones, whose derivative of the initial state
    is ``head`` (5, m) in a state's five local coordinates, then the link
    taus in order.  Returns a (6, m + links) array: the final state's
    derivative over the area gradient.  A ChainBatch and heads (B, 5, m)
    give each chain's derivative, (B, 6, m + links), with the bits of one
    call (and nothing meaningful for a chain that fails).

    This is ``hyperlink._transfer`` composed link by link, except that
    between two links the out tangent's sphere coordinates and the next
    link's reading of them cancel: the chain carries (xi, da, dt0) of the
    next link and converts to sphere coordinates only at its two ends.
    """
    kit = ARRAYS if isinstance(assembled, ChainBatch) else FLOATS
    frames, tangents, links = assembled.frames, assembled.tangents, assembled.links
    m = head.shape[-1]
    d_state = np.zeros(head.shape[:-2] + (6, m + len(links)))
    if not links:
        d_state[..., :5, :] = head
        return d_state
    d_state[..., :3, :m] = head[..., :3, :]
    d_state[..., 3:5, :m] = kit.stack(_entry(frames[0], tangents[0], links[0][3], kit)) @ head
    transfers, inner = [], len(links) - 1
    if kit is ARRAYS and inner:
        # a link's derivative reads no other link's: all links but the last,
        # whose rows end in sphere coordinates, in one call side by side
        def flat(parts):
            return np.concatenate(list(parts), axis=-1)
        transfers = list(kit.stack(_transfer(
            flat(frames[:inner]), flat(frames[1:-1]), flat(tangents[1:-1]),
            *(flat(link[k] for link in links[:inner]) for k in range(4)),
            flat(link[3] for link in links[1:]), kit)).reshape(inner, -1, 6, 7))
    for i in range(len(transfers), len(links)):
        next_j = links[i + 1][3] if i < inner else None
        transfers.append(kit.stack(_transfer(frames[i], frames[i + 1], tangents[i + 1],
                                             *links[i], next_j, kit)))
    for i, transfer in enumerate(transfers):
        d_state = transfer[..., :6] @ d_state
        # no earlier link reads this tau
        d_state[..., m + i] = transfer[..., 6]
    return d_state


def chain_area(chain: ChainParams) -> float:
    """Sum of link_area over the chain's recovered square representations."""
    return assemble(chain).area()


class ClosureReport(NamedTuple):
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


def end_target(chain: ChainParams) -> LinkState:
    """The state a closed chain must end in: its start turned by pi/3."""
    return LinkState(FrameMatrix(*_product(chain.initial[0], ROT60)), chain.initial[1])


def closure_of(chain: ChainParams, assembled: AssembledChain,
               target: LinkState | None = None) -> ClosureReport:
    """closure_report for a chain that is already assembled.

    With a ``target`` the residuals measure an open segment's end state
    against it instead of against the closure condition.
    """
    (frame, tangent), (aim, r) = assembled.end, end_target(chain) if target is None else target
    frame_res = max(abs(p - q) for p, q in zip(frame, aim))
    tangent_res = math.hypot(r[0] - tangent[0], r[1] - tangent[1], r[2] - tangent[2])
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
    inv0 = _inverse(chain.initial[0])
    angles = [0.0]
    turns = 0.0
    for i, (_, _, tau, _) in enumerate(assembled.links):
        if tau == 0.0:
            continue
        for frame in assembled.frames[i:i + 2]:
            # u*_0 = (1, 0): the relative position is the first column
            al, _, ga, _ = _product(inv0, frame)
            angle = math.atan2(ga, al)
            turns += 2.0 * math.pi * round((angles[-1] - angle - turns) / (2.0 * math.pi))
            angles.append(angle + turns if turns else angle)
    mono = min((b - a for a, b in zip(angles, angles[1:])), default=0.0)
    return min(min(angles), SIXTH_TURN - max(angles), mono)


# Endpoint residuals.  A state moves in five local coordinates, as in
# hyperlink's derivative path: its frame F as F exp(xi), xi in sl2, and its
# unit tangent along the two directions _sphere_basis gives at it.

def _endpoint_residuals(final, target) -> np.ndarray:
    """End-state entries minus the target's, both (frame, tangent): seven in all."""
    return np.array(final[0] + final[1]) - np.array(target[0] + target[1])


def _endpoint_jacobian(frame, tangent) -> np.ndarray:
    """Derivative of a state's seven residual entries in its local coordinates.

    The state is a frame F and a unit tangent, as entries: floats give a
    (7, 5) array, (B,) arrays a (B, 7, 5) one.  F moves as F exp(xi), so its
    entries move as F xi; the tangent moves along its sphere basis.
    """
    al, be, ga, de = frame
    kit = kit_of(al)
    (p0, p1, p2), (q0, q1, q2) = _sphere_basis(*tangent, kit)
    z = abs(al) * 0.0  # zeros shaped as the entries, so that the rows stack
    return kit.stack(((al, z, be, z, z), (-be, al, z, z, z), (ga, z, de, z, z),
                      (-de, ga, z, z, z), (z, z, z, p0, q0), (z, z, z, p1, q1),
                      (z, z, z, p2, q2)))


def _endpoint_equations(final, target):
    """Five independent endpoint equations, and their derivatives (5, 5) in the
    local coordinates of the end state and the target, both (frame, tangent) entries.

    The seven residual entries have rank 5.  Here the frame gives the sl2
    coordinates of G - I, G = T^{-1} F: F exp(xi) moves G by G xi, and
    T exp(eta) by -eta G.  The tangent w gives its projections on the
    target u's sphere basis, (e_k - u_k u) / s and u x e_k / s with
    s = sqrt(1 - u_k^2), k the axis least aligned with u; the basis turns
    with u, which adds the terms in u_k / s^2.  The equations also vanish at
    F = -T, which closure_of does not count as closed.
    """
    (aim, u), w = target, final[1]
    p, q, r, t = _product(_inverse(aim), final[0])
    basis = np.array(_sphere_basis(*u))
    k = min(range(3), key=lambda i: abs(u[i]))  # _sphere_basis's choice, ties included
    axis, uk, s = tuple(float(i == k) for i in range(3)), u[k], math.sqrt(1.0 - u[k] * u[k])
    (a0, a1, a2), (w0, w1, w2) = axis, w
    d_end, d_target = np.zeros((5, 5)), np.zeros((5, 5))
    d_end[3:, 3:] = basis @ np.array(_sphere_basis(*w)).T
    u, w, axis = np.array(u), np.array(w), np.array(axis)
    # the sl2 coordinates of G - I, which are G's
    equations = np.concatenate(((0.5 * (p - t), q, r), basis @ w))
    # e_k x w by np.cross's formula, whose products with a unit axis are exact
    by_u = (np.array((-(u @ w) * axis - uk * w,
                      (a1 * w2 - a2 * w1, a2 * w0 - a0 * w2, a0 * w1 - a1 * w0))) / s
            + equations[3:, None] * axis * (uk / (s * s)))
    # G times, and times G, each sl2 basis element, in exact products; + 0.0
    # gives zeros the sign of numpy's matrix products, which sum from +0.0
    d_end[:3, :3] = np.array(((0.5 * (p + t), -0.5 * r, 0.5 * q), (-q, p, 0.0), (r, 0.0, t))) + 0.0
    d_target[:3, :3] = -(np.array(((0.5 * (p + t), 0.5 * r, -0.5 * q), (q, t, 0.0),
                                   (-r, 0.0, p))) + 0.0)
    d_target[3:, 3:] = by_u @ basis.T
    return equations, d_end, d_target


def merged_links(links: Iterable[LinkParam]) -> list[LinkParam]:
    """Degenerate entries dropped, same-index neighbours merged."""
    stack: list[LinkParam] = []
    for tau, j in links:
        if tau == 0.0:
            continue
        if stack and stack[-1].j == j:
            # turning fractions on one hyperbola compose as 1 - (1 - s)(1 - t)
            stack[-1] = LinkParam(stack[-1].tau + tau - stack[-1].tau * tau, j)
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
    """Raise NotClosed unless the report's residual is within ``closure_tol``; NaN is not."""
    if not report.residual() <= closure_tol:
        raise NotClosed(f"closure residual {report.residual():.3e} exceeds {closure_tol:.1e}")


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
    frame, tangent = chain.initial
    return {"initial": {"frame": list(frame), "tangent": list(tangent)},
            "links": [{"tau": tau, "j": j} for tau, j in chain.links]}


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
    # a squared norm that underflows or overflows leaves no accurate unit tangent
    if not 1e-300 <= ta * ta + tb * tb + tc * tc < math.inf:
        raise ChainFormatError("initial.tangent norm must be finite and at least 1e-150")
    tangent = TangentElement(ta, tb, tc).unit()
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


def write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_chain(chain: ChainParams, path: str) -> None:
    write_json(chain_to_dict(chain), path)


def load_chain(path: str) -> ChainParams:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also bad UTF-8 and over-long integers
            raise ChainFormatError(f"invalid JSON: {exc}") from exc
    return chain_from_dict(data)
