"""Rank-one links in the square representation.

A hyperbolic link is a multi-curve with one strictly curved even-index
curve.  After an SL2 change of coordinates the two linear even curves run
along the lines x = a and y = a:

    sigma_{j+2}(t) = a (1, t)          on x = a,
    sigma_{j+4}(t) = a (s, 1),  s = (1 - k)/t,   on y = a,
    sigma_j(t)     = a (-1 - s, -1 - t)          on (x + a)(y + a) = a^2 (1 - k),

with k = sqrt(3)/(2 a^2) in (0, 1) and t confined to -1 < t < k - 1 so that
both s and t stay in (-1, 0).  Odd-index curves are the central reflections.
The link runs from t0 to t1 = t0 + tau*(k - 1 - t0), tau in [0, 1); tau = 0
marks a degenerate (single-point) link.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVelocity, NotRankOneCompatible, ParameterOutOfRange, ScaleTooSmall
from .multicurve import STANDARD
from .sl2 import (
    SQRT3, Frame, FrameMatrix, ProjectiveTangent, TangentElement, _adjoint, _adjoint_matrix, _fail,
    _inverse, _product, _sphere_basis, _sqrt, _star, _unit_det, _unit_tangent, adjoint, star_check,
)

# Scales below sqrt(sqrt(3)/2) give k >= 1 and no hyperbola.
MIN_SCALE_SQ = SQRT3 / 2.0
# Velocity pairs closer to dependence than this reject the link solve.
VELOCITY_TOL = 1e-13
# Endpoint slack for parameter range checks on t.
RANGE_TOL = 1e-12


def k_of(a: float) -> float:
    """Hyperbola parameter k = sqrt(3)/(2 a^2); requires a^2 > sqrt(3)/2."""
    if not a > 0.0:  # NaN too
        raise ScaleTooSmall(f"scale a = {a!r} must be positive")
    k = SQRT3 / (2.0 * a * a)
    if not k < 1.0:
        raise ScaleTooSmall(f"a = {a!r} gives k = {k!r} >= 1")
    return k


@dataclass(frozen=True)
class SquareRep:
    """Square-representation parameters (a, t0, tau) of one link at index j."""

    a: float
    t0: float
    tau: float
    j: int

    def __post_init__(self) -> None:
        k = k_of(self.a)
        if not -1.0 < self.t0 < k - 1.0:
            raise ParameterOutOfRange(
                f"t0 = {self.t0!r} outside (-1, {k - 1.0!r}) for a = {self.a!r}"
            )
        if not 0.0 <= self.tau <= 1.0:
            raise ParameterOutOfRange(f"tau = {self.tau!r} outside [0, 1]")
        if self.j not in (0, 2, 4):
            raise ParameterOutOfRange(f"hyperbolic index j = {self.j!r} not in (0, 2, 4)")

    @property
    def k(self) -> float:
        return k_of(self.a)


def t_end(rep: SquareRep) -> float:
    """Final parameter t1 = t0 + tau*(k - 1 - t0)."""
    return rep.t0 + rep.tau * (rep.k - 1.0 - rep.t0)


def _math(fn, *args):
    """``fn`` of floats, or of arrays element by element: numpy's log and
    hypot differ from math's in the last bit on a few inputs in 1,000."""
    if isinstance(args[0], np.ndarray):
        return np.array(list(map(fn, *(v.tolist() for v in args))))
    return fn(*args)


def _log(v: float) -> float:
    """math.log; NaN where v is not positive, as in a batched chain that failed."""
    return math.log(v) if v > 0.0 else math.nan


def link_area(rep: SquareRep) -> float:
    """Sum of the three even sector areas swept by the link.

    Closed form a^2 [ (1-k)(1/t0 - 1/t1) + (t1 - t0) - (1-k) ln(t0/t1) ];
    zero for a degenerate link.
    """
    if rep.tau == 0.0:
        return 0.0
    k = rep.k
    t0, t1 = rep.t0, t_end(rep)
    return rep.a * rep.a * (
        (1.0 - k) * (1.0 / t0 - 1.0 / t1) + (t1 - t0) - (1.0 - k) * math.log(t0 / t1)
    )


def _check_range(rep: SquareRep, t) -> None:
    """Reject parameters outside the link's range, NaN included; t may be an array."""
    lo, hi = rep.t0, t_end(rep)  # tau >= 0 and k - 1 > t0, so t1 >= t0
    inside = (lo - RANGE_TOL <= t) & (t <= hi + RANGE_TOL)
    if not np.all(inside):
        bad = float(np.extract(np.logical_not(inside), t)[0])
        raise ParameterOutOfRange(f"t = {bad!r} outside link range [{lo!r}, {hi!r}]")


def _square_points(a, k, t):
    """Positions of the hyperbola, the x = a line and the y = a line at t.

    Pure arithmetic, so floats and broadcast arrays give the same bits.
    """
    s = (1.0 - k) / t
    return (a * (-1.0 - s), a * (-1.0 - t)), (a, a * t), (a * s, a)


@dataclass(frozen=True)
class LinkState:
    """Frame and oriented projective tangent at a link endpoint.

    For states on a convex boundary the tangent pulled back to the circle
    representation, adjoint(frame^{-1}, tangent), satisfies the star
    inequalities; this is checked on use, not on construction.
    """

    frame: FrameMatrix
    tangent: ProjectiveTangent

    def entries(self) -> tuple[Frame, tuple[float, float, float]]:
        return self.frame.entries(), self.tangent.components()


def circle_tangent(state: LinkState) -> TangentElement:
    """The state's tangent conjugated back to the circle representation."""
    return adjoint(state.frame.inverse(), state.tangent.rep)


def state_is_convex(state: LinkState) -> bool:
    """Star inequalities for the pulled-back tangent."""
    return star_check(circle_tangent(state))


def transform_state(g: FrameMatrix, state: LinkState) -> LinkState:
    return LinkState(
        g.compose(state.frame),
        ProjectiveTangent.from_tangent(adjoint(g, state.tangent.rep)),
    )


def _columns_inverse(j: int) -> tuple[float, float, float, float]:
    """Entries of the inverse of the matrix with columns u*_j, u*_{j+2} (not in SL2)."""
    (p1x, p1y), (p2x, p2y) = STANDARD[j].tolist(), STANDARD[j + 2].tolist()
    w = p1x * p2y - p1y * p2x
    return (p2y / w, -p2x / w, -p1y / w, p1x / w)


# Per index j = 0..5 (arrays of j pick too): the inverse of the columns
# (u*_j, u*_{j+2}) and the edge points u*_{j+2}, u*_{j+4}, cyclic in j.
_STANDARD_INVERSE = tuple(_columns_inverse(j) for j in range(6))
_EDGE_POINTS = tuple((*STANDARD[j + 2].tolist(), *STANDARD[j + 4].tolist()) for j in range(6))
_as_array = functools.cache(np.array)


# _CURVE_ROWS[j, m] is the row of curve m in (even, -even) of a link at index j.
_CURVE_ROWS = np.array([[(0, 5, 1, 3, 2, 4)[(m - j) % 6] for m in range(6)] for j in range(6)])


def _pick(table, j):
    """Row j of a table of float tuples; for an array of indices, its columns."""
    try:
        return table[j]
    except TypeError:  # an array of indices, which a tuple does not take
        return _as_array(table)[j].T


# The kernel: one link's frames and tangents, over floats or over (B,) arrays.

def _square_frame(a: float, k: float, t: float, j: int) -> Frame:
    """Entries of the frame sending u*_m to sigma_m(t), before the determinant rule."""
    (p1x, p1y), (p2x, p2y), _ = _square_points(a, k, t)
    ia, ib, ic, id_ = _pick(_STANDARD_INVERSE, j)
    return (p1x * ia + p2x * ic, p1x * ib + p2x * id_,
            p1y * ia + p2y * ic, p1y * ib + p2y * id_)


def _square_tangent(a: float, k: float, t: float) -> tuple[float, float, float]:
    """Coordinates of X(t) with sigma_m'(t) = X(t) sigma_m(t)."""
    (p1x, p1y), (p2x, p2y), _ = _square_points(a, k, t)
    ds = -(1.0 - k) / (t * t)
    v1x, v1y = -a * ds, -a
    v2x, v2y = 0.0, a
    w = p1x * p2y - p1y * p2x
    m00 = (v1x * p2y - v2x * p1y) / w
    m01 = (-v1x * p2x + v2x * p1x) / w
    m10 = (v1y * p2y - v2y * p1y) / w
    m11 = (-v1y * p2x + v2y * p1x) / w
    return (0.5 * (m00 - m11), m01, m10)


def _link_lead(frame: Frame, a, k, t0, j, checks=None) -> Frame:
    """Entries of frame C(t0)^{-1}, before the determinant rule: the link map."""
    return _product(frame, _inverse(_unit_det(*_square_frame(a, k, t0, j), checks), checks))


def frame_at(rep: SquareRep, t: float) -> LinkState:
    """Link state at parameter t of the canonical square representation."""
    _check_range(rep, t)
    k = rep.k
    return LinkState(
        FrameMatrix(*_square_frame(rep.a, k, t, rep.j)),
        ProjectiveTangent(TangentElement(*_unit_tangent(*_square_tangent(rep.a, k, t)))),
    )


def _circle_tangent_at(a, k, t, j, checks=None) -> tuple[float, float, float]:
    """circle_tangent(frame_at(rep, t)) as a triple, without the range check: of
    floats, or of arrays that broadcast with a list ``checks`` (``sl2._fail``)."""
    frame = _unit_det(*_square_frame(a, k, t, j), checks)
    return _adjoint(_inverse(frame, checks), *_unit_tangent(*_square_tangent(a, k, t), checks))


def propagate(state, tau, j, checks=None):
    """Advance a state through one link of turning fraction tau at index j.

    Recovers the unique square representation compatible with the state:
    the edge velocities d2 = X p_{j+2} and d4 = X p_{j+4} are aligned with
    the +y and -x axes by a unit-determinant map, whose residual diagonal
    freedom is fixed by requiring both mapped edge points to share the
    coordinate value a.  The recovered t0 must land in (-1, k-1).  Returns
    the out state, the in state for an empty link, and the rep.

    The same body advances B states at once: ``state`` is then its frame
    and tangent entries as (B,) arrays, and ``checks`` a list that collects
    the checks (``sl2._fail``); it returns the out state's entries, a and t0.
    """
    frame, x = (state.frame.entries(), state.tangent.components()) if checks is None else state
    # a check on floats that passes (False) skips the call to _fail
    if (bad := ((0.0 <= tau) & (tau < 1.0)) ^ True) is not False:
        _fail(bad, ParameterOutOfRange, checks, "tau = {!r} outside [0, 1)", tau)
    if (bad := (j != 0) & (j != 2) & (j != 4)) is not False:
        _fail(bad, ParameterOutOfRange, checks, "hyperbolic index j = {!r} not in (0, 2, 4)", j)
    xa, xb, xc = x
    al, be, ga, de = frame
    u2x, u2y, u4x, u4y = _pick(_EDGE_POINTS, j)
    p2x, p2y = al * u2x + be * u2y, ga * u2x + de * u2y
    p4x, p4y = al * u4x + be * u4y, ga * u4x + de * u4y
    d2x, d2y = xa * p2x + xb * p2y, xc * p2x - xa * p2y
    d4x, d4y = xa * p4x + xb * p4y, xc * p4x - xa * p4y
    w = d2x * d4y - d2y * d4x
    hypot = math.hypot if checks is None else functools.partial(_math, math.hypot)
    scale = hypot(d2x, d2y) * hypot(d4x, d4y)
    if (bad := (scale == 0.0) | (abs(w) < VELOCITY_TOL * scale)) is not False:
        _fail(bad, DegenerateVelocity, checks, "edge velocities are linearly dependent")
    if (bad := w < 0.0) is not False:
        _fail(bad, NotRankOneCompatible, checks,
              "edge velocities wind clockwise; star conditions fail")
    if (bad := _star(*_adjoint(_inverse(frame, checks), xa, xb, xc)) ^ True) is not False:
        _fail(bad, NotRankOneCompatible, checks, "state tangent violates the star inequalities")
    # h0 sends d2 to (0, w) and d4 to (-1, 0) with determinant one.
    hal, hbe, hga, hde = _unit_det(d2y / w, -d2x / w, d4y, -d4x, checks)
    q2x, q2y = hal * p2x + hbe * p2y, hga * p2x + hde * p2y
    q4x, q4y = hal * p4x + hbe * p4y, hga * p4x + hde * p4y
    if (bad := (q2x <= 0.0) | (q4y <= 0.0)) is not False:
        _fail(bad, NotRankOneCompatible, checks, "edge points map off the positive axes")
    a = _sqrt(q2x * q4y)
    if (bad := a * a <= MIN_SCALE_SQ) is not False:
        _fail(bad, NotRankOneCompatible, checks,
              "recovered scale a = {!r} gives no hyperbola", a)
    t0 = q2y / q4y
    s0 = q4x / q2x
    k = SQRT3 / (2.0 * a * a)
    if (bad := ((-1.0 < t0) & (t0 < k - 1.0) & (-1.0 < s0) & (s0 < k - 1.0)) ^ True) is not False:
        _fail(bad, NotRankOneCompatible, checks,
              "recovered start t0 = {!r}, s0 = {!r} outside (-1, {!r})", t0, s0, k - 1.0)
    rep = SquareRep(a, t0, tau, j) if checks is None else None
    # C(t0) meets the determinant rule even for an empty link, as in its
    # derivative (_transfer), so a chain that assembles has a Jacobian
    g = _unit_det(*_link_lead(frame, a, k, t0, j, checks), checks)
    if checks is None and tau == 0.0:
        return state, rep
    late = None if checks is None else []
    t1 = t0 + tau * (k - 1.0 - t0)
    frame_out = _product(g, _unit_det(*_square_frame(a, k, t1, j), late))
    # on floats FrameMatrix applies the determinant rule
    frame_out = FrameMatrix(*frame_out) if checks is None else _unit_det(*frame_out, late)
    tangent_out = _unit_tangent(*_adjoint(g, *_square_tangent(a, k, t1)), late)
    if checks is None:
        return LinkState(frame_out, ProjectiveTangent(TangentElement(*tangent_out))), rep
    # an empty link keeps its in state, unchecked past g
    moving = tau != 0.0
    checks.extend((bad & moving, error) for bad, error in late)
    return ((tuple(np.where(moving, out, now) for out, now in zip(frame_out, frame)),
             tuple(np.where(moving, out, now) for out, now in zip(tangent_out, x))), a, t0)


# The derivative path.  A state moves in five local coordinates: its frame F
# as F exp(xi), xi = (a, b, c) in sl2, and its unit tangent along the two
# directions _sphere_basis gives at it.  By left SL2 equivariance a link
# sees its in state only through (a, t0) of its rep, so inside a chain a
# link acts on the reduced coordinates (xi, da, dt0) plus its own dtau, and
# sphere coordinates are needed only where a chain starts and ends.

def _row_times(u, m) -> tuple[float, float, float]:
    """The row vector u times the 3x3 matrix with rows m."""
    return (u[0] * m[0][0] + u[1] * m[1][0] + u[2] * m[2][0],
            u[0] * m[0][1] + u[1] * m[1][1] + u[2] * m[2][1],
            u[0] * m[0][2] + u[1] * m[1][2] + u[2] * m[2][2])


def _edge_forms(j: int):
    """Gradients in y of u2 ^ y u2, u4 ^ y u4 and u2 ^ y u4, and u2 ^ u4."""
    u2x, u2y, u4x, u4y = _EDGE_POINTS[j]

    def form(ux, uy, vx, vy):
        # u ^ y v = ux (yc vx - ya vy) - uy (ya vx + yb vy), linear in y
        return (-(ux * vy + uy * vx), -uy * vy, ux * vx)

    return (*form(u2x, u2y, u2x, u2y), *form(u4x, u4y, u4x, u4y),
            *form(u2x, u2y, u4x, u4y), u2x * u4y - u2y * u4x)


_EDGE_FORMS = tuple(_edge_forms(j) for j in range(6))


def _rep_gradient(y, j) -> tuple[tuple[float, ...], ...]:
    """Gradients of the recovered a and t0 in the pulled-back tangent y.

    From the state (identity, y) propagate's recovery reads a^2 = A B / w and
    t0 = C / B, with the linear forms A = u2 ^ y u2, B = u4 ^ y u4,
    C = u2 ^ y u4 and w = y u2 ^ y u4 = (A B - C^2) / (u2 ^ u4).  Both are
    unchanged by scaling y.  Written as below, the gradient of a has no
    cancelling terms where A and w both get small, as they do for nearly
    straight hyperbolas.
    """
    ya, yb, yc = y
    a0, a1, a2, b0, b1, b2, c0, c1, c2, w0 = _pick(_EDGE_FORMS, j)
    big_a = a0 * ya + a1 * yb + a2 * yc
    big_b = b0 * ya + b1 * yb + b2 * yc
    big_c = c0 * ya + c1 * yb + c2 * yc
    gap = big_a * big_b - big_c * big_c
    t0 = big_c / big_b
    # da = (a / 2) C (2 dC - C (dA / A + dB / B)) / (A B - C^2)
    f = 0.5 * _sqrt(w0 * big_a * big_b / gap) * big_c / gap
    fa, fb = f * big_c / big_a, f * big_c / big_b
    return ((2.0 * f * c0 - fa * a0 - fb * b0, 2.0 * f * c1 - fa * a1 - fb * b1,
             2.0 * f * c2 - fa * a2 - fb * b2),
            ((c0 - t0 * b0) / big_b, (c1 - t0 * b1) / big_b, (c2 - t0 * b2) / big_b))


def _entry(frame: Frame, x, j) -> list[tuple[float, ...]]:
    """Rows da and dt0 of the link at index j over the five coordinates of
    its in state F, X.  The link reads the pulled-back tangent y = F^{-1} X F:
    moving F to F exp(xi) moves y by [y, xi], and a tangent step e moves it
    by F^{-1} e F.
    """
    inv = _inverse(frame)
    ya, yb, yc = y = _adjoint(inv, *x)
    e1, e2 = (_adjoint(inv, *e) for e in _sphere_basis(*x))
    return [(2.0 * (gc * yc - gb * yb), 2.0 * gb * ya - ga * yc, ga * yb - 2.0 * gc * ya,
             ga * e1[0] + gb * e1[1] + gc * e1[2], ga * e2[0] + gb * e2[1] + gc * e2[2])
            for ga, gb, gc in _rep_gradient(y, j)]


def _transfer(frame: Frame, out_frame: Frame, out_x, a, t0, tau, j,
              next_j) -> list[tuple[float, ...]]:
    """One link's first derivatives as a 6x7 matrix on reduced coordinates.

    The link (a, t0, tau, j) runs from ``frame`` to (``out_frame``, ``out_x``).

    Columns: the in state's xi, da and dt0 of this link, the chain area so
    far (carried through), then dtau.  Rows: the out frame's xi; then da and
    dt0 of a following link at index ``next_j``, or with ``next_j`` None the
    out tangent's two sphere coordinates; then the area with link_area added.

    With G = F C(t0)^{-1} the link is F_out = G C(t1), and the canonical
    frame C(t) moves as (X(t) dt + nu(t) da) C(t), nu(t) = (-1/a, 2/(a t), 0).
    So, with B = Ad(C(t1)^{-1}),

        xi_out = Ad(F_out^{-1} F) xi + B [(nu(t1) - nu(t0)) da - X(t0) dt0 + X(t1) dt1],

    where dt1 = (1 - tau) dt0 - (2 tau k / a) da + (k - 1 - t0) dtau.  The
    out tangent pulled back to the out frame is L = B X(t1) up to scale; it
    moves by dL = B [(0, -2/(a t1^2), 0) da + X'(t1) dt1], which is all a
    following link reads, while the out tangent itself moves by
    F_out ([xi_out, L] + dL) F_out^{-1} before normalisation.
    """
    k = SQRT3 / (2.0 * a * a)
    t1 = t0 + tau * (k - 1.0 - t0)
    stretch = 2.0 * tau * k / a
    span = k - 1.0 - t0
    zero = abs(a) * 0.0  # zeros shaped as the entries, so that the rows stack

    def row(on_xi, by_a, by_t0, by_t1, carry=zero):
        return (on_xi[0], on_xi[1], on_xi[2], by_a - stretch * by_t1,
                by_t0 + (1.0 - tau) * by_t1, carry, by_t1 * span)

    # X(t) = (q/t, -q/t^2, 1/k) with q = (1 - k)/k
    q = (1.0 - k) / k
    back = _inverse(_unit_det(*_square_frame(a, k, t1, j)))
    ba, _, bc, _ = back
    lift = (-ba * bc, ba * ba, -bc * bc)  # B (0, 1, 0)
    step_nu = 2.0 / (a * t1) - 2.0 / (a * t0)
    lift0 = _adjoint(back, q / t0, -q / (t0 * t0), 1.0 / k)
    lift1 = _adjoint(back, q / t1, -q / (t1 * t1), 1.0 / k)
    to_in = _adjoint_matrix(_product(_inverse(out_frame), frame))
    rows = [row(to_in[r], step_nu * lift[r], -lift0[r], lift1[r]) for r in range(3)]

    lift_a = -2.0 / (a * t1 * t1)
    lift_t = _adjoint(back, -q / (t1 * t1), 2.0 * q / (t1 * t1 * t1), 0.0)
    if next_j is not None:
        for g in _rep_gradient(lift1, next_j):
            rows.append(row((zero, zero, zero),
                            lift_a * (g[0] * lift[0] + g[1] * lift[1] + g[2] * lift[2]), 0.0,
                            g[0] * lift_t[0] + g[1] * lift_t[1] + g[2] * lift_t[2]))
    else:
        # sphere basis rows r pulled back through F_out, over the norm of
        # F_out L F_out^{-1}; r . [z, L] = rk . z, and [L, L] = 0
        w = _adjoint(out_frame, *lift1)
        scale = 1.0 / _sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
        ad_out = _adjoint_matrix(out_frame)
        l0, l1, l2 = lift1
        for e in _sphere_basis(*out_x):
            r0, r1, r2 = _row_times(e, ad_out)
            r0, r1, r2 = r0 * scale, r1 * scale, r2 * scale
            rk = (2.0 * (l1 * r1 - l2 * r2), l2 * r0 - 2.0 * l0 * r1,
                  2.0 * l0 * r2 - l1 * r0)
            rows.append(row(_row_times(rk, to_in),
                            step_nu * (rk[0] * lift[0] + rk[1] * lift[1] + rk[2] * lift[2])
                            + lift_a * (r0 * lift[0] + r1 * lift[1] + r2 * lift[2]),
                            -(rk[0] * lift0[0] + rk[1] * lift0[1] + rk[2] * lift0[2]),
                            r0 * lift_t[0] + r1 * lift_t[1] + r2 * lift_t[2]))

    # link_area = a^2 [(1-k)(1/t0 - 1/t1 - ln(t0/t1)) + t1 - t0]
    s = a * a * (1.0 - k)
    rows.append(row((zero, zero, zero),
                    2.0 * a * (1.0 / t0 - 1.0 / t1 - _math(_log, t0 / t1) + t1 - t0),
                    -s * (1.0 + t0) / (t0 * t0) - a * a, s * (1.0 + t1) / (t1 * t1) + a * a,
                    zero + 1.0))
    return rows


def link_map(state: LinkState, rep: SquareRep) -> FrameMatrix:
    """The frame g with state = g applied to the canonical link start."""
    return FrameMatrix(*_link_lead(state.frame.entries(), rep.a, rep.k, rep.t0, rep.j))


def _sample_count(name: str, value, least: int) -> int:
    """A sample count: an integer of at least ``least``, else ParameterOutOfRange."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterOutOfRange(f"{name} = {value!r} must be an integer of at least {least}")
    return int(value)


def link_curves(rep: SquareRep, ts) -> np.ndarray:
    """Positions, velocities and accelerations of the six curves at parameters ts.

    The result has shape (6, 3, n, 2): curve m, derivative order, sample, (x, y).
    """
    t = np.asarray(ts, dtype=float)
    _check_range(rep, t)
    a, k = rep.a, rep.k
    ds = -(1.0 - k) / (t * t)
    dds = 2.0 * (1.0 - k) / (t * t * t)
    # even curves j, j+2, j+4: hyperbola, x = a, y = a; zero entries stay +0.0
    even = np.zeros((3, 3, t.size, 2))
    even[:, 0] = _even_points(a, k, t)
    even[0, 1, :, 0], even[0, 1, :, 1] = -a * ds, -a
    even[0, 2, :, 0] = -a * dds
    even[1, 1, :, 1] = a
    even[2, 1, :, 0] = a * ds
    even[2, 2, :, 0] = a * dds
    return np.concatenate((even, -even))[_CURVE_ROWS[rep.j]]


def _even_points(a, k, t) -> np.ndarray:
    """Positions (3, ..., 2) at t of the hyperbola and the lines x = a and y = a,
    a link's curves j, j + 2 and j + 4; a and k broadcast against t."""
    even = np.empty((3, *np.shape(t), 2))
    for curve, xy in zip(even, _square_points(a, k, t)):
        curve[..., 0], curve[..., 1] = xy
    return even


def _link_grid(reps, n: int):
    """Columns a, k and j of the links, (L,) each, and their parameters (L, n):
    row l is np.linspace(t0, t1, n) of link l, bit for bit.  (A stacked linspace
    steps every row by its zero-step rule once one row has step zero.)"""
    a, k, t0, t1 = np.array([(r.a, r.k, r.t0, t_end(r)) for r in reps]).reshape(-1, 4).T
    ts = np.arange(n) * ((t1 - t0) / max(n - 1, 1))[:, None] + t0[:, None]
    if n > 1:
        ts[:, -1] = t1
    return a, k, np.array([r.j for r in reps], dtype=int), ts


def link_multicurve(rep: SquareRep, samples: int = 16,
                    g: FrameMatrix | None = None) -> np.ndarray:
    """link_curves at evenly spaced parameters, optionally moved by a frame g.

    ``samples`` is an integer of at least 2: the link's two ends and the
    points between them.  The result has link_curves' shape (6, 3, samples, 2).
    """
    samples = _sample_count("samples", samples, 2)
    if rep.tau == 0.0:
        raise ParameterOutOfRange("cannot sample a zero-length link")
    curves = link_curves(rep, np.linspace(rep.t0, t_end(rep), samples))
    return curves if g is None else g.apply(curves)
