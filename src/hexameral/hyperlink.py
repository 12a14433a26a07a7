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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateVelocity,
    NotRankOneCompatible,
    ParameterOutOfRange,
    ScaleTooSmall,
)
from .multicurve import STANDARD, CurveSample
from .sl2 import (
    SQRT3,
    Frame,
    FrameMatrix,
    PlaneVector,
    ProjectiveTangent,
    TangentElement,
    _adjoint,
    _inverse,
    _product,
    _star,
    _unit_det,
    _unit_tangent,
    adjoint,
    star_check,
    wedge,
)

# Scales below sqrt(sqrt(3)/2) give k >= 1 and no hyperbola.
MIN_SCALE_SQ = SQRT3 / 2.0
# Velocity pairs closer to dependence than this reject the link solve.
VELOCITY_TOL = 1e-13
# Endpoint slack for parameter range checks on t.
RANGE_TOL = 1e-12


def k_of(a: float) -> float:
    """Hyperbola parameter k = sqrt(3)/(2 a^2); requires a^2 > sqrt(3)/2."""
    if a <= 0.0:
        raise ScaleTooSmall(f"scale a = {a!r} must be positive")
    k = SQRT3 / (2.0 * a * a)
    if k >= 1.0:
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
    t1 = t_end(rep)
    lo, hi = min(rep.t0, t1), max(rep.t0, t1)
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


def _columns_inverse(p1: PlaneVector, p2: PlaneVector) -> tuple[float, float, float, float]:
    """Entries of the inverse of the matrix with columns p1, p2 (not in SL2)."""
    w = wedge(p1, p2)
    return (p2.y / w, -p2.x / w, -p1.y / w, p1.x / w)


# Per index j: the inverse of the columns (u*_j, u*_{j+2}) and the edge
# points u*_{j+2}, u*_{j+4} (j = 4 wraps to u*_0, u*_2).
_STANDARD_INVERSE = {j: _columns_inverse(STANDARD[j], STANDARD[j + 2]) for j in (0, 2, 4)}
_EDGE_POINTS = {
    j: (STANDARD[j + 2].x, STANDARD[j + 2].y, STANDARD[j + 4].x, STANDARD[j + 4].y)
    for j in (0, 2, 4)
}


# The scalar kernel: one link's frames and tangents over plain floats.

def _square_frame(a: float, k: float, t: float, j: int) -> Frame:
    """Entries of the frame sending u*_m to sigma_m(t), before the determinant rule."""
    (p1x, p1y), (p2x, p2y), _ = _square_points(a, k, t)
    ia, ib, ic, id_ = _STANDARD_INVERSE[j]
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


def _link_lead(frame: Frame, a: float, k: float, t0: float, j: int) -> Frame:
    """Entries of frame C(t0)^{-1}, before the determinant rule: the link map."""
    return _product(frame, _inverse(_unit_det(*_square_frame(a, k, t0, j))))


def frame_at(rep: SquareRep, t: float) -> LinkState:
    """Link state at parameter t of the canonical square representation."""
    _check_range(rep, t)
    k = rep.k
    return LinkState(
        FrameMatrix(*_square_frame(rep.a, k, t, rep.j)),
        ProjectiveTangent(TangentElement(*_unit_tangent(*_square_tangent(rep.a, k, t)))),
    )


def propagate(state: LinkState, tau: float, j: int) -> tuple[LinkState, SquareRep]:
    """Advance a state through one link of turning fraction tau at index j.

    Recovers the unique square representation compatible with the state:
    the edge velocities d2 = X p_{j+2} and d4 = X p_{j+4} are aligned with
    the +y and -x axes by a unit-determinant map, whose residual diagonal
    freedom is fixed by requiring both mapped edge points to share the
    coordinate value a.  The recovered t0 must land in (-1, k-1).

    Frames are entry tuples under the one determinant rule throughout;
    only the returned state and representation are built as objects.
    """
    if not 0.0 <= tau < 1.0:
        raise ParameterOutOfRange(f"tau = {tau!r} outside [0, 1)")
    if j not in (0, 2, 4):
        raise ParameterOutOfRange(f"hyperbolic index j = {j!r} not in (0, 2, 4)")
    xa, xb, xc = state.tangent.components()
    frame = state.frame.entries()
    al, be, ga, de = frame
    u2x, u2y, u4x, u4y = _EDGE_POINTS[j]
    p2x, p2y = al * u2x + be * u2y, ga * u2x + de * u2y
    p4x, p4y = al * u4x + be * u4y, ga * u4x + de * u4y
    d2x, d2y = xa * p2x + xb * p2y, xc * p2x - xa * p2y
    d4x, d4y = xa * p4x + xb * p4y, xc * p4x - xa * p4y
    w = d2x * d4y - d2y * d4x
    scale = math.hypot(d2x, d2y) * math.hypot(d4x, d4y)
    if scale == 0.0 or abs(w) < VELOCITY_TOL * scale:
        raise DegenerateVelocity("edge velocities are linearly dependent")
    if w < 0.0:
        raise NotRankOneCompatible("edge velocities wind clockwise; star conditions fail")
    if not _star(*_adjoint(_inverse(frame), xa, xb, xc)):
        raise NotRankOneCompatible("state tangent violates the star inequalities")
    # h0 sends d2 to (0, w) and d4 to (-1, 0) with determinant one.
    hal, hbe, hga, hde = _unit_det(d2y / w, -d2x / w, d4y, -d4x)
    q2x, q2y = hal * p2x + hbe * p2y, hga * p2x + hde * p2y
    q4x, q4y = hal * p4x + hbe * p4y, hga * p4x + hde * p4y
    if q2x <= 0.0 or q4y <= 0.0:
        raise NotRankOneCompatible("edge points map off the positive axes")
    a = math.sqrt(q2x * q4y)
    if a * a <= MIN_SCALE_SQ:
        raise NotRankOneCompatible(f"recovered scale a = {a!r} gives no hyperbola")
    t0 = q2y / q4y
    s0 = q4x / q2x
    k = SQRT3 / (2.0 * a * a)
    if not (-1.0 < t0 < k - 1.0 and -1.0 < s0 < k - 1.0):
        raise NotRankOneCompatible(
            f"recovered start t0 = {t0!r}, s0 = {s0!r} outside (-1, {k - 1.0!r})"
        )
    rep = SquareRep(a, t0, tau, j)
    if tau == 0.0:
        return state, rep
    t1 = t0 + tau * (k - 1.0 - t0)
    g = _unit_det(*_link_lead(frame, a, k, t0, j))
    frame_out = FrameMatrix(*_product(g, _unit_det(*_square_frame(a, k, t1, j))))
    tangent_out = _unit_tangent(*_adjoint(g, *_square_tangent(a, k, t1)))
    return LinkState(frame_out, ProjectiveTangent(TangentElement(*tangent_out))), rep


def link_map(state: LinkState, rep: SquareRep) -> FrameMatrix:
    """The frame g with state = g applied to the canonical link start."""
    return FrameMatrix(*_link_lead(state.frame.entries(), rep.a, rep.k, rep.t0, rep.j))


def link_curves(rep: SquareRep, ts) -> np.ndarray:
    """Positions, velocities and accelerations of the six curves at parameters ts.

    The result has shape (6, 3, n, 2): curve m, derivative order, sample, (x, y).
    """
    t = np.asarray(ts, dtype=float)
    _check_range(rep, t)
    a, k = rep.a, rep.k
    ds = -(1.0 - k) / (t * t)
    dds = 2.0 * (1.0 - k) / (t * t * t)
    hyp, line_x, line_y = _square_points(a, k, t)
    # even curves j, j+2, j+4: hyperbola, x = a, y = a; zero entries stay +0.0
    even = np.zeros((3, 3, t.size, 2))
    even[0, 0, :, 0], even[0, 0, :, 1] = hyp
    even[0, 1, :, 0], even[0, 1, :, 1] = -a * ds, -a
    even[0, 2, :, 0] = -a * dds
    even[1, 0, :, 0], even[1, 0, :, 1] = line_x
    even[1, 1, :, 1] = a
    even[2, 0, :, 0], even[2, 0, :, 1] = line_y
    even[2, 1, :, 0] = a * ds
    even[2, 2, :, 0] = a * dds
    curves = np.empty((6,) + even.shape[1:])
    for i in range(3):
        m = rep.j + 2 * i
        curves[m % 6] = even[i]
        # odd curves are central reflections of the even ones
        curves[(m + 3) % 6] = -even[i]
    return curves


def link_multicurve(rep: SquareRep, samples: int = 16,
                    g: FrameMatrix | None = None) -> list[list[CurveSample]]:
    """Six sampled curves of one link, optionally moved by a frame g."""
    if rep.tau == 0.0:
        raise ParameterOutOfRange("cannot sample a zero-length link")
    ts = np.linspace(rep.t0, t_end(rep), max(samples, 2))
    curves = link_curves(rep, ts)
    if g is not None:
        x, y = curves[..., 0], curves[..., 1]
        curves = np.stack((g.alpha * x + g.beta * y, g.gamma * x + g.delta * y), axis=-1)
    return [
        [CurveSample(t, PlaneVector(*p), PlaneVector(*v), PlaneVector(*acc))
         for t, p, v, acc in zip(ts.tolist(), *curve.tolist())]
        for curve in curves
    ]


def frame_grids(reps: Sequence[SquareRep], ts: np.ndarray) -> np.ndarray:
    """Canonical frames of each link at its own row of parameters.

    ``ts`` has shape (L, n), one row per rep; the result has shape
    (L, n, 2, 2).  Every row is computed exactly as the one-link case.
    """
    a = np.array([rep.a for rep in reps])[:, None]
    k = np.array([rep.k for rep in reps])[:, None]
    inv = np.array([_STANDARD_INVERSE[rep.j] for rep in reps]).reshape(-1, 1, 2, 2)
    (p1x, p1y), (p2x, p2y), _ = _square_points(a, k, ts)
    cols = np.empty(ts.shape + (2, 2))
    cols[..., 0, 0] = p1x
    cols[..., 1, 0] = p1y
    cols[..., 0, 1] = p2x
    cols[..., 1, 1] = p2y
    return cols @ inv
