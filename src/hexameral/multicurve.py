"""Multi-points and sampled multi-curves: the six-fold boundary bookkeeping.

A multi-point is six plane vectors u_0..u_5 with u_j + u_{j+2} + u_{j+4} = 0,
u_{j+3} = -u_j and wedge(u_j, u_{j+2}) = sqrt(3)/2; indices are cyclic mod 6.
The hexagon they span is balanced, with area normalized to sqrt(12).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingAcceleration, RankUndefined, RankZero, WedgeMismatch
from .sl2 import FrameMatrix, PlaneVector, wedge

MULTIPOINT_TOL = 1e-9
# A sampled curve counts as linear when |wedge(v, acc)| < RANK_TOL * |v|^2.
RANK_TOL = 1e-9

HALF_SQRT3 = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class MultiPoint:
    """Six boundary positions satisfying the multi-point relations."""

    points: tuple[PlaneVector, ...]

    def __post_init__(self) -> None:
        if len(self.points) != 6:
            raise WedgeMismatch("a multi-point needs exactly six positions")
        pts = self.points
        for j in range(6):
            chain = pts[j] + pts[(j + 2) % 6] + pts[(j + 4) % 6]
            if chain.norm() > MULTIPOINT_TOL:
                raise WedgeMismatch(f"u_{j} + u_{j+2} + u_{j+4} is {chain.norm():.3e} from zero")
            mirror = pts[j] + pts[(j + 3) % 6]
            if mirror.norm() > MULTIPOINT_TOL:
                raise WedgeMismatch(f"u_{j+3} is not -u_{j}")
            w = wedge(pts[j], pts[(j + 2) % 6])
            if abs(w - HALF_SQRT3) > MULTIPOINT_TOL:
                raise WedgeMismatch(f"wedge(u_{j}, u_{j+2}) = {w!r}, expected sqrt(3)/2")

    def __getitem__(self, j: int) -> PlaneVector:
        return self.points[j % 6]

    def transformed(self, g: FrameMatrix) -> "MultiPoint":
        return MultiPoint(tuple(g.apply(p) for p in self.points))


def standard_multipoint() -> MultiPoint:
    """The sixth roots of unity u*_j = (cos(pi j / 3), sin(pi j / 3))."""
    pts = []
    for j in range(6):
        ang = math.pi * j / 3.0
        pts.append(PlaneVector(math.cos(ang), math.sin(ang)))
    return MultiPoint(tuple(pts))


STANDARD = standard_multipoint()


def multipoint_from_pair(u0: PlaneVector, u2: PlaneVector) -> MultiPoint:
    """Complete a multi-point from u_0 and u_2; they must wedge to sqrt(3)/2."""
    w = wedge(u0, u2)
    if abs(w - HALF_SQRT3) > MULTIPOINT_TOL:
        raise WedgeMismatch(f"wedge(u0, u2) = {w!r}, expected sqrt(3)/2")
    u4 = -(u0 + u2)
    return MultiPoint((u0, u0 + u2, u2, -u0, u4, -u2))


def convexity_value(curves) -> np.ndarray:
    """wedge(velocity, acceleration) per sample of an array (..., 3, n, 2) of
    positions, velocities and accelerations; nonnegative along convex boundaries."""
    curves = np.asarray(curves, dtype=float)
    if curves.ndim < 3 or curves.shape[-3] < 3:
        raise MissingAcceleration(f"curves of shape {curves.shape} carry no acceleration")
    v, acc = curves[..., 1, :, :], curves[..., 2, :, :]
    return v[..., 0] * acc[..., 1] - v[..., 1] * acc[..., 0]


@dataclass(frozen=True)
class RankLabel:
    """Count of strictly curved even-index curves (1, 2 or 3)."""

    value: int

    def __post_init__(self) -> None:
        if self.value not in (1, 2, 3):
            raise RankZero(f"rank {self.value} is not admissible")


def rank_classify(curves) -> RankLabel:
    """Rank of a sampled multi-curve: curved count over even indices 0, 2, 4.

    ``curves`` is link_curves' array (6, 3, n, 2): curve, derivative order,
    sample, (x, y), with at least 8 samples.  A curve is linear when every
    sample has |wedge(v, acc)| < RANK_TOL |v|^2 and curved when every interior
    sample has wedge(v, acc) > RANK_TOL |v|^2; anything else is RankUndefined.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 4 or curves.shape[0] != 6 or curves.shape[1] > 3 or curves.shape[3] != 2:
        raise RankUndefined(f"expected a (6, 3, n, 2) multi-curve, got shape {curves.shape}")
    bend = convexity_value(curves[0::2])
    speed = np.hypot(curves[:, 1, :, 0], curves[:, 1, :, 1])
    if np.any(speed == 0.0):
        raise WedgeMismatch("a curve sample has zero velocity")
    if curves.shape[2] < 8:
        raise RankUndefined(f"need at least 8 samples per curve, got {curves.shape[2]}")
    scale = RANK_TOL * speed[0::2] * speed[0::2]
    linear = np.all(np.abs(bend) < scale, axis=1)
    curved = np.all((bend > scale)[:, 1:-1], axis=1)
    mixed = np.flatnonzero(~(linear | curved))
    if mixed.size:
        raise RankUndefined(f"curve j={2 * mixed[0]}: samples mix linear and curved behaviour")
    if linear.all():
        raise RankZero("no even-index curve is strictly curved")
    return RankLabel(int(np.sum(curved)))
