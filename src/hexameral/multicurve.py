"""Multi-points and sampled multi-curves: the six-fold boundary bookkeeping.

A multi-point is six plane points u_0..u_5, the rows of a (6, 2) array, with
u_j + u_{j+2} + u_{j+4} = 0, u_{j+3} = -u_j and wedge(u_j, u_{j+2}) = sqrt(3)/2;
indices are cyclic mod 6.  The hexagon they span is balanced, with area
normalized to sqrt(12).
"""
from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

from . import _np as np
from .errors import MissingAcceleration, RankUndefined, RankZero, WedgeMismatch
from .sl2 import FrameMatrix, _act, _Checked, _Frozen, wedge

MULTIPOINT_TOL = 1e-9
# A sampled curve counts as linear when |wedge(v, acc)| < RANK_TOL * |v|^2.
RANK_TOL = 1e-9

HALF_SQRT3 = math.sqrt(3.0) / 2.0


class MultiPoint(_Frozen):
    """Six boundary positions, a read-only (6, 2) array, satisfying the relations."""

    __slots__ = ("points",)

    def __init__(self, points) -> None:
        pts = np.array(points, dtype=float)
        if pts.shape != (6, 2):
            raise WedgeMismatch("a multi-point needs exactly six positions")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        u2, u3, u4 = (np.roll(pts, -s, axis=0) for s in (2, 3, 4))
        chain = np.hypot(*(pts + u2 + u4).T).tolist()
        mirror = np.hypot(*(pts + u3).T).tolist()
        for j, w in enumerate(wedge(pts, u2).tolist()):
            if not chain[j] <= MULTIPOINT_TOL:
                raise WedgeMismatch(f"u_{j} + u_{j+2} + u_{j+4} is {chain[j]:.3e} from zero")
            if not mirror[j] <= MULTIPOINT_TOL:
                raise WedgeMismatch(f"u_{j+3} is not -u_{j}")
            if not abs(w - HALF_SQRT3) <= MULTIPOINT_TOL:
                raise WedgeMismatch(f"wedge(u_{j}, u_{j+2}) = {w!r}, expected sqrt(3)/2")

    def __getitem__(self, j: int) -> np.ndarray:
        return self.points[j % 6]

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point) -> bool:
        p = np.asarray(point)  # a 2-vector equal to a row, by value
        return p.shape == (2,) and bool((self.points == p).all(axis=1).any())

    def transformed(self, g: FrameMatrix) -> "MultiPoint":
        return MultiPoint(_act(*g, self.points))


@cache
def standard_multipoint() -> MultiPoint:
    """The sixth roots of unity u*_j = (cos(pi j / 3), sin(pi j / 3))."""
    angles = [math.pi * j / 3.0 for j in range(6)]
    return MultiPoint([(math.cos(ang), math.sin(ang)) for ang in angles])


def multipoint_from_pair(u0, u2) -> MultiPoint:
    """Complete a multi-point from 2-vectors u_0 and u_2 that wedge to sqrt(3)/2."""
    u0, u2 = np.asarray(u0, dtype=float), np.asarray(u2, dtype=float)
    w = float(wedge(u0, u2))
    if not abs(w - HALF_SQRT3) <= MULTIPOINT_TOL:
        raise WedgeMismatch(f"wedge(u0, u2) = {w!r}, expected sqrt(3)/2")
    return MultiPoint([u0, u0 + u2, u2, -u0, -(u0 + u2), -u2])


def convexity_value(curves) -> np.ndarray:
    """wedge(velocity, acceleration) per sample of an array (..., 3, n, 2) of
    positions, velocities and accelerations; nonnegative along convex boundaries."""
    curves = np.asarray(curves, dtype=float)
    if curves.ndim < 3 or curves.shape[-3] < 3:
        raise MissingAcceleration(f"curves of shape {curves.shape} carry no acceleration")
    return wedge(curves[..., 1, :, :], curves[..., 2, :, :])


class RankLabel(_Checked, NamedTuple("RankLabel", [("value", int)])):
    """Count of strictly curved even-index curves (1, 2 or 3)."""

    __slots__ = ()

    def __new__(cls, value: int) -> RankLabel:
        if value not in (1, 2, 3):
            raise RankZero(f"rank {value} is not admissible")
        return super().__new__(cls, value)


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
