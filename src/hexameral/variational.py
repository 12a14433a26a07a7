"""Calculus-of-variations checks on frame paths.

The boundary area is a line integral in the frame entries. On a path
expressed relative to its initial frame, summing the six sector wedges
collapses to (3/2) * integral of (alpha dgamma - gamma dalpha)
+ (beta ddelta - delta dbeta), which equals the full domain area (twice
the chain area) on chain-derived paths and pi on the unit-circle path.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import _np as np
from .chain import ChainParams, assemble
from .errors import ParameterOutOfRange, SignCondition, StarViolation, WedgeMismatch
from .hyperlink import _STANDARD_INVERSE, _even_points, _link_grid, _link_maps, _sample_count
from .multicurve import standard_multipoint
from .sl2 import (
    DET_TOL, SQRT3, TangentElement, _Frozen, _inverse, _product, _unit_det, star_check, wedge,
)

MIN_GRID = 16
IDENTITY_TOL = 1e-8
LEMMA_TOL = 1e-10


class FramePath(_Frozen):
    """Frames sampled along a parameter grid, relative to the starting frame.

    ``grid`` has shape (n,) and ``frames`` shape (n, 2, 2); both are read-only.
    Frames keep ``FrameMatrix``'s determinant rule: each frame whose
    determinant is not within ``DET_TOL`` of one goes through ``_unit_det``.
    """

    __slots__ = ("grid", "frames")

    def __init__(self, grid, frames) -> None:
        grid = np.array(grid, dtype=float)
        frames = np.array(frames, dtype=float)
        if grid.ndim != 1 or grid.size < MIN_GRID:
            raise ParameterOutOfRange(
                f"frame path needs at least {MIN_GRID} grid points, got {grid.size}")
        if frames.shape != (grid.size, 2, 2):
            raise ParameterOutOfRange(f"frames have shape {frames.shape}, not ({grid.size}, 2, 2)")
        det = frames[:, 0, 0] * frames[:, 1, 1] - frames[:, 0, 1] * frames[:, 1, 0]
        for i in np.flatnonzero(~(np.abs(det - 1.0) <= DET_TOL)):
            frames[i] = np.reshape(_unit_det(*frames[i].ravel().tolist()), (2, 2))
        if not np.all(np.diff(grid) > 0.0):
            raise ParameterOutOfRange("grid parameters must increase strictly")
        if np.max(np.abs(frames[0] - np.eye(2))) > IDENTITY_TOL:
            raise ParameterOutOfRange(
                "frame path must start at the identity; relativize with from_absolute")
        grid.flags.writeable = frames.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "frames", frames)


def from_absolute(grid, frames) -> FramePath:
    """Relativize absolute frames, shape (n, 2, 2), by the inverse of the first one."""
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[1:] != (2, 2) or len(frames) == 0:
        raise ParameterOutOfRange(f"frames have shape {frames.shape}, not (n, 2, 2) with n > 0")
    inv0 = np.reshape(_unit_det(*_inverse(frames[0].ravel().tolist())), (2, 2))
    return FramePath(grid, inv0 @ frames)


def rotation_path(span: float = math.pi / 3.0, samples: int = 64) -> FramePath:
    """Rotations through the given span, starting at the identity."""
    grid = np.linspace(0.0, span, samples)
    c, s = np.cos(grid), np.sin(grid)
    return FramePath(grid, np.stack((c, -s, s, c), axis=-1).reshape(-1, 2, 2))


def chain_path(chain: ChainParams, per_link: int = 256) -> FramePath:
    """The frame path traced by a chain, one unit of parameter per link.

    Consecutive links share a grid point, so L non-degenerate links give
    L * (per_link - 1) + 1 points, of which a FramePath needs MIN_GRID.
    """
    per_link = _sample_count("per_link", per_link, 2)
    links = sum(tau != 0.0 for tau, _ in chain.links)
    points = links * (per_link - 1) + 1
    if points < MIN_GRID:
        raise ParameterOutOfRange(f"per_link = {per_link!r} gives {points} grid points over "
                                  f"{links} links; a frame path needs at least {MIN_GRID}")
    assembled = assemble(chain)
    a, k, j, ts = _link_grid(assembled.links, per_link)
    # the canonical frame sends u*_j, u*_{j+2} to curves j and j + 2: the hyperbola, x = a
    cols = np.stack(_even_points(a[:, None], k[:, None], ts)[:2], axis=-1)
    inv0 = _unit_det(*_inverse(chain.initial[0]))
    leads = [_unit_det(*_product(inv0, g)) for g in _link_maps(assembled)]
    # stacked @, not written-out products, which round differently
    frames = (np.reshape(leads, (-1, 1, 2, 2))
              @ (cols @ np.asarray(_STANDARD_INVERSE)[j].reshape(-1, 1, 2, 2)))
    grid = np.arange(len(ts))[:, None] + (ts - ts[:, :1]) / (ts[:, -1:] - ts[:, :1])
    # links after the first share their start sample with the previous end
    keep = (np.arange(per_link) > 0) | (np.arange(len(ts)) == 0)[:, None]
    return FramePath(grid[keep], frames[keep])


def area_functional(path: FramePath) -> float:
    """Domain area of a frame path by trapezoidal line integration."""
    (a, b), (c, d) = np.moveaxis(path.frames, 0, -1)
    # trapezoid of alpha dgamma - gamma dalpha telescopes to a shoelace sum
    twist = (a[:-1] * c[1:] - a[1:] * c[:-1]) + (b[:-1] * d[1:] - b[1:] * d[:-1])
    return 1.5 * float(np.sum(twist))


def euler_lagrange_residual(path: FramePath) -> float:
    """Worst violation of the three conserved quantities of extremal paths."""
    (a, b), (c, d) = np.moveaxis(path.frames, 0, -1)
    return float(max(
        np.max(np.abs(d * d + c * c - 1.0)),
        np.max(np.abs(a * a + b * b - 1.0)),
        np.max(np.abs(c * a + d * b)),
    ))


class Sampled(NamedTuple):
    """A function sampled on a grid, optionally with derivative samples; equal
    field by field by ``np.array_equal``, under which None equals only None."""

    values: np.ndarray
    deriv: np.ndarray | None = None

    def __eq__(self, other):
        return type(other) is Sampled and all(map(np.array_equal, self, other))

    def __ne__(self, other):
        return not self == other


def _on_grid(grid: np.ndarray | None, *samples) -> list[np.ndarray]:
    """The samples as float arrays, each of the grid's shape unless the grid is
    None, else ParameterOutOfRange."""
    try:
        arrays = [np.asarray(v, dtype=float) for v in samples]
    except (TypeError, ValueError) as exc:
        raise ParameterOutOfRange(f"grid and samples must be numbers: {exc}") from None
    if grid is not None and any(v.shape != grid.shape for v in arrays):
        raise ParameterOutOfRange("grid and sample lengths differ")
    return arrays


def second_variation_circle(u, w: Sampled, grid) -> float:
    """Quadrature of 4 u w' along the grid; indefinite in sign."""
    (grid,) = _on_grid(None, grid)
    if grid.size < MIN_GRID:
        raise ParameterOutOfRange("second variation grid needs at least 16 points")
    if w.deriv is None:
        raise ParameterOutOfRange("w must carry derivative samples")
    u_vals, w_deriv = _on_grid(grid, u.values if isinstance(u, Sampled) else u, w.deriv)
    return float(np.trapezoid(4.0 * u_vals * w_deriv, grid))


def _wedge_coefficients(x: TangentElement, m: int) -> tuple[float, float, float]:
    """Coefficients of wedge(X u, V u) as a linear functional of V = (a', b', c')."""
    p, q = standard_multipoint()[m].tolist()
    return (-x.b * q * q - x.c * p * p, x.a * q * q - x.c * p * q, x.a * p * p + x.b * p * q)


def curvature_lemma_value(x: TangentElement) -> float:
    """Positive curvature combination forced once two of the three vanish.

    Requiring wedge(X u_j, (X' + X^2) u_j) = 0 at j = 0 and j = 2 pins the
    value at j = 4 regardless of which tangent derivative X' realizes the
    two conditions; the closed form is cross-checked against a least-squares
    realization before being returned.
    """
    if not star_check(x):
        raise StarViolation(f"({x.a!r}, {x.b!r}, {x.c!r}) is not a convex tangent")
    disc = x.a * x.a + x.b * x.c
    closed = 3.0 * SQRT3 * disc * disc / (3.0 * x.a + SQRT3 * x.c)

    rows = [_wedge_coefficients(x, m) for m in (0, 2)]
    u = standard_multipoint()
    rhs = [disc * wedge(u[m], x.apply(u[m])) for m in (0, 2)]
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    u4 = u[4]
    ca, cb, cc = _wedge_coefficients(x, 4)
    direct = ca * sol[0] + cb * sol[1] + cc * sol[2] - disc * wedge(u4, x.apply(u4))
    if abs(direct - closed) > LEMMA_TOL * max(1.0, abs(closed)):
        raise WedgeMismatch(f"curvature value {direct!r} disagrees with closed form {closed!r}")
    return closed


class Rank2Report(NamedTuple):
    """First-variation data for the rank-two reduction."""

    integral: float
    constraint_residual: float
    x_variation_sign: int


def rank2_first_variation(s: Sampled, x: Sampled, grid, z=None) -> Rank2Report:
    """Quadrature of (sqrt(3) s' - (1 + s^2) x') / 4 with the z-constraint.

    z may be a scalar, an array, or None; when None it is recovered from
    x'(s^2 - 1) = s' z so the constraint residual vanishes identically.
    The x-variation sign is the uniform sign of s s' / 2, or 0 if mixed.
    """
    (grid,) = _on_grid(None, grid)
    if grid.size < 2:  # a quadrature needs an interval
        raise ParameterOutOfRange(f"rank-2 grid needs at least 2 points, got {grid.size}")
    if s.deriv is None or x.deriv is None:
        raise ParameterOutOfRange("s and x must carry derivative samples")
    sv, _, sd, xd = _on_grid(grid, s.values, x.values, s.deriv, x.deriv)
    if not np.all(sd > 0.0):  # NaN too
        raise SignCondition("s must increase strictly along the grid")

    lhs = xd * (sv * sv - 1.0)
    if z is None:
        z_vals = lhs / sd
    else:
        (z_vals,) = _on_grid(None, z)
        if z_vals.ndim:
            (z_vals,) = _on_grid(grid, z_vals)
    residual = float(np.max(np.abs(lhs - sd * z_vals)))

    integrand = 0.25 * (SQRT3 * sd - (1.0 + sv * sv) * xd)
    integral = float(np.trapezoid(integrand, grid))

    el = 0.5 * sv * sd
    sign = 1 if np.all(el > 0.0) else -1 if np.all(el < 0.0) else 0
    return Rank2Report(integral, residual, sign)
