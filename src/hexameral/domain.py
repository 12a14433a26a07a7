"""Closed hexameral domains: the smoothed octagon, densities, exports, verify.

The area of a domain is twice the chain area (odd-index sectors mirror the
even ones), and the packing density of a balanced-hexagon normalized domain
is area / sqrt(12).

The verify checklist reads its four link rows, on floats, at the two ends of
every non-degenerate link.  That is exact, because on the link domain
0 < k < 1, -1 < t < k - 1 none of the four quantities has an interior minimum:

* Convexity and rank.  Of the even curves, the hyperbola has
  wedge(v, acc) = 2 a^2 (1 - k) / |t|^3 > 0, monotone in t; for the two
  lines link_curves gives exactly zero.  A link's rank counts the even
  curves whose wedge is positive at both ends.
* Star margins.  The circle tangent y = C(t)^{-1} X(t) C(t) has star
  forms c - sqrt(3) a, c + sqrt(3) a and -(3b + c) that are, in an order
  that permutes with j, sqrt(3) or 2 sqrt(3) times (1 - k)(1 + t)/(k t^2),
  (k - 1 - t)/(k |t|) and (1 - k)/(k |t|), and -a^2 - bc = (1 - k)/(k t^2):
  all positive.  frame_at scales X to unit norm, and |X|^2 = Q/(k^2 t^4)
  with Q = t^4 + (1 - k)^2 (1 + t^2).  So each star column is a positive
  constant times p/sqrt(Q), with p = 1 + t, t (t + 1 - k) or -t, and the
  determinant is k (1 - k) t^2/Q.  Each Q/p^2 is strictly convex in t on
  the link domain (tests/test_domain.py certifies this in sympy: after
  t = -1 + k s the numerator of its second derivative has nonnegative, not
  all zero, Bernstein coefficients on the unit square).  So Q/p^2 has no
  interior maximum, no column has an interior minimum, and neither has
  their least value: each margin's minimum over a link is at t0 or t1.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import _np as np
from .chain import (
    ANGLE_TOL, FEASIBLE_TOL, STRICT_TOL, AssembledChain, ChainParams, ClosureReport, LinkParam,
    assemble, chain_to_dict, closure_of, normalized_length, require_closed,
)
from .errors import GeometryError, LinkLengthViolation, NotClosed
from .hyperlink import (
    SquareRep, _circle_tangent_at, _curve_rows, _even_points, _k, _link_grid, _link_maps,
    _sample_count, frame_at, t_end,
)
from .kit import Arrays
from .multicurve import MultiPoint, standard_multipoint
from .sl2 import SQRT3, TangentElement, _Frozen, wedge

SQRT12 = math.sqrt(12.0)

# Smoothed octagon constants in the square representation.
OCTAGON_SCALE = 12.0 ** 0.25 / math.sqrt(4.0 - math.sqrt(2.0))
OCTAGON_T0 = -1.0 / math.sqrt(2.0)
OCTAGON_TAU = 2.0 - math.sqrt(2.0)
OCTAGON_INDICES = (0, 2, 4, 0)

# Closed forms anchoring the acceptance values.
OCTAGON_LINK_AREA = (
    math.sqrt(3.0)
    * (8.0 - 8.0 * math.sqrt(2.0) + math.sqrt(2.0) * math.log(2.0))
    / (4.0 * (-4.0 + math.sqrt(2.0)))
)
OCTAGON_DENSITY = (8.0 - math.sqrt(32.0) - math.log(2.0)) / (math.sqrt(8.0) - 1.0)
CIRCLE_DENSITY = math.pi / SQRT12

# Rows of the verify checklist read at the ends of every non-degenerate link.
LINK_CHECKS = ("star-conditions", "tangent-determinant", "convexity", "rank-per-link")


class BoundaryPolyline(_Frozen):
    """Sampled boundary: an (n, 2) array of finite points, consecutive points
    distinct, positively oriented when closed.  The points are read-only."""

    __slots__ = ("points", "closed")

    def __init__(self, points, closed: bool) -> None:
        pts = np.array(points, dtype=float)
        if pts.shape[1:] != (2,) or len(pts) < 3:
            raise NotClosed("polyline needs at least three points in the plane")
        if not np.all(np.isfinite(pts)):
            raise NotClosed("polyline has a non-finite coordinate")
        # the finite points repeat where their difference is zero
        if (pts[1:] == pts[:-1]).all(axis=1).any() or closed and (pts[0] == pts[-1]).all():
            raise NotClosed("polyline has coincident consecutive points")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "closed", closed)
        if closed and self.area() <= 0.0:
            raise NotClosed("closed polyline is not positively oriented")

    def area(self) -> float:
        """Shoelace area; for open polylines the chord closes the loop."""
        (x, y), (x1, y1) = self.points.T, np.concatenate((self.points[1:], self.points[:1])).T
        return 0.5 * float(np.sum(x * y1 - x1 * y))

    def centrally_symmetric(self, tol: float = 1e-9) -> bool:
        """Does -p appear among the points for every point p?"""
        c, n = self.points, len(self.points)
        # boundary order pairs p_i with p_{i + n/2} for a symmetric sampling
        return n % 2 == 0 and bool(np.max(np.abs(c + np.roll(c, n // 2, axis=0))) < tol)


class HexameralDomain(NamedTuple):
    """A closed chain together with its area and packing density."""

    chain: ChainParams
    assembled: AssembledChain
    closure: ClosureReport
    area: float
    density: float


def from_chain(chain: ChainParams, tol: float = FEASIBLE_TOL) -> HexameralDomain:
    """Validate closure and wrap a chain as a domain."""
    assembled = assemble(chain)
    report = closure_of(chain, assembled)
    if not report.closed(tol):
        raise NotClosed(f"chain is not closed: residual {report.residual():.3e}, "
                        f"angle margin {report.angle_margin:.3e}")
    area = 2.0 * assembled.area()
    return HexameralDomain(chain, assembled, report, area, area / SQRT12)


def density(dom: HexameralDomain) -> float:
    """Packing density area / sqrt(12) of a closed domain."""
    if not dom.closure.closed():
        raise NotClosed("domain chain fails the closure check")
    return 2.0 * dom.assembled.area() / SQRT12


def octagon_square_rep() -> SquareRep:
    return SquareRep(OCTAGON_SCALE, OCTAGON_T0, OCTAGON_TAU, 0)


def smoothed_octagon() -> HexameralDomain:
    """The smoothed octagon as a four-link closed chain."""
    rep = octagon_square_rep()
    initial = frame_at(rep, rep.t0)
    links = tuple(LinkParam(OCTAGON_TAU, j) for j in OCTAGON_INDICES)
    return from_chain(ChainParams(initial, links), tol=STRICT_TOL)


def boundary_polyline(dom: HexameralDomain, per_link: int = 64) -> BoundaryPolyline:
    """All six curve images over the fundamental interval, in boundary order."""
    per_link = _sample_count("per_link", per_link, 1)
    # each link's grid to its end, the end left out
    a, k, j, ts = _link_grid(dom.assembled.links, per_link + 1)
    even = _even_points(a[:, None], k[:, None], ts[:, :-1])
    curves = np.concatenate((even, -even))[_curve_rows()[j].T, np.arange(len(j))]
    maps = np.array(_link_maps(dom.assembled)).reshape(-1, 2, 2)
    # curve by curve, link by link: one stacked product by each link's map
    return BoundaryPolyline((curves @ maps.transpose(0, 2, 1)).reshape(-1, 2), closed=True)


class CircleReference(NamedTuple):
    """Unit-circle comparison domain (rank three, density pi / sqrt(12))."""

    polyline: BoundaryPolyline
    density: float


def circle_reference(samples: int = 256) -> CircleReference:
    """Polyline of the unit circle at a positive integer sample count, rounded
    up to an even count of at least six."""
    samples = _sample_count("samples", samples, 1)
    n = max(6, samples + samples % 2)
    angles = 2.0 * math.pi * np.arange(n) / n
    pts = np.column_stack((np.cos(angles), np.sin(angles)))
    return CircleReference(BoundaryPolyline(pts, closed=True), CIRCLE_DENSITY)


def circle_multicurve(samples: int = 16) -> np.ndarray:
    """The circle's six curves over one sixth of a turn, with derivatives, at
    an integer of at least 2 samples, in link_curves' layout (6, 3, n, 2)."""
    ts = np.linspace(0.0, math.pi / 3.0, _sample_count("samples", samples, 2))
    angles = math.pi * np.arange(6)[:, None] / 3.0 + ts
    p = np.stack((np.cos(angles), np.sin(angles)), axis=-1)
    return np.stack((p, np.stack((-p[..., 1], p[..., 0]), axis=-1), -p), axis=1)


def _star_rows(links, per_link: int) -> np.ndarray:
    """Rows (c - sqrt(3)|a|, -(3b + c), det X) of the circle tangent at per_link
    parameters of each moving link (a, t0, tau, j); the first check that fails raises."""
    a, k, j, ts = _link_grid(links, per_link)
    checks = []
    # samples down, links across, so that a, k and j are columns of the grid
    x, y, z = _circle_tangent_at(a, k, ts.T, j, Arrays(checks))
    for bad, error in checks:
        if bad.any():
            raise error(f"circle tangent fails at {np.count_nonzero(bad)} sampled parameters")
    rows = np.stack((z - SQRT3 * abs(x), -(3.0 * y + z), -x * x - y * z), axis=-1)
    return rows.transpose(1, 0, 2).reshape(-1, 3)


def star_profile(dom: HexameralDomain, per_link: int = 32) -> np.ndarray:
    """Star margins (c - sqrt(3)|a|, -(3b + c), det X) sampled along the boundary."""
    return _star_rows(dom.assembled.links, _sample_count("per_link", per_link, 1))


def _link_end_margins(links) -> tuple[float, float, float, list[int]]:
    """Least star margin, determinant and hyperbola wedge(v, acc) at the ends of the moving
    links among rows (a, t0, tau, j), and each one's rank: the star rows' kernel, on floats."""
    ends = [(a, _k(a), j, t) for a, t0, tau, j in links if tau != 0.0
            for t in (t0, t_end((a, t0, tau, j)))]
    xyz = [_circle_tangent_at(a, k, t, j) for a, k, j, t in ends]
    # link_curves' hyperbola has wedge(v, acc) = (-a ds) 0 - (-a)(-a dds); each line's is 0
    bends = [-(a * (a * (2.0 * (1.0 - k) / (t * t * t)))) for a, k, _, t in ends]
    star = min(min(z - SQRT3 * abs(x), -(3.0 * y + z)) for x, y, z in xyz)
    return (star, min(-x * x - y * z for x, y, z in xyz), min(bends),
            [int(b0 > 0.0 and b1 > 0.0) for b0, b1 in zip(bends[::2], bends[1::2])])


def verify_checks(chain: ChainParams, tol: float = FEASIBLE_TOL) -> list[tuple[str, bool, str]]:
    """The invariant checklist of a chain: (name, passed, detail) rows in order.

    Assembly failure ends the list; otherwise star and determinant margins,
    convexity and rank one per link (read at link ends, see the module
    docstring), closure, the angle condition and the link count follow.
    """
    try:
        assembled = assemble(chain)
    except GeometryError as exc:
        return [("assembly", False, str(exc))]
    checks = [("assembly", True, f"{len(assembled.links)} links")]
    if all(tau == 0.0 for _, _, tau, _ in assembled.links):
        checks += [(name, False, "no link is non-degenerate") for name in LINK_CHECKS]
    else:
        star, det, bend, ranks = _link_end_margins(assembled.links)
        checks += [("star-conditions", star > 0.0, f"min margin {star:.3e}"),
                   ("tangent-determinant", det > 0.0, f"min -a^2-bc {det:.3e}"),
                   ("convexity", bend > 0.0, f"min wedge(v, acc) {bend:.3e}"),
                   ("rank-per-link", all(r == 1 for r in ranks), f"ranks {ranks}")]

    report = closure_of(chain, assembled)
    # the angle condition has its own row
    checks.append(("closure", report.residual() <= tol, f"frame {report.frame_residual:.3e} "
                   f"tangent {report.tangent_residual:.3e}"))
    checks.append(("angle-condition", report.angle_margin >= -ANGLE_TOL,
                   f"margin {report.angle_margin:.3e}"))

    try:
        # the closure row's report, so the chain is not assembled again
        require_closed(report, tol)
        n = normalized_length(chain)
        checks.append(("link-length", True, f"{n}, (n-1) = 0 mod 3"))
    except (NotClosed, LinkLengthViolation) as exc:
        checks.append(("link-length", False, str(exc)))
    return checks


def initial_multipoint(dom: HexameralDomain) -> MultiPoint:
    return standard_multipoint().transformed(dom.chain.initial[0])


def _hexagon_vertices(points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Intersections of tangent lines m and m + 1, rows of (6, 2) arrays: the balanced hexagon."""
    q, u = np.roll(points, -1, axis=0), np.roll(dirs, -1, axis=0)
    t = wedge(q - points, u) / wedge(dirs, u)
    return points + dirs * t[:, None]


def export_json(dom: HexameralDomain) -> dict:
    """Chain dialect extended with the domain's derived quantities."""
    # closure was checked, at the caller's tolerance, when dom was built
    return {**chain_to_dict(dom.chain), "area": dom.area, "density": dom.density,
            "link_length": normalized_length(dom.chain), "closure": dom.closure._asdict()}


def export_svg(dom: HexameralDomain, per_link: int = 64) -> str:
    """SVG 1.1 document: boundary, initial multi-point, balanced hexagon."""
    poly = boundary_polyline(dom, per_link)
    markers = initial_multipoint(dom).points
    hexagon = _hexagon_vertices(markers, TangentElement(*dom.chain.initial[1]).apply(markers))

    all_pts = np.concatenate((poly.points, hexagon))
    lo = all_pts.min(axis=0)
    span = float((all_pts.max(axis=0) - lo).max())
    margin = 0.05 * span
    scale = 1000.0 / (span + 2.0 * margin)

    def place(points: np.ndarray) -> np.ndarray:
        # at (v_x, 1000 - v_y), v = (p - lo + margin) scale: y flipped to keep orientation
        return (points - lo + margin) * scale * (1.0, -1.0) + (0.0, 1000.0)

    def closed_path(points: np.ndarray) -> str:
        # one %-format of the whole path: the same %.3f conversion as an f-string
        return ("M %.3f %.3f" + " L %.3f %.3f" * (len(points) - 1) + " Z") % tuple(
            place(points).ravel().tolist())

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000">',
        f'  <path d="{closed_path(hexagon)}" fill="none" '
        'stroke="#999999" stroke-width="2"/>',
        f'  <path d="{closed_path(poly.points)}" fill="none" '
        'stroke="#000000" stroke-width="3"/>',
        *(f'  <circle cx="{px:.3f}" cy="{py:.3f}" r="6" fill="#c43b3b"/>'
          for px, py in place(markers).tolist()),
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
