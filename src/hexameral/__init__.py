"""Hexameral-domain geometry toolkit.

Boundary curves of centrally symmetric convex domains built as chains of
hyperbolic links in SL2(R), with the smoothed octagon as the reference
domain, plus variational checks and link-structure search harnesses.
"""

from .errors import (
    ChainFormatError, DegenerateVelocity, FrameDeterminantError, GeometryError, InfeasibleInput,
    LinkLengthViolation, MissingAcceleration, NotClosed, NotRankOneCompatible, ParameterOutOfRange,
    RankUndefined, RankZero, ScaleTooSmall, SignCondition, StarViolation, WedgeMismatch,
)
from .sl2 import FrameMatrix, TangentElement, adjoint, exp_tangent, rotation, star_check, wedge
from .multicurve import (
    MultiPoint, RankLabel, convexity_value, multipoint_from_pair, rank_classify,
    standard_multipoint,
)
from .hyperlink import (
    LinkState, SquareRep, circle_tangent, frame_at, k_of, link_area, link_curves, link_multicurve,
    propagate, t_end,
)
from .chain import (
    ChainParams, ClosureReport, LinkParam, angle_margin_of, assemble, chain_area, closure_report,
    link_length, load_chain, normalize_links, save_chain,
)
from .domain import (
    CIRCLE_DENSITY, OCTAGON_DENSITY, OCTAGON_LINK_AREA, BoundaryPolyline, HexameralDomain,
    boundary_polyline, circle_reference, density, export_json, export_svg, from_chain,
    octagon_square_rep, smoothed_octagon,
)
from .variational import (
    FramePath, area_functional, chain_path, curvature_lemma_value, euler_lagrange_residual,
    rank2_first_variation, rotation_path, second_variation_circle,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The search names, loaded from ``optimize`` on first use (PEP 562)."""
    if name in ("SearchResult", "SearchSpec", "five_link_search", "link_reduction_experiment",
                "octagon_embedding"):
        from . import optimize
        return getattr(optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
