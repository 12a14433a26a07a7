"""Shared fixtures and quadrature oracles for the test suite."""
import math

import numpy as np
import pytest

from hexameral.hyperlink import LinkState, SquareRep, link_curves, propagate, t_end
from hexameral.sl2 import SQRT3, FrameMatrix, TangentElement, exp_tangent


@pytest.fixture(scope="session")
def octagon():
    from hexameral.domain import smoothed_octagon
    return smoothed_octagon()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def as_state(entries) -> LinkState:
    """The LinkState of a state's entries (frame, tangent), as ``propagate`` returns them."""
    frame, tangent = entries
    return LinkState(FrameMatrix(*frame), TangentElement(*tangent))


def propagate_state(state: LinkState, tau: float, j: int):
    """``propagate`` on a LinkState: the out state as a LinkState, and the link's rep."""
    out, a, t0 = propagate(state, tau, j)
    return as_state(out), SquareRep(a, t0, tau, j)


def random_square_rep(rng, tau=None) -> SquareRep:
    """A valid random square representation, away from parameter boundaries."""
    a = float(rng.uniform(0.95, 3.0))
    k = SQRT3 / (2.0 * a * a)
    t0 = -1.0 + float(rng.uniform(0.02, 0.98)) * k
    if tau is None:
        tau = float(rng.uniform(0.05, 0.95))
    j = int(rng.choice((0, 2, 4)))
    return SquareRep(a, t0, tau, j)


def random_star_tangent(rng) -> TangentElement:
    """Uniformly sampled tangent satisfying both star inequalities."""
    c = float(rng.uniform(0.1, 2.0))
    a = float(rng.uniform(-0.95, 0.95)) * c / SQRT3
    b = float(rng.uniform(1.05, 4.0)) * (-c / 3.0)
    return TangentElement(a, b, c)


def random_frame(rng, scale: float = 0.8) -> FrameMatrix:
    """exp of a bounded random tangent: a well-conditioned SL2 element."""
    x = TangentElement(*(float(v) for v in rng.uniform(-1.0, 1.0, 3)))
    return exp_tangent(x, scale / max(x.norm(), 1e-9))


def curve_positions(rep: SquareRep, t: float) -> np.ndarray:
    """The positions of a link's six curves at one parameter t: a (6, 2) array."""
    return link_curves(rep, [t])[:, 0, 0]


def sector_quadrature(rep: SquareRep, samples: int) -> float:
    """Shoelace oracle for link_area: origin sectors of the even curves.

    The closed sector boundary is arc plus two radial segments; the radial
    parts drop out of the shoelace sum, leaving consecutive origin triangles.
    """
    ts = np.linspace(rep.t0, t_end(rep), samples)
    positions = link_curves(rep, ts)[:, 0]
    total = 0.0
    for m in (0, 2, 4):
        p = positions[m]
        x, y = p[:, 0], p[:, 1]
        total += 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    return total


def polygon_area(coords: np.ndarray) -> float:
    x, y = coords[:, 0], coords[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def split_octagon_period(octagon, ta: float = 0.25):
    """The octagon period written as six links: one split pair plus a pad."""
    from hexameral.chain import ChainParams, LinkParam
    from hexameral.domain import OCTAGON_TAU
    tb = (OCTAGON_TAU - ta) / (1.0 - ta)
    links = (LinkParam(ta, 0), LinkParam(tb, 0), LinkParam(0.0, 2),
             LinkParam(OCTAGON_TAU, 2), LinkParam(OCTAGON_TAU, 4),
             LinkParam(OCTAGON_TAU, 0))
    return ChainParams(octagon.chain.initial, links)


def random_reduce_segment(octagon):
    """The random six-link segment of perfbench's reduce workload, seed 3,
    pass 2.  Its least-area five-link root, about 0.312523, lies below the
    one a Nelder-Mead refit found (0.3125330071980235); a Newton solve that
    stops at scipy's default gtol leaves both for 0.31264785499651665."""
    from hexameral.chain import ChainParams, LinkParam
    links = ((0.06590735944254397, 4), (0.2104164233654468, 0),
             (0.16133617973101744, 4), (0.06051460383991822, 0),
             (0.11413951025514114, 2), (0.05378491881273843, 4))
    return ChainParams(octagon.chain.initial, tuple(LinkParam(*l) for l in links))


def uniform_grid(n: int, hi: float = 2.0 * math.pi) -> np.ndarray:
    return np.linspace(0.0, hi, n)


def flat_hyperbola_chain():
    """Two links from a state whose first hyperbola has a^2 = (sqrt(3)/2)(1 + 1e-11).

    The chain assembles, but the hyperbola is so close to its asymptotes
    that its sampled curve mixes linear and curved readings.
    """
    from hexameral.chain import ChainParams, LinkParam
    from hexameral.hyperlink import MIN_SCALE_SQ, frame_at
    start = frame_at(SquareRep(math.sqrt(MIN_SCALE_SQ * (1.0 + 1e-11)), -0.5, 0.5, 0), -0.5)
    return ChainParams(start, (LinkParam(0.5, 0), LinkParam(0.5, 2)))
