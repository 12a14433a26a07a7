"""The scalar link kernel and the stacked sweep pass against object-path oracles.

The oracles below are the frame-object implementations of ``propagate`` and
of the per-link sweep-angle sampling: every intermediate frame is a
``FrameMatrix`` (so the determinant rule runs at each step) and every link
is sampled on its own.  The library must agree with them exactly, on
success (states, square representations, sweep angles) and on failure
(error class, failing link, message).
"""
import math

import numpy as np
import pytest

from hexameral.chain import ANGLE_SAMPLES, ChainParams, LinkParam, _sweep_angles, assemble
from hexameral.errors import (
    DegenerateVelocity,
    GeometryError,
    NotRankOneCompatible,
    ParameterOutOfRange,
)
from hexameral.hyperlink import (
    MIN_SCALE_SQ,
    VELOCITY_TOL,
    LinkState,
    SquareRep,
    frame_at,
    frame_grid,
    link_map,
    t_end,
    transform_state,
)
from hexameral.multicurve import STANDARD
from hexameral.optimize import DEFAULT_BOUNDS, decode_five_link, octagon_embedding
from hexameral.sl2 import (
    SQRT3,
    FrameMatrix,
    PlaneVector,
    ProjectiveTangent,
    TangentElement,
    adjoint,
    star_check,
    wedge,
)

from conftest import random_frame, random_star_tangent


# Object-path oracle of one link.

def _oracle_points(rep: SquareRep, t: float):
    """Positions and velocities of the hyperbola and the x = a line."""
    a, k = rep.a, rep.k
    s = (1.0 - k) / t
    ds = -(1.0 - k) / (t * t)
    hyp = (PlaneVector(a * (-1.0 - s), a * (-1.0 - t)), PlaneVector(-a * ds, -a))
    line_x = (PlaneVector(a, a * t), PlaneVector(0.0, a))
    return hyp, line_x


def _oracle_standard_inverse(j: int):
    p1, p2 = STANDARD[j], STANDARD[j + 2]
    w = wedge(p1, p2)
    return (p2.y / w, -p2.x / w, -p1.y / w, p1.x / w)


def _oracle_frame(rep: SquareRep, t: float) -> FrameMatrix:
    (p1, _), (p2, _) = _oracle_points(rep, t)
    ia, ib, ic, id_ = _oracle_standard_inverse(rep.j)
    return FrameMatrix(
        p1.x * ia + p2.x * ic,
        p1.x * ib + p2.x * id_,
        p1.y * ia + p2.y * ic,
        p1.y * ib + p2.y * id_,
    )


def _oracle_tangent(rep: SquareRep, t: float) -> TangentElement:
    (p1, v1), (p2, v2) = _oracle_points(rep, t)
    w = wedge(p1, p2)
    m00 = (v1.x * p2.y - v2.x * p1.y) / w
    m01 = (-v1.x * p2.x + v2.x * p1.x) / w
    m10 = (v1.y * p2.y - v2.y * p1.y) / w
    m11 = (-v1.y * p2.x + v2.y * p1.x) / w
    return TangentElement(0.5 * (m00 - m11), m01, m10)


def oracle_propagate(state: LinkState, tau: float, j: int):
    if not 0.0 <= tau < 1.0:
        raise ParameterOutOfRange(f"tau = {tau!r} outside [0, 1)")
    if j not in (0, 2, 4):
        raise ParameterOutOfRange(f"hyperbolic index j = {j!r} not in (0, 2, 4)")
    x = state.tangent.rep
    p2 = state.frame.apply(STANDARD[j + 2])
    p4 = state.frame.apply(STANDARD[j + 4])
    d2 = x.apply(p2)
    d4 = x.apply(p4)
    w = wedge(d2, d4)
    scale = d2.norm() * d4.norm()
    if scale == 0.0 or abs(w) < VELOCITY_TOL * scale:
        raise DegenerateVelocity("edge velocities are linearly dependent")
    if w < 0.0:
        raise NotRankOneCompatible("edge velocities wind clockwise; star conditions fail")
    if not star_check(adjoint(state.frame.inverse(), x)):
        raise NotRankOneCompatible("state tangent violates the star inequalities")
    h0 = FrameMatrix(d2.y / w, -d2.x / w, d4.y, -d4.x)
    q2 = h0.apply(p2)
    q4 = h0.apply(p4)
    if q2.x <= 0.0 or q4.y <= 0.0:
        raise NotRankOneCompatible("edge points map off the positive axes")
    a = math.sqrt(q2.x * q4.y)
    if a * a <= MIN_SCALE_SQ:
        raise NotRankOneCompatible(f"recovered scale a = {a!r} gives no hyperbola")
    t0 = q2.y / q4.y
    s0 = q4.x / q2.x
    k = SQRT3 / (2.0 * a * a)
    if not (-1.0 < t0 < k - 1.0 and -1.0 < s0 < k - 1.0):
        raise NotRankOneCompatible(
            f"recovered start t0 = {t0!r}, s0 = {s0!r} outside (-1, {k - 1.0!r})"
        )
    rep = SquareRep(a, t0, tau, j)
    if tau == 0.0:
        return state, rep
    t1 = t_end(rep)
    g = state.frame.compose(_oracle_frame(rep, t0).inverse())
    frame_out = g.compose(_oracle_frame(rep, t1))
    tangent_out = ProjectiveTangent.from_tangent(adjoint(g, _oracle_tangent(rep, t1)))
    return LinkState(frame_out, tangent_out), rep


def oracle_assemble(chain: ChainParams):
    states, reps = [chain.initial], []
    for i, (tau, j) in enumerate(chain.links):
        try:
            state, rep = oracle_propagate(states[-1], tau, j)
        except GeometryError as exc:
            exc.link_index = i
            exc.args = (f"link {i}: {exc}",)
            raise
        states.append(state)
        reps.append(rep)
    return tuple(states), tuple(reps)


# Per-link oracle of the sweep-angle sampling.

def _oracle_frame_grid(rep: SquareRep, ts: np.ndarray) -> np.ndarray:
    a, k = rep.a, rep.k
    s = (1.0 - k) / ts
    ia, ib, ic, id_ = _oracle_standard_inverse(rep.j)
    cols = np.empty((len(ts), 2, 2))
    cols[:, 0, 0] = a * (-1.0 - s)
    cols[:, 1, 0] = a * (-1.0 - ts)
    cols[:, 0, 1] = a
    cols[:, 1, 1] = a * ts
    return cols @ np.array([[ia, ib], [ic, id_]])


def oracle_sweep_angles(chain: ChainParams, states, reps, samples_per_link: int):
    inv0 = chain.initial.frame.inverse()
    u0 = np.array([STANDARD[0].x, STANDARD[0].y])
    chunks = [np.zeros(1)]
    for state, rep in zip(states, reps):
        if rep.tau == 0.0:
            continue
        lead = inv0.compose(state.frame.compose(_oracle_frame(rep, rep.t0).inverse()))
        ts = np.linspace(rep.t0, t_end(rep), samples_per_link)
        lead_mat = np.array([[lead.alpha, lead.beta], [lead.gamma, lead.delta]])
        pts = (lead_mat @ _oracle_frame_grid(rep, ts)) @ u0
        chunks.append(np.arctan2(pts[:, 1], pts[:, 0]))
    return np.concatenate(chunks)


# Seeded points.

def _five_link_points(rng, count: int):
    """Five-link chains near the octagon embedding and uniform in the box."""
    lo = np.array([b[0] for b in DEFAULT_BOUNDS])
    hi = np.array([b[1] for b in DEFAULT_BOUNDS])
    center = octagon_embedding()
    chains = []
    while len(chains) < count:
        if len(chains) % 2 == 0:
            step = rng.normal(size=7)
            x = center + 10.0 ** rng.uniform(-3.0, -1.0) * step / np.linalg.norm(step)
            x = np.clip(x, lo, hi)
        else:
            x = lo + (hi - lo) * rng.uniform(size=7)
        if x[0] ** 2 + x[1] ** 2 >= 1.0:
            continue
        chains.append(decode_five_link(x))
    return chains


def _moved_segments(rng, count: int):
    """Random index patterns (j = 4 included) from moved and random starts."""
    base = decode_five_link(octagon_embedding()).initial
    chains = []
    for i in range(count):
        if i % 3 == 0:
            initial = transform_state(random_frame(rng), base)
        else:
            tangent = (random_star_tangent(rng) if i % 3 == 1
                       else TangentElement(*(float(v) for v in rng.uniform(-1.0, 1.0, 3))))
            frame = random_frame(rng)
            initial = LinkState(frame, ProjectiveTangent.from_tangent(adjoint(frame, tangent)))
        n = int(rng.integers(1, 7))
        links = tuple(
            LinkParam(float(rng.uniform(0.0, 0.95)) if rng.uniform() > 0.15 else 0.0,
                      int(rng.choice((0, 2, 4))))
            for _ in range(n)
        )
        chains.append(ChainParams(initial, links))
    return chains


def _library(chain: ChainParams, samples: int):
    assembled = assemble(chain)
    return assembled.states, assembled.reps, _sweep_angles(chain, assembled, samples)


def _oracle(chain: ChainParams, samples: int):
    states, reps = oracle_assemble(chain)
    return states, reps, oracle_sweep_angles(chain, states, reps, samples)


def _outcome(fn, chain: ChainParams, samples: int):
    try:
        return "ok", fn(chain, samples)
    except GeometryError as exc:
        return "fail", (type(exc), exc.link_index, str(exc))


def _assert_identical(chain: ChainParams, samples: int) -> str:
    kind, lib = _outcome(_library, chain, samples)
    oracle_kind, ref = _outcome(_oracle, chain, samples)
    assert kind == oracle_kind, (lib, ref)
    if kind == "ok":
        assert lib[0] == ref[0]
        assert lib[1] == ref[1]
        assert np.array_equal(lib[2], ref[2])
    else:
        assert lib == ref
    return kind


def test_five_link_points_match_oracle():
    rng = np.random.default_rng(31)
    kinds = [_assert_identical(chain, ANGLE_SAMPLES)
             for chain in _five_link_points(rng, 1600)]
    # both outcomes are exercised in quantity
    assert kinds.count("ok") > 300 and kinds.count("fail") > 300


def test_moved_segments_match_oracle():
    rng = np.random.default_rng(32)
    kinds = []
    for chain in _moved_segments(rng, 600):
        samples = int(rng.choice((2, 7, ANGLE_SAMPLES)))
        kinds.append(_assert_identical(chain, samples))
    assert kinds.count("ok") > 50 and kinds.count("fail") > 50


def test_index_four_wraps_standard_columns(octagon):
    # j = 4 reads u*_6 = u*_0 and u*_8 = u*_2
    links = tuple(LinkParam(0.3, j) for j in (4, 0, 2, 4))
    for start in (octagon.chain.initial, decode_five_link(octagon_embedding()).initial):
        _assert_identical(ChainParams(start, links), ANGLE_SAMPLES)


def test_zero_step_link_beside_normal_links(octagon):
    # tau so small that t1 == t0: the sampled parameters of that link have
    # step zero, which must not change how the other links are sampled
    links = (LinkParam(0.3, 0), LinkParam(1e-300, 2), LinkParam(0.4, 4))
    chain = ChainParams(octagon.chain.initial, links)
    assert _assert_identical(chain, ANGLE_SAMPLES) == "ok"


@pytest.mark.parametrize("count", [1, 2, 9])
def test_frame_grid_matches_oracle(octagon, count):
    for rep in octagon.assembled.reps:
        ts = np.linspace(rep.t0, t_end(rep), count)
        assert np.array_equal(frame_grid(rep, ts), _oracle_frame_grid(rep, ts))


def test_frame_at_and_link_map_match_oracle(octagon):
    for state, rep in zip(octagon.assembled.states, octagon.assembled.reps):
        for t in np.linspace(rep.t0, t_end(rep), 5):
            t = float(t)
            expected = LinkState(_oracle_frame(rep, t),
                                 ProjectiveTangent.from_tangent(_oracle_tangent(rep, t)))
            assert frame_at(rep, t) == expected
        assert link_map(state, rep) == state.frame.compose(_oracle_frame(rep, rep.t0).inverse())
