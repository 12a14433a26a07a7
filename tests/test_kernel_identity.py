"""The scalar link kernel, the frame path, the angle margin, the verify link
rows and the link sampler against object-path and sampled oracles.

The oracles below are the frame-object implementations of ``propagate`` and
of the per-link sweep-angle sampling: every intermediate frame is a
``FrameMatrix`` (so the determinant rule runs at each step) and every link
is sampled on its own.  The library must agree with them exactly, on
success (states, square representations, sampled sweep angles) and on
failure (error class, failing link, message).  The angle margin, read from
link-end states, is held to the margins of the sampled oracle sweep at 64
and 512 samples per link.  ``chain_path``, which reads ``link_curves``, is
held bit for bit to the stacked relative-frame pass it replaced, and the
verify rows read at link ends to the same rows over 257 samples per link.
The curve sampler is held to the ``PlaneVector`` sampler it replaced, one
parameter at a time, bit for bit.
"""
import math
from typing import NamedTuple

import numpy as np
import pytest

from hexameral.chain import (
    ANGLE_TOL,
    SIXTH_TURN,
    ChainParams,
    LinkParam,
    angle_margin_of,
    assemble,
)
from hexameral.domain import _link_end_margins, _star_rows, boundary_polyline, from_chain
from hexameral.errors import (
    DegenerateVelocity,
    GeometryError,
    NotRankOneCompatible,
    ParameterOutOfRange,
)
from hexameral.hyperlink import (
    _STANDARD_INVERSE,
    MIN_SCALE_SQ,
    VELOCITY_TOL,
    LinkState,
    SquareRep,
    _link_lead,
    _square_points,
    frame_at,
    link_curves,
    link_map,
    link_multicurve,
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
    _compose,
    _inverse,
    _unit_det,
    adjoint,
    star_check,
    wedge,
)
from hexameral.variational import chain_path

from conftest import random_frame, random_square_rep, random_star_tangent, split_octagon_period

# Samples per link of the sampled sweep the angle check used to run.
ANGLE_SAMPLES = 64


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


# The stacked relative-frame pass that chain_path ran before it read
# link_curves, kept as an oracle.

def _sample_rows(t0s: np.ndarray, t1s: np.ndarray, n: int) -> np.ndarray:
    """Row l is np.linspace(t0s[l], t1s[l], n), bit for bit."""
    if n > 1 and not ((t1s - t0s) / (n - 1)).all():
        # a zero step sends all of a stacked linspace down its denormal path
        return np.array([np.linspace(lo, hi, n) for lo, hi in zip(t0s, t1s)])
    return np.linspace(t0s, t1s, n, axis=1)


def _frame_grids(reps, ts: np.ndarray) -> np.ndarray:
    """Canonical frames (L, n, 2, 2) of each link at its own row of ts (L, n)."""
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


def stacked_relative_frames(chain: ChainParams, assembled, n: int):
    """Reps, parameter rows (L, n) and frames frame(t0)^{-1} phi(t) (L, n, 2, 2)
    of every non-degenerate link, from one stacked pass."""
    links = [(state, rep) for state, rep in zip(assembled.states, assembled.reps)
             if rep.tau != 0.0]
    if not links:
        return (), np.empty((0, n)), np.empty((0, n, 2, 2))
    inv0 = _inverse(chain.initial.frame.entries())
    leads = np.array([
        _compose(inv0, _unit_det(*_link_lead(state.frame.entries(), rep.a, rep.k,
                                             rep.t0, rep.j)))
        for state, rep in links
    ]).reshape(-1, 1, 2, 2)
    reps = tuple(rep for _, rep in links)
    ts = _sample_rows(np.array([rep.t0 for rep in reps]),
                      np.array([t_end(rep) for rep in reps]), n)
    return reps, ts, leads @ _frame_grids(reps, ts)


def _library_sweep_angles(chain: ChainParams, assembled, samples: int) -> np.ndarray:
    """The sampled sweep from the stacked relative-frame pass."""
    reps, _, frames = stacked_relative_frames(chain, assembled, samples)
    if not reps:
        return np.zeros(1)
    u0 = np.array([STANDARD[0].x, STANDARD[0].y])
    pts = frames @ u0
    return np.concatenate((np.zeros(1), np.arctan2(pts[..., 1], pts[..., 0]).ravel()))


def _library(chain: ChainParams, samples: int):
    assembled = assemble(chain)
    return (assembled.states, assembled.reps,
            _library_sweep_angles(chain, assembled, samples))


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


# The angle margin from link-end states against the sampled oracle sweep.

def _sampled_margin(angles: np.ndarray) -> float:
    """The margin's definition over a sampled sweep: range slacks, least increment."""
    mono = float(np.diff(angles).min()) if angles.size > 1 else 0.0
    return min(float(angles.min()), SIXTH_TURN - float(angles.max()), mono)


def _octagon_periods(octagon, count: int) -> ChainParams:
    """``count`` octagon periods in a row: a sweep of count * pi/3."""
    return ChainParams(octagon.chain.initial, tuple(
        LinkParam(t, (j + 2 * p) % 6) for p in range(count) for t, j in octagon.chain.links))


def _octagon_variants(rng, octagon, count: int):
    """The octagon, its period split at a random point, and two periods (a
    sweep of 2 pi/3, past the condition's pi/3), each moved by SL2."""
    bases = [octagon.chain, split_octagon_period(octagon), _octagon_periods(octagon, 2)]
    chains = list(bases)
    for i in range(count):
        if i % 3 == 1:
            base = split_octagon_period(octagon, float(rng.uniform(0.05, 0.5)))
        else:
            base = bases[i % 3]
        chains.append(ChainParams(transform_state(random_frame(rng), base.initial),
                                  base.links))
    return chains


def _reduce_segments(rng, octagon, count: int):
    """Six links with consecutive-distinct indices from the octagon's start."""
    chains = []
    for _ in range(count):
        js = [int(rng.choice((0, 2, 4)))]
        while len(js) < 6:
            js.append(int(rng.choice([j for j in (0, 2, 4) if j != js[-1]])))
        taus = rng.uniform(0.05, 0.4, 6)
        chains.append(ChainParams(octagon.chain.initial,
                                  tuple(LinkParam(float(t), j) for t, j in zip(taus, js))))
    return chains


def test_angle_margin_matches_sampled_oracle(octagon):
    chains = (_five_link_points(np.random.default_rng(31), 1600)
              + _moved_segments(np.random.default_rng(32), 600)
              + _octagon_variants(np.random.default_rng(33), octagon, 60)
              + _reduce_segments(np.random.default_rng(34), octagon, 400))
    verdicts = []
    for chain in chains:
        try:
            assembled = assemble(chain)
        except GeometryError:
            continue
        margin = angle_margin_of(chain, assembled)
        for samples in (ANGLE_SAMPLES, 512):
            sampled = _sampled_margin(
                oracle_sweep_angles(chain, assembled.states, assembled.reps, samples))
            assert (margin >= -ANGLE_TOL) == (sampled >= -ANGLE_TOL), (margin, sampled)
            assert abs(margin - sampled) <= 1e-12, (margin, sampled)
        verdicts.append(margin >= -ANGLE_TOL)
    # both verdicts are exercised in quantity
    assert verdicts.count(False) > 300 and verdicts.count(True) > 300


def test_angle_margin_charges_a_wrapped_sweep(octagon):
    # four periods sweep 4 pi/3: the angle passes pi inside a link, where
    # atan2 wraps back by a step of more than pi the wrong way; the sampled
    # oracle charges that step, the unwrapped sweep charges the full 4 pi/3
    chain = _octagon_periods(octagon, 4)
    assert abs(angle_margin_of(chain) - (SIXTH_TURN - 4.0 * math.pi / 3.0)) < 1e-12
    sampled = _sampled_margin(oracle_sweep_angles(chain, *oracle_assemble(chain),
                                                  ANGLE_SAMPLES))
    assert sampled < -math.pi


def test_angle_margin_without_links_is_zero(octagon):
    for links in ((), (LinkParam(0.0, 0), LinkParam(0.0, 2))):
        assert angle_margin_of(ChainParams(octagon.chain.initial, links)) == 0.0


def curve_frames(rep: SquareRep, ts: np.ndarray) -> np.ndarray:
    """Canonical frames [p_j p_{j+2}] (u*_j u*_{j+2})^{-1} from link_curves positions."""
    p = link_curves(rep, ts)[:, 0]
    return (np.stack((p[rep.j], p[(rep.j + 2) % 6]), axis=-1)
            @ np.reshape(_STANDARD_INVERSE[rep.j], (2, 2)))


# The verify rows' link-end margins against the sampled rows they replaced.

def _sampled_link_margins(assembled, samples: int):
    """Least star margin, determinant and hyperbola wedge(v, acc), and the
    ranks, over ``samples`` parameters per link."""
    rows = _star_rows(assembled, samples)
    bends, ranks = [], []
    for rep in assembled.reps:
        if rep.tau == 0.0:
            continue
        # link_multicurve's samples as one array: curve, order, sample, (x, y)
        curves = link_curves(rep, np.linspace(rep.t0, t_end(rep), samples))
        v, acc = curves[[rep.j, (rep.j + 2) % 6, (rep.j + 4) % 6]][:, 1:].transpose(1, 0, 2, 3)
        bend = v[..., 0] * acc[..., 1] - v[..., 1] * acc[..., 0]
        bends.append(float(bend[0].min()))
        ranks.append(int((bend > 0.0).all(axis=1).sum()))
    return float(rows[:, :2].min()), float(rows[:, 2].min()), min(bends), ranks


def test_link_end_margins_match_sampled_rows(octagon):
    chains = (_five_link_points(np.random.default_rng(31), 400)
              + _moved_segments(np.random.default_rng(32), 300)
              + _octagon_variants(np.random.default_rng(33), octagon, 30)
              + _reduce_segments(np.random.default_rng(34), octagon, 100))
    links = 0
    for chain in chains:
        try:
            assembled = assemble(chain)
        except GeometryError:
            continue
        reps = [rep for rep in assembled.reps if rep.tau != 0.0]
        if not reps:
            continue
        assert _link_end_margins(reps) == _sampled_link_margins(assembled, 257)
        links += len(reps)
    assert links > 1500


@pytest.mark.parametrize("count", [1, 2, 9])
def test_frame_grid_matches_oracle(octagon, count):
    for rep in octagon.assembled.reps:
        ts = np.linspace(rep.t0, t_end(rep), count)
        assert np.array_equal(curve_frames(rep, ts), _oracle_frame_grid(rep, ts))
        assert np.array_equal(curve_frames(rep, ts), _frame_grids((rep,), ts[None, :])[0])


def _stacked_chain_path(chain: ChainParams, per_link: int):
    """chain_path's grid and frame entries, from the stacked pass."""
    reps, ts, rel = stacked_relative_frames(chain, assemble(chain), per_link)
    grid, frames = [], []
    for pos, (rep, row, mats) in enumerate(zip(reps, ts.tolist(), rel.tolist())):
        start = 1 if pos > 0 else 0
        t0, t1 = rep.t0, t_end(rep)
        grid.extend(pos + (t - t0) / (t1 - t0) for t in row[start:])
        frames.extend(FrameMatrix(*m[0], *m[1]).entries() for m in mats[start:])
    return grid, frames


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_chain_path_matches_stacked_pass(octagon):
    rng = np.random.default_rng(44)
    for i in range(24):
        base = (octagon.chain if i % 2 == 0
                else split_octagon_period(octagon, float(rng.uniform(0.05, 0.5))))
        chain = ChainParams(transform_state(random_frame(rng), base.initial), base.links)
        for per_link in (8, 33, int(rng.integers(34, 301))):
            path = chain_path(chain, per_link)
            grid, frames = _stacked_chain_path(chain, per_link)
            assert _hex(path.grid) == _hex(grid)
            assert ([_hex(f.ravel()) for f in path.frames]
                    == [_hex(entries) for entries in frames])


def test_frame_at_and_link_map_match_oracle(octagon):
    for state, rep in zip(octagon.assembled.states, octagon.assembled.reps):
        for t in np.linspace(rep.t0, t_end(rep), 5):
            t = float(t)
            expected = LinkState(_oracle_frame(rep, t),
                                 ProjectiveTangent.from_tangent(_oracle_tangent(rep, t)))
            assert frame_at(rep, t) == expected
        assert link_map(state, rep) == state.frame.compose(_oracle_frame(rep, rep.t0).inverse())


# Object-path oracle of the curve sampler.

def _oracle_base_samples(rep: SquareRep, t: float):
    """Position, velocity, acceleration of the three canonical even curves."""
    a, k = rep.a, rep.k
    s = (1.0 - k) / t
    ds = -(1.0 - k) / (t * t)
    dds = 2.0 * (1.0 - k) / (t * t * t)
    hyp = (
        PlaneVector(a * (-1.0 - s), a * (-1.0 - t)),
        PlaneVector(-a * ds, -a),
        PlaneVector(-a * dds, 0.0),
    )
    line_x = (
        PlaneVector(a, a * t),
        PlaneVector(0.0, a),
        PlaneVector(0.0, 0.0),
    )
    line_y = (
        PlaneVector(a * s, a),
        PlaneVector(a * ds, 0.0),
        PlaneVector(a * dds, 0.0),
    )
    return hyp, line_x, line_y


class OracleSample(NamedTuple):
    """One sample of one curve: position, velocity, acceleration."""

    position: PlaneVector
    velocity: PlaneVector
    acceleration: PlaneVector


def oracle_curve_samples(rep: SquareRep, t: float) -> list[OracleSample]:
    hyp, line_x, line_y = _oracle_base_samples(rep, t)
    by_residue = {0: hyp, 2: line_x, 4: line_y}
    samples = []
    for m in range(6):
        r = (m - rep.j) % 6
        if r in by_residue:
            pos, vel, acc = by_residue[r]
        else:
            pos, vel, acc = by_residue[(r + 3) % 6]
            pos, vel, acc = -pos, -vel, -acc
        samples.append(OracleSample(pos, vel, acc))
    return samples


def oracle_link_multicurve(rep: SquareRep, samples: int, g: FrameMatrix | None):
    curves = [[] for _ in range(6)]
    for t in np.linspace(rep.t0, t_end(rep), max(samples, 2)):
        for m, s in enumerate(oracle_curve_samples(rep, float(t))):
            if g is not None:
                s = OracleSample(*(g.apply(v) for v in s))
            curves[m].append(s)
    return curves


def oracle_curve_points(rep: SquareRep, ts: np.ndarray, m: int) -> np.ndarray:
    """The array sampler of positions that the boundary polyline used."""
    a, k = rep.a, rep.k
    t = np.asarray(ts, dtype=float)
    s = (1.0 - k) / t
    r = (m - rep.j) % 6
    sign = 1.0
    if r % 2 == 1:
        r = (r + 3) % 6
        sign = -1.0
    out = np.empty((t.size, 2))
    if r == 0:
        out[:, 0] = a * (-1.0 - s)
        out[:, 1] = a * (-1.0 - t)
    elif r == 2:
        out[:, 0] = a
        out[:, 1] = a * t
    else:
        out[:, 0] = a * s
        out[:, 1] = a
    return sign * out


def oracle_boundary_points(assembled, per_link: int) -> np.ndarray:
    coords = []
    for m in range(6):
        for state, rep in zip(assembled.states, assembled.reps):
            if rep.tau == 0.0:
                continue
            g = link_map(state, rep)
            g_mat = np.array([[g.alpha, g.beta], [g.gamma, g.delta]])
            ts = np.linspace(rep.t0, t_end(rep), per_link, endpoint=False)
            coords.append(oracle_curve_points(rep, ts, m) @ g_mat.T)
    return np.concatenate(coords)


def _oracle_array(curves) -> np.ndarray:
    """Oracle samples as link_curves' layout (6, 3, n, 2)."""
    return np.array([[[[v.x, v.y] for v in s] for s in curve]
                     for curve in curves]).transpose(0, 2, 1, 3)


def _sampler_reps(rng, count: int):
    """Seeded random links, the same number at each hyperbolic index."""
    reps = []
    for i in range(count):
        rep = random_square_rep(rng)
        reps.append(SquareRep(rep.a, rep.t0, rep.tau, (0, 2, 4)[i % 3]))
    return reps


def test_link_curves_match_oracle():
    rng = np.random.default_rng(41)
    for rep in _sampler_reps(rng, 510):
        # both link endpoints plus interior parameters
        ts = np.concatenate((np.linspace(rep.t0, t_end(rep), int(rng.integers(2, 9))),
                             rng.uniform(rep.t0, t_end(rep), 3)))
        expected = np.array([
            [[[v.x, v.y] for v in (s.position, s.velocity, s.acceleration)]
             for s in oracle_curve_samples(rep, float(t))]
            for t in ts
        ])  # (n, 6, 3, 2)
        assert link_curves(rep, ts).tobytes() == expected.transpose(1, 2, 0, 3).tobytes()


def test_link_multicurve_matches_oracle():
    rng = np.random.default_rng(42)
    for rep in _sampler_reps(rng, 510):
        samples = int(rng.choice((2, 4, 16)))
        moved = transform_state(random_frame(rng), frame_at(rep, rep.t0))
        for g in (None, link_map(moved, rep)):
            # bytes, so -0.0 differs from 0.0
            assert (link_multicurve(rep, samples, g).tobytes()
                    == _oracle_array(oracle_link_multicurve(rep, samples, g)).tobytes())


def test_boundary_polyline_matches_oracle(octagon):
    rng = np.random.default_rng(43)
    moved = ChainParams(transform_state(random_frame(rng), octagon.chain.initial),
                        octagon.chain.links)
    for chain in (octagon.chain, moved, split_octagon_period(octagon)):
        dom = from_chain(chain)
        for per_link in (1, 5, 64):
            pts = boundary_polyline(dom, per_link).points
            assert pts.tobytes() == oracle_boundary_points(dom.assembled, per_link).tobytes()


@pytest.mark.parametrize("bad", [0.5, -1.0, math.nan])
def test_sampler_rejects_parameters_outside_link(octagon, bad):
    rep = octagon.assembled.reps[0]
    inside = np.linspace(rep.t0, t_end(rep), 4)
    for ts in ([bad], np.append(inside, bad), np.insert(inside, 2, bad)):
        with pytest.raises(ParameterOutOfRange, match="outside link range"):
            link_curves(rep, ts)
    with pytest.raises(ParameterOutOfRange, match="outside link range"):
        frame_at(rep, bad)
