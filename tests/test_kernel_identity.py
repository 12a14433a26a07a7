"""The scalar link kernel, the frame path, the angle margin, the verify link
rows, the link sampler and the five-link point against object-path, sampled
and numpy-form oracles.

The oracles below are the frame-object implementations of ``propagate`` and
of the per-link sweep-angle sampling: every intermediate frame is a
``FrameMatrix`` (so the determinant rule runs at each step) and every link
is sampled on its own.  The library must agree with them exactly, on
success (states, square representations, sampled sweep angles) and on
failure (error class, failing link, message).  The angle margin, read from
link-end states, is held to the margins of the sampled oracle sweep at 64
and 512 samples per link.  ``chain_path`` is held bit for bit to an earlier
stacked relative-frame pass, and the verify rows read at link ends to the
same rows over 257 samples per link.
The curve sampler is held to the scalar 2-vector sampler it replaced, one
parameter at a time, bit for bit, and the array ``apply`` and ``wedge`` to
the scalar formulas of that 2-vector.  A five-link point (the endpoint
equations, ``point``, ``jacobian``) and the solver steps on it (``_qp``,
``_step``) are held byte for byte to the numpy forms they were first
written in.  The rendered outputs (``boundary_polyline``, ``star_profile``,
``chain_path``, ``export_svg``), which sample all links in one array pass,
are held byte for byte to the per-link bodies they replaced, and their
parameter grid to one ``np.linspace`` per link.
"""
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from hexameral.chain import (
    _TARGET_TURN,
    ANGLE_TOL,
    SIXTH_TURN,
    ChainParams,
    LinkParam,
    _endpoint_equations,
    _endpoint_jacobian,
    angle_margin_of,
    assemble,
    assemble_jacobian,
    end_target,
)
from hexameral.domain import (
    _hexagon_vertices,
    _link_end_margins,
    _star_rows,
    boundary_polyline,
    export_svg,
    from_chain,
    initial_multipoint,
    star_profile,
)
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
    _circle_tangent_at,
    _link_grid,
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
from hexameral.optimize import (
    DEFAULT_BOUNDS,
    QP_CHANGES,
    _qp,
    _step,
    decode_five_link,
    five_link_problem,
    octagon_embedding,
)
from hexameral.sl2 import (
    SQRT3,
    FrameMatrix,
    ProjectiveTangent,
    TangentElement,
    _inverse,
    _product,
    _sphere_basis,
    _unit_det,
    adjoint,
    star_check,
    wedge,
)
from hexameral.variational import MIN_GRID, FramePath, chain_path

from conftest import random_frame, random_square_rep, random_star_tangent, split_octagon_period

# Samples per link of the sampled sweep the angle check used to run.
ANGLE_SAMPLES = 64


# The oracles' plane vectors: scalar pairs with the formulas the library
# used before plane points became arrays.

@dataclass(frozen=True, slots=True)
class Vec:
    x: float
    y: float

    def __neg__(self) -> "Vec":
        return Vec(-self.x, -self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


def vec_wedge(u: Vec, v: Vec) -> float:
    return u.x * v.y - u.y * v.x


def frame_apply(g: FrameMatrix, v: Vec) -> Vec:
    return Vec(g.alpha * v.x + g.beta * v.y, g.gamma * v.x + g.delta * v.y)


def tangent_apply(x: TangentElement, v: Vec) -> Vec:
    return Vec(x.a * v.x + x.b * v.y, x.c * v.x - x.a * v.y)


def standard_vec(j: int) -> Vec:
    return Vec(*STANDARD[j].tolist())


def test_array_apply_and_wedge_match_scalar_formulas(rng):
    for _ in range(200):
        g, x = random_frame(rng), TangentElement(*rng.uniform(-2.0, 2.0, 3).tolist())
        pts = rng.uniform(-5.0, 5.0, (7, 2))
        vecs = [Vec(*p) for p in pts.tolist()]
        # bytes, so -0.0 differs from 0.0
        for act, oracle in ((g.apply, lambda v: frame_apply(g, v)),
                            (x.apply, lambda v: tangent_apply(x, v))):
            expected = np.array([[w.x, w.y] for w in map(oracle, vecs)])
            assert act(pts).tobytes() == expected.tobytes()
            assert act(pts[0]).tobytes() == expected[0].tobytes()
        wedges = np.array([vec_wedge(u, v) for u, v in zip(vecs, vecs[1:] + vecs[:1])])
        assert wedge(pts, np.roll(pts, -1, axis=0)).tobytes() == wedges.tobytes()


# Object-path oracle of one link.

def _oracle_points(rep: SquareRep, t: float):
    """Positions and velocities of the hyperbola and the x = a line."""
    a, k = rep.a, rep.k
    s = (1.0 - k) / t
    ds = -(1.0 - k) / (t * t)
    hyp = (Vec(a * (-1.0 - s), a * (-1.0 - t)), Vec(-a * ds, -a))
    line_x = (Vec(a, a * t), Vec(0.0, a))
    return hyp, line_x


def _oracle_standard_inverse(j: int):
    p1, p2 = standard_vec(j), standard_vec(j + 2)
    w = vec_wedge(p1, p2)
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
    w = vec_wedge(p1, p2)
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
    p2 = frame_apply(state.frame, standard_vec(j + 2))
    p4 = frame_apply(state.frame, standard_vec(j + 4))
    d2 = tangent_apply(x, p2)
    d4 = tangent_apply(x, p4)
    w = vec_wedge(d2, d4)
    scale = d2.norm() * d4.norm()
    if scale == 0.0 or abs(w) < VELOCITY_TOL * scale:
        raise DegenerateVelocity("edge velocities are linearly dependent")
    if w < 0.0:
        raise NotRankOneCompatible("edge velocities wind clockwise; star conditions fail")
    if not star_check(adjoint(state.frame.inverse(), x)):
        raise NotRankOneCompatible("state tangent violates the star inequalities")
    h0 = FrameMatrix(d2.y / w, -d2.x / w, d4.y, -d4.x)
    q2 = frame_apply(h0, p2)
    q4 = frame_apply(h0, p4)
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
    u0 = STANDARD[0]
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
        _unit_det(*_product(inv0, _unit_det(*_link_lead(state.frame.entries(), rep.a, rep.k,
                                             rep.t0, rep.j))))
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
    u0 = STANDARD[0]
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
    rows = _star_rows(assembled.reps, samples)
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
        Vec(a * (-1.0 - s), a * (-1.0 - t)),
        Vec(-a * ds, -a),
        Vec(-a * dds, 0.0),
    )
    line_x = (
        Vec(a, a * t),
        Vec(0.0, a),
        Vec(0.0, 0.0),
    )
    line_y = (
        Vec(a * s, a),
        Vec(a * ds, 0.0),
        Vec(a * dds, 0.0),
    )
    return hyp, line_x, line_y


class OracleSample(NamedTuple):
    """One sample of one curve: position, velocity, acceleration."""

    position: Vec
    velocity: Vec
    acceleration: Vec


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
                s = OracleSample(*(frame_apply(g, v) for v in s))
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


# The five-link point in the numpy forms it was first written in: the
# endpoint equations with np.argmin, np.eye, np.cross, np.outer and matrix
# products by the sl2 basis; the KKT matrix of the QP by np.block; the
# Marquardt step with np.clip, np.linalg.norm and np.array_equal.

_SL2_BASIS = np.array((((1.0, 0.0), (0.0, -1.0)), ((0.0, 1.0), (0.0, 0.0)),
                       ((0.0, 0.0), (1.0, 0.0))))


def _sl2_coordinates(m: np.ndarray) -> np.ndarray:
    return np.stack((0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1], m[..., 1, 0]),
                    axis=-1)


def oracle_endpoint_equations(final: LinkState, target: LinkState):
    g = np.array(_product(_inverse(target.frame.entries()),
                          final.frame.entries())).reshape(2, 2)
    u = np.array(target.tangent.components())
    w = np.array(final.tangent.components())
    basis = np.array(_sphere_basis(*u))
    k = int(np.argmin(np.abs(u)))
    s = math.sqrt(1.0 - u[k] * u[k])
    equations = np.concatenate((_sl2_coordinates(g), basis @ w))
    axis = np.eye(3)[k]
    by_u = (np.array((-(u @ w) * axis - u[k] * w, np.cross(axis, w))) / s
            + np.outer(equations[3:], axis) * (u[k] / (s * s)))
    d_end, d_target = np.zeros((5, 5)), np.zeros((5, 5))
    d_end[:3, :3] = _sl2_coordinates(g @ _SL2_BASIS).T
    d_end[3:, 3:] = basis @ np.array(_sphere_basis(*w)).T
    d_target[:3, :3] = -_sl2_coordinates(_SL2_BASIS @ g).T
    d_target[3:, 3:] = by_u @ basis.T
    return equations, d_end, d_target


def _oracle_derivatives(problem, x, chain, assembled):
    head = problem.start_jacobian(x, chain)
    _, d_state = assemble_jacobian(chain, head, assembled)
    d_target = np.zeros((5, len(x)))
    d_target[:, :head.shape[1]] = np.vstack((_TARGET_TURN @ head[:3], head[3:]))
    return d_state, d_target


def oracle_point(problem, x, chain, assembled):
    """``point`` of a five-link problem at x, whose chain assembles."""
    d_state, d_target = _oracle_derivatives(problem, x, chain, assembled)
    equations, d_end, d_moved = oracle_endpoint_equations(assembled.final, end_target(chain))
    jac = d_end @ d_state[:5]
    jac += d_moved @ d_target
    return (problem.value(d_state[5]), equations, jac)


def oracle_jacobian(problem, x, chain, assembled):
    d_state, d_target = _oracle_derivatives(problem, x, chain, assembled)
    jac = _endpoint_jacobian(*assembled.final.entries()) @ d_state[:5]
    jac -= _endpoint_jacobian(*end_target(chain).entries()) @ d_target
    return jac


def oracle_qp(hess, at, x, lo, hi):
    g, c, a = at.gradient, at.equations, at.equation_jacobian
    n, m = len(x), len(c)
    d = np.zeros(n)
    side = np.where(x <= lo, -1.0, np.where(x >= hi, 1.0, 0.0))
    for _ in range(QP_CHANGES):
        pinned = side != 0.0
        rows = np.vstack((a, -np.eye(n)[pinned]))
        kkt = np.block([[hess, rows.T], [rows, np.zeros((len(rows),) * 2)]])
        solved = np.linalg.lstsq(kkt, np.concatenate((-g, -c, -d[pinned])), rcond=None)[0]
        lam, nu = solved[n:n + m], np.zeros(n)
        nu[pinned] = solved[n + m:]
        move = np.where(pinned, 0.0, solved[:n] - d)
        room = np.full(n, np.inf)
        going = move != 0.0
        room[going] = (np.where(move < 0.0, lo, hi) - x - d)[going] / move[going]
        block = int(np.argmin(room))
        if room[block] < 1.0:
            d += max(room[block], 0.0) * move
            side[block] = math.copysign(1.0, move[block])
            d[block] = (lo if side[block] < 0.0 else hi)[block] - x[block]
            continue
        d += move
        wrong = side * nu > 0.0
        if not wrong.any():
            break
        side[np.argmax(np.where(wrong, np.abs(nu), -1.0))] = 0.0
    return d, lam, nu


def oracle_step(x, jac, r, lo, hi, lam, xtol, rejected):
    grad = jac.T @ r
    free = ~(((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0)))
    normal = jac[:, free].T @ jac[:, free]
    step = np.zeros_like(x)
    try:
        step[free] = np.linalg.solve(normal + lam * np.diag(np.diag(normal)), -grad[free])
    except np.linalg.LinAlgError:
        return x, True, False
    trial = np.clip(x + step, lo, hi)
    stop = bool(np.linalg.norm(trial - x) <= xtol * (xtol + np.linalg.norm(x)))
    return trial, stop, not stop and np.array_equal(trial, rejected)


def _five_link_xs(rng, count: int):
    """Search points that assemble: near the octagon embedding and uniform in
    the box, some with a coordinate on a bound, some whose start tangent (the
    target's) has two tied smallest components, |a| = |b|."""
    problem = five_link_problem()
    lo, hi = problem.box()
    center = octagon_embedding()
    xs = []
    while len(xs) < count:
        kind = len(xs) % 4
        if kind == 0:
            step = rng.normal(size=7)
            x = np.clip(center + 10.0 ** rng.uniform(-4.0, -1.0) * step / np.linalg.norm(step),
                        lo, hi)
        else:
            x = lo + (hi - lo) * rng.uniform(size=7)
        if kind == 2:
            pinned = rng.integers(7)
            x[pinned] = (lo if rng.uniform() < 0.5 else hi)[pinned]
        if kind == 3:
            x[1] = -abs(x[0]) if abs(x[0]) >= 0.01 else x[1]
            x[0] = x[0] if rng.uniform() < 0.5 else -x[0]
        chain, assembled = problem.assembly(x)
        if assembled is not None:
            xs.append((x, chain, assembled))
    return problem, xs


def test_five_link_points_match_numpy_forms():
    rng = np.random.default_rng(61)
    problem, xs = _five_link_xs(rng, 240)
    lo, hi = problem.box()
    pinned = tied = 0
    for n, (x, chain, assembled) in enumerate(xs):
        pinned += bool(np.any((x <= lo) | (x >= hi)))
        u = chain.initial.tangent.components()
        tied += sorted(map(abs, u))[0] == sorted(map(abs, u))[1]
        point = problem.point(problem.evaluate(x, (chain, assembled)))
        for got, want in zip((point.gradient, point.equations, point.equation_jacobian),
                             oracle_point(problem, x, chain, assembled)):
            assert got.tobytes() == want.tobytes()
        jac = problem.jacobian(x, (chain, assembled))
        assert jac.tobytes() == oracle_jacobian(problem, x, chain, assembled).tobytes()
        hess = np.eye(7)
        if n % 2:
            m = rng.normal(size=(7, 7))
            hess = m @ m.T + 0.1 * np.eye(7)
        for got, want in zip(_qp(hess, point, x, lo, hi), oracle_qp(hess, point, x, lo, hi)):
            assert got.tobytes() == want.tobytes()
        r = problem.residuals(x, (chain, assembled))
        for lam, xtol in ((1e-3, 1e-12), (1e-9, 1e-15), (1e3, 1e-2)):
            rejected = np.full(7, np.nan)
            for _ in range(2):  # the second time, the trial is the one rejected
                got = _step(x, jac, r, lo, hi, lam, xtol, rejected)
                want = oracle_step(x, jac, r, lo, hi, lam, xtol, rejected)
                assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
                rejected = got[0]
    assert pinned > 40 and tied > 40


def test_endpoint_equations_match_numpy_forms():
    rng = np.random.default_rng(62)
    frames = [FrameMatrix(1.0, 0.0, 0.0, 1.0), FrameMatrix(0.0, 1.0, -1.0, 0.0),
              FrameMatrix(-1.0, 0.0, 0.0, -1.0), FrameMatrix(-0.0, 2.0, -0.5, 0.0)]
    for _ in range(300):
        frames[4:] = [random_frame(rng), random_frame(rng)]
        tangents = []
        for _ in range(2):
            t = rng.uniform(-1.0, 1.0, 3)
            tie = rng.integers(4)  # ties among the smallest components, and none
            if tie < 3:
                t[(tie + 1) % 3] = t[tie] * rng.choice((1.0, -1.0))
            tangents.append(ProjectiveTangent.from_tangent(TangentElement(*t)))
        for end, aim in ((frames[4], frames[5]), (frames[4], frames[4]),
                         *((f, frames[5]) for f in frames[:4]), (frames[5], frames[0])):
            final, target = LinkState(end, tangents[0]), LinkState(aim, tangents[1])
            for got, want in zip(_endpoint_equations(final, target),
                                 oracle_endpoint_equations(final, target)):
                assert got.tobytes() == want.tobytes()


# The rendered outputs against the per-link bodies they replaced: each link
# sampled on its own np.linspace, mapped by its own products, and each SVG
# point formatted by its own f-string.

def oracle_grid_rows(reps, n: int) -> np.ndarray:
    return np.array([np.linspace(rep.t0, t_end(rep), n) for rep in reps]).reshape(-1, n)


def oracle_polyline_points(dom, per_link: int) -> np.ndarray:
    links = []
    for state, rep in zip(dom.assembled.states, dom.assembled.reps):
        if rep.tau == 0.0:
            continue
        g_mat = np.reshape(link_map(state, rep).entries(), (2, 2))
        ts = np.linspace(rep.t0, t_end(rep), per_link, endpoint=False)
        links.append((link_curves(rep, ts)[:, 0], g_mat))
    return np.concatenate([positions[m] @ g_mat.T for m in range(6)
                           for positions, g_mat in links])


def oracle_star_rows(assembled, per_link: int) -> np.ndarray:
    rows = []
    for rep in assembled.reps:
        if rep.tau != 0.0:
            a, b, c = _circle_tangent_at(rep.a, rep.k, np.linspace(rep.t0, t_end(rep), per_link),
                                         rep.j)
            rows.append(np.stack((c - SQRT3 * abs(a), -(3.0 * b + c), -a * a - b * c), axis=-1))
    return np.concatenate(rows + [np.empty((0, 3))])


def oracle_chain_path(chain: ChainParams, per_link: int) -> FramePath:
    links = sum(tau != 0.0 for tau, _ in chain.links)
    if per_link < 2 or links * (per_link - 1) + 1 < MIN_GRID:
        raise ParameterOutOfRange(f"per_link = {per_link!r}")
    assembled = assemble(chain)
    inv0 = chain.initial.frame.inverse()
    real = [(state, rep) for state, rep in zip(assembled.states, assembled.reps)
            if rep.tau != 0.0]
    grid, frames = [], []
    for pos, (state, rep) in enumerate(real):
        t0, t1 = rep.t0, t_end(rep)
        ts = np.linspace(t0, t1, per_link)
        p = link_curves(rep, ts)[:, 0]
        canonical = (np.stack((p[rep.j], p[(rep.j + 2) % 6]), axis=-1)
                     @ np.reshape(_STANDARD_INVERSE[rep.j], (2, 2)))
        lead = np.reshape(inv0.compose(link_map(state, rep)).entries(), (2, 2))
        start = 1 if pos > 0 else 0
        grid.append(pos + (ts[start:] - t0) / (t1 - t0))
        frames.append((lead @ canonical)[start:])
    return FramePath(np.concatenate(grid), np.concatenate(frames))


def oracle_export_svg(dom, per_link: int) -> str:
    points = oracle_polyline_points(dom, per_link)
    markers = initial_multipoint(dom).points
    hexagon = _hexagon_vertices(markers, dom.chain.initial.tangent.rep.apply(markers))
    all_pts = np.concatenate((points, hexagon))
    lo_x, lo_y = all_pts.min(axis=0).tolist()
    hi_x, hi_y = all_pts.max(axis=0).tolist()
    span = max(hi_x - lo_x, hi_y - lo_y)
    margin = 0.05 * span
    scale = 1000.0 / (span + 2.0 * margin)

    def place(pts):
        px = (pts[:, 0] - lo_x + margin) * scale
        py = 1000.0 - (pts[:, 1] - lo_y + margin) * scale
        return list(zip(px.tolist(), py.tolist()))

    def closed_path(pts) -> str:
        moves = [f"{'L' if i else 'M'} {px:.3f} {py:.3f}" for i, (px, py) in enumerate(place(pts))]
        return " ".join(moves + ["Z"])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 1000 1000">',
        f'  <path d="{closed_path(hexagon)}" fill="none" stroke="#999999" stroke-width="2"/>',
        f'  <path d="{closed_path(points)}" fill="none" stroke="#000000" stroke-width="3"/>',
        *(f'  <circle cx="{px:.3f}" cy="{py:.3f}" r="6" fill="#c43b3b"/>'
          for px, py in place(markers)),
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


RENDER_PER_LINK = (1, 2, 3, 64, 97)


def _render_chains(octagon):
    """The octagon, 50 seeded SL2-moved octagons and three split periods, whose
    tau = 0 pad link sits beside links at j = 2 and 4."""
    rng = np.random.default_rng(45)
    moved = [ChainParams(transform_state(random_frame(rng), octagon.chain.initial),
                         octagon.chain.links) for _ in range(50)]
    splits = [split_octagon_period(octagon, ta) for ta in (0.1, 0.3, 0.5)]
    return [octagon.chain, *moved, *splits]


def _path_outcome(chain: ChainParams, per_link: int, build):
    try:
        path = build(chain, per_link)
    except ParameterOutOfRange:
        return "too few grid points"
    return path.grid.tobytes(), path.frames.tobytes()


def test_rendered_outputs_match_per_link_bodies(octagon):
    for chain in _render_chains(octagon):
        dom = from_chain(chain)
        links = sum(tau != 0.0 for tau, _ in chain.links)
        # the fewest samples per link that give a frame path MIN_GRID points
        least = -(-(MIN_GRID - 1) // links) + 1
        for per_link in RENDER_PER_LINK:
            assert (boundary_polyline(dom, per_link).points.tobytes()
                    == oracle_polyline_points(dom, per_link).tobytes())
            assert (star_profile(dom, per_link).tobytes()
                    == oracle_star_rows(dom.assembled, per_link).tobytes())
            assert export_svg(dom, per_link) == oracle_export_svg(dom, per_link)
        for per_link in sorted({least, *RENDER_PER_LINK[1:]}):
            assert (_path_outcome(chain, per_link, chain_path)
                    == _path_outcome(chain, per_link, oracle_chain_path))
        assert _path_outcome(chain, least, chain_path) != "too few grid points"
        assert _path_outcome(chain, least - 1, chain_path) == "too few grid points"


@pytest.mark.parametrize("n", RENDER_PER_LINK)
def test_link_grid_rows_are_linspace_rows(octagon, n):
    # a link so short that its step is zero, beside normal links: a stacked
    # np.linspace would move the normal rows' interior bits
    links = (LinkParam(0.3, 0), LinkParam(1e-300, 2), LinkParam(0.4, 4))
    reps = list(assemble(ChainParams(octagon.chain.initial, links)).reps)
    assert t_end(reps[1]) == reps[1].t0
    for rows in (reps, reps[::2], reps[1:2]):
        a, k, j, ts = _link_grid(rows, n)
        assert ts.tobytes() == oracle_grid_rows(rows, n).tobytes()
        assert (a.tolist(), k.tolist(), j.tolist()) == (
            [r.a for r in rows], [r.k for r in rows], [r.j for r in rows])
        # np.linspace without its end is the grid one sample longer, less its end
        assert _link_grid(rows, n + 1)[3][:, :-1].tobytes() == np.array(
            [np.linspace(r.t0, t_end(r), n, endpoint=False) for r in rows]).tobytes()
