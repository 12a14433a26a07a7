"""First derivatives of the link kernel and of the endpoint problems.

Two oracles, neither of which shares code with the derivative path:

* Richardson-extrapolated difference quotients of ``propagate``, of
  ``EndpointProblem.residuals`` and of the five equations and the value
  ``EndpointProblem.point`` reads, on the seeded chains of
  ``test_kernel_identity``, for both decoders;
* an exact oracle from sympy: the derivatives in a and t of the canonical
  frame (``_square_frame``, built on ``_square_points``), of
  ``_square_tangent`` and of ``link_area``'s closed form, together with the
  SL2 orbit directions, which every link carries along unchanged.

A state moves in five local coordinates: its frame F as F exp(xi) and its
unit tangent along the two directions ``_sphere_basis`` gives at it.
"""
import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import sympy

from hexameral.chain import ChainParams, assemble, assemble_jacobian
from hexameral.errors import FrameDeterminantError, GeometryError
from hexameral.hyperlink import (
    LinkState,
    SquareRep,
    _square_frame,
    _square_tangent,
    link_area,
    link_map,
    propagate,
)
from hexameral.optimize import (
    FAIL_RESIDUAL,
    SEGMENT_BOUNDS,
    TAU_HI,
    EndpointProblem,
    five_link_problem,
    octagon_embedding,
)
from hexameral.sl2 import ProjectiveTangent, TangentElement, _sphere_basis, exp_tangent

from conftest import split_octagon_period
from test_kernel_identity import _five_link_points, _moved_segments


def propagate_jacobian(state: LinkState, tau: float, j: int):
    """propagate, plus the first derivatives (6 x 6) of its out state and of
    link_area: columns the in state's five coordinates, then tau; rows the
    out state's five, then link_area.  This is assemble_jacobian on the
    one-link chain, whose start moves by the identity."""
    out, rep = propagate(state, tau, j)
    _, jac = assemble_jacobian(ChainParams(state, ((tau, j),)), np.eye(5))
    return out, rep, jac


# Richardson extrapolation starts from difference quotients at this step.
H = 1e-2


# Local coordinates.

def _moved(state: LinkState, d, h: float) -> LinkState:
    """The state moved by h along the local direction d (five entries)."""
    frame = state.frame.compose(exp_tangent(TangentElement(*d[:3]), h))
    x = np.array(state.tangent.components())
    e1, e2 = np.array(_sphere_basis(*x))
    tangent = x + h * (d[3] * e1 + d[4] * e2)
    return LinkState(frame, ProjectiveTangent.from_tangent(TangentElement(*tangent)))


def _coordinates(base: LinkState, state: LinkState) -> np.ndarray:
    """First-order local coordinates of ``state`` around ``base``."""
    m = base.frame.inverse().compose(state.frame)
    x0 = np.array(base.tangent.components())
    step = np.array(state.tangent.components()) - x0
    return np.concatenate(([0.5 * (m.alpha - m.delta), m.beta, m.gamma],
                           np.array(_sphere_basis(*x0)) @ step))


def _richardson(f, h: float, one_sided: bool = False, levels: int = 8):
    """Derivative of f at 0 by Richardson extrapolation (Ridders' tableau).

    Difference quotients at h, h/2, h/4, ... are extrapolated to step zero
    level by level; the entry that changed least from its neighbours is the
    value, and that change is its error estimate.
    """
    orders = (lambda i: i + 1) if one_sided else (lambda i: 2 * (i + 1))
    f0 = f(0.0) if one_sided else None
    best, error = None, np.inf
    rows = []
    for n in range(levels):
        s = h / 2.0 ** n
        quotient = (f(s) - f0) / s if one_sided else (f(s) - f(-s)) / (2.0 * s)
        row = [quotient]
        for i, coarse in enumerate(rows[-1] if rows else []):
            factor = 2.0 ** orders(i)
            row.append((factor * row[i] - coarse) / (factor - 1.0))
            change = max(np.abs(row[i + 1] - row[i]).max(), np.abs(row[i + 1] - coarse).max())
            if change < error:
                best, error = row[i + 1], change
        rows.append(row)
        if len(rows) > 2 and np.abs(row[-1] - rows[-2][-1]).max() > 2.0 * error:
            break  # rounding has taken over
    return best, error


def _widening(reps) -> float:
    """How much rounding the derivatives of these links may carry, over that
    of a link well inside its domain.

    A rep (a, t0) recovered in floats is off by rounding; near 1 - k = 0,
    t0 = -1 or t0 = k - 1 the derivatives move by about that error over the
    distance to the edge, in the library and in both oracles alike.
    """
    edge = min(min(1.0 - r.k, 1.0 + r.t0, r.k - 1.0 - r.t0) for r in reps)
    return 1.0 / min(1.0, 10.0 * edge)


def _assert_matches_richardson(jac, columns, reps):
    """``columns`` holds (index, value, estimate); every column of jac must
    agree with its value to the estimate, above a floor for rounding."""
    floor = 1e-10 * _widening(reps)
    for c, value, estimate in columns:
        gap = np.abs(jac[:, c] - value)
        assert np.all(gap <= 4.0 * estimate + floor * (1.0 + np.abs(value))), (c, gap, estimate)


# Seeded links and chains.

def _chains():
    return (_five_link_points(np.random.default_rng(31), 120)
            + _moved_segments(np.random.default_rng(32), 120))


def _assembled_links(chains):
    """(state, tau, j) of every link of every chain that assembles."""
    for chain in chains:
        try:
            assembled = assemble(chain)
        except GeometryError:
            continue
        for state, (tau, j) in zip(assembled.states, chain.links):
            yield state, tau, j


def _link_oracle(state, tau, j):
    """Richardson columns of propagate's out state and link_area, or None
    where a perturbed state leaves the kernel's domain."""
    out, rep = propagate(state, tau, j)

    def read(moved_state, moved_tau):
        o, r = propagate(moved_state, moved_tau, j)
        return np.append(_coordinates(out, o), link_area(r))

    columns = []
    try:
        for c in range(5):
            d = np.eye(5)[c]
            columns.append((c, *_richardson(lambda h: read(_moved(state, d, h), tau), H)))
        if tau + H < 1.0:
            columns.append((5, *_richardson(lambda h: read(state, tau + h), H,
                                            one_sided=tau < H)))
    except GeometryError:
        return None
    return columns


def test_link_jacobian_matches_richardson():
    checked = {0: 0, 2: 0, 4: 0}
    for state, tau, j in _assembled_links(_chains()):
        if checked[j] >= 40:
            continue
        columns = _link_oracle(state, tau, j)
        if columns is None:
            continue
        _, rep, jac = propagate_jacobian(state, tau, j)
        _assert_matches_richardson(jac, columns, [rep])
        checked[j] += 1
    assert min(checked.values()) == 40, checked


def test_degenerate_link_is_the_identity_on_the_state(octagon):
    # the octagon's fourth link has tau = 0: the out state is the in state
    assembled = assemble(octagon.chain)
    state = assembled.states[1]
    _, rep, jac = propagate_jacobian(state, 0.0, 2)
    assert np.abs(jac[:5, :5] - np.eye(5)).max() < 1e-13
    assert np.all(jac[5, :5] == 0.0)
    _assert_matches_richardson(jac, _link_oracle(state, 0.0, 2), [rep])


# Endpoint problems: both decoders.

def _segment_problem(chain: ChainParams, target: LinkState) -> EndpointProblem:
    pattern = tuple(j for _, j in chain.links)

    def decode(taus) -> ChainParams:
        return ChainParams(chain.initial, tuple(zip(taus, pattern)))
    return EndpointProblem(decode, lambda area: area, 0.0,
                           ((0.0, TAU_HI),) * len(pattern), target)


def _five_link_x(chain: ChainParams) -> np.ndarray:
    a, b, _ = chain.initial.tangent.components()
    return np.array([a, b] + [tau for tau, _ in chain.links])


def _problem_cases():
    """(problem, x) for five-link points and for open segments, both assembling."""
    five = five_link_problem()
    for chain in _five_link_points(np.random.default_rng(31), 120):
        x = _five_link_x(chain)
        if np.all(five.residuals(x) != FAIL_RESIDUAL):
            yield "five", five, x
    for chain in _moved_segments(np.random.default_rng(32), 120):
        try:
            target = assemble(chain).final
        except GeometryError:
            continue
        yield "segment", _segment_problem(chain, target), np.array(
            [tau for tau, _ in chain.links])
    yield "five", five, octagon_embedding()


def _residual_rows(problem: EndpointProblem):
    def read(x):
        r = problem.residuals(x)
        if np.all(r == FAIL_RESIDUAL):
            raise GeometryError("left the domain")
        return r
    return read


def _equation_rows(problem: EndpointProblem):
    """The five endpoint equations over the value, as ``point`` reads them."""
    def read(x):
        point = problem.point(problem.evaluate(x))
        if point.report is None:
            raise GeometryError("left the domain")
        return np.append(point.equations, point.value)
    return read


def _problem_oracle(problem: EndpointProblem, x: np.ndarray, read=None):
    """Richardson columns of ``read`` (the seven residuals by default), or
    None where a step leaves the kernel's domain."""
    read = read or _residual_rows(problem)
    lo, hi = problem.box()
    columns = []
    for c in range(len(x)):
        step = np.eye(len(x))[c]
        if x[c] + H > hi[c]:
            continue

        def f(h):
            return read(x + h * step)
        try:
            columns.append((c, *_richardson(f, H, one_sided=x[c] - H < lo[c])))
        except GeometryError:
            return None
    return columns


def test_endpoint_jacobian_matches_richardson():
    checked = {"five": 0, "segment": 0}
    for kind, problem, x in _problem_cases():
        columns = _problem_oracle(problem, x)
        if columns is None:
            continue
        _assert_matches_richardson(problem.jacobian(x), columns,
                                   assemble(problem.decode(x)).reps)
        checked[kind] += 1
    assert checked["five"] >= 30 and checked["segment"] >= 30, checked


def test_equation_jacobian_and_gradient_match_richardson():
    checked = {"five": 0, "segment": 0}
    for kind, problem, x in _problem_cases():
        if checked[kind] >= 40:
            continue
        columns = _problem_oracle(problem, x, _equation_rows(problem))
        if columns is None:
            continue
        point = problem.point(problem.evaluate(x))
        _assert_matches_richardson(np.vstack((point.equation_jacobian, point.gradient)),
                                   columns, assemble(problem.decode(x)).reps)
        checked[kind] += 1
    assert checked == {"five": 40, "segment": 40}, checked


def test_held_assembly_gives_identical_derivatives():
    """Residuals, Jacobian and ``point`` from an assembly the caller holds, as
    the searches share one between them, match fresh ones bit for bit; so
    does ``assemble_jacobian`` handed that assembly."""
    checked = {"five": 0, "segment": 0}
    for kind, problem, x in _problem_cases():
        held = problem.assembly(x)
        chain, assembled = held
        assert problem.residuals(x, held).tobytes() == problem.residuals(x).tobytes()
        assert problem.jacobian(x, held).tobytes() == problem.jacobian(x).tobytes()
        point = problem.point(problem.evaluate(x, held))
        fresh_point = problem.point(problem.evaluate(x))
        assert (point.value, point.report) == (fresh_point.value, fresh_point.report)
        for name in ("residuals", "gradient", "equations", "equation_jacobian"):
            assert getattr(point, name).tobytes() == getattr(fresh_point, name).tobytes()
        head = problem.start_jacobian(x, chain)
        reused, d_reused = assemble_jacobian(chain, head, assembled)
        fresh, d_fresh = assemble_jacobian(chain, head)
        assert reused is assembled
        assert fresh.states == assembled.states and fresh.reps == assembled.reps
        assert d_reused.tobytes() == d_fresh.tobytes()
        checked[kind] += 1
    assert checked["five"] >= 30 and checked["segment"] >= 30, checked
    five = five_link_problem()
    for chain in _five_link_points(np.random.default_rng(31), 60):
        x = _five_link_x(chain)
        held = five.assembly(x)
        if held[1] is None:
            assert np.all(five.residuals(x, held) == FAIL_RESIDUAL)
            assert np.all(five.jacobian(x, held) == 0.0)


def test_jacobian_fails_like_propagate():
    """Same error class, link index and message at link and chain level;
    a zero Jacobian where the residuals report an assembly failure."""
    failures = 0
    for chain in _chains():
        try:
            assemble(chain)
        except GeometryError as exc:
            expected = (type(exc), exc.link_index, str(exc))
        else:
            continue
        with pytest.raises(GeometryError) as caught:
            assemble_jacobian(chain, np.zeros((5, 0)))
        assert (type(caught.value), caught.value.link_index, str(caught.value)) == expected
        # the failing link alone
        i = expected[1]
        state = assemble(ChainParams(chain.initial, chain.links[:i])).final
        tau, j = chain.links[i]
        with pytest.raises(GeometryError) as plain:
            propagate(state, tau, j)
        with pytest.raises(GeometryError) as derived:
            propagate_jacobian(state, tau, j)
        assert (type(derived.value), derived.value.link_index, str(derived.value)) == (
            type(plain.value), plain.value.link_index, str(plain.value))
        failures += 1
    assert failures > 50
    five = five_link_problem()
    for chain in _five_link_points(np.random.default_rng(31), 60):
        x = _five_link_x(chain)
        if np.all(five.residuals(x) == FAIL_RESIDUAL):
            assert np.all(five.jacobian(x) == 0.0)


def test_empty_link_meets_the_determinant_rule(octagon):
    """An empty link whose start frame C(t0) fails the determinant rule
    fails to assemble, as its derivative does: here the last link recovers
    a = 51771.5, t0 = -1 + 2.5e-10, where det C(t0) reads 0.99999985."""
    six = split_octagon_period(octagon, 0.10562745551078648)
    pattern = (4, 2, 0, 4, 0)
    problem = EndpointProblem(
        lambda taus: ChainParams(six.initial, tuple(zip(taus, pattern))),
        lambda area: area, 0.0, SEGMENT_BOUNDS, assemble(six).final)
    x = np.array((0.41707547460919453, 0.9245758772946722, 0.999999, 0.999999, 0.0))
    chain = problem.decode(x)
    with pytest.raises(FrameDeterminantError) as plain:
        assemble(chain)
    with pytest.raises(FrameDeterminantError) as derived:
        assemble_jacobian(chain, np.zeros((5, 0)))
    assert plain.value.link_index == derived.value.link_index == 4
    assert np.all(problem.residuals(x) == FAIL_RESIDUAL)
    assert np.all(problem.jacobian(x) == 0.0)
    assert problem.point(problem.evaluate(x)).report is None


# The exact oracle.

_A, _T, _T0, _TAU = sympy.symbols("a t t0 tau")
_K = sympy.sqrt(3) / (2 * _A ** 2)
_T1 = _T0 + _TAU * (_K - 1 - _T0)
# link_area's closed form
_AREA = _A ** 2 * ((1 - _K) * (1 / _T0 - 1 / _T1) + (_T1 - _T0)
                   - (1 - _K) * sympy.log(_T0 / _T1))


@lru_cache(maxsize=None)
def _canonical(j: int):
    """C(a, t), X(a, t) and their a and t derivatives, from the library's own
    arithmetic run on sympy symbols, as a function of (a, t)."""
    frame = sympy.Matrix(2, 2, list(_square_frame(_A, _K, _T, j)))
    x = _square_tangent(_A, _K, _T)
    tangent = sympy.Matrix([[x[0], x[1]], [x[2], -x[0]]])
    parts = [frame, frame.diff(_A), frame.diff(_T), tangent, tangent.diff(_A), tangent.diff(_T)]
    return sympy.lambdify((_A, _T), parts, "mpmath")


@lru_cache(maxsize=None)
def _area_gradient():
    return sympy.lambdify((_A, _T0, _TAU), [_AREA.diff(v) for v in (_A, _T0, _TAU)], "mpmath")


def _floats(m) -> np.ndarray:
    return np.array(m.tolist(), dtype=float)


def _exact_parts(a: float, t: float, j: int):
    with mpmath.workdps(40):
        return [_floats(m) for m in _canonical(j)(mpmath.mpf(a), mpmath.mpf(t))]


def _xi(m: np.ndarray) -> np.ndarray:
    """sl2 coordinates of a traceless 2x2 matrix."""
    return np.array([0.5 * (m[0, 0] - m[1, 1]), m[0, 1], m[1, 0]])


def _tangent_matrix(state: LinkState) -> np.ndarray:
    a, b, c = state.tangent.components()
    return np.array([[a, b], [c, -a]])


def _frame_matrix(state: LinkState) -> np.ndarray:
    f = state.frame
    return np.array([[f.alpha, f.beta], [f.gamma, f.delta]])


def exact_link_jacobian(state: LinkState, tau: float, j: int) -> np.ndarray:
    """The 6x6 link Jacobian from exact derivatives.

    With G = link_map(state, rep) the link is G (C, X) moved from t0 to
    t1 = t0 + tau (k - 1 - t0).  Six input directions with known images
    span the in state and tau: the three SL2 orbit directions
    (exp(s Z) applied on the left, which the link carries along), the
    scale a and the start t0 of the rep, and tau.
    """
    out, rep = propagate(state, tau, j)
    a, t0 = rep.a, rep.t0
    k = math.sqrt(3.0) / (2.0 * a * a)
    t1 = t0 + tau * (k - 1.0 - t0)
    g = link_map(state, rep)
    g = np.array([[g.alpha, g.beta], [g.gamma, g.delta]])
    g_inv = np.linalg.inv(g)
    c0, c0_a, c0_t, x0, x0_a, x0_t = _exact_parts(a, t0, j)
    c1, c1_a, c1_t, x1, x1_a, x1_t = _exact_parts(a, t1, j)

    def sphere(end: LinkState, tangent_move: np.ndarray, size: float) -> np.ndarray:
        # first-order move of the unit tangent along its sphere basis
        return np.array(_sphere_basis(*end.tangent.components())) @ _xi(tangent_move) / size

    in_size = np.linalg.norm(_xi(g @ x0 @ g_inv))
    out_size = np.linalg.norm(_xi(g @ x1 @ g_inv))
    inputs, outputs = [], []
    for z in (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
              np.array([[0.0, 0.0], [1.0, 0.0]])):
        for end, side in ((state, inputs), (out, outputs)):
            f, x = _frame_matrix(end), _tangent_matrix(end)
            move = np.concatenate((_xi(np.linalg.inv(f) @ z @ f),
                                   sphere(end, z @ x - x @ z, 1.0)))
            side.append(np.append(move, 0.0))
    with mpmath.workdps(40):
        area_a, area_t0, area_tau = (float(v) for v in _area_gradient()(
            mpmath.mpf(a), mpmath.mpf(t0), mpmath.mpf(tau)))
    # the rep's a at fixed t0, its t0, and tau alone; each moves t1 by dt1
    none = np.zeros((2, 2))
    for dc0, dx0, dc1, dx1, dt1, dtau, darea in (
            (c0_a, x0_a, c1_a, x1_a, -2.0 * tau * k / a, 0.0, area_a),
            (c0_t, x0_t, none, none, 1.0 - tau, 0.0, area_t0),
            (none, none, none, none, k - 1.0 - t0, 1.0, area_tau)):
        inputs.append(np.concatenate((_xi(np.linalg.inv(c0) @ dc0),
                                      sphere(state, g @ dx0 @ g_inv, in_size), [dtau])))
        dc1, dx1 = dc1 + c1_t * dt1, dx1 + x1_t * dt1
        outputs.append(np.concatenate((_xi(np.linalg.inv(c1) @ dc1),
                                       sphere(out, g @ dx1 @ g_inv, out_size), [darea])))
    return np.array(outputs).T @ np.linalg.inv(np.array(inputs).T)


def _exact_endpoint_jacobian(problem: EndpointProblem, x: np.ndarray, five: bool) -> np.ndarray:
    """Exact link Jacobians composed by the chain rule, then read as residuals."""
    chain = problem.decode(x)
    assembled = assemble(chain)
    m = len(x) - len(chain.links)
    d = np.zeros((5, len(x)))
    if five:
        a, b = x[0], x[1]
        c = math.sqrt(1.0 - a * a - b * b)
        basis = np.array(_sphere_basis(*chain.initial.tangent.components()))
        d[3:, :2] = basis @ np.array([[1.0, 0.0], [0.0, 1.0], [-a / c, -b / c]])
    head = d[:, :m].copy()
    for i, (state, (tau, j)) in enumerate(zip(assembled.states, chain.links)):
        jac = exact_link_jacobian(state, tau, j)
        d = jac[:5, :5] @ d
        d[:, m + i] += jac[:5, 5]

    def residual_rows(end: LinkState, moves: np.ndarray) -> np.ndarray:
        f = _frame_matrix(end)
        frame = [(f @ np.array([[p, q], [r, -p]])).ravel() for p, q, r in moves[:3].T]
        tangent = np.array(_sphere_basis(*end.tangent.components())).T @ moves[3:]
        return np.vstack((np.array(frame).T, tangent))

    jac = residual_rows(assembled.final, d)
    if five:
        # the target's frame (identity turned by pi/3) is fixed, its tangent
        # is the start's
        jac[4:, :m] -= np.array(_sphere_basis(*chain.initial.tangent.components())).T @ head[3:]
    return jac


def test_exact_oracle_reproduces_link_area():
    rep = SquareRep(1.3, -0.6, 0.45, 2)
    value = float(_AREA.subs({_A: rep.a, _T0: rep.t0, _TAU: rep.tau}).evalf(30))
    assert abs(value - link_area(rep)) <= 1e-14 * abs(value)


def test_link_jacobian_matches_exact_oracle():
    checked = {0: 0, 2: 0, 4: 0}
    for state, tau, j in _assembled_links(_chains()):
        if checked[j] >= 25:
            continue
        exact = exact_link_jacobian(state, tau, j)
        _, rep, jac = propagate_jacobian(state, tau, j)
        tol = 1e-12 * _widening([rep])
        assert np.abs(jac - exact).max() <= tol * np.abs(exact).max(), (j, tau)
        checked[j] += 1
    assert min(checked.values()) == 25, checked


def test_endpoint_jacobian_matches_exact_oracle():
    checked = {"five": 0, "segment": 0}
    for kind, problem, x in _problem_cases():
        if checked[kind] >= 20:
            continue
        exact = _exact_endpoint_jacobian(problem, x, kind == "five")
        jac = problem.jacobian(x)
        reps = assemble(problem.decode(x)).reps
        assert np.abs(jac - exact).max() <= 1e-12 * _widening(reps) * np.abs(exact).max(), kind
        checked[kind] += 1
    assert checked == {"five": 20, "segment": 20}


def test_area_gradient_matches_exact_oracle(octagon):
    # the chain's area gradient over its taus, on the octagon and a segment
    segments = [chain for _, problem, x in _problem_cases()
                for chain in (problem.decode(x),) if problem.target is not None]
    for chain in (octagon.chain, segments[0], segments[1]):
        assembled, d_state = assemble_jacobian(chain, np.zeros((5, 0)))
        d = np.zeros((6, len(chain.links)))
        for i, (state, (tau, j)) in enumerate(zip(assembled.states, chain.links)):
            jac = exact_link_jacobian(state, tau, j)
            area = d[5] + jac[5, :5] @ d[:5]
            d[:5] = jac[:5, :5] @ d[:5]
            d[5] = area
            d[:, i] += jac[:, 5]
        tol = 1e-12 * _widening(assembled.reps)
        assert np.abs(d_state[5] - d[5]).max() <= tol * np.abs(d[5]).max()
