"""The chain kernel on arrays, and lockstep solves, against their float runs.

``assemble`` on a list of chains runs ``propagate`` and the derivative path
over arrays of B states.  Every chain of the batch must match its own
assembly on floats bit for bit (states, reps, area and Jacobian), and a
chain that fails must read the error class and link that the float run
raises.  ``assemble_rows`` must give the bits of ``assemble`` on the list of
the same chains.  ``_roots`` must end each of its lockstep solves at the x,
with the evaluation and the assembly count, of the solve run alone.
"""
import math

import numpy as np
import pytest

from hexameral import optimize
from hexameral.chain import ChainBatch, ChainParams, assemble, assemble_jacobian, assemble_rows
from hexameral.errors import (
    DegenerateVelocity,
    FrameDeterminantError,
    GeometryError,
    NotRankOneCompatible,
    ParameterOutOfRange,
)
from hexameral.hyperlink import LinkState, propagate, transform_state
from hexameral.kit import Arrays
from hexameral.optimize import (
    LM_DAMPING,
    SEGMENT_BOUNDS,
    EndpointProblem,
    _consecutive_distinct_patterns,
    _root,
    _roots,
    _Search,
)
from hexameral.sl2 import FrameMatrix, TangentElement

from conftest import random_frame, random_reduce_segment, split_octagon_period

# Chains that fail past their first link, found among random five-link
# chains from random convex states: (frame, unit tangent, links).
_LATE_FAILURES = {
    (FrameDeterminantError, 2): (
        (0.6876741251863068, 1.2347491119097467, -0.29645813289587675, 0.9218735451426838),
        (0.2647567993363198, -0.7673311421672715, 0.5840434534051882),
        ((0.999999, 4), (0.999999, 2), (0.3718486994503046, 4), (0.3111904424306727, 0),
         (0.8319201926909706, 2))),
    (FrameDeterminantError, 4): (
        (0.8351001991992436, -0.383790192803441, 0.22853680710069052, 1.0924315616436382),
        (-0.035605730591823204, -0.6910467496012035, 0.7219325604338912),
        ((0.7912543484752964, 0), (0.999999, 2), (0.999999, 0), (0.4843058140171911, 0),
         (0.999999, 2))),
    (NotRankOneCompatible, 2): (
        (1.0131413327097656, 0.02468954746036879, -0.021696661504669795, 0.9865003894104923),
        (0.3943844077751072, -0.35819775331858605, 0.8462595987174357),
        ((0.999999, 2), (0.707604208471729, 2), (0.0, 0), (0.7119071874916303, 0),
         (0.999999, 0))),
    (NotRankOneCompatible, 3): (
        (1.041432657441261, -0.21714193560828293, 0.32891396051094424, 0.8916361315646961),
        (-0.2507458560094264, -0.7656993482168879, 0.592309905230643),
        ((0.20959741124431241, 2), (0.9394046736985648, 0), (0.999999, 0),
         (0.41468219806545564, 4), (0.999999, 2))),
    (DegenerateVelocity, 4): (
        (1.5580886490011299, 0.5365231105385275, 1.4896809316867756, 1.1547791252647888),
        (0.20387184057950072, -0.5911287814422495, 0.7803864660341874),
        ((0.6862680564626891, 4), (0.999999, 0), (0.999999, 4), (0.7934184042641176, 4),
         (0.3063323405148248, 0))),
}


def _unruled(entries) -> FrameMatrix:
    """A FrameMatrix built past its determinant rule, which would reject it."""
    return tuple.__new__(FrameMatrix, entries)


def _state(frame, tangent) -> LinkState:
    return LinkState(FrameMatrix(*frame), TangentElement(*tangent))


def _mixed_chains(octagon, count: int, seed: int) -> list[ChainParams]:
    """Five-link chains from moved octagon starts over random index patterns
    (repeats included), a fifth of the links empty, then chains that fail:
    at their first link with each class, and past it."""
    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(count):
        start = transform_state(random_frame(rng, float(rng.uniform(0.0, 1.5))),
                                octagon.chain.initial)
        taus = rng.uniform(0.0, 0.9, 5) * (rng.uniform(size=5) > 0.2)
        js = rng.choice((0, 2, 4), size=5)
        chains.append(ChainParams(start, tuple(zip(taus.tolist(), js.tolist()))))
    links = octagon.chain.links + ((0.3, 2),)
    tangent = octagon.chain.initial.tangent
    chains += [
        # a frame whose determinant is 4, and a nilpotent tangent
        ChainParams(LinkState(_unruled((2.0, 0.0, 0.0, 2.0)), tangent), links),
        ChainParams(_state(octagon.chain.initial.frame, (0.0, 1.0, 0.0)), links),
        # a tangent that violates the star inequalities
        ChainParams(_state(octagon.chain.initial.frame, (0.0, 0.6, 0.8)), links),
    ]
    chains += [ChainParams(_state(frame, tangent), links)
               for frame, tangent, links in _LATE_FAILURES.values()]
    return chains


def _float_run(chain: ChainParams):
    try:
        return assemble(chain), None
    except GeometryError as exc:
        return None, exc


def test_batch_matches_each_chain_on_floats(octagon):
    chains = _mixed_chains(octagon, 60, 11)
    batch = assemble(chains)
    assert isinstance(batch, ChainBatch)
    failures = set()
    for b, chain in enumerate(chains):
        alone, exc = _float_run(chain)
        if exc is not None:
            assert (batch.errors[b], batch.link[b]) == (type(exc), exc.link_index), exc
            failures.add((type(exc), exc.link_index))
            continue
        assert batch.errors[b] is None and batch.link[b] == -1
        for i, state in enumerate(alone.states):
            assert batch.frames[i, :, b].tobytes() == np.array(state.frame).tobytes()
            assert (batch.tangents[i, :, b].tobytes()
                    == np.array(state.tangent).tobytes())
        built = batch.assembled(chain, b)
        assert built == alone
        assert all(type(v) is float for s in built.states for v in s.frame)
        assert repr(built.area()) == repr(alone.area())
    assert {error for error, _ in failures} == {
        FrameDeterminantError, DegenerateVelocity, NotRankOneCompatible}
    assert {0, 2, 3, 4} <= {link for _, link in failures}
    assert set(_LATE_FAILURES) <= failures


def test_batch_jacobian_matches_each_chain_on_floats(octagon):
    chains = _mixed_chains(octagon, 40, 12)
    batch = assemble(chains)
    heads = np.random.default_rng(5).standard_normal((len(chains), 5, 2))
    with np.errstate(all="ignore"):  # the chains that fail give NaN
        d_state = assemble_jacobian(batch, heads)
    assert d_state.shape == (len(chains), 6, 7)
    checked = 0
    for b, chain in enumerate(chains):
        if batch.errors[b] is None:
            alone = assemble_jacobian(assemble(chain), heads[b])
            assert alone.tobytes() == np.ascontiguousarray(d_state[b]).tobytes(), b
            checked += 1
    assert checked == 40


def test_jacobian_of_a_chain_without_links(octagon):
    # the final state is the initial one, and the area is zero at every x
    chain = ChainParams(octagon.chain.initial, ())
    heads = np.random.default_rng(7).standard_normal((2, 5, 3))
    alone = assemble_jacobian(assemble(chain), heads[0])
    assert alone.shape == (6, 3)
    assert alone[:5].tobytes() == heads[0].tobytes() and not alone[5].any()
    batch = assemble_jacobian(assemble([chain, chain]), heads)
    assert batch.shape == (2, 6, 3)
    assert batch[:, :5].tobytes() == heads.tobytes() and not batch[:, 5].any()


@pytest.mark.parametrize("tau,j", [(1.0, 0), (-0.1, 2), (math.nan, 4), (0.3, 1)])
def test_array_kernel_rejects_parameters_as_floats_do(octagon, tau, j):
    state = octagon.chain.initial
    with pytest.raises(ParameterOutOfRange):
        propagate(state, tau, j)
    frame, tangent = state
    checks = []
    propagate((tuple(np.full(2, v) for v in frame), tuple(np.full(2, v) for v in tangent)),
              np.array([0.3, tau]), np.array([0, j]), Arrays(checks))
    first = [next((error for bad, error in checks if bad[b]), None) for b in (0, 1)]
    assert first == [None, ParameterOutOfRange]


def test_rows_entry_matches_the_list_entry(octagon):
    chains = _mixed_chains(octagon, 30, 13)
    listed = assemble(chains)
    # starts as entries, and rows as lists of Python numbers
    starts = [(tuple(c.initial[0]), tuple(c.initial[1])) for c in chains]
    taus = [[tau for tau, _ in c.links] for c in chains]
    js = [[j for _, j in c.links] for c in chains]
    rows = assemble_rows(starts, taus, js)
    assert isinstance(rows, ChainBatch)
    assert rows.frames.tobytes() == listed.frames.tobytes()
    assert rows.tangents.tobytes() == listed.tangents.tobytes()
    for mine, theirs in zip(rows.links, listed.links):
        for m, t in zip(mine, theirs):
            assert m.dtype == t.dtype and m.tobytes() == t.tobytes()
    assert list(rows.errors) == list(listed.errors)
    assert rows.link.tobytes() == listed.link.tobytes()


def test_rows_that_chain_params_refuses_fail_in_the_batch(octagon):
    chain = _mixed_chains(octagon, 1, 13)[0]
    taus, js = [tau for tau, _ in chain.links], [j for _, j in chain.links]
    # (link, tau, j) rows that ChainParams refuses, after the row itself
    bad = [(1, 1.0, 0), (2, math.nan, 2), (3, 0.3, 1)]
    rows = assemble_rows([chain.initial] * 4,
                         [taus] + [taus[:k] + [tau] + taus[k + 1:] for k, tau, _ in bad],
                         [js] + [js[:k] + [j] + js[k + 1:] for k, _, j in bad])
    assert list(rows.errors) == [None] + [ParameterOutOfRange] * 3
    assert rows.link.tolist() == [-1, 1, 2, 3]
    assert rows.assembled(chain, 0) == assemble(chain)


def _segment_solves(six: ChainParams) -> list:
    """One solve per index pattern from taus 0.3, as link reduction starts them."""
    segment = (six.initial, assemble(six).final)
    return [(EndpointProblem(pattern, lambda area: area, 0.0, SEGMENT_BOUNDS, segment),
             np.full(5, 0.3), 60, LM_DAMPING)
            for pattern in _consecutive_distinct_patterns()]


def test_lockstep_solves_end_as_each_alone(octagon, monkeypatch):
    real_rows, real_assembly = optimize.assemble_rows, EndpointProblem.assembly
    for six in (split_octagon_period(octagon), random_reduce_segment(octagon)):
        alone, solo = {}, []
        for solve in _segment_solves(six):
            run = _Search()
            solo.append(_root(run, *solve))
            alone[solve[0].pattern] = run.evals
        # each pattern's assemblies in lockstep: its batched rows and its
        # float assemblies (a failed row's decode assembles nothing)
        together = dict.fromkeys(alone, 0)

        def rows(starts, taus, js):
            for pattern in map(tuple, np.asarray(js).tolist()):
                together[pattern] += 1
            return real_rows(starts, taus, js)

        def assembly(self, x, assembles=True):
            together[self.pattern] += assembles
            return real_assembly(self, x, assembles)
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "assemble_rows", rows)
            patch.setattr(EndpointProblem, "assembly", assembly)
            run = _Search()
            ends = _roots(run, _segment_solves(six))
        assert run.evals == sum(alone.values())
        assert together == alone
        for ev, end in zip(solo, ends):
            assert np.array_equal(ev.x, end.x)
            assert repr(ev.value) == repr(end.value)
            assert ev.residuals.tobytes() == end.residuals.tobytes()
            assert end.assembled == ev.assembled


def test_budget_goes_to_solves_in_order(octagon):
    run = _Search()
    run.limit = 10
    ends = _roots(run, _segment_solves(split_octagon_period(octagon)))
    # the first ten starts are assembled, the rest refused; each of the ten
    # that assembles is then refused its first trial, and no end is offered
    assert run.evals == 10
    assert all(end is None for end in ends[10:])
    assert all(end is None or end.report is None for end in ends[:10])
    assert run.best is not None
