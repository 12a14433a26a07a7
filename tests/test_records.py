"""Every record class keeps the semantics of a frozen dataclass.

Records are ``NamedTuple``s, ``FrameMatrix`` among them, except three frozen
``__slots__`` classes: the array holders ``BoundaryPolyline``,
``MultiPoint`` and ``FramePath``, which compare by identity.  For each class: equal inputs give equal records with equal
hashes (identity for the array holders), a field cannot be assigned, and
``copy.copy``, ``copy.deepcopy`` and a pickle round trip give an equal
record.
"""
import copy
import pickle

import numpy as np
import pytest

from hexameral.chain import (
    AssembledChain, ChainBatch, ChainParams, ClosureReport, LinkParam, assemble, closure_report,
)
from hexameral.domain import (
    CIRCLE_DENSITY, BoundaryPolyline, CircleReference, HexameralDomain, boundary_polyline,
    octagon_square_rep, smoothed_octagon,
)
from hexameral.errors import FrameDeterminantError, InfeasibleInput, ParameterOutOfRange, RankZero
from hexameral.hyperlink import (
    LinkState, SquareRep, circle_tangent, link_map, link_multicurve, transform_state,
)
from hexameral.multicurve import MultiPoint, RankLabel, standard_multipoint
from hexameral.optimize import (
    EndpointProblem, LinkReductionReport, SearchResult, SearchSpec, five_link_problem,
)
from hexameral.sl2 import FrameMatrix, TangentElement, exp_tangent, star_check
from hexameral.variational import FramePath, Rank2Report, Sampled, rotation_path

# the classes that compare by identity, with their fields
ARRAY_HOLDERS = {BoundaryPolyline: ("points", "closed"), MultiPoint: ("points",),
                 FramePath: ("grid", "frames")}


@pytest.fixture(scope="module")
def parts():
    """Inputs shared by the two records each factory builds, so that fields
    compared by identity are the same objects."""
    octagon = smoothed_octagon()
    return {"octagon": octagon, "poly": boundary_polyline(octagon, 8),
            "values": np.linspace(0.0, 1.0, 16), "deriv": np.ones(16),
            "links": tuple(LinkParam(0.1 * (n + 1), (2 * n) % 6) for n in range(5))}


def _state(octagon) -> LinkState:
    frame, tangent = octagon.chain.initial
    return LinkState(FrameMatrix(*frame), TangentElement(*tangent))


# each factory builds a new record from the same inputs
RECORDS = {
    TangentElement: lambda p: TangentElement(0.1, -0.5, 0.8),
    FrameMatrix: lambda p: FrameMatrix(2.0, 1.0, 1.0, 1.0),
    LinkState: lambda p: _state(p["octagon"]),
    SquareRep: lambda p: octagon_square_rep(),
    ChainParams: lambda p: ChainParams(_state(p["octagon"]), p["octagon"].chain.links),
    AssembledChain: lambda p: assemble(p["octagon"].chain),
    ClosureReport: lambda p: closure_report(p["octagon"].chain),
    HexameralDomain: lambda p: smoothed_octagon(),
    BoundaryPolyline: lambda p: boundary_polyline(p["octagon"], 8),
    CircleReference: lambda p: CircleReference(p["poly"], CIRCLE_DENSITY),
    MultiPoint: lambda p: MultiPoint(standard_multipoint().points),
    RankLabel: lambda p: RankLabel(2),
    FramePath: lambda p: rotation_path(),
    Sampled: lambda p: Sampled(p["values"], p["deriv"]),
    Rank2Report: lambda p: Rank2Report(0.5, 1e-12, 1),
    SearchSpec: lambda p: SearchSpec(restarts=2, seed=3, start=(0.1, -0.5) + (0.5,) * 5),
    SearchResult: lambda p: SearchResult(
        (0.1,) * 7, 0.9, True, 10, closure_report(p["octagon"].chain)),
    EndpointProblem: lambda p: five_link_problem(),
    LinkReductionReport: lambda p: LinkReductionReport(
        1.0, 0.9, p["links"], 1e-15, True, True, 100, 3),
}


def _fields(record) -> tuple[str, ...]:
    return ARRAY_HOLDERS.get(type(record)) or getattr(record, "_fields", None) or record.__slots__


def _same(a, b) -> bool:
    """Equal records, the array holders compared by their fields, arrays bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if type(a) in ARRAY_HOLDERS:
        return all(_same(getattr(a, name), getattr(b, name)) for name in _fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _copies_are_equal(record) -> None:
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert _same(copied, record), (type(record), copied)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls, parts):
    record, twin = RECORDS[cls](parts), RECORDS[cls](parts)
    assert type(record) is cls and record is not twin
    if cls in ARRAY_HOLDERS:
        # compared by identity; == on arrays would raise
        assert record == record and record != twin and not record == twin
        assert hash(record) == hash(record)
    else:
        assert record == twin
        if cls is not Sampled:  # its fields are arrays, which have no hash
            assert hash(record) == hash(twin)
    name = _fields(record)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(twin, name))
    _copies_are_equal(record)


def test_frame_matrix_repr_is_by_value():
    assert repr(FrameMatrix(1.0, 0.0, 0.0, 1.0)) == (
        "FrameMatrix(alpha=1.0, beta=0.0, gamma=0.0, delta=1.0)")
    with pytest.raises(AttributeError):
        del FrameMatrix(1.0, 0.0, 0.0, 1.0).alpha


class _NoReduce:
    """A frozen slotted class without __reduce__: copies set its slots through
    the __setattr__ that refuses them."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError(name)


def test_copy_check_catches_a_frozen_class_without_reduce():
    with pytest.raises(AttributeError):
        _copies_are_equal(_NoReduce(1.0))


@pytest.mark.parametrize("cls, field, value, error", [
    (SquareRep, "j", 1, ParameterOutOfRange),
    (ChainParams, "links", ((1.5, 0),), ParameterOutOfRange),
    (RankLabel, "value", 0, RankZero),
    (SearchSpec, "seed", -1, InfeasibleInput),
    (EndpointProblem, "bounds", ((0.0, 1.0),), InfeasibleInput),
    (FrameMatrix, "alpha", 3.0, FrameDeterminantError),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_checked_records_check_replace_and_make(cls, field, value, error, parts):
    record = RECORDS[cls](parts)
    with pytest.raises(error):
        record._replace(**{field: value})
    with pytest.raises(error):
        cls._make(value if name == field else v for name, v in zip(cls._fields, record))
    assert cls._make(record) == record


def test_search_spec_defaults_are_its_field_defaults():
    assert SearchSpec._field_defaults == SearchSpec()._asdict()


def test_sampled_compares_arrays_by_value():
    values, deriv = np.linspace(0.0, 1.0, 16), np.ones(16)
    assert Sampled(values, None) == Sampled(values.copy(), None)
    assert Sampled(values, deriv) == Sampled(values.copy(), deriv.copy())
    assert not Sampled(values, None) != Sampled(values.copy(), None)
    assert Sampled(values, None) != Sampled(values + 1.0, None)
    assert Sampled(values, deriv) != Sampled(values.copy(), None)
    assert Sampled(values, None) != Sampled(values, deriv)
    assert not Sampled(values, deriv) == Sampled(values, 2.0 * deriv)


def test_records_are_tuples():
    report = ClosureReport(1e-16, 2e-16, True, 0.0)
    assert report._asdict() == {"frame_residual": 1e-16, "tangent_residual": 2e-16,
                                "angle_ok": True, "angle_margin": 0.0}
    assert report == (1e-16, 2e-16, True, 0.0) and report[1] == 2e-16
    assert report._replace(angle_ok=False).closed() is False
    assert report.residual() == 2e-16


def test_assemble_dispatches_on_chain_params(octagon):
    assert type(assemble(octagon.chain)) is AssembledChain
    assert type(assemble([octagon.chain])) is ChainBatch
    assert type(assemble((octagon.chain, octagon.chain))) is ChainBatch
    assert ChainBatch._fields == ("frames", "tangents", "links", "errors", "link")


# calls on frames g, states and tangents x, each given as an object or as its entries
ENTRY_CALLS = {
    "link_multicurve": lambda e, rep: link_multicurve(rep, 8, e["g"]),
    "MultiPoint.transformed": lambda e, rep: standard_multipoint().transformed(e["g"]),
    "transform_state": lambda e, rep: transform_state(e["g"], e["state"]),
    "circle_tangent": lambda e, rep: circle_tangent(e["state"]),
    "link_map": lambda e, rep: link_map(e["state"], rep),
    "star_check": lambda e, rep: star_check(e["x"]),
    "exp_tangent": lambda e, rep: exp_tangent(e["x"], 0.7),
}


def _bits(value) -> bytes:
    """The bytes of every float a result holds, in order."""
    if isinstance(value, MultiPoint):
        value = value.points
    if isinstance(value, tuple):
        return b"".join(map(_bits, value))
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("call", ENTRY_CALLS)
def test_public_functions_take_entry_tuples(call, octagon):
    state, rep = octagon.assembled.states[0], octagon.assembled.reps[0]
    g, x = FrameMatrix(2.0, 1.0, 1.0, 1.0), circle_tangent(state)
    objects = {"g": g, "state": state, "x": x}
    entries = {"g": tuple(g), "state": (tuple(state.frame), tuple(state.tangent)),
               "x": tuple(x)}
    ours, theirs = ENTRY_CALLS[call](objects, rep), ENTRY_CALLS[call](entries, rep)
    assert type(ours) is type(theirs) and _bits(ours) == _bits(theirs)
