"""Domain outputs and verify read the assembly record, not its views.

A chain's initial state is its entries ``(frame, tangent)``, as objects or
as plain tuples, and every library path gives the same answers on both.
Rendering and ``verify`` read ``AssembledChain.frames`` and ``links``: they
build no ``SquareRep``, no ``states`` or ``reps`` view, and no frame but the
closure target that ``end_target`` composes.
"""
import pytest

from hexameral import chain as chain_module
from hexameral import hyperlink
from hexameral.chain import (
    AssembledChain, ChainParams, assemble, closure_report, end_target, link_length,
)
from hexameral.domain import (
    boundary_polyline, export_json, export_svg, from_chain, star_profile, verify_checks,
)
from hexameral.errors import NotRankOneCompatible
from hexameral.hyperlink import LinkState, transform_state
from hexameral.optimize import SearchSpec, link_reduction_experiment
from hexameral.sl2 import FrameMatrix, TangentElement, exp_tangent
from hexameral.variational import area_functional, chain_path

from conftest import split_octagon_period

NAMES = ("octagon", "moved", "split")


def _chain(name: str, octagon) -> ChainParams:
    if name == "moved":
        g = exp_tangent(TangentElement(0.4, -0.7, 0.2), 1.0)
        return ChainParams(transform_state(g, octagon.chain.initial), octagon.chain.links)
    if name == "split":
        return split_octagon_period(octagon, 0.3)
    return octagon.chain


def _entries(chain: ChainParams) -> ChainParams:
    """The chain with its initial state as plain entry tuples."""
    frame, tangent = chain.initial
    return ChainParams((tuple(frame), tuple(tangent)), chain.links)


def _outputs(chain: ChainParams) -> tuple:
    """Every domain output and the verify rows of a closed chain, as comparable values."""
    dom = from_chain(chain)
    path = chain_path(chain, 40)
    return (dom, boundary_polyline(dom, 24).points.tobytes(), export_svg(dom, 24),
            export_json(dom), star_profile(dom, 12).tobytes(),
            path.grid.tobytes(), path.frames.tobytes(), verify_checks(chain))


@pytest.mark.parametrize("name", NAMES)
def test_entry_tuple_initial_state_gives_the_object_answers(octagon, name):
    chain = _chain(name, octagon)
    entries = _entries(chain)
    assert type(entries.initial[0]) is tuple and type(entries.initial[1]) is tuple
    assert closure_report(entries) == closure_report(chain)
    assert link_length(entries) == link_length(chain) == 4
    assert export_svg(from_chain(entries)).encode() == export_svg(from_chain(chain)).encode()
    assert repr(area_functional(chain_path(entries))) == repr(area_functional(chain_path(chain)))
    assert verify_checks(entries) == verify_checks(chain)
    assert _outputs(entries) == _outputs(chain)


def test_entry_tuple_chains_assemble_in_a_batch(octagon):
    chains = [_chain(name, octagon) for name in ("octagon", "moved")]
    # a start tangent that violates the star inequalities fails at link 0
    chains.append(ChainParams(LinkState(chains[1].initial.frame, TangentElement(0.0, 0.6, 0.8)),
                              chains[1].links))
    want = assemble(chains)
    got = assemble([_entries(c) for c in chains])
    assert got.errors.tolist() == want.errors.tolist() == [None, None, NotRankOneCompatible]
    assert got.link.tolist() == want.link.tolist() == [-1, -1, 0]
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.tangents.tobytes() == want.tangents.tobytes()


def test_entry_tuple_segment_reduces_as_the_object_segment(octagon):
    six = split_octagon_period(octagon)
    spec = SearchSpec(restarts=1, max_evals=3000)
    assert (link_reduction_experiment(_entries(six), spec)
            == link_reduction_experiment(six, spec))


def test_outputs_read_the_record_not_its_views(octagon, monkeypatch):
    chains = [_chain(name, octagon) for name in NAMES]
    want = [_outputs(chain) for chain in chains]

    def refuse(*_args, **_kwargs):
        raise AssertionError("a library path read a view of the assembly record")

    built = {"frames": 0, "targets": 0, "target_frames": 0}

    def count_frame(_frame) -> None:
        built["frames"] += 1

    def counted_target(chain):
        before = built["frames"]
        target = end_target(chain)
        built["targets"] += 1
        built["target_frames"] += built["frames"] - before
        return target

    monkeypatch.setattr(AssembledChain, "states", property(refuse))
    monkeypatch.setattr(AssembledChain, "reps", property(refuse))
    monkeypatch.setattr(hyperlink.SquareRep, "__new__", refuse)
    monkeypatch.setattr(FrameMatrix, "__post_init__", count_frame)
    monkeypatch.setattr(chain_module, "end_target", counted_target)
    got = [_outputs(chain) for chain in chains]
    monkeypatch.undo()

    assert got == want
    # from_chain and verify_checks each compose one closure target
    assert built["targets"] == 2 * len(chains)
    assert built["frames"] == built["target_frames"] == built["targets"]
