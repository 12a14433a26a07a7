"""Chain assembly, closure, normalization, link length, JSON dialect."""
import json
import math

import pytest

from hexameral.chain import (
    ANGLE_TOL,
    ChainParams,
    LinkParam,
    angle_margin_of,
    assemble,
    chain_area,
    chain_from_dict,
    chain_to_dict,
    closure_of,
    closure_report,
    link_length,
    load_chain,
    normalize_links,
    save_chain,
)
from hexameral.domain import OCTAGON_LINK_AREA, OCTAGON_TAU
from hexameral.errors import (
    ChainFormatError,
    GeometryError,
    LinkLengthViolation,
    NotClosed,
    NotRankOneCompatible,
    ParameterOutOfRange,
)
from hexameral.sl2 import ROT60, frame_distance

from conftest import random_frame


def octagon_chain(octagon) -> ChainParams:
    return octagon.chain


class TestChainParams:
    def test_bad_tau_rejected(self, octagon):
        with pytest.raises(ParameterOutOfRange):
            ChainParams(octagon.chain.initial, (LinkParam(1.2, 0),))

    def test_bad_index_rejected(self, octagon):
        with pytest.raises(ParameterOutOfRange):
            ChainParams(octagon.chain.initial, (LinkParam(0.5, 5),))


class TestAssemble:
    def test_empty_chain(self, octagon):
        a = assemble(ChainParams(octagon.chain.initial, ()))
        assert len(a.states) == 1 and len(a.reps) == 0
        assert a.final is octagon.chain.initial

    def test_octagon_four_links(self, octagon):
        a = assemble(octagon.chain)
        assert len(a.states) == 5
        for rep in a.reps:
            assert abs(rep.tau - OCTAGON_TAU) < 1e-12

    def test_failure_names_link(self):
        from hexameral.hyperlink import LinkState
        from hexameral.sl2 import FrameMatrix, ProjectiveTangent, TangentElement
        bad_state = LinkState(
            FrameMatrix(1.0, 0.0, 0.0, 1.0),
            ProjectiveTangent.from_tangent(TangentElement(0.0, 1.0, 1.0)))
        bad = ChainParams(bad_state, (LinkParam(0.3, 0), LinkParam(0.3, 2)))
        with pytest.raises(NotRankOneCompatible, match="link 0"):
            assemble(bad)

    def test_failure_keeps_class_and_link_index(self, octagon, monkeypatch):
        import hexameral.chain as chain_module

        class Stalled(GeometryError):
            # a constructor unlike Exception's must survive the annotation
            def __init__(self, why, where):
                super().__init__(f"{why} at t = {where}")

        real = chain_module.propagate
        calls = []

        def fail_at_link_2(state, tau, j):
            calls.append(j)
            if len(calls) == 3:
                raise Stalled("stalled", 0.5)
            return real(state, tau, j)

        monkeypatch.setattr(chain_module, "propagate", fail_at_link_2)
        with pytest.raises(Stalled, match=r"^link 2: stalled at t = 0\.5$") as info:
            assemble(octagon.chain)
        assert info.value.link_index == 2
        assert info.value.__cause__ is None  # re-raised, not wrapped

    def test_parameter_errors_name_link(self, octagon):
        with pytest.raises(ParameterOutOfRange, match="link 1") as exc:
            ChainParams(octagon.chain.initial,
                        (LinkParam(0.3, 0), LinkParam(-0.1, 2)))
        assert exc.value.link_index == 1


class TestChainArea:
    def test_octagon_area(self, octagon):
        assert abs(chain_area(octagon.chain) - 4.0 * OCTAGON_LINK_AREA) < 1e-14

    def test_all_degenerate(self, octagon):
        chain = ChainParams(octagon.chain.initial,
                            (LinkParam(0.0, 0), LinkParam(0.0, 2)))
        assert chain_area(chain) == 0.0

    def test_sl2_invariance(self, octagon, rng):
        from hexameral.hyperlink import transform_state
        base = chain_area(octagon.chain)
        for _ in range(20):
            g = random_frame(rng)
            moved = ChainParams(transform_state(g, octagon.chain.initial),
                                octagon.chain.links)
            assert abs(chain_area(moved) - base) < 1e-9


class TestClosureReport:
    def test_octagon_closes(self, octagon):
        rep = closure_report(octagon.chain)
        assert rep.frame_residual < 1e-9
        assert rep.tangent_residual < 1e-9
        assert rep.angle_ok
        assert rep.closed(1e-9)

    def test_perturbed_tau_breaks_closure(self, octagon):
        links = list(octagon.chain.links)
        links[2] = LinkParam(links[2].tau + 0.01, links[2].j)
        rep = closure_report(ChainParams(octagon.chain.initial, tuple(links)))
        assert rep.frame_residual > 1e-3

    def test_single_link_not_closed(self, octagon):
        rep = closure_report(ChainParams(octagon.chain.initial,
                                         octagon.chain.links[:1]))
        assert rep.residual() > 0.1

    def test_residuals_sl2_invariant(self, octagon, rng):
        from hexameral.hyperlink import transform_state
        base = closure_report(octagon.chain)
        for _ in range(20):
            g = random_frame(rng)
            moved = closure_report(ChainParams(
                transform_state(g, octagon.chain.initial), octagon.chain.links))
            assert abs(moved.frame_residual - base.frame_residual) < 1e-9
            assert abs(moved.tangent_residual - base.tangent_residual) < 1e-9

    def test_target_measures_open_segment(self, octagon):
        segment = ChainParams(octagon.chain.initial, octagon.chain.links[:2])
        assembled = assemble(segment)
        report = closure_of(segment, assembled, target=assembled.final)
        assert report.residual() < 1e-15 and report.angle_ok
        assert closure_of(segment, assembled).residual() > 0.1

    def test_angle_margin_of_open_segment(self, octagon):
        margin = angle_margin_of(ChainParams(octagon.chain.initial,
                                             octagon.chain.links[:2]))
        assert margin >= -ANGLE_TOL

    def test_sweep_of_pi_reads_the_same_on_moved_copies(self, octagon, rng):
        # three periods sweep exactly pi, the branch cut of atan2: the last
        # reading rounds to pi or to -pi, and both must give pi/3 - pi
        from hexameral.hyperlink import transform_state
        links = tuple(LinkParam(t, (j + 2 * p) % 6)
                      for p in range(3) for t, j in octagon.chain.links)
        starts = [octagon.chain.initial] + [
            transform_state(random_frame(rng), octagon.chain.initial) for _ in range(20)]
        for start in starts:
            margin = angle_margin_of(ChainParams(start, links))
            assert abs(margin + 2.0 * math.pi / 3.0) < 1e-12, margin


class TestPeriodStructure:
    def test_shifted_period_rotates_by_rho(self, octagon):
        a1 = octagon.assembled
        shifted = tuple(LinkParam(t, (j + 2) % 6) for t, j in octagon.chain.links)
        a2 = assemble(ChainParams(a1.final, shifted))
        for s1, s2 in zip(a1.states, a2.states):
            assert frame_distance(s2.frame, s1.frame.compose(ROT60)) < 1e-12
            assert s2.tangent.distance(s1.tangent) < 1e-12

    def test_six_periods_return(self, octagon):
        state = octagon.chain.initial
        for p in range(6):
            links = tuple(LinkParam(t, (j + 2 * p) % 6)
                          for t, j in octagon.chain.links)
            state = assemble(ChainParams(state, links)).final
        assert frame_distance(state.frame, octagon.chain.initial.frame) < 1e-12
        assert state.tangent.distance(octagon.chain.initial.tangent) < 1e-12


class TestNormalizeLinks:
    def test_merges_same_index(self, octagon):
        merged = normalize_links(ChainParams(
            octagon.chain.initial, (LinkParam(0.3, 0), LinkParam(0.2, 0))))
        assert len(merged.links) == 1
        assert abs(merged.links[0].tau - (0.3 + 0.2 - 0.06)) < 1e-15

    def test_pads_index_jump(self, octagon):
        padded = normalize_links(ChainParams(
            octagon.chain.initial, (LinkParam(0.4, 0), LinkParam(0.4, 4))))
        assert [(l.tau, l.j) for l in padded.links] == [
            (0.4, 0), (0.0, 2), (0.4, 4)]

    def test_idempotent_on_normal_chain(self, octagon):
        assert normalize_links(octagon.chain).links == octagon.chain.links

    def test_preserves_area_and_closure(self, octagon):
        split = ChainParams(octagon.chain.initial,
                            (LinkParam(0.25, 0),
                             LinkParam((OCTAGON_TAU - 0.25) / 0.75, 0),
                             LinkParam(0.0, 4))
                            + octagon.chain.links[1:])
        normal = normalize_links(split)
        assert [(l.j) for l in normal.links] == [0, 2, 4, 0]
        assert abs(chain_area(normal) - chain_area(octagon.chain)) < 1e-10
        assert closure_report(normal).closed(1e-9)


class TestLinkLength:
    def test_octagon_reports_four(self, octagon):
        assert link_length(octagon.chain) == 4

    def test_split_octagon_still_four(self, octagon):
        split = ChainParams(octagon.chain.initial,
                            (LinkParam(0.25, 0),
                             LinkParam((OCTAGON_TAU - 0.25) / 0.75, 0))
                            + octagon.chain.links[1:])
        assert link_length(split) == 4

    def test_open_chain_rejected(self, octagon):
        with pytest.raises(NotClosed):
            link_length(ChainParams(octagon.chain.initial,
                                    octagon.chain.links[:2]))

    def test_congruence_guard(self, octagon):
        # an open two-entry list forced through with a huge tolerance
        # trips the n = 0 mod 3 structural check
        chain = ChainParams(octagon.chain.initial,
                            (LinkParam(0.3, 0), LinkParam(0.3, 2)))
        with pytest.raises(LinkLengthViolation):
            link_length(chain, closure_tol=1e6)

    def test_five_link_embedding_reports_seven(self):
        from hexameral.optimize import decode_five_link, octagon_embedding
        emb = octagon_embedding()
        emb[5] = 0.35  # move off the degenerate octagon point
        chain = decode_five_link(emb)
        # not closed anymore, so only the normalized count is checked
        normal = normalize_links(chain)
        assert len(normal.links) == 7


class TestJsonDialect:
    def test_roundtrip(self, octagon, tmp_path):
        path = tmp_path / "chain.json"
        save_chain(octagon.chain, str(path))
        loaded = load_chain(str(path))
        assert loaded.links == octagon.chain.links
        assert frame_distance(loaded.initial.frame,
                              octagon.chain.initial.frame) < 1e-15
        assert loaded.initial.tangent.distance(
            octagon.chain.initial.tangent) < 1e-15

    def test_dict_structure(self, octagon):
        doc = chain_to_dict(octagon.chain)
        assert set(doc) == {"initial", "links"}
        assert set(doc["initial"]) == {"frame", "tangent"}
        assert all(set(entry) == {"tau", "j"} for entry in doc["links"])

    def test_missing_field(self):
        with pytest.raises(ChainFormatError):
            chain_from_dict({"links": []})

    def test_non_object(self):
        with pytest.raises(ChainFormatError):
            chain_from_dict([1, 2, 3])

    def test_bad_frame_determinant(self, octagon):
        doc = chain_to_dict(octagon.chain)
        doc["initial"]["frame"] = [2.0, 0.0, 0.0, 1.0]
        with pytest.raises(ChainFormatError):
            chain_from_dict(doc)

    def test_bad_link_entry(self, octagon):
        doc = chain_to_dict(octagon.chain)
        doc["links"][0] = {"tau": 0.5, "j": 0, "extra": 1}
        with pytest.raises(ChainFormatError):
            chain_from_dict(doc)

    def test_boolean_tau_rejected(self, octagon):
        doc = chain_to_dict(octagon.chain)
        doc["links"][0] = {"tau": True, "j": 0}
        with pytest.raises(ChainFormatError):
            chain_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ChainFormatError):
            load_chain(str(path))

    @pytest.mark.parametrize("field,index", [("frame", 3), ("tangent", 2)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_rejected(self, octagon, field, index, value):
        doc = chain_to_dict(octagon.chain)
        doc["initial"][field][index] = value
        with pytest.raises(ChainFormatError, match="finite"):
            chain_from_dict(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, octagon, value):
        doc = chain_to_dict(octagon.chain)
        doc["links"][1]["tau"] = value
        with pytest.raises(ChainFormatError, match="link 1"):
            chain_from_dict(doc)

    def test_extra_top_level_keys_accepted(self, octagon):
        doc = chain_to_dict(octagon.chain)
        doc["area"] = 3.0
        chain = chain_from_dict(doc)
        assert chain.links == octagon.chain.links
