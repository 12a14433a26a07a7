"""Chain assembly, closure, normalization, link length, JSON dialect."""
import contextlib
import json
import math

import numpy as np
import pytest

from hexameral.chain import (
    ANGLE_TOL,
    STRICT_TOL,
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
from hexameral.domain import OCTAGON_LINK_AREA, OCTAGON_TAU, verify_checks
from hexameral.errors import (
    ChainFormatError,
    GeometryError,
    LinkLengthViolation,
    NotClosed,
    NotRankOneCompatible,
    ParameterOutOfRange,
)
from hexameral.hyperlink import LinkState, frame_at, transform_state
from hexameral.optimize import five_link_problem, octagon_embedding
from hexameral.sl2 import ROT60, TangentElement, exp_tangent, frame_distance

from conftest import random_frame, random_square_rep


def octagon_chain(octagon) -> ChainParams:
    return octagon.chain


class TestChainParams:
    def test_bad_tau_rejected(self, octagon):
        with pytest.raises(ParameterOutOfRange):
            ChainParams(octagon.chain.initial, (LinkParam(1.2, 0),))

    def test_bad_index_rejected(self, octagon):
        with pytest.raises(ParameterOutOfRange):
            ChainParams(octagon.chain.initial, (LinkParam(0.5, 5),))

    @pytest.mark.parametrize("j", [2.7, False, "2"])
    def test_index_rejected_before_truncation(self, octagon, j):
        # int() would read 2.7 and "2" as 2, and False as 0
        with pytest.raises(ParameterOutOfRange, match=r"link 1: index j = ") as exc:
            ChainParams(octagon.chain.initial, [(0.3, 2), (0.3, j)])
        assert exc.value.link_index == 1

    def test_integral_indices_read_as_ints(self, octagon):
        links = ChainParams(octagon.chain.initial, [(0.3, 2.0), (0.4, np.int64(4))]).links
        assert links == ((0.3, 2), (0.4, 4))
        assert [type(j) for _, j in links] == [int, int]


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
        from hexameral.sl2 import FrameMatrix, TangentElement
        bad_state = LinkState(
            FrameMatrix(1.0, 0.0, 0.0, 1.0),
            TangentElement(0.0, 1.0, 1.0).unit())
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

    def test_tangent_residual_of_a_moved_octagon_is_not_negative(self, octagon):
        # read back from JSON, as ``verify`` reads it; 1 - <r, s> of two
        # float unit tangents read -2.2e-16 at s = 0.9
        for s in (0.3, 0.9, 2.0, 4.0):
            g = exp_tangent(TangentElement(0.4, -0.7, 0.2), s)
            moved = chain_from_dict(chain_to_dict(ChainParams(
                transform_state(g, octagon.chain.initial), octagon.chain.links)))
            assert closure_report(moved).tangent_residual >= 0.0

    def test_tangent_residual_is_the_chord(self, octagon):
        segment = ChainParams(octagon.chain.initial, octagon.chain.links[:2])
        assembled = assemble(segment)
        end = assembled.final
        assert closure_of(segment, assembled, target=end).tangent_residual == 0.0
        # the end tangent turned by 4.5e-5 rad on the unit sphere: the
        # residual reads the angle, which STRICT_TOL rejects
        r = np.array(end.tangent)
        p = np.cross(r, (1.0, 0.0, 0.0))
        p /= np.linalg.norm(p)
        angle = 4.5e-5
        turned = TangentElement(*(math.cos(angle) * r + math.sin(angle) * p).tolist())
        report = closure_of(segment, assembled, target=LinkState(end.frame, turned))
        assert report.frame_residual == 0.0
        assert abs(report.tangent_residual - angle) < 1e-12
        assert not report.closed(STRICT_TOL)

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

    def test_nan_tolerance_bounds_nothing(self, octagon):
        # NaN is no bound: an open chain's residual is not within it
        links = (LinkParam(OCTAGON_TAU + 0.1, 0),) + octagon.chain.links[1:]
        chain = ChainParams(octagon.chain.initial, links)
        assert link_length(chain, closure_tol=1e6) == 4
        with pytest.raises(NotClosed, match="exceeds nan"):
            link_length(chain, closure_tol=math.nan)
        rows = {name: passed for name, passed, _ in verify_checks(chain, tol=math.nan)}
        assert rows["closure"] is False and rows["link-length"] is False

    def test_congruence_guard(self, octagon):
        # an open two-entry list forced through with a huge tolerance
        # trips the n = 0 mod 3 structural check
        chain = ChainParams(octagon.chain.initial,
                            (LinkParam(0.3, 0), LinkParam(0.3, 2)))
        with pytest.raises(LinkLengthViolation):
            link_length(chain, closure_tol=1e6)

    def test_five_link_embedding_reports_seven(self):
        from hexameral.optimize import five_link_problem, octagon_embedding
        emb = octagon_embedding()
        emb[5] = 0.35  # move off the degenerate octagon point
        chain = five_link_problem().decode(emb)
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

    @pytest.mark.parametrize("tangent", [[0.0, 0.0, 0.0], [1e-200] * 3, [1e200] * 3])
    def test_degenerate_initial_tangent_rejected(self, octagon, tangent):
        doc = chain_to_dict(octagon.chain)
        doc["initial"]["tangent"] = tangent
        with pytest.raises(ChainFormatError, match="initial.tangent"):
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


def test_library_states_carry_unit_tangents(octagon, rng):
    """Every state the library hands out holds a unit-norm TangentElement."""
    states = [octagon.chain.initial, *assemble(octagon.chain).states]
    for _ in range(20):
        rep = random_square_rep(rng)
        states.append(frame_at(rep, rep.t0))
        states.append(transform_state(random_frame(rng), octagon.chain.initial))
    doc = chain_to_dict(octagon.chain)
    doc["initial"]["tangent"] = [3.0, -4.0, 12.0]
    states.append(chain_from_dict(doc).initial)
    problem = five_link_problem()
    lo, hi = problem.box()
    xs = [octagon_embedding()] + [lo + (hi - lo) * rng.uniform(size=len(lo)) for _ in range(20)]
    for x in xs:
        if x[0] ** 2 + x[1] ** 2 < 1.0:
            chain = problem.decode(x)
            states.append(chain.initial)
            with contextlib.suppress(GeometryError):
                states.extend(assemble(chain).states)
    for state in states:
        assert type(state.tangent) is TangentElement
        assert abs(state.tangent.norm() - 1.0) <= 1e-15
