"""Domains: octagon constants, polylines, circle reference, exports."""
import math

import numpy as np
import pytest

from hexameral.chain import ChainParams, chain_from_dict
from hexameral.domain import (
    CIRCLE_DENSITY,
    OCTAGON_DENSITY,
    OCTAGON_LINK_AREA,
    BoundaryPolyline,
    boundary_polyline,
    circle_multicurve,
    circle_reference,
    density,
    export_json,
    export_svg,
    from_chain,
    initial_multipoint,
    octagon_square_rep,
    smoothed_octagon,
    star_profile,
    verify_checks,
)
from hexameral.domain import _hexagon_vertices
from hexameral.errors import NotClosed
from hexameral.hyperlink import link_area, transform_state
from hexameral.multicurve import rank_classify
from hexameral.sl2 import PlaneVector, wedge

from conftest import flat_hyperbola_chain, polygon_area, random_frame

SQRT12 = math.sqrt(12.0)


class TestOctagonConstants:
    def test_density_closed_form(self, octagon):
        target = (8.0 - math.sqrt(32.0) - math.log(2.0)) / (math.sqrt(8.0) - 1.0)
        assert abs(octagon.density - target) < 1e-15
        assert abs(octagon.density - 0.9024141829971569) < 1e-15

    def test_area_is_eight_link_areas(self, octagon):
        assert abs(octagon.area - 8.0 * OCTAGON_LINK_AREA) < 1e-14

    def test_link_area_value(self):
        assert abs(link_area(octagon_square_rep())
                   - 0.39075680360545856) < 1e-15

    def test_density_below_circle(self, octagon):
        assert CIRCLE_DENSITY - octagon.density > 4e-3


class TestFromChain:
    def test_open_chain_rejected(self, octagon):
        open_chain = ChainParams(octagon.chain.initial,
                                 octagon.chain.links[:2])
        with pytest.raises(NotClosed):
            from_chain(open_chain)

    def test_density_rechecks_closure(self, octagon):
        # a huge tolerance lets an open chain through construction, but
        # density still applies the real closure gate
        open_chain = ChainParams(octagon.chain.initial,
                                 octagon.chain.links[:2])
        dom = from_chain(open_chain, tol=1e9)
        with pytest.raises(NotClosed):
            density(dom)

    def test_density_function_matches_attribute(self, octagon):
        assert density(octagon) == octagon.density


class TestBoundaryPolyline:
    def test_closed_and_symmetric(self, octagon):
        poly = boundary_polyline(octagon, per_link=32)
        assert poly.closed
        assert poly.centrally_symmetric()

    def test_area_converges_to_domain_area(self, octagon):
        e64 = abs(boundary_polyline(octagon, 64).area() - octagon.area)
        e128 = abs(boundary_polyline(octagon, 128).area() - octagon.area)
        assert e64 < 1e-4
        assert e64 / e128 > 3.5  # second-order sampling

    def test_too_few_points(self):
        with pytest.raises(NotClosed):
            BoundaryPolyline((PlaneVector(0, 0), PlaneVector(1, 0)), True)

    def test_coincident_points(self):
        with pytest.raises(NotClosed):
            BoundaryPolyline((PlaneVector(0, 0), PlaneVector(1, 0),
                              PlaneVector(1, 0), PlaneVector(0, 1)), True)

    def test_negative_orientation(self):
        with pytest.raises(NotClosed):
            BoundaryPolyline((PlaneVector(0, 0), PlaneVector(0, 1),
                              PlaneVector(1, 0)), True)

    def test_open_polyline_allows_clockwise(self):
        poly = BoundaryPolyline((PlaneVector(0, 0), PlaneVector(0, 1),
                                 PlaneVector(1, 0)), False)
        assert not poly.closed


class TestCircleReference:
    def test_hexagonal_degenerate_sampling(self):
        ref = circle_reference(samples=6)
        pts = ref.polyline.coords()
        assert len(pts) == 6
        # six evenly spaced unit vectors: a regular hexagon of area 3*sqrt(3)/2
        assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0)
        assert abs(ref.polyline.area() - 1.5 * math.sqrt(3.0)) < 1e-12

    def test_density_independent_of_samples(self):
        for n in (6, 64, 1024):
            assert circle_reference(n).density == math.pi / SQRT12

    def test_polyline_area_approaches_pi(self):
        assert abs(circle_reference(4096).polyline.area() - math.pi) < 1e-5

    def test_rank_three(self):
        assert rank_classify(circle_multicurve(32)).value == 3


class TestStarProfile:
    def test_octagon_strictly_interior(self, octagon):
        profile = star_profile(octagon, per_link=48)
        assert profile.shape[1] == 3
        assert float(profile.min()) > 0.0

    def test_det_column_positive(self, octagon):
        assert float(star_profile(octagon)[:, 2].min()) > 0.1


class TestVerifyChecks:
    def test_octagon_rows(self, octagon):
        checks = verify_checks(octagon.chain)
        assert [name for name, _, _ in checks] == [
            "assembly", "star-conditions", "tangent-determinant",
            "convexity-sampling", "rank-per-link", "closure",
            "angle-condition", "link-length",
        ]
        assert all(ok is True for _, ok, _ in checks)
        assert checks[0][2] == "4 links"
        assert checks[4][2] == "ranks [1, 1, 1, 1]"
        assert checks[7][2] == "4, (n-1) = 0 mod 3"

    def test_star_margins_match_profile(self, octagon):
        profile = star_profile(octagon, per_link=33)
        detail = dict((name, text) for name, _, text in verify_checks(octagon.chain))
        assert detail["star-conditions"] == f"min margin {profile[:, :2].min():.3e}"
        assert detail["tangent-determinant"] == f"min -a^2-bc {profile[:, 2].min():.3e}"

    def test_all_degenerate_chain_samples_nothing(self, octagon):
        chain = ChainParams(octagon.chain.initial, ((0.0, 0), (0.0, 2)))
        rows = {name: (ok, detail) for name, ok, detail in verify_checks(chain)}
        assert rows["assembly"] == (True, "2 links")
        for name in ("star-conditions", "tangent-determinant",
                     "convexity-sampling", "rank-per-link"):
            assert rows[name] == (False, "nothing sampled: no link is non-degenerate")

    def test_unclassifiable_rank_is_a_failed_row(self):
        rows = verify_checks(flat_hyperbola_chain())
        assert [name for name, _, _ in rows] == [
            "assembly", "star-conditions", "tangent-determinant",
            "convexity-sampling", "rank-per-link", "closure",
            "angle-condition", "link-length",
        ]
        name, ok, detail = rows[4]
        assert not ok
        assert detail == "link 0: curve j=0: samples mix linear and curved behaviour"

    def test_assembly_failure_ends_the_list(self):
        from hexameral.hyperlink import LinkState
        from hexameral.sl2 import FrameMatrix, ProjectiveTangent, TangentElement
        bad = ChainParams(
            LinkState(FrameMatrix(1.0, 0.0, 0.0, 1.0),
                      ProjectiveTangent.from_tangent(TangentElement(0.0, 1.0, 1.0))),
            ((0.3, 0), (0.3, 2)))
        [(name, ok, detail)] = verify_checks(bad)
        assert (name, ok) == ("assembly", False)
        assert detail.startswith("link 0: ")


class TestInitialMultipoint:
    def test_relations_hold(self, octagon):
        mp = initial_multipoint(octagon)
        for j in range(6):
            assert abs(wedge(mp[j], mp[j + 2]) - math.sqrt(3.0) / 2.0) < 1e-12

    def test_balanced_hexagon_area(self, octagon):
        mp = initial_multipoint(octagon)
        x = octagon.chain.initial.tangent.rep
        dirs = [x.apply(mp[m]) for m in range(6)]
        hexagon = _hexagon_vertices([mp[m] for m in range(6)], dirs)
        coords = np.array([(p.x, p.y) for p in hexagon])
        assert abs(polygon_area(coords) - SQRT12) < 1e-12


class TestExports:
    def test_json_keys_and_roundtrip(self, octagon):
        doc = export_json(octagon)
        assert set(doc) == {"initial", "links", "area", "density",
                            "link_length", "closure"}
        assert doc["link_length"] == 4
        assert abs(doc["density"] - OCTAGON_DENSITY) < 1e-15
        chain = chain_from_dict(doc)
        assert chain.links == octagon.chain.links

    def test_svg_structure(self, octagon):
        svg = export_svg(octagon)
        assert svg.startswith("<?xml")
        assert 'viewBox="0 0 1000 1000"' in svg
        assert svg.count("<path") == 2
        assert svg.count("<circle") == 6
        assert svg.endswith("</svg>\n")

    def test_svg_coordinates_in_frame(self, octagon):
        import re
        svg = export_svg(octagon)
        nums = [float(v) for v in re.findall(r"[ML] (\S+) (\S+)", svg)
                for v in v]
        assert all(-1.0 <= v <= 1001.0 for v in nums)


class TestSL2Invariance:
    def test_density_invariant(self, octagon, rng):
        for _ in range(10):
            g = random_frame(rng)
            moved = from_chain(ChainParams(
                transform_state(g, octagon.chain.initial),
                octagon.chain.links))
            assert abs(moved.density - octagon.density) < 1e-9
