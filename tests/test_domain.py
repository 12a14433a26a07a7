"""Domains: octagon constants, polylines, circle reference, exports."""
import math

import numpy as np
import pytest
import sympy

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
from hexameral import hyperlink
from hexameral.domain import _hexagon_vertices, _link_end_margins, _star_rows
from hexameral.errors import FrameDeterminantError, NotClosed, ParameterOutOfRange
from hexameral.hyperlink import SquareRep, link_area, link_multicurve, t_end, transform_state
from hexameral.multicurve import rank_classify
from hexameral.sl2 import wedge

from conftest import (
    flat_hyperbola_chain,
    polygon_area,
    random_frame,
    random_square_rep,
    split_octagon_period,
)

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
            BoundaryPolyline(np.array([(0, 0), (1, 0)]), True)

    def test_coincident_points(self):
        with pytest.raises(NotClosed):
            BoundaryPolyline(np.array([(0, 0), (1, 0), (1, 0), (0, 1)]), True)

    def test_negative_orientation(self):
        with pytest.raises(NotClosed):
            BoundaryPolyline(np.array([(0, 0), (0, 1), (1, 0)]), True)

    def test_open_polyline_allows_clockwise(self):
        poly = BoundaryPolyline(np.array([(0, 0), (0, 1), (1, 0)]), False)
        assert not poly.closed

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points(self, bad):
        for closed in (True, False):
            with pytest.raises(NotClosed, match="non-finite"):
                BoundaryPolyline(np.array([(0, 0), (1, 0), (bad, 1)]), closed)


class TestCircleReference:
    def test_hexagonal_degenerate_sampling(self):
        ref = circle_reference(samples=6)
        pts = ref.polyline.points
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

    def test_rows_keep_the_determinant_rule(self, octagon, monkeypatch):
        # canonical frames of determinant 4: the scalar kernel raises, and so
        # must the sampled rows, which run the same kernel on arrays
        square_frame = hyperlink._square_frame
        monkeypatch.setattr(hyperlink, "_square_frame",
                            lambda *args: tuple(2.0 * v for v in square_frame(*args)))
        rep = octagon.assembled.reps[0]
        with pytest.raises(FrameDeterminantError, match="frame determinant 4.0 too far from 1"):
            hyperlink._circle_tangent_at(rep.a, rep.k, rep.t0, rep.j)
        with pytest.raises(FrameDeterminantError):
            star_profile(octagon, 8)
        with pytest.raises(FrameDeterminantError):
            _link_end_margins(list(octagon.assembled.reps))
        assert verify_checks(octagon.chain)[0][:2] == ("assembly", False)


@pytest.mark.parametrize("per_link", [0, -1, 2.5, True])
def test_bad_sample_counts_rejected(octagon, per_link):
    for sample in (boundary_polyline, star_profile, export_svg):
        with pytest.raises(ParameterOutOfRange, match=f"per_link = {per_link!r}"):
            sample(octagon, per_link)


@pytest.mark.parametrize("samples", [0, -3, 2.5, True, 7.5])
def test_bad_multicurve_sample_counts_rejected(octagon, samples):
    rep = octagon.assembled.reps[0]
    for sample in (lambda n: link_multicurve(rep, n), circle_multicurve, circle_reference):
        with pytest.raises(ParameterOutOfRange, match=f"samples = {samples!r}"):
            sample(samples)


def test_least_multicurve_sample_counts(octagon):
    assert link_multicurve(octagon.assembled.reps[0], 2).shape == (6, 3, 2, 2)
    assert circle_multicurve(2).shape == (6, 3, 2, 2)
    assert len(circle_reference(1).polyline.points) == 6
    assert len(circle_reference(7).polyline.points) == 8


CHECK_NAMES = ["assembly", "star-conditions", "tangent-determinant", "convexity",
               "rank-per-link", "closure", "angle-condition", "link-length"]


class TestVerifyChecks:
    def test_octagon_rows(self, octagon, rng):
        checks = verify_checks(octagon.chain)
        assert [name for name, _, _ in checks] == CHECK_NAMES
        assert all(ok is True for _, ok, _ in checks)
        assert checks[0][2] == "4 links"
        assert checks[4][2] == "ranks [1, 1, 1, 1]"
        assert checks[7][2] == "4, (n-1) = 0 mod 3"
        # the chains a benchmark feeds to the verify command: an SL2-moved
        # octagon and a split period, eight rows that all pass
        moved = ChainParams(transform_state(random_frame(rng, 1.2), octagon.chain.initial),
                            octagon.chain.links)
        for chain in (moved, split_octagon_period(octagon, 0.3)):
            checks = verify_checks(chain)
            assert [name for name, _, _ in checks] == CHECK_NAMES
            assert all(ok is True for _, ok, _ in checks), checks

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
                     "convexity", "rank-per-link"):
            assert rows[name] == (False, "no link is non-degenerate")

    def test_flat_hyperbola_rank_row_passes(self):
        # a^2 = (sqrt(3)/2)(1 + 1e-11): samples of the hyperbola read as a
        # line, but its wedge(v, acc) = 2 a^2 (1 - k)/|t|^3 stays positive
        rows = verify_checks(flat_hyperbola_chain())
        assert [name for name, _, _ in rows] == CHECK_NAMES
        verdicts = {name: (ok, detail) for name, ok, detail in rows}
        assert verdicts["rank-per-link"] == (True, "ranks [1, 1]")
        ok, detail = verdicts["convexity"]
        assert ok and 0.0 < float(detail.split()[-1]) < 1e-9

    def test_convexity_row_reads_the_hyperbola(self, octagon):
        # least 2 a^2 (1 - k)/|t|^3 of the octagon's links, at t = t0
        rep = octagon.assembled.reps[0]
        least = 2.0 * rep.a ** 2 * (1.0 - rep.k) / abs(rep.t0) ** 3
        detail = dict((name, text) for name, _, text in verify_checks(octagon.chain))
        assert detail["convexity"] == f"min wedge(v, acc) {least:.3e}"

    def test_closure_row_ignores_the_angle_condition(self, octagon):
        # a small tau change leaves the residuals within a loose tolerance
        # but breaks the angle condition, which only its own row reports
        links = ((octagon.chain.links[0].tau + 2e-5, 0),) + octagon.chain.links[1:]
        rows = {name: (ok, detail)
                for name, ok, detail in verify_checks(ChainParams(octagon.chain.initial, links),
                                                      tol=1e-3)}
        assert rows["closure"][0]
        assert not rows["angle-condition"][0]
        assert rows["link-length"][0]

    def test_octagon_assembles_once(self, octagon, monkeypatch):
        # the link-length row reads the closure report the closure row made
        import hexameral.chain as chain_module
        import hexameral.domain as domain_module
        real = chain_module.assemble
        calls = []

        def counted(chain):
            calls.append(chain)
            return real(chain)

        monkeypatch.setattr(chain_module, "assemble", counted)
        monkeypatch.setattr(domain_module, "assemble", counted)
        checks = verify_checks(octagon.chain)
        assert all(ok for _, ok, _ in checks)
        assert len(calls) == 1

    def test_assembly_failure_ends_the_list(self):
        from hexameral.hyperlink import LinkState
        from hexameral.sl2 import FrameMatrix, TangentElement
        bad = ChainParams(
            LinkState(FrameMatrix(1.0, 0.0, 0.0, 1.0),
                      TangentElement(0.0, 1.0, 1.0).unit()),
            ((0.3, 0), (0.3, 2)))
        [(name, ok, detail)] = verify_checks(bad)
        assert (name, ok) == ("assembly", False)
        assert detail.startswith("link 0: ")


def _bernstein(poly, x, y) -> list:
    """Bernstein coefficients of a polynomial in x and y on the unit square."""
    p = sympy.Poly(poly, x, y)
    m, n = p.degree(x), p.degree(y)

    def ratio(i, r, d):
        return sympy.binomial(i, r) / sympy.binomial(d, r)

    return [sum(ratio(i, r, m) * ratio(j, q, n) * p.coeff_monomial(x ** r * y ** q)
                for r in range(i + 1) for q in range(j + 1))
            for i in range(m + 1) for j in range(n + 1)]


class TestLinkEndArgument:
    """The endpoint argument of the domain docstring, in exact arithmetic.

    On the link domain 0 < k < 1, -1 < t < k - 1 the verify margins of the
    circle tangent y = C^{-1} X C are positive constants times p/sqrt(Q), or
    (p/sqrt(Q))^2, with Q = k^2 t^4 |X|^2, and Q/p^2 is strictly convex in t.
    """

    k, t, s = sympy.symbols("k t s")
    Q = t ** 4 + (1 - k) ** 2 * (1 + t ** 2)
    # (shape, p): each star form is sqrt(3) or 2 sqrt(3) times a shape, and
    # a shape is (1 - k) or 1 times p / (k t^2)
    SHAPES = (
        ((1 - k) * (1 + t) / (k * t ** 2), 1 + t),
        ((k - 1 - t) / (k * -t), t * (t + 1 - k)),
        ((1 - k) / (k * -t), -t),
    )

    def _circle_tangent(self, j: int):
        """Exact y = C^{-1} X C of the square representation at index j, and |X|^2.

        The scale a multiplies positions and velocities alike, so it cancels
        from X = V P^{-1} and from y; it is set to one.
        """
        k, t = self.k, self.t
        s = (1 - k) / t
        # columns: positions of the hyperbola and of the x = a line
        p = sympy.Matrix([[-1 - s, 1], [-1 - t, t]])
        x = sympy.cancel(p.diff(t) * p.inv())
        u = sympy.Matrix([[sympy.cos(sympy.pi * m / 3) for m in (j, j + 2)],
                          [sympy.sin(sympy.pi * m / 3) for m in (j, j + 2)]])
        y = (u * p.inv() * x * p * u.inv()).applyfunc(sympy.cancel)
        return (y[0, 0], y[0, 1], y[1, 0]), x[0, 0] ** 2 + x[0, 1] ** 2 + x[1, 0] ** 2

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_star_columns_are_one_signed_closed_forms(self, j):
        k, t = self.k, self.t
        (ya, yb, yc), norm2 = self._circle_tangent(j)
        assert sympy.simplify(norm2 * k ** 2 * t ** 4 - self.Q) == 0
        assert sympy.simplify(-ya ** 2 - yb * yc - (1 - k) / (k * t ** 2)) == 0
        forms = [yc - sympy.sqrt(3) * ya, yc + sympy.sqrt(3) * ya, -(3 * yb + yc)]
        # the three star forms are the three shapes, permuted with j
        matches = [[i for i, (shape, _) in enumerate(self.SHAPES)
                    if sympy.simplify(form / shape) in (sympy.sqrt(3), 2 * sympy.sqrt(3))]
                   for form in forms]
        assert sorted(m for [m] in matches) == [0, 1, 2]
        for shape, p in self.SHAPES:
            assert sympy.simplify(shape * k * t ** 2 / p) in (1, 1 - k)

    @pytest.mark.parametrize("p", [1 + t, t * (t + 1 - k), -t], ids=["1+t", "t(t+1-k)", "-t"])
    def test_norm_over_p_squared_is_convex(self, p):
        k, t, s = self.k, self.t, self.s
        # (Q/p^2)'' p^4, a polynomial, at t = -1 + k s over the unit square
        d1, d2 = p.diff(t), p.diff(t, 2)
        q = self.Q
        numerator = (q.diff(t, 2) * p ** 2 - 4 * q.diff(t) * d1 * p
                     - 2 * q * d2 * p + 6 * q * d1 ** 2)
        coefficients = _bernstein(sympy.expand(numerator.subs(t, -1 + k * s)), k, s)
        assert min(coefficients) >= 0 and max(coefficients) > 0

    def test_library_margins_are_the_closed_forms(self, rng):
        k, t = self.k, self.t
        (ya, yb, yc), _ = self._circle_tangent(0)
        scale = sympy.sqrt(self.Q) / (k * t ** 2)  # |X|
        exact = sympy.lambdify((k, t), [(yc - sympy.sqrt(3) * sympy.Abs(ya)) / scale,
                                        -(3 * yb + yc) / scale,
                                        (-ya ** 2 - yb * yc) / scale ** 2])
        for _ in range(50):
            rep = random_square_rep(rng)
            rep = SquareRep(rep.a, rep.t0, rep.tau, 0)
            # the rows at the link's two ends
            for got, tt in zip(_star_rows([rep], 2), (rep.t0, t_end(rep))):
                assert np.allclose(got, exact(rep.k, tt), rtol=1e-12, atol=1e-14)


class TestInitialMultipoint:
    def test_relations_hold(self, octagon):
        mp = initial_multipoint(octagon)
        for j in range(6):
            assert abs(wedge(mp[j], mp[j + 2]) - math.sqrt(3.0) / 2.0) < 1e-12

    def test_balanced_hexagon_area(self, octagon):
        mp = initial_multipoint(octagon)
        x = octagon.chain.initial.tangent
        hexagon = _hexagon_vertices(mp.points, x.apply(mp.points))
        assert abs(polygon_area(hexagon) - SQRT12) < 1e-12


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
