"""Acceptance suite: fifteen numbered criteria, one verdict line each.

Every test prints `criterion NN <name>: PASS/FAIL (detail)` so the suite
reads as a checklist under `pytest -s`.  Tolerances are pinned here and
nowhere loosened; a criterion that cannot be met must fail visibly.
"""
import math
import time

import numpy as np
import pytest
from scipy.optimize import least_squares

from hexameral.chain import (
    ChainParams,
    LinkParam,
    assemble,
    chain_area,
    closure_of,
    closure_report,
    link_length,
)
from hexameral.domain import (
    CIRCLE_DENSITY,
    OCTAGON_DENSITY,
    OCTAGON_LINK_AREA,
    circle_multicurve,
    circle_reference,
    density,
    octagon_square_rep,
    smoothed_octagon,
    star_profile,
)
from hexameral.errors import RankZero
from hexameral.hyperlink import link_area, link_multicurve, transform_state
from hexameral.multicurve import rank_classify, standard_multipoint
from hexameral.optimize import (
    DEFAULT_BOUNDS,
    SearchSpec,
    five_link_problem,
    five_link_search,
    link_reduction_experiment,
    octagon_embedding,
)
from hexameral.sl2 import wedge
from hexameral.variational import (
    Sampled,
    _wedge_coefficients,
    area_functional,
    chain_path,
    curvature_lemma_value,
    euler_lagrange_residual,
    rotation_path,
    second_variation_circle,
)

from conftest import (
    random_frame,
    random_square_rep,
    random_star_tangent,
    sector_quadrature,
    split_octagon_period,
    uniform_grid,
)

STANDARD = standard_multipoint()


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {verdict} ({detail})")
    return ok


def test_criterion_01_octagon_density():
    t0 = time.perf_counter()
    dom = smoothed_octagon()
    value = density(dom)
    elapsed = time.perf_counter() - t0
    target = (8.0 - math.sqrt(32.0) - math.log(2.0)) / (math.sqrt(8.0) - 1.0)
    err = abs(value - target)
    ok = err < 1e-12 and elapsed < 1.0
    assert _report(1, "octagon-density", ok,
                   f"err {err:.2e}, {elapsed:.3f}s")


def test_criterion_02_octagon_link_area():
    target = (math.sqrt(3.0)
              * (8.0 - 8.0 * math.sqrt(2.0) + math.sqrt(2.0) * math.log(2.0))
              / (4.0 * (-4.0 + math.sqrt(2.0))))
    err = abs(link_area(octagon_square_rep()) - target)
    ok = err < 1e-12
    assert _report(2, "octagon-link-area", ok, f"err {err:.2e}")


def test_criterion_03_quadrature_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        rep = random_square_rep(rng)
        worst = max(worst, abs(link_area(rep) - sector_quadrature(rep, 10**4)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _report(3, "quadrature-oracle", ok,
                   f"worst err {worst:.2e} over 100 reps, {elapsed:.2f}s")


def test_criterion_04_closure_sensitivity():
    dom = smoothed_octagon()
    base = dom.closure
    tight = max(base.frame_residual, base.tangent_residual)
    bumps = []
    for i in range(len(dom.chain.links)):
        links = list(dom.chain.links)
        links[i] = LinkParam(links[i].tau + 1e-2, links[i].j)
        bumped = closure_report(ChainParams(dom.chain.initial, tuple(links)))
        bumps.append(bumped.frame_residual)
    ok = tight < 1e-9 and all(b > 1e-3 for b in bumps)
    assert _report(4, "closure-sensitivity", ok,
                   f"residual {tight:.2e}, weakest bump {min(bumps):.2e}")


def test_criterion_05_link_length_congruence():
    dom = smoothed_octagon()
    counts = [link_length(dom.chain)]
    for ta in (0.1, 0.25, 0.4):
        counts.append(link_length(split_octagon_period(dom, ta)))
    ok = all(c == 4 for c in counts)

    # random closed chains: perturb the embedding, then project back onto
    # the closure manifold; every accepted chain must satisfy the congruence
    lo = np.array([b[0] for b in DEFAULT_BOUNDS])
    hi = np.array([b[1] for b in DEFAULT_BOUNDS])
    emb = octagon_embedding()
    rng = np.random.default_rng(42)
    accepted = 0
    for _ in range(10):
        p = np.clip(emb + rng.normal(0.0, 0.02, 7), lo, hi)
        snapped = least_squares(five_link_problem().residuals, p,
                                bounds=(lo, hi), max_nfev=200).x
        chain = five_link_problem().decode(snapped)
        if not closure_report(chain).closed():
            continue
        accepted += 1
        n = link_length(chain)
        counts.append(n)
        ok = ok and (n - 1) % 3 == 0
    ok = ok and accepted >= 5
    assert _report(5, "link-length-congruence", ok,
                   f"octagon+splits 4, {accepted} random chains "
                   f"counts {sorted(set(counts))}")


def test_criterion_06_rank_classification():
    dom = smoothed_octagon()
    ranks = [rank_classify(link_multicurve(rep)).value
             for rep in dom.assembled.reps]
    circle_rank = rank_classify(circle_multicurve(32)).value
    ts = np.linspace(0.0, 1.0, 16)
    # curve m is the line STANDARD[m] + (t, 0): velocity (1, 0), no acceleration
    flat = np.zeros((6, 3, ts.size, 2))
    flat[:, 0] = STANDARD.points[:, None]
    flat[:, 0, :, 0] += ts
    flat[:, 1, :, 0] = 1.0
    try:
        rank_classify(flat)
        rejected = False
    except RankZero:
        rejected = True
    ok = ranks == [1, 1, 1, 1] and circle_rank == 3 and rejected
    assert _report(6, "rank-classification", ok,
                   f"links {ranks}, circle {circle_rank}, "
                   f"rank-0 rejected {rejected}")


def test_criterion_07_star_conditions():
    dom = smoothed_octagon()
    profile = star_profile(dom, per_link=250)
    star_min = float(profile[:, :2].min())
    det_min = float(profile[:, 2].min())
    ok = len(profile) == 1000 and star_min > 0.0 and det_min > 0.0
    assert _report(7, "star-conditions", ok,
                   f"{len(profile)} samples, star margin {star_min:.3e}, "
                   f"det margin {det_min:.3e}")


def test_criterion_08_circle_comparison():
    ref = circle_reference()
    gap = ref.density - OCTAGON_DENSITY
    ok = ref.density == math.pi / math.sqrt(12.0) and gap > 4e-3
    assert _report(8, "circle-comparison", ok,
                   f"pi/sqrt(12) = {ref.density:.12f}, gap {gap:.2e}")


def test_criterion_09_curvature_lemma():
    rng = np.random.default_rng(20260814)
    worst_rel = 0.0
    min_value = math.inf
    for _ in range(10**4):
        x = random_star_tangent(rng)
        closed = curvature_lemma_value(x)
        min_value = min(min_value, closed)
        disc = x.a * x.a + x.b * x.c
        rows = np.array([_wedge_coefficients(x, m) for m in (0, 2)])
        rhs = np.array([disc * wedge(STANDARD[m], x.apply(STANDARD[m]))
                        for m in (0, 2)])
        sol = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        ca, cb, cc = _wedge_coefficients(x, 4)
        u4 = STANDARD[4]
        direct = (ca * sol[0] + cb * sol[1] + cc * sol[2]
                  - disc * wedge(u4, x.apply(u4)))
        worst_rel = max(worst_rel,
                        abs(direct - closed) / max(1.0, abs(closed)))
    ok = worst_rel <= 1e-9 and min_value > 0.0
    assert _report(9, "curvature-lemma", ok,
                   f"10^4 tangents, worst rel err {worst_rel:.2e}, "
                   f"min value {min_value:.3e}")


def test_criterion_10_second_variation():
    g = uniform_grid(2049)
    w = Sampled(np.sin(g), np.cos(g))
    pos = second_variation_circle(np.cos(g), w, g)
    neg = second_variation_circle(-np.cos(g), w, g)
    err = max(abs(pos - 4.0 * math.pi), abs(neg + 4.0 * math.pi))
    ok = err <= 1e-6
    assert _report(10, "second-variation", ok,
                   f"witnesses {pos:+.9f} / {neg:+.9f}, err {err:.2e}")


def test_criterion_11_euler_lagrange():
    rot = euler_lagrange_residual(rotation_path())
    dom = smoothed_octagon()
    link_residuals = []
    for i in range(len(dom.chain.links)):
        state = dom.assembled.states[i]
        one = ChainParams(state, dom.chain.links[i:i + 1])
        link_residuals.append(euler_lagrange_residual(chain_path(one, 64)))
    ok = rot < 1e-10 and all(r > 1e-2 for r in link_residuals)
    assert _report(11, "euler-lagrange", ok,
                   f"rotation {rot:.2e}, weakest link {min(link_residuals):.2e}")


def test_criterion_12_area_functional():
    dom = smoothed_octagon()
    target = 2.0 * chain_area(dom.chain)
    e256 = abs(area_functional(chain_path(dom.chain, 256)) - target)
    e512 = abs(area_functional(chain_path(dom.chain, 512)) - target)
    order_ratio = e256 / e512
    ok = e256 <= 1e-6 and order_ratio >= 3.5
    assert _report(12, "area-functional", ok,
                   f"err {e256:.2e} at 256/link, "
                   f"doubling ratio {order_ratio:.2f}")


def test_criterion_13_local_optimality_probe():
    t0 = time.perf_counter()
    emb = octagon_embedding()
    lo = np.array([b[0] for b in DEFAULT_BOUNDS])
    hi = np.array([b[1] for b in DEFAULT_BOUNDS])
    rng = np.random.default_rng(0)
    bar = 0.9024141 - 1e-9
    feasible_densities = []
    for i in range(20):
        d = rng.standard_normal(7)
        d *= 1e-3 / np.linalg.norm(d)
        start = np.clip(emb + d, lo, hi)
        spec = SearchSpec(start=tuple(float(v) for v in start),
                          restarts=1, max_evals=2000, seed=i)
        result = five_link_search(spec)
        if result.feasible:
            feasible_densities.append(result.best_density)
    elapsed = time.perf_counter() - t0
    ok = (len(feasible_densities) == 20
          and all(v >= bar for v in feasible_densities)
          and elapsed < 300.0)
    floor = min(feasible_densities) if feasible_densities else math.nan
    assert _report(13, "local-optimality-probe", ok,
                   f"{len(feasible_densities)}/20 feasible, min density "
                   f"{floor:.13f} >= {bar:.13f}, {elapsed:.1f}s")


def test_criterion_14_link_reduction_degenerate():
    dom = smoothed_octagon()
    six = split_octagon_period(dom)
    spec = SearchSpec(restarts=1, max_evals=3000, seed=5)
    report = link_reduction_experiment(six, spec)
    gap = report.five_area - report.six_area
    ok = (report.feasible and abs(gap) <= 1e-8 and gap >= -1e-9
          and not report.improved)
    assert _report(14, "link-reduction-degenerate", ok,
                   f"five minus six area {gap:+.2e}, "
                   f"endpoint residual {report.endpoint_residual:.2e}, "
                   f"improved {report.improved}")


def test_criterion_15_sl2_invariance():
    dom = smoothed_octagon()
    base_areas = [link_area(r) for r in dom.assembled.reps]
    base_ranks = [rank_classify(link_multicurve(r)).value
                  for r in dom.assembled.reps]
    rng = np.random.default_rng(20260814)
    worst = 0.0
    ranks_ok = True
    for _ in range(100):
        g = random_frame(rng)
        moved = ChainParams(transform_state(g, dom.chain.initial),
                            dom.chain.links)
        assembled = assemble(moved)
        report = closure_of(moved, assembled)
        worst = max(
            worst,
            abs(2.0 * assembled.area() / math.sqrt(12.0) - dom.density),
            abs(report.frame_residual - dom.closure.frame_residual),
            abs(report.tangent_residual - dom.closure.tangent_residual),
            max(abs(link_area(r) - a)
                for r, a in zip(assembled.reps, base_areas)),
        )
        ranks = [rank_classify(link_multicurve(r, samples=10)).value
                 for r in assembled.reps]
        ranks_ok = ranks_ok and ranks == base_ranks
    ok = worst <= 1e-9 and ranks_ok
    assert _report(15, "sl2-invariance", ok,
                   f"100 transforms, worst deviation {worst:.2e}, "
                   f"ranks stable {ranks_ok}")
