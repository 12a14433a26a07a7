"""Golden fingerprints of the two search harnesses at fixed seeds.

A change meant only to make the library faster must leave these exactly as
they are: the evaluation counts show that the searches took the same path,
and the densities and areas, compared by ``repr``, that they ended at the
same floats.  The values were captured with numpy 2.4.6.  Both searches
run the library's own solvers on numpy alone, so their fingerprints do not
move with scipy; another numpy may round differently and move them.
"""
import numpy as np
import pytest

from hexameral.optimize import (
    DEFAULT_BOUNDS,
    SearchSpec,
    five_link_search,
    link_reduction_experiment,
    octagon_embedding,
)

from conftest import random_reduce_segment, split_octagon_period


def test_probe_search_fingerprint():
    # the octagon embedding moved by a fixed step of length 1e-3
    step = np.array([1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
    lo = np.array([b[0] for b in DEFAULT_BOUNDS])
    hi = np.array([b[1] for b in DEFAULT_BOUNDS])
    start = np.clip(octagon_embedding() + 1e-3 * step / np.linalg.norm(step), lo, hi)
    result = five_link_search(SearchSpec(start=tuple(float(v) for v in start),
                                         restarts=1, max_evals=2000, seed=0))
    assert result.eval_count == 10
    assert repr(result.best_density) == "0.902414182997157"
    assert result.feasible


@pytest.mark.parametrize("seed, evals", [(1, 272), (2, 259)])
def test_cold_five_link_fingerprint(seed, evals):
    # cold starts restore trials far from closure, and seed 1 halves steps;
    # the probe near the octagon does neither
    result = five_link_search(SearchSpec(seed=seed))
    assert result.eval_count == evals
    assert repr(result.best_density) == "0.902414182997157"
    assert result.feasible


def test_split_period_reduction_fingerprint(octagon):
    report = link_reduction_experiment(split_octagon_period(octagon),
                                       SearchSpec(restarts=1, max_evals=3000))
    assert report.eval_count == 603
    assert repr(report.six_area) == "1.5630272144218342"
    assert repr(report.five_area) == "1.5630272144218325"
    assert report.root_count == 15


def test_random_segment_reduction_fingerprint(octagon):
    report = link_reduction_experiment(random_reduce_segment(octagon),
                                       SearchSpec(restarts=1, max_evals=3000))
    assert report.eval_count == 439
    assert report.root_count == 10
    assert repr(report.six_area) == "0.3126181255911544"
    assert repr(report.five_area) == "0.31252342123387417"
    assert [j for _, j in report.five_links] == [2, 4, 0, 4, 2]
