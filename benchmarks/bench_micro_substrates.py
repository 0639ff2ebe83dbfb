"""Micro-benchmarks of the hot substrates (pytest-benchmark proper).

Unlike the table benches (single-shot experiment reproductions), these are
classic repeated-measurement micro-benchmarks of the inner loops every
experiment leans on: sequence-pair packing, the vectorized HPWL
evaluator, the MST builder, the sub-SAP flow kernel and window matching.
Useful for catching performance regressions when touching the substrates.
"""

import random

import pytest

from repro.benchgen import load_case
from repro.floorplan import FastHpwlEvaluator, run_efa  # noqa: F401
from repro.floorplan.efa import EnumerativeFloorplanner, EFAConfig
from repro.geometry import Point
from repro.mst import mst_length
from repro.assign import window_candidates
from repro.assign.ssp import min_cost_max_flow

import numpy as np


@pytest.fixture(scope="module")
def t4s():
    return load_case("t4s")


@pytest.mark.benchmark(group="micro")
def test_micro_sequence_pair_packing(benchmark, t4s):
    planner = EnumerativeFloorplanner(t4s, EFAConfig())
    dims = [planner._frame.dims_by_code[i][0] for i in range(4)]
    minus = (2, 0, 3, 1)
    rank_plus = [0, 1, 2, 3]
    benchmark(planner._pack, minus, rank_plus, dims)


@pytest.mark.benchmark(group="micro")
def test_micro_hpwl_evaluator(benchmark, t4s):
    evaluator = FastHpwlEvaluator(t4s)
    n = evaluator.die_count
    die_x = np.linspace(0.0, 1.5, n)
    die_y = np.linspace(0.0, 1.2, n)
    codes = np.zeros(n, dtype=np.int64)
    benchmark(evaluator.hpwl, die_x, die_y, codes)


@pytest.mark.benchmark(group="micro")
def test_micro_mst(benchmark):
    rng = random.Random(0)
    points = [
        Point(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(5)
    ]
    benchmark(mst_length, points)


@pytest.mark.benchmark(group="micro")
def test_micro_mcmf_bipartite(benchmark):
    n_left, n_right = 40, 120
    local = random.Random(2)
    cols, costs = [], []
    for _ in range(n_left):
        for v in local.sample(range(n_right), 12):
            cols.append(v)
            costs.append(local.uniform(0, 10))
    cols, costs = np.asarray(cols), np.asarray(costs)
    offsets = np.arange(0, 12 * n_left + 1, 12)

    def solve():
        return min_cost_max_flow(cols, costs, offsets).flow

    flow = benchmark(solve)
    assert flow == n_left


@pytest.mark.benchmark(group="micro")
def test_micro_window_matching(benchmark):
    rng = random.Random(3)
    buffers = [Point(rng.gauss(2.0, 0.1), rng.gauss(2.0, 0.1)) for _ in range(60)]
    sites = [
        Point(0.04 * c, 0.04 * r) for c in range(100) for r in range(100)
    ]
    cands, _ = benchmark(window_candidates, buffers, sites, 0.04)
    assert len(cands) == 60
