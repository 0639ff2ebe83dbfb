"""Differential tests: the sub-SAP kernel against the reference SSP solver.

Every instance runs through :func:`repro.assign.ssp.min_cost_max_flow` and
through :func:`repro.netflow.min_cost_max_flow` on the ``FlowNetwork`` the
assigner built before the kernel existed (same node order, same arc
order).  The two must agree exactly: the row -> site map, the cost
(``==``, not approximately), the flow, the augmentations and the settled
nodes.  The Eq. 3 generator puts sites and terminals on a 0.04 grid with
weights from {0.5, 1.0, 2.0}, so costs tie up to float noise - the regime
where the tie-breaks decide the matching.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.assign.mcmf_assign as mcmf_assign
from repro.assign import MCMFAssigner, MCMFAssignerConfig
from repro.assign.ssp import min_cost_max_flow
from repro.benchgen import load_case
from repro.floorplan import run_efa_mix
from repro.netflow import FlowNetwork
from repro.netflow import min_cost_max_flow as reference_mcmf

PITCH = 0.04
WEIGHTS = (0.5, 1.0, 2.0)


def reference(cols, costs, offsets, flow_limit=None, should_abort=None):
    """The generic solver on the network the assigner used to build."""
    network = FlowNetwork()
    source = network.add_node("s")
    sink = network.add_node("t")
    site_node = {}
    for j in sorted({int(j) for j in cols}):
        site_node[j] = network.add_node()
        network.add_edge(site_node[j], sink, 1, 0.0)
    arc_of = []
    for r in range(len(offsets) - 1):
        node = network.add_node()
        network.add_edge(source, node, 1, 0.0)
        arc_of.append(
            [
                (network.add_edge(node, site_node[int(j)], 1, float(c)), j)
                for j, c in zip(
                    cols[offsets[r]:offsets[r + 1]],
                    costs[offsets[r]:offsets[r + 1]],
                )
            ]
        )
    result = reference_mcmf(
        network, source, sink, flow_limit=flow_limit,
        should_abort=should_abort,
    )
    match = [
        next((int(j) for arc, j in arcs if network.flow_on(arc) > 0.5), -1)
        for arcs in arc_of
    ]
    return match, result


def assert_same(cols, costs, offsets, flow_limit=None, abort_after=None):
    def abort():
        """A fresh poll counter that fires after ``abort_after`` polls."""
        if abort_after is None:
            return None
        polls = itertools.count()
        return lambda: next(polls) >= abort_after

    got = min_cost_max_flow(
        cols, costs, offsets, flow_limit=flow_limit, should_abort=abort()
    )
    match, want = reference(
        cols, costs, offsets, flow_limit=flow_limit, should_abort=abort()
    )
    assert got.match.tolist() == match
    assert got.cost == want.cost  # exact
    assert got.flow == want.flow
    assert got.augmentations == want.augmentations
    assert got.settled == want.settled
    return got


def flatten(candidates, costs):
    """Per-row arrays -> the kernel's (cols, costs, offsets)."""
    offsets = np.zeros(len(candidates) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in candidates], out=offsets[1:])
    return np.concatenate(candidates), np.concatenate(costs), offsets


@st.composite
def eq3_instances(draw, full=False):
    """Rows on a grid, Eq. 3 costs: a leg plus weighted far terminals."""
    n_sites = draw(st.integers(1, 16))
    n_rows = draw(st.integers(1, 12))
    grid = st.tuples(st.integers(0, 8), st.integers(0, 8))
    sites = np.array(
        draw(st.lists(grid, min_size=n_sites, max_size=n_sites)), float
    ) * PITCH
    candidates, costs = [], []
    for _ in range(n_rows):
        if full:
            cand = np.arange(n_sites)
        else:
            cand = np.array(
                draw(st.permutations(range(n_sites)))[
                    : draw(st.integers(0, n_sites))
                ],
                dtype=np.int64,
            )
        bx, by = np.array(draw(grid), float) * PITCH
        cost = draw(st.sampled_from(WEIGHTS)) * (
            np.abs(sites[cand, 0] - bx) + np.abs(sites[cand, 1] - by)
        )
        for _ in range(draw(st.integers(0, 3))):
            tx, ty = np.array(draw(grid), float) * PITCH
            cost = cost + draw(st.sampled_from(WEIGHTS)) * (
                np.abs(sites[cand, 0] - tx) + np.abs(sites[cand, 1] - ty)
            )
        candidates.append(cand)
        costs.append(cost)
    return flatten(candidates, costs)


@st.composite
def uniform_instances(draw):
    """Sparse random candidates with uniform random costs."""
    n_sites = draw(st.integers(1, 20))
    candidates, costs = [], []
    for _ in range(draw(st.integers(1, 12))):
        k = draw(st.integers(0, n_sites))
        cand = np.array(
            draw(st.permutations(range(n_sites)))[:k], dtype=np.int64
        )
        candidates.append(cand)
        costs.append(
            np.array(
                draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)),
                dtype=float,
            )
        )
    return flatten(candidates, costs)


class TestKernelMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(eq3_instances())
    def test_eq3_ties(self, instance):
        assert_same(*instance)

    @settings(max_examples=40, deadline=None)
    @given(eq3_instances(full=True))
    def test_full_candidate_lists(self, instance):
        """MCMF_ori's shape: every row may take every site."""
        assert_same(*instance)

    @settings(max_examples=100, deadline=None)
    @given(uniform_instances())
    def test_uniform_costs(self, instance):
        assert_same(*instance)

    @settings(max_examples=60, deadline=None)
    @given(eq3_instances(), st.integers(0, 12))
    def test_flow_limit_below_rows(self, instance, limit):
        cols, costs, offsets = instance
        got = assert_same(cols, costs, offsets, flow_limit=limit)
        assert got.flow <= limit

    @settings(max_examples=60, deadline=None)
    @given(eq3_instances(), st.integers(0, 6))
    def test_abort_after_k_polls(self, instance, k):
        cols, costs, offsets = instance
        got = assert_same(
            cols, costs, offsets, flow_limit=len(offsets) - 1, abort_after=k
        )
        assert got.augmentations <= k

    @pytest.mark.parametrize("gap,winner", [(1e-9, 0), (2e-9, 1)])
    def test_later_offer_must_beat_by_more_than_eps(self, gap, winner):
        """Both rows settle at 0 in id order; the second one's offer to
        the only site replaces the first only if it lands strictly below
        ``dist - COST_EPS``."""
        cols, costs, offsets = flatten(
            [np.array([0]), np.array([0])],
            [np.array([1.0]), np.array([1.0 - gap])],
        )
        got = assert_same(cols, costs, offsets)
        assert got.match.tolist() == [0 if r == winner else -1 for r in (0, 1)]

    def test_rows_without_candidates_leave_flow_short(self):
        cols, costs, offsets = flatten(
            [np.array([0, 1]), np.zeros(0, dtype=np.int64), np.array([1])],
            [np.array([1.0, 2.0]), np.zeros(0), np.array([0.5])],
        )
        got = assert_same(cols, costs, offsets, flow_limit=3)
        assert got.flow == 2.0
        assert got.match.tolist() == [0, -1, 1]


def test_assigner_calls_the_kernel():
    """The assigner looks the solver up under this name at call time,
    which is also where the per-layer tracer wraps it."""
    assert mcmf_assign.min_cost_max_flow is min_cost_max_flow


@pytest.mark.parametrize("case", ["t4s", "t4m"])
def test_replay_real_sub_saps(case, monkeypatch):
    """Every sub-SAP of a real MCMF_fast flow, through both solvers."""
    replayed = []

    def both(cols, costs, offsets, **kwargs):
        replayed.append(len(offsets) - 1)
        return assert_same(cols, costs, offsets, kwargs["flow_limit"])

    monkeypatch.setattr(mcmf_assign, "min_cost_max_flow", both)
    design = load_case(case)
    result = MCMFAssigner(MCMFAssignerConfig()).assign_with_stats(
        design, run_efa_mix(design).floorplan
    )
    assert result.complete
    assert replayed == [s.demand for s in result.sub_saps]
