"""Tests for EFA_dop's candidate probing and fallbacks."""

import pytest

from repro.benchgen import load_case, load_tiny
from repro.eval import hpwl_estimate
from repro.floorplan import (
    EFAConfig,
    FastHpwlEvaluator,
    run_efa,
    run_efa_dop,
)
from repro.floorplan import dop
from repro.floorplan.dop import _probe_budget
from repro.floorplan.greedy_packing import (
    GreedyPackingResult,
    predetermine_orientations,
)
from repro.geometry import Orientation, Point
from repro.model import Floorplan, Placement


class TestProbeBudget:
    def test_none_budget_uses_cap(self):
        assert _probe_budget(None) == 2.0

    def test_fraction_of_small_budget(self):
        assert _probe_budget(10.0) == pytest.approx(1.0)

    def test_cap_applies(self):
        assert _probe_budget(1000.0) == 2.0

    def test_floor_applies(self):
        assert _probe_budget(0.1) == pytest.approx(0.05)


class TestDopBehavior:
    def test_always_finds_on_suite_cases(self):
        # Regression guard for the t6s failure mode (infeasible greedy
        # orientation vector, see DESIGN.md deviation 3).
        for case in ("t4s", "t6s"):
            result = run_efa_dop(load_case(case), time_budget_s=8)
            assert result.found, case
            assert result.floorplan.is_legal(), case

    def test_runtime_includes_probing(self):
        design = load_tiny(die_count=3, signal_count=8)
        result = run_efa_dop(design)
        # Greedy packing + probes + main run all counted.
        assert result.stats.runtime_s > 0

    def test_matches_exhaustive_when_probe_finds_optimum_vector(self):
        """With the free-probe candidate, tiny designs where the optimum's
        orientation vector is probe-discoverable end exactly at EFA_ori's
        quality."""
        design = load_tiny(die_count=2, signal_count=6)
        ori = run_efa(design, EFAConfig())
        dop = run_efa_dop(design)
        assert dop.found
        assert dop.est_wl >= ori.est_wl - 1e-9
        # For 2 dies the probe explores the whole space: exact match.
        assert dop.est_wl == pytest.approx(ori.est_wl)

    def test_dop_explores_single_orientation_per_sp(self):
        design = load_tiny(die_count=3, signal_count=8)
        result = run_efa_dop(design)
        stats = result.stats
        assert (
            stats.floorplans_evaluated + stats.floorplans_rejected_outline
            <= stats.sequence_pairs_total
        )


class TestDopFallbacks:
    def test_zero_budget_returns_reference_floorplan(self):
        """No enumeration budget: the legal greedy F_ref is returned, its
        est_wl from the solvers' HPWL evaluator."""
        design = load_case("t4s")
        packing = predetermine_orientations(design)
        assert packing.floorplan.is_legal()
        result = run_efa_dop(design, time_budget_s=0.0)
        assert result.found
        for die in design.dies:
            assert result.floorplan.placement(
                die.id
            ) == packing.floorplan.placement(die.id)
        assert result.est_wl == FastHpwlEvaluator(design).hpwl_of_floorplan(
            packing.floorplan
        )
        assert result.est_wl == pytest.approx(
            hpwl_estimate(design, packing.floorplan)
        )

    @staticmethod
    def _illegal_reference(monkeypatch, design, orientations):
        """Patch in a stacked (illegal) F_ref with ``orientations`` and
        probes that find nothing; return the fixed vector of every EFA
        run EFA_dop starts."""
        stacked = Floorplan(
            design,
            {
                d.id: Placement(Point(0.0, 0.0), orientations[d.id])
                for d in design.dies
            },
        )
        assert not stacked.is_legal()
        monkeypatch.setattr(
            dop,
            "predetermine_orientations",
            lambda _: GreedyPackingResult(stacked, dict(orientations), 0.0),
        )
        monkeypatch.setattr(dop, "_probe_budget", lambda _: 0.0)
        runs = []

        class Recording(dop.EnumerativeFloorplanner):
            def __init__(self, design, config):
                runs.append(config.fixed_orientations)
                super().__init__(design, config)

        monkeypatch.setattr(dop, "EnumerativeFloorplanner", Recording)
        return runs

    def test_all_r0_retry_skipped_when_already_enumerated(self, monkeypatch):
        design = load_tiny(die_count=3, signal_count=8)
        all_r0 = {d.id: Orientation.R0 for d in design.dies}
        runs = self._illegal_reference(monkeypatch, design, all_r0)
        result = run_efa_dop(design, time_budget_s=0.0)
        assert not result.found
        # The free probe, then the main enumeration on all-R0; no rerun.
        assert runs == [None, all_r0]

    def test_all_r0_retry_after_other_vector(self, monkeypatch):
        design = load_tiny(die_count=3, signal_count=8)
        all_r0 = {d.id: Orientation.R0 for d in design.dies}
        turned = dict(all_r0, **{design.dies[0].id: Orientation.R90})
        runs = self._illegal_reference(monkeypatch, design, turned)
        result = run_efa_dop(design, time_budget_s=0.0)
        assert not result.found
        # Free probe, one probe per vector, main run on the greedy vector,
        # then the all-R0 last resort.
        assert runs == [None, turned, all_r0, turned, all_r0]
