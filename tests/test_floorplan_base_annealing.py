"""Tests for shared floorplanner plumbing and the SP-SA internals."""

import time

import pytest

from repro.benchgen import load_tiny
from repro.floorplan import (
    FloorplanResult,
    SAConfig,
    SearchStats,
    TimeBudget,
    run_efa_mix,
    run_sa,
)
from repro.floorplan.annealing import AnnealingFloorplanner


class TestTimeBudget:
    def test_none_never_expires(self):
        budget = TimeBudget(None)
        assert not budget.expired
        assert budget.elapsed >= 0

    def test_zero_expires_immediately(self):
        budget = TimeBudget(0.0)
        assert budget.expired

    def test_restart(self):
        budget = TimeBudget(100.0)
        time.sleep(0.01)
        first = budget.elapsed
        budget.restart()
        assert budget.elapsed < first


class TestResultTypes:
    def test_default_result_is_not_found(self):
        result = FloorplanResult(None)
        assert not result.found
        assert result.est_wl == float("inf")

    def test_search_stats_defaults(self):
        stats = SearchStats()
        assert stats.sequence_pairs_explored == 0
        assert not stats.timed_out


class TestAnnealerInternals:
    @pytest.fixture(scope="class")
    def planner(self):
        design = load_tiny(die_count=3, signal_count=8)
        return AnnealingFloorplanner(design, SAConfig(seed=0))

    def test_neighbor_preserves_permutation(self, planner):
        import random

        rng = random.Random(0)
        sp = planner._initial_state(rng)
        indices = list(range(len(planner._die_ids)))
        codes = (0,) * len(indices)
        for _ in range(50):
            sp, codes = planner._neighbor(rng, sp, codes)
            plus, minus = sp
            assert sorted(plus) == indices
            assert sorted(minus) == indices
            assert len(codes) == len(indices)
            assert all(c in range(4) for c in codes)

    def test_evaluate_flags_oversize_as_illegal(self, planner):
        n = len(planner._die_ids)
        sp = (tuple(range(n)),) * 2  # All dies in one row.
        cost, legal = planner._evaluate(sp, (0,) * n)
        # A single row of three dies may or may not fit the tiny
        # interposer; whichever way, cost must be finite and consistent.
        assert cost < float("inf")
        if not legal:
            # The illegal penalty dominates any plausible HPWL.
            assert cost > 1e3

    def test_budget_truncation(self):
        design = load_tiny(die_count=3, signal_count=8)
        result = run_sa(design, SAConfig(seed=1, time_budget_s=0.05))
        assert result.stats.runtime_s < 5.0


class TestSAConfigValidation:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_initial_acceptance_range(self, bad):
        with pytest.raises(ValueError, match="initial_acceptance"):
            SAConfig(initial_acceptance=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.1, -0.5])
    def test_cooling_range(self, bad):
        with pytest.raises(ValueError, match="cooling"):
            SAConfig(cooling=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_moves_per_temperature_positive(self, bad):
        with pytest.raises(ValueError, match="moves_per_temperature"):
            SAConfig(moves_per_temperature=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_min_temperature_ratio_range(self, bad):
        with pytest.raises(ValueError, match="min_temperature_ratio"):
            SAConfig(min_temperature_ratio=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_overflow_penalty_positive(self, bad):
        with pytest.raises(ValueError, match="overflow_penalty"):
            SAConfig(overflow_penalty=bad)

    def test_btree_config_validated_too(self):
        from repro.floorplan.btree import BTreeSAConfig

        with pytest.raises(ValueError, match="BTreeSAConfig.cooling"):
            BTreeSAConfig(cooling=2.0)

    def test_defaults_are_valid(self):
        SAConfig()  # must not raise


class TestSAAccounting:
    def test_probes_not_counted_as_evaluations(self):
        # One initial evaluation + moves_per_temperature * levels; the 30
        # calibration probes must not inflate the count.  With a tiny
        # schedule the total stays far below 30 if probes are excluded.
        design = load_tiny(die_count=2, signal_count=4)
        result = run_sa(
            design,
            SAConfig(
                seed=3,
                moves_per_temperature=2,
                cooling=0.5,
                min_temperature_ratio=0.4,
            ),
        )
        # Two temperature levels max (0.5^2 < 0.4): 1 + 2 * levels.
        assert result.stats.floorplans_evaluated <= 1 + 2 * 2

    def test_budget_checked_inside_move_loop(self):
        design = load_tiny(die_count=3, signal_count=8)
        result = run_sa(
            design,
            SAConfig(seed=1, moves_per_temperature=100000, time_budget_s=0.2),
        )
        # Pre-fix the expiry was only seen between temperature levels, so
        # a single huge level overran the budget by orders of magnitude.
        assert result.stats.timed_out
        assert result.stats.runtime_s < 2.0

    def test_pack_cache_reused_on_180_flips(self):
        design = load_tiny(die_count=3, signal_count=8)
        planner = AnnealingFloorplanner(design, SAConfig(seed=0))
        n = len(planner._die_ids)
        sp = (tuple(range(n)),) * 2
        base = (0,) * n
        flipped = (2,) + base[1:]  # R0 -> R180 on the first die
        planner._evaluate(sp, base)
        misses_before = planner.pack_cache_misses
        planner._evaluate(sp, flipped)  # same footprints -> cache hit
        assert planner.pack_cache_misses == misses_before
        assert planner.pack_cache_hits >= 1

    def test_cached_evaluation_matches_fresh_planner(self):
        # The cached path must not change SA's cost function.
        design = load_tiny(die_count=3, signal_count=8)
        a = AnnealingFloorplanner(design, SAConfig(seed=0))
        sp = ((0, 1, 2), (2, 1, 0))
        codes = (1, 3, 0)  # R90, R270, R0
        first = a._evaluate(sp, codes)
        again = a._evaluate(sp, codes)  # now served from the cache
        assert first == again


_GOLDEN_SA = {
    (4, 0): (14.869264242803713, 1141, 12965, {
        "d1": (0.20217329414362825, 0.055321945928976414, "R0"),
        "d2": (0.775, 0.055321945928976414, "R180"),
        "d3": (0.775, 0.6135047599273952, "R90"),
        "d4": (0.20217329414362825, 0.5171391319305577, "R90"),
    }),
    (4, 3): (15.789619810967743, 1141, 13244, {
        "d1": (0.7038289572794998, 0.055321945928976414, "R90"),
        "d2": (0.1729999999999999, 0.6864952400726049, "R0"),
        "d3": (0.1729999999999999, 0.055321945928976414, "R270"),
        "d4": (0.7458267058563717, 0.6281486517853482, "R0"),
    }),
    (4, 11): (15.789619810967743, 1141, 13125, {
        "d1": (0.7038289572794998, 0.055321945928976414, "R90"),
        "d2": (0.1729999999999999, 0.6864952400726049, "R0"),
        "d3": (0.1729999999999999, 0.055321945928976414, "R270"),
        "d4": (0.7458267058563717, 0.6281486517853482, "R0"),
    }),
    (2, 5): (10.775118690213802, 1141, 14052, {
        "d1": (0.8041732941436284, 0.16499999999999995, "R180"),
        "d2": (0.1729999999999999, 0.16499999999999995, "R180"),
    }),
}

_GOLDEN_BTREE = {
    (4, 0): (15.52993339424988, 1141, 12747, {
        "d1": (0.1729999999999999, 0.0898278315679357, "R0"),
        "d2": (0.1729999999999999, 0.551645017569517, "R0"),
        "d3": (0.7458267058563717, 0.0898278315679357, "R270"),
        "d4": (0.7458267058563717, 0.7210011257115642, "R0"),
    }),
    (4, 3): (12.835204615094574, 1141, 12601, {
        "d1": (0.1729999999999999, 0.13999999999999999, "R0"),
        "d2": (0.1729999999999999, 0.6018171860015813, "R0"),
        "d3": (0.7458267058563717, 0.13999999999999999, "R0"),
        "d4": (0.7458267058563717, 0.6708289572794999, "R0"),
    }),
    (4, 11): (14.399211620547334, 1141, 12840, {
        "d1": (0.7886769283594595, 0.04799999999999991, "R90"),
        "d2": (0.2304941143610407, 0.04799999999999991, "R90"),
        "d3": (0.7886769283594595, 0.6208267058563717, "R90"),
        "d4": (0.2304941143610407, 0.6208267058563717, "R90"),
    }),
    (2, 5): (10.6947524224372, 1141, 11616, {
        "d1": (0.29, 0.04799999999999991, "R90"),
        "d2": (0.29, 0.6208267058563717, "R90"),
    }),
}


class TestAnnealGolden:
    """Exact trajectories of both annealers, pinned as literals.

    Any change to RNG call order, move sets, cost arithmetic or the
    packing frame moves at least one of these values.  The dirty-signal
    count fingerprints every proposal of the run, not just the winner.
    """

    @pytest.mark.parametrize("engine", ["sa", "btree"])
    @pytest.mark.parametrize("case", list(_GOLDEN_SA))
    def test_trajectory_is_pinned(self, engine, case, monkeypatch):
        from repro.floorplan import BTreeSAConfig, run_btree_sa

        monkeypatch.delenv("REPRO_SA_FULL_EVAL", raising=False)
        dies, seed = case
        runner, config, golden = {
            "sa": (run_sa, SAConfig, _GOLDEN_SA),
            "btree": (run_btree_sa, BTreeSAConfig, _GOLDEN_BTREE),
        }[engine]
        design = load_tiny(die_count=dies, signal_count=12)
        result = runner(
            design, config(seed=seed, cooling=0.85, moves_per_temperature=20)
        )
        est_wl, evaluated, dirty, placements = golden[case]
        assert result.est_wl == est_wl
        assert result.stats.floorplans_evaluated == evaluated
        assert result.stats.incremental_dirty_signals == dirty
        got = {
            die: (p.position.x, p.position.y, p.orientation.name)
            for die, p in result.floorplan.placements.items()
        }
        assert got == placements


class TestMixThreshold:
    def test_threshold_boundary(self):
        design = load_tiny(die_count=3, signal_count=8)
        at = run_efa_mix(design, die_threshold=3)
        below = run_efa_mix(design, die_threshold=2)
        assert at.algorithm == "EFA_mix(c3)"
        assert below.algorithm == "EFA_mix(dop)"
