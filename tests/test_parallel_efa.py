"""Tests for the sharded multi-process EFA search and portfolio mode.

The headline property under test: for a fixed design, the parallel
search returns *exactly* the serial result — same placements, same
``est_wl``, same winning enumeration rank — for any worker count.
"""

import json
import logging
from itertools import permutations, product

import pytest

from repro.benchgen import load_tiny
from repro.cli import main as cli_main
from repro.eval import hpwl_estimate
from repro.floorplan import EFAConfig, EnumerativeFloorplanner, run_efa
from repro.geometry import Point
from repro.model import Die, IOBuffer, MicroBump
from repro.parallel import (
    LocalIncumbent,
    available_cpus,
    ParallelEFAConfig,
    PortfolioConfig,
    SharedIncumbent,
    resolve_start_method,
    resolve_workers,
    run_parallel_efa,
    run_portfolio,
)

from .helpers import assert_same_search, build_design, run_efa_scalar


@pytest.fixture(scope="module")
def design3():
    return load_tiny(die_count=3, signal_count=8)


def _placements(design, result):
    return {d.id: result.floorplan.placement(d.id) for d in design.dies}


def _symmetric_two_die_design():
    """Two identical square dies with centred buffers.

    A centred buffer on a square die is invariant under all four
    rotations, and the dies are interchangeable, so the optimum is hit by
    many exactly-equal-wirelength candidates — the tie-break regression
    case of the rank-ordered selection rule.
    """
    dies = [
        Die(
            id="d1",
            width=1.0,
            height=1.0,
            buffers=[IOBuffer("b1", "d1", Point(0.5, 0.5), "s1")],
            bumps=[MicroBump("m1", "d1", Point(0.5, 0.5))],
        ),
        Die(
            id="d2",
            width=1.0,
            height=1.0,
            buffers=[IOBuffer("b2", "d2", Point(0.5, 0.5), "s1")],
            bumps=[MicroBump("m2", "d2", Point(0.5, 0.5))],
        ),
    ]
    return build_design(dies=dies)


class TestIncumbents:
    def test_local_incumbent_keeps_minimum(self):
        inc = LocalIncumbent()
        assert inc.peek() == float("inf")
        inc.offer(5.0)
        inc.offer(7.0)
        inc.offer(3.0)
        assert inc.peek() == 3.0

    def test_shared_incumbent_keeps_minimum(self):
        inc = SharedIncumbent()
        assert inc.peek() == float("inf")
        inc.offer(5.0)
        inc.offer(7.0)
        inc.offer(3.0)
        assert inc.peek() == 3.0


class TestResolvers:
    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(8) == 8
        assert resolve_workers(None) >= 1

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_resolve_workers_caps_without_oversubscribe(self):
        cores = available_cpus()
        # An explicit request above the schedulable core count is capped
        # unless oversubscription is opted into.
        assert resolve_workers(cores + 7, oversubscribe=False) == cores
        assert resolve_workers(cores + 7, oversubscribe=True) == cores + 7
        # None always resolves to the core count, never above it.
        assert resolve_workers(None, oversubscribe=False) == cores

    def test_parallel_config_defaults_to_no_oversubscribe(self):
        assert ParallelEFAConfig().oversubscribe is False

    def test_resolve_start_method_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_start_method("not-a-method")

    def test_resolve_start_method_default_is_available(self):
        import multiprocessing as mp

        assert resolve_start_method(None) in mp.get_all_start_methods()


class TestShardRestrictedEFA:
    def test_shard_union_reproduces_serial_winner(self, design3):
        serial = run_efa(design3, EFAConfig())
        planner = EnumerativeFloorplanner(design3, EFAConfig())
        parts = [
            planner.run(plus_range=(lo, hi))
            for lo, hi in [(0, 2), (2, 3), (3, 6)]
        ]
        found = [p for p in parts if p.found]
        winner = min(found, key=lambda r: (r.est_wl, r.candidate_key))
        assert winner.est_wl == serial.est_wl
        assert winner.candidate_key == serial.candidate_key
        assert winner.candidate == serial.candidate

    def test_shard_stats_partition_the_space(self, design3):
        planner = EnumerativeFloorplanner(design3, EFAConfig())
        parts = [
            planner.run(plus_range=(lo, hi))
            for lo, hi in [(0, 2), (2, 3), (3, 6)]
        ]
        # EFA_ori has no pruning, so per-shard evaluation counts must sum
        # to the serial exhaustive totals.
        assert sum(p.stats.sequence_pairs_explored for p in parts) == 36
        assert (
            sum(
                p.stats.floorplans_evaluated
                + p.stats.floorplans_rejected_outline
                for p in parts
            )
            == 36 * 64
        )

    def test_invalid_plus_range_raises(self, design3):
        planner = EnumerativeFloorplanner(design3, EFAConfig())
        with pytest.raises(ValueError):
            planner.run(plus_range=(0, 7))

    def test_incumbent_bound_does_not_change_result(self, design3):
        cfg = EFAConfig(illegal_cut=True, inferior_cut=True)
        plain = EnumerativeFloorplanner(design3, cfg).run()
        # Seed the incumbent with the known optimum: maximum foreign
        # pruning pressure, yet the same winner must come back.
        inc = LocalIncumbent(plain.est_wl)
        seeded = EnumerativeFloorplanner(design3, cfg).run(incumbent=inc)
        assert seeded.est_wl == plain.est_wl
        assert seeded.candidate_key == plain.candidate_key


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def serial3(self, design3):
        return run_efa(
            design3, EFAConfig(illegal_cut=True, inferior_cut=True)
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_to_serial(self, design3, serial3, workers):
        par = run_parallel_efa(
            design3,
            ParallelEFAConfig(workers=workers, oversubscribe=True),
        )
        assert par.est_wl == serial3.est_wl
        assert par.candidate_key == serial3.candidate_key
        assert _placements(design3, par) == _placements(design3, serial3)

    def test_spawn_start_method(self, design3, serial3):
        par = run_parallel_efa(
            design3,
            ParallelEFAConfig(
                workers=2, start_method="spawn", oversubscribe=True
            ),
        )
        assert par.est_wl == serial3.est_wl
        assert _placements(design3, par) == _placements(design3, serial3)

    def test_merged_stats_cover_space_without_cuts(self, design3):
        par = run_parallel_efa(
            design3,
            ParallelEFAConfig(
                workers=2, efa=EFAConfig(), oversubscribe=True
            ),
        )
        stats = par.stats
        assert stats.sequence_pairs_total == 36
        assert stats.sequence_pairs_explored == 36
        assert (
            stats.floorplans_evaluated + stats.floorplans_rejected_outline
            == 36 * 64
        )

    def test_zero_budget_times_out(self, design3):
        par = run_parallel_efa(
            design3,
            ParallelEFAConfig(
                workers=2,
                oversubscribe=True,
                efa=EFAConfig(
                    illegal_cut=True,
                    inferior_cut=True,
                    time_budget_s=0.0,
                ),
            ),
        )
        assert par.stats.timed_out
        assert not par.found

    def test_serial_walk_keeps_callers_budget(self, design3):
        # The serial walk re-sets the remaining budget per shard; doing
        # that on the caller's config would hand a reused config an
        # ever-shrinking budget.
        cfg = EFAConfig(
            illegal_cut=True, inferior_cut=True, time_budget_s=30.0
        )
        run_parallel_efa(design3, ParallelEFAConfig(workers=1, efa=cfg))
        assert cfg.time_budget_s == 30.0


class TestShardTelemetryAndCertification:
    """Per-worker pruning attribution and the merged certified bound."""

    CUT_CFG = EFAConfig(illegal_cut=True, inferior_cut=True)

    def test_merged_stats_carry_certified_bound(self, design3):
        par = run_parallel_efa(
            design3,
            ParallelEFAConfig(
                workers=2, efa=self.CUT_CFG, oversubscribe=True
            ),
        )
        bound = par.stats.certified_lower_bound
        assert bound is not None
        # The pool completed the whole space, so the certificate is
        # tight: nothing cheaper than the returned optimum exists.
        assert bound == pytest.approx(par.est_wl)
        serial = run_efa(design3, self.CUT_CFG)
        assert bound == pytest.approx(
            serial.stats.certified_lower_bound
        )

    def test_per_worker_pruning_counters_survive_the_merge(self, design3):
        from repro import obs

        obs.reset_run()
        try:
            par = run_parallel_efa(
                design3,
                ParallelEFAConfig(
                    workers=2, efa=self.CUT_CFG, oversubscribe=True
                ),
            )
            balance = obs.telemetry().snapshot()["shard_balance"]
        finally:
            obs.reset_run()
        assert balance
        assert set(balance) <= {"worker0", "worker1"}
        stats = par.stats
        # The per-worker gauges partition the merged pool totals: the
        # funnel attribution is not lost in the shard reduce.
        for field, total in (
            ("pairs_explored", stats.sequence_pairs_explored),
            ("pruned_illegal", stats.pruned_illegal),
            ("pruned_inferior", stats.pruned_inferior),
            ("lower_bound_evaluations", stats.lower_bound_evaluations),
            ("floorplans_evaluated", stats.floorplans_evaluated),
            ("rejected_outline", stats.floorplans_rejected_outline),
        ):
            assert sum(
                w[field] for w in balance.values()
            ) == total, field

    def test_serial_path_records_worker0_balance(self, design3):
        from repro import obs

        obs.reset_run()
        try:
            run_parallel_efa(
                design3, ParallelEFAConfig(workers=1, efa=self.CUT_CFG)
            )
            balance = obs.telemetry().snapshot()["shard_balance"]
        finally:
            obs.reset_run()
        assert "worker0" in balance
        assert balance["worker0"]["pairs_explored"] > 0

    def test_annealers_do_not_certify(self, design3):
        from repro.floorplan import SAConfig, run_sa

        result = run_sa(design3, SAConfig(seed=3, time_budget_s=2))
        assert result.stats.certified_lower_bound is None


class TestTieBreakRegression:
    """Equal-wirelength candidates must resolve by enumeration rank."""

    @pytest.fixture(scope="class")
    def tie_design(self):
        return _symmetric_two_die_design()

    def test_serial_winner_is_lowest_rank_tie(self, tie_design):
        planner = EnumerativeFloorplanner(tie_design, EFAConfig())
        result = planner.run()
        assert result.found
        # Brute-force every candidate: the returned one must be the
        # lowest-(wl, rank) of the whole space.
        combos = list(product(range(4), repeat=2))
        best = None
        for pr, plus in enumerate(permutations(range(2))):
            for mr, minus in enumerate(permutations(range(2))):
                for ci, combo in enumerate(combos):
                    fp = planner.realize_candidate(plus, minus, combo)
                    if not fp.is_legal():
                        continue
                    wl = hpwl_estimate(tie_design, fp)
                    key = (pr, mr, ci)
                    if best is None or (wl, key) < best:
                        best = (wl, key)
        assert result.est_wl == pytest.approx(best[0], abs=1e-12)
        assert result.candidate_key == best[1]
        # The orientation tie must resolve to the first combo (all-R0).
        assert result.candidate_key[2] == 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sharded_agrees_on_ties(self, tie_design, workers):
        serial = run_efa(tie_design, EFAConfig())
        par = run_parallel_efa(
            tie_design,
            ParallelEFAConfig(
                workers=workers, efa=EFAConfig(), oversubscribe=True
            ),
        )
        assert par.est_wl == serial.est_wl
        assert par.candidate_key == serial.candidate_key
        assert _placements(tie_design, par) == _placements(
            tie_design, serial
        )


class TestPortfolio:
    def test_returns_best_legal_floorplan(self, design3):
        result = run_portfolio(
            design3, PortfolioConfig(time_budget_s=30, seed=1)
        )
        assert result.found
        assert result.floorplan.is_legal()
        assert result.algorithm.startswith("portfolio(")
        # EFA_c3 completes within the budget on a 3-die design and is
        # exhaustive, so the portfolio can never do worse than it.
        serial = run_efa(
            design3, EFAConfig(illegal_cut=True, inferior_cut=True)
        )
        assert result.est_wl <= serial.est_wl + 1e-9

    def test_reproducible_for_fixed_seed(self, design3):
        cfg = PortfolioConfig(time_budget_s=30, seed=11)
        a = run_portfolio(design3, cfg)
        b = run_portfolio(design3, cfg)
        assert a.est_wl == b.est_wl
        assert a.algorithm == b.algorithm

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            PortfolioConfig(strategies=("efa_c3", "quantum"))

    def test_rejects_empty_strategies(self):
        with pytest.raises(ValueError):
            PortfolioConfig(strategies=())

    def test_subset_of_strategies(self, design3):
        result = run_portfolio(
            design3,
            PortfolioConfig(
                strategies=("sa",), time_budget_s=20, seed=3
            ),
        )
        assert result.found
        assert result.algorithm == "portfolio(SA)"


class TestParallelCLI:
    @pytest.fixture()
    def design_path(self, tmp_path):
        path = tmp_path / "design.json"
        rc = cli_main(
            ["generate", "--case", "tiny", "--dies", "3",
             "--signals", "8", "-o", str(path)]
        )
        assert rc == 0
        return path

    def test_workers_output_identical_to_serial(
        self, tmp_path, design_path
    ):
        serial = tmp_path / "fp1.json"
        sharded = tmp_path / "fp2.json"
        assert cli_main(
            ["floorplan", str(design_path), "--algorithm", "c3",
             "-o", str(serial)]
        ) == 0
        assert cli_main(
            ["floorplan", str(design_path), "--algorithm", "c3",
             "--workers", "2", "-o", str(sharded)]
        ) == 0
        assert serial.read_text() == sharded.read_text()

    def test_run_with_workers_and_report(self, tmp_path, design_path):
        report = tmp_path / "report.json"
        rc = cli_main(
            ["run", str(design_path), "--workers", "2",
             "--report", str(report)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["schema_version"] == 3
        # Worker counters must be reduced into the parent report.
        assert data["metrics"]["floorplan.efa.sequence_pairs_explored"] > 0

    def test_portfolio_flag(self, tmp_path, design_path):
        out = tmp_path / "fp.json"
        rc = cli_main(
            ["floorplan", str(design_path), "--portfolio",
             "--budget", "20", "--seed", "2", "-o", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["placements"]


class TestWindowedParallel:
    """Enumeration windows compose with sharding and both EFA kernels."""

    def test_windowed_pool_matches_windowed_serial(self, design3):
        cfg = EFAConfig(
            illegal_cut=True,
            inferior_cut=True,
            plus_range=(1, 5),
            minus_range=(0, 4),
        )
        serial = run_efa(design3, cfg)
        pooled = run_parallel_efa(
            design3,
            ParallelEFAConfig(workers=2, efa=cfg, oversubscribe=True),
        )
        assert pooled.est_wl == serial.est_wl
        assert pooled.candidate_key == serial.candidate_key
        assert pooled.stats.sequence_pairs_total == 4 * 4

    def test_windowed_batch_matches_windowed_scalar(
        self, design3, monkeypatch
    ):
        cfg = EFAConfig(plus_range=(0, 3), minus_range=(2, 6))
        sweep = run_efa(design3, cfg)
        scalar = run_efa_scalar(monkeypatch, design3, cfg)
        assert_same_search(sweep, scalar)

    def test_empty_window_returns_not_found(self, design3):
        result = run_parallel_efa(
            design3,
            ParallelEFAConfig(
                workers=2, efa=EFAConfig(plus_range=(2, 2))
            ),
        )
        assert not result.found
        assert result.stats.sequence_pairs_total == 0


class TestShardImbalanceWarning:
    """End-of-run structured warning when shard load skews badly.

    Captured with a handler attached directly to the executor logger —
    the repro hierarchy may run with ``propagate=False`` when earlier
    tests configured CLI logging, which would bypass caplog's
    root-logger handler.
    """

    class _Capture(logging.Handler):
        def __init__(self):
            super().__init__(level=logging.WARNING)
            self.records = []

        def emit(self, record):
            self.records.append(record)

    @pytest.fixture()
    def captured(self):
        handler = self._Capture()
        logger = logging.getLogger("repro.parallel.executor")
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.WARNING)
        try:
            yield handler.records
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)

    @staticmethod
    def _rec(worker, pairs, runtime_s=0.1):
        return {
            "worker": worker,
            "stats": {
                "runtime_s": runtime_s,
                "sequence_pairs_explored": pairs,
                "pruned_illegal": 0,
                "pruned_inferior": 0,
                "lower_bound_evaluations": pairs,
                "floorplans_evaluated": pairs,
                "floorplans_rejected_outline": 0,
            },
        }

    @staticmethod
    def _warnings(records):
        return [r for r in records if "shard imbalance" in r.getMessage()]

    def test_skewed_load_warns_with_structured_extra(self, captured):
        from repro.parallel.executor import _warn_on_imbalance

        _warn_on_imbalance([self._rec(0, 1000), self._rec(1, 10)], workers=2)
        warnings = self._warnings(captured)
        assert len(warnings) == 1
        extra = warnings[0].shard_imbalance
        assert extra["field"] == "pairs_explored"
        assert extra["workers"] == 2
        assert extra["gini"] > 0.4
        assert extra["per_worker"]["worker0"] == 1000

    def test_balanced_load_is_silent(self, captured):
        from repro.parallel.executor import _warn_on_imbalance

        _warn_on_imbalance([self._rec(0, 500), self._rec(1, 500)], workers=2)
        assert not self._warnings(captured)

    def test_serial_pool_never_warns(self, captured):
        from repro.parallel.executor import _warn_on_imbalance

        _warn_on_imbalance([self._rec(0, 1000)], workers=1)
        assert not self._warnings(captured)

    def test_threshold_env_override(self, captured, monkeypatch):
        from repro.parallel.executor import (
            _warn_on_imbalance,
            shard_gini_threshold,
        )

        monkeypatch.setenv("REPRO_SHARD_GINI_WARN", "0.05")
        assert shard_gini_threshold() == 0.05
        # A mild skew clears the default 0.4 bar but trips the tight one.
        _warn_on_imbalance([self._rec(0, 700), self._rec(1, 300)], workers=2)
        assert self._warnings(captured)

    def test_zero_threshold_disables(self, captured, monkeypatch):
        from repro.parallel.executor import _warn_on_imbalance

        monkeypatch.setenv("REPRO_SHARD_GINI_WARN", "0")
        _warn_on_imbalance([self._rec(0, 1000), self._rec(1, 0)], workers=2)
        assert not self._warnings(captured)

    def test_bad_env_value_falls_back_to_default(self, monkeypatch):
        from repro.parallel.executor import (
            SHARD_GINI_WARN_DEFAULT,
            shard_gini_threshold,
        )

        monkeypatch.setenv("REPRO_SHARD_GINI_WARN", "not-a-float")
        assert shard_gini_threshold() == SHARD_GINI_WARN_DEFAULT
