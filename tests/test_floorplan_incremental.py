"""Tests for delta (incremental) HPWL evaluation and its engine wiring.

The headline property: every cost the SA engines see through
:class:`IncrementalHpwl` is **bit-identical** to a from-scratch
``FastHpwlEvaluator.hpwl`` call — not approximately equal.  The tests
drive that three ways:

* a direct random walk over propose/accept/reject sequences, comparing
  each proposal against the full evaluator with ``==``;
* whole anneals (both engines) with the built-in cross-check cadence set
  to 1, so *every* proposal is verified in-run;
* full trajectory identity between delta evaluation and the
  ``REPRO_SA_FULL_EVAL=1`` escape hatch — same accepted costs, same
  move count, same final floorplan.

Also covered: the env knobs, the dirty-set accounting, and the
annealer's bounded pack cache with hit/miss counters (both
representations).
"""

import random

import numpy as np
import pytest

from repro.benchgen import load_tiny
from repro.floorplan import (
    DEFAULT_CROSS_CHECK_EVERY,
    FastHpwlEvaluator,
    IncrementalHpwl,
    SAConfig,
    BTreeSAConfig,
    full_eval_forced,
    run_btree_sa,
    run_sa,
)
from repro.floorplan.annealing import AnnealingFloorplanner
from repro.floorplan.btree import BTreeFloorplanner


@pytest.fixture(scope="module")
def design():
    return load_tiny(die_count=4, signal_count=12)


@pytest.fixture()
def evaluator(design):
    return FastHpwlEvaluator(design)


def _fast_sa(seed=0, **kw):
    kw.setdefault("cooling", 0.85)
    kw.setdefault("moves_per_temperature", 20)
    return SAConfig(seed=seed, **kw)


def _fast_btree(seed=0, **kw):
    kw.setdefault("cooling", 0.85)
    kw.setdefault("moves_per_temperature", 20)
    return BTreeSAConfig(seed=seed, **kw)


class TestEnvKnobs:
    def test_full_eval_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SA_FULL_EVAL", raising=False)
        assert full_eval_forced() is False

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_full_eval_truthy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SA_FULL_EVAL", value)
        assert full_eval_forced() is True

    @pytest.mark.parametrize("value", ["", "0", "off", "no", "2"])
    def test_full_eval_falsy(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SA_FULL_EVAL", value)
        assert full_eval_forced() is False

    def test_cross_check_uses_config_without_env(self, design, monkeypatch):
        # The config field is the one cadence setting; 0 disables.
        monkeypatch.delenv("REPRO_SA_FULL_EVAL", raising=False)
        for every in (17, 0):
            sa = AnnealingFloorplanner(
                design, _fast_sa(cross_check_every=every)
            )
            btree = BTreeFloorplanner(
                design, _fast_btree(cross_check_every=every)
            )
            assert sa._inc.cross_check_every == every
            assert btree._inc.cross_check_every == every

    def test_config_rejects_negative_cadence(self):
        with pytest.raises(ValueError, match="cross_check_every"):
            SAConfig(cross_check_every=-1)
        with pytest.raises(ValueError, match="cross_check_every"):
            BTreeSAConfig(cross_check_every=-1)


class TestIncrementalUnit:
    def _random_state(self, rng, n):
        return (
            np.array([rng.uniform(0.0, 8.0) for _ in range(n)]),
            np.array([rng.uniform(0.0, 8.0) for _ in range(n)]),
            np.array([rng.randrange(4) for _ in range(n)], dtype=np.int64),
        )

    def test_accept_without_propose_raises(self, evaluator):
        inc = IncrementalHpwl(evaluator)
        with pytest.raises(RuntimeError, match="pending"):
            inc.accept()

    def test_double_accept_raises(self, evaluator):
        inc = IncrementalHpwl(evaluator)
        x, y, c = self._random_state(random.Random(0), evaluator.die_count)
        inc.propose(x, y, c)
        inc.accept()
        with pytest.raises(RuntimeError, match="pending"):
            inc.accept()

    def test_dirty_ratio_none_before_any_proposal(self, evaluator):
        assert IncrementalHpwl(evaluator).dirty_ratio is None

    def test_first_proposal_is_a_full_rescore(self, evaluator):
        inc = IncrementalHpwl(evaluator)
        x, y, c = self._random_state(random.Random(1), evaluator.die_count)
        got = inc.propose(x, y, c)
        assert got == evaluator.hpwl(x, y, c)
        assert inc.proposals == 1
        assert inc.full_rescores == 1
        assert inc.dirty_ratio == 1.0

    def test_single_die_move_dirties_only_incident_signals(
        self, evaluator
    ):
        inc = IncrementalHpwl(evaluator)
        rng = random.Random(2)
        x, y, c = self._random_state(rng, evaluator.die_count)
        inc.propose(x, y, c)
        inc.accept()
        x2 = x.copy()
        x2[0] += 0.375
        got = inc.propose(x2, y, c)
        assert got == evaluator.hpwl(x2, y, c)
        design = evaluator.design
        moved = evaluator.die_ids[0]
        incident = sum(
            any(design.die_of_buffer(b) == moved for b in s.buffer_ids)
            for s in design.signals
        )
        assert 0 < incident <= evaluator.signal_count
        assert inc.dirty_signals == evaluator.signal_count + incident
        assert inc.full_rescores == 1  # only the priming one

    def test_unchanged_proposal_reuses_committed_total(self, evaluator):
        inc = IncrementalHpwl(evaluator)
        x, y, c = self._random_state(random.Random(3), evaluator.die_count)
        total = inc.propose(x, y, c)
        inc.accept()
        # Equal *values* in fresh arrays: the value diff (not identity)
        # must classify this as "nothing moved".
        again = inc.propose(x.copy(), y.copy(), c.copy())
        assert again == total
        assert inc.full_rescores == 1
        assert inc.dirty_signals == evaluator.signal_count

    def test_random_walk_bit_identical_to_full(self, evaluator):
        """Random accepted/rejected move sequences: delta total ==
        from-scratch total at every single step.  The same walk runs over
        the differential corpus in ``tests/test_differential.py``."""
        from .test_differential import assert_same_walk

        assert_same_walk(evaluator.design)

    def test_cross_check_cadence_counts(self, evaluator):
        inc = IncrementalHpwl(evaluator, cross_check_every=4)
        rng = random.Random(5)
        n = evaluator.die_count
        for _ in range(8):
            inc.propose(*self._random_state(rng, n))
        assert inc.cross_checks == 2

    def test_cross_check_divergence_raises(self, evaluator, monkeypatch):
        inc = IncrementalHpwl(evaluator, cross_check_every=1)
        x, y, c = self._random_state(random.Random(6), evaluator.die_count)
        monkeypatch.setattr(
            evaluator, "hpwl", lambda *a, **k: float("nan")
        )
        with pytest.raises(RuntimeError, match="REPRO_SA_FULL_EVAL"):
            inc.propose(x, y, c)

    def test_default_cadence_is_applied(self, evaluator):
        assert (
            IncrementalHpwl(evaluator).cross_check_every
            == DEFAULT_CROSS_CHECK_EVERY
        )


class TestEngineBitIdentity:
    """Whole anneals through both engines, verified at every proposal."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_sa_every_proposal_matches_full_eval(self, design, seed):
        result = run_sa(design, _fast_sa(seed=seed, cross_check_every=1))
        stats = result.stats
        # cross_check_every=1 re-scores *every* proposal with the full
        # evaluator and raises on any mismatch — finishing is the proof.
        assert stats.incremental_proposals > 0
        assert stats.incremental_cross_checks == stats.incremental_proposals
        assert result.found
        assert result.floorplan.is_legal()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_btree_every_proposal_matches_full_eval(self, design, seed):
        result = run_btree_sa(
            design, _fast_btree(seed=seed, cross_check_every=1)
        )
        stats = result.stats
        assert stats.incremental_proposals > 0
        assert stats.incremental_cross_checks == stats.incremental_proposals
        assert result.found
        assert result.floorplan.is_legal()

    @pytest.mark.parametrize(
        "runner,cfg",
        [(run_sa, _fast_sa), (run_btree_sa, _fast_btree)],
        ids=["sa", "btree"],
    )
    def test_full_eval_escape_hatch_identical_trajectory(
        self, design, monkeypatch, runner, cfg
    ):
        monkeypatch.delenv("REPRO_SA_FULL_EVAL", raising=False)
        fast = runner(design, cfg(seed=4))
        monkeypatch.setenv("REPRO_SA_FULL_EVAL", "1")
        slow = runner(design, cfg(seed=4))
        # Same moves, same accepted costs, same final floorplan — the
        # escape hatch only changes wall-clock.
        assert slow.est_wl == fast.est_wl
        assert (
            slow.stats.floorplans_evaluated
            == fast.stats.floorplans_evaluated
        )
        assert (
            slow.floorplan.placements == fast.floorplan.placements
        )
        assert fast.stats.incremental_proposals > 0
        assert slow.stats.incremental_proposals == 0

    def test_tiny_pack_cache_same_result(self, design, monkeypatch):
        """Cache hits hand the incremental evaluator *reused* array
        objects (the identity fast path); a 1-entry cache forces fresh
        arrays every move.  Neither engine may notice."""
        import repro.floorplan.annealing as annealing

        baselines = [
            run_sa(design, _fast_sa(seed=4)),
            run_btree_sa(design, _fast_btree(seed=4)),
        ]
        monkeypatch.setattr(annealing, "_PACK_CACHE_LIMIT", 1)
        starved = [
            run_sa(design, _fast_sa(seed=4)),
            run_btree_sa(design, _fast_btree(seed=4)),
        ]
        for got, want in zip(starved, baselines):
            assert got.est_wl == want.est_wl
            assert got.floorplan.placements == want.floorplan.placements


class TestPackCacheBookkeeping:
    def test_sa_counters_and_bound(self, design):
        planner = AnnealingFloorplanner(design, _fast_sa(seed=1))
        planner.run()
        from repro.floorplan.annealing import _PACK_CACHE_LIMIT

        assert planner.pack_cache_misses == len(planner._pack_cache)
        assert planner.pack_cache_hits > 0
        assert len(planner._pack_cache) <= _PACK_CACHE_LIMIT

    def test_btree_counters_and_bound(self, design):
        planner = BTreeFloorplanner(design, _fast_btree(seed=1))
        planner.run()
        from repro.floorplan.annealing import _PACK_CACHE_LIMIT

        assert planner.pack_cache_misses == len(planner._pack_cache)
        assert planner.pack_cache_hits > 0
        assert len(planner._pack_cache) <= _PACK_CACHE_LIMIT

    def test_eviction_is_oldest_first(self, design, monkeypatch):
        import repro.floorplan.annealing as annealing

        monkeypatch.setattr(annealing, "_PACK_CACHE_LIMIT", 2)
        planner = AnnealingFloorplanner(design, _fast_sa())
        ids = tuple(range(len(planner._die_ids)))
        shape = (0,) * len(ids)
        pairs = [
            (plus, ids)
            for plus in (ids, ids[::-1], (ids[1], ids[0], *ids[2:]))
        ]
        for sp in pairs:
            planner._packed(sp, shape)
        assert len(planner._pack_cache) == 2
        keys = list(planner._pack_cache)
        # The first-inserted key is gone, the two newest remain.
        assert keys == [(sp, shape) for sp in pairs[1:]]
        assert planner.pack_cache_misses == 3
        # Re-asking for a resident state is a hit and reuses the arrays.
        a = planner._packed(pairs[2], shape)
        b = planner._packed(pairs[2], shape)
        assert planner.pack_cache_hits == 2
        assert a[0] is b[0] and a[1] is b[1]
