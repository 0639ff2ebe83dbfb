"""Tests for the EFA_mix dispatch logic (Section 5.1)."""

import pytest

from repro.benchgen import load_tiny
from repro.floorplan import FloorplanResult, run_efa_mix


def _stub_result(algorithm):
    # Any non-None floorplan marks the result as found; the dispatch
    # tests never inspect it.
    return FloorplanResult(object(), est_wl=1.0, algorithm=algorithm)


@pytest.fixture()
def recorded(monkeypatch):
    """Stub out all three backends of run_efa_mix, recording each call."""
    calls = {}

    class FakePlanner:
        def __init__(self, design, config):
            calls["c3"] = {"design": design, "config": config}

        def run(self):
            return _stub_result("stub_c3")

    def fake_dop(design, time_budget_s=None):
        calls["dop"] = {"design": design, "budget": time_budget_s}
        return _stub_result("stub_dop")

    def fake_parallel(design, config, checkpoint=None):
        calls["parallel"] = {
            "design": design,
            "config": config,
            "checkpoint": checkpoint,
        }
        return _stub_result("stub_par")

    import repro.floorplan.mix as mix
    import repro.parallel as parallel

    monkeypatch.setattr(mix, "EnumerativeFloorplanner", FakePlanner)
    monkeypatch.setattr(mix, "run_efa_dop", fake_dop)
    monkeypatch.setattr(parallel, "run_parallel_efa", fake_parallel)
    return calls


class TestMixDispatch:
    def test_small_design_uses_c3(self, recorded):
        design = load_tiny(die_count=4, signal_count=6)
        result = run_efa_mix(design)
        assert result.algorithm == "EFA_mix(c3)"
        assert set(recorded) == {"c3"}
        cfg = recorded["c3"]["config"]
        assert cfg.illegal_cut and cfg.inferior_cut

    def test_threshold_is_inclusive(self, recorded):
        design = load_tiny(die_count=5, signal_count=6)
        result = run_efa_mix(design)
        assert result.algorithm == "EFA_mix(c3)"
        assert set(recorded) == {"c3"}

    def test_large_design_uses_dop(self, recorded):
        design = load_tiny(die_count=6, signal_count=6)
        result = run_efa_mix(design)
        assert result.algorithm == "EFA_mix(dop)"
        assert set(recorded) == {"dop"}

    def test_custom_threshold(self, recorded):
        design = load_tiny(die_count=4, signal_count=6)
        result = run_efa_mix(design, die_threshold=3)
        assert result.algorithm == "EFA_mix(dop)"
        assert set(recorded) == {"dop"}

    def test_budget_forwarded_to_c3(self, recorded):
        design = load_tiny(die_count=3, signal_count=6)
        run_efa_mix(design, time_budget_s=7.5)
        assert recorded["c3"]["config"].time_budget_s == 7.5

    def test_budget_forwarded_to_dop(self, recorded):
        design = load_tiny(die_count=6, signal_count=6)
        run_efa_mix(design, time_budget_s=2.5)
        assert recorded["dop"]["budget"] == 2.5

    def test_workers_route_to_parallel_pool(self, recorded):
        design = load_tiny(die_count=3, signal_count=6)
        result = run_efa_mix(design, time_budget_s=4.0, workers=3)
        assert result.algorithm == "EFA_mix(c3[x3])"
        assert set(recorded) == {"parallel"}
        cfg = recorded["parallel"]["config"]
        assert cfg.workers == 3
        assert cfg.efa.time_budget_s == 4.0
        assert cfg.efa.illegal_cut and cfg.efa.inferior_cut
        assert recorded["parallel"]["checkpoint"] is None

    @pytest.mark.parametrize(
        "workers,name", [(1, "EFA_mix(c3)"), (2, "EFA_mix(c3[x2])")]
    )
    def test_checkpoint_forwarded_to_executor(self, recorded, workers, name):
        # A checkpoint store routes even a one-worker c3 arm through the
        # shard executor, which journals completed shards into it.
        design = load_tiny(die_count=3, signal_count=6)
        store = object()
        result = run_efa_mix(
            design, time_budget_s=4.0, workers=workers, checkpoint=store
        )
        assert result.algorithm == name
        assert set(recorded) == {"parallel"}
        assert recorded["parallel"]["checkpoint"] is store
        cfg = recorded["parallel"]["config"]
        assert cfg.workers == workers
        assert cfg.efa.time_budget_s == 4.0
        assert cfg.efa.illegal_cut and cfg.efa.inferior_cut

    def test_workers_ignored_above_threshold(self, recorded):
        # EFA_dop's enumeration is cheap; the large-n arm stays serial.
        design = load_tiny(die_count=6, signal_count=6)
        result = run_efa_mix(design, workers=4)
        assert result.algorithm == "EFA_mix(dop)"
        assert set(recorded) == {"dop"}

    def test_checkpoint_ignored_above_threshold(self, recorded):
        # Only the c3 arm is sharded, so only it journals shards.
        design = load_tiny(die_count=6, signal_count=6)
        result = run_efa_mix(design, checkpoint=object())
        assert result.algorithm == "EFA_mix(dop)"
        assert set(recorded) == {"dop"}
