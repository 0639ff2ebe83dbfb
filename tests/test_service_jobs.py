"""Tests for the async job manager (no HTTP; the manager API directly)."""

import json
import multiprocessing as mp
import os
import struct
import time
from pathlib import Path

import pytest

from repro.benchgen import load_tiny
from repro.flow import FlowConfig, flow_config_to_dict, run_flow
from repro.io import (
    assignment_to_dict,
    canonical_json,
    design_to_dict,
    floorplan_to_dict,
)
from repro.service import JobManager, cache_key, jobs
from repro.service.jobs import TEST_EXIT_ENV
from tests.helpers import explicit

# A patched child entry point reaches the child only when it is forked.
fork_only = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="needs the fork start method",
)


def _sleeping_worker(job_dir, *args):
    """A job child that publishes its pid and never finishes."""
    tmp = Path(job_dir) / "child.pid.tmp"
    tmp.write_text(str(os.getpid()))
    os.replace(tmp, Path(job_dir) / "child.pid")
    time.sleep(60)


def _torn_frame_worker(job_dir, parent_pid, design, cfg, profile_fmt, conn):
    """A job child that dies mid-message: the frame header promises
    1 MiB and only 16 bytes follow."""
    os.write(conn.fileno(), struct.pack("!i", 1 << 20) + bytes(16))
    os._exit(0)


@pytest.fixture(scope="module")
def design():
    return load_tiny(die_count=4, signal_count=16)


@pytest.fixture(scope="module")
def direct(design):
    return run_flow(design, FlowConfig())


def wait_terminal(manager, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        view = manager.status(job_id)
        if view["state"] in ("DONE", "FAILED", "CANCELLED"):
            return view
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal: {view}")


class TestJobLifecycle:
    def test_submit_run_result_identity(self, design, direct, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            view = manager.submit(design_to_dict(design))
            assert view["state"] in ("QUEUED", "RUNNING")
            final = wait_terminal(manager, view["id"])
            assert final["state"] == "DONE", final
            assert final["cached"] is False
            result = manager.result(view["id"])
            assert result["est_wl"] == direct.floorplan_result.est_wl
            assert result["twl"] == direct.twl
            assert result["floorplan"] == json.loads(
                json.dumps(floorplan_to_dict(direct.floorplan))
            )
            assert result["assignment"] == json.loads(
                json.dumps(assignment_to_dict(direct.assignment))
            )
            assert result["report"]["kind"] == "repro.run_report"
        finally:
            manager.shutdown()

    def test_resubmission_hits_cache(self, design, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            first = manager.submit(design_to_dict(design))
            wait_terminal(manager, first["id"])
            result1 = manager.result(first["id"])
            second = manager.submit(design_to_dict(design))
            # Instantly DONE, no process spawned, zero attempts.
            assert second["state"] == "DONE"
            assert second["cached"] is True
            assert second["attempts"] == 0
            result2 = manager.result(second["id"])
            assert json.dumps(result2, sort_keys=True) == json.dumps(
                result1, sort_keys=True
            )
            assert manager.cache.stats()["hits"] >= 1
        finally:
            manager.shutdown()

    def test_list_form_body_hits_the_grid_form_entry(self, design, tmp_path):
        grid_body = design_to_dict(design)
        list_body = explicit(design_to_dict(design))
        manager = JobManager(tmp_path, max_workers=1)
        try:
            first = manager.submit(grid_body)
            wait_terminal(manager, first["id"])
            # The spec holds the grid-form encoding the key was taken of.
            spec = json.loads(
                (tmp_path / "jobs" / first["id"] / "spec.json").read_text()
            )
            assert canonical_json(spec["design"]) == canonical_json(grid_body)
            second = manager.submit(list_body)
            assert second["cached"] is True
            assert second["cache_key"] == first["cache_key"]
            assert json.dumps(
                manager.result(second["id"]), sort_keys=True
            ) == json.dumps(manager.result(first["id"]), sort_keys=True)
        finally:
            manager.shutdown()

    def test_worker_count_does_not_split_the_cache(self, design, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            serial = manager.submit(
                design_to_dict(design),
                config=flow_config_to_dict(FlowConfig(floorplan_workers=1)),
            )
            wait_terminal(manager, serial["id"])
            pooled = manager.submit(
                design_to_dict(design),
                config=flow_config_to_dict(FlowConfig(floorplan_workers=4)),
            )
            assert pooled["cached"] is True
            assert pooled["cache_key"] == serial["cache_key"]
        finally:
            manager.shutdown()

    def test_invalid_design_rejected_before_job_exists(self, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            with pytest.raises((ValueError, KeyError)):
                manager.submit({"schema": 1, "nonsense": True})
            assert manager.list_jobs() == []
        finally:
            manager.shutdown()

    def test_failed_flow_reports_error(self, tmp_path):
        # A pairwise clearance no two dies can satisfy: every die fits
        # the interposer alone (so the submit-time linter passes), but
        # no packing exists — the failure must surface at runtime.
        design = load_tiny(die_count=3, signal_count=6)
        data = design_to_dict(design)
        data["spacing"]["die_to_die"] = 100.0
        manager = JobManager(tmp_path, max_workers=1)
        try:
            view = manager.submit(data)
            final = wait_terminal(manager, view["id"])
            assert final["state"] == "FAILED"
            assert "no legal floorplan" in final["error"]
            with pytest.raises(LookupError):
                manager.result(view["id"])
        finally:
            manager.shutdown()

    def test_cancel_queued_job(self, design, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            # Occupy the single runner slot, then cancel the queued job
            # behind it before it ever starts.
            first = manager.submit(design_to_dict(design))
            data = design_to_dict(design)
            data["name"] = "variant"  # distinct cache key
            second = manager.submit(data)
            cancelled = manager.cancel(second["id"])
            assert cancelled["state"] in ("CANCELLED", "RUNNING")
            final = wait_terminal(manager, second["id"])
            if cancelled["state"] == "CANCELLED":
                assert final["state"] == "CANCELLED"
                assert final["attempts"] == 0
            wait_terminal(manager, first["id"])
        finally:
            manager.shutdown()

    def test_events_cover_lifecycle(self, design, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            view = manager.submit(design_to_dict(design))
            wait_terminal(manager, view["id"])
            events, done = manager.events(view["id"])
            assert done is True
            types = [e["type"] for e in events]
            assert types[0] == "state"  # QUEUED
            assert "incumbent" in types  # streamed from the child
            states = [e["state"] for e in events if e["type"] == "state"]
            assert states == ["QUEUED", "RUNNING", "DONE"]
            assert [e["seq"] for e in events] == list(
                range(1, len(events) + 1)
            )
        finally:
            manager.shutdown()

    def test_completion_does_not_wait_for_the_tick(
        self, design, tmp_path, monkeypatch
    ):
        # The runner wakes on the child's exit, not on its wait tick.
        monkeypatch.setattr(jobs, "_WAIT_TICK_S", 30.0)
        manager = JobManager(tmp_path, max_workers=1)
        try:
            view = manager.submit(design_to_dict(design))
            final = wait_terminal(manager, view["id"], timeout_s=10.0)
            assert final["state"] == "DONE", final
        finally:
            manager.shutdown()

    @fork_only
    def test_cancel_running_job(self, design, tmp_path, monkeypatch):
        real = jobs._job_worker_main
        monkeypatch.setattr(jobs, "_job_worker_main", _sleeping_worker)
        manager = JobManager(tmp_path, max_workers=1, start_method="fork")
        try:
            view = manager.submit(design_to_dict(design))
            job_dir = tmp_path / "jobs" / view["id"]
            deadline = time.monotonic() + 30.0
            while not (job_dir / "child.pid").exists():
                assert time.monotonic() < deadline, "child never started"
                time.sleep(0.02)
            pid = int((job_dir / "child.pid").read_text())
            assert manager.status(view["id"])["state"] == "RUNNING"
            manager.cancel(view["id"])
            final = wait_terminal(manager, view["id"], timeout_s=30.0)
            assert final["state"] == "CANCELLED"
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # terminated and reaped, not a zombie
            assert not (job_dir / "result.json").exists()
            assert view["cache_key"] not in manager.cache
            monkeypatch.setattr(jobs, "_job_worker_main", real)
            after = manager.submit(design_to_dict(design))
            assert after["cached"] is False
            assert wait_terminal(manager, after["id"])["state"] == "DONE"
        finally:
            manager.shutdown()

    def test_spawn_child_matches_fork(self, design, direct, tmp_path):
        # Under spawn the design and config reach the child pickled.
        identities = {}
        for method in ("fork", "spawn"):
            if method not in mp.get_all_start_methods():
                continue
            manager = JobManager(
                tmp_path / method, max_workers=1, start_method=method
            )
            try:
                view = manager.submit(design_to_dict(design))
                final = wait_terminal(manager, view["id"])
                assert final["state"] == "DONE", final
                result = manager.result(view["id"])
                identities[method] = (result["est_wl"], result["twl"])
            finally:
                manager.shutdown()
        assert "spawn" in identities
        assert set(identities.values()) == {
            (direct.floorplan_result.est_wl, direct.twl)
        }

    def test_unusable_spec_fails_the_job(self, design, tmp_path):
        # A recovered job whose spec no longer parses fails with the
        # parse error instead of spawning a child.
        manager = JobManager(tmp_path, max_workers=1)
        manager.shutdown()
        job_dir = tmp_path / "jobs" / "badspec00000"
        job_dir.mkdir(parents=True)
        (job_dir / "spec.json").write_text(json.dumps({"config": {}}))
        (job_dir / "state.json").write_text(
            json.dumps(
                {
                    "id": "badspec00000",
                    "design": design.name,
                    "state": "QUEUED",
                    "cache_key": "",
                    "created_unix_s": 1.0,
                }
            )
        )
        revived = JobManager(tmp_path, max_workers=1)
        try:
            final = wait_terminal(revived, "badspec00000", timeout_s=30.0)
            assert final["state"] == "FAILED"
            assert final["error"] == "KeyError: 'design'"
            assert final["attempts"] == 1
        finally:
            revived.shutdown()


class TestCrashResume:
    def test_crash_retries_and_resumes(
        self, design, direct, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(TEST_EXIT_ENV, "2")
        manager = JobManager(tmp_path, max_workers=1)
        try:
            view = manager.submit(design_to_dict(design))
            final = wait_terminal(manager, view["id"])
            assert final["state"] == "DONE", final
            assert final["attempts"] == 2
            events, _ = manager.events(view["id"])
            retries = [e for e in events if e["type"] == "retry"]
            assert len(retries) == 1
            assert retries[0]["exitcode"] == 42
            result = manager.result(view["id"])
            assert result["est_wl"] == direct.floorplan_result.est_wl
            assert result["twl"] == direct.twl
        finally:
            manager.shutdown()

    def test_repeated_crash_exhausts_retries(
        self, design, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(TEST_EXIT_ENV, "2")
        manager = JobManager(tmp_path, max_workers=1, crash_retries=0)
        try:
            view = manager.submit(design_to_dict(design))
            final = wait_terminal(manager, view["id"])
            assert final["state"] == "FAILED"
            assert "died" in final["error"]
        finally:
            manager.shutdown()

    def test_restart_recovery_requeues_and_finishes(
        self, design, direct, tmp_path
    ):
        # Simulate a server killed mid-job: fabricate the on-disk layout
        # a RUNNING job leaves behind, then boot a fresh manager over it.
        manager = JobManager(tmp_path, max_workers=1)
        manager.shutdown()
        job_dir = tmp_path / "jobs" / "deadbeef0000"
        job_dir.mkdir(parents=True)
        cfg = FlowConfig()
        (job_dir / "spec.json").write_text(
            json.dumps(
                {
                    "design": design_to_dict(design),
                    "config": flow_config_to_dict(cfg),
                    "timeout_s": None,
                }
            )
        )
        (job_dir / "state.json").write_text(
            json.dumps(
                {
                    "id": "deadbeef0000",
                    "design": design.name,
                    "state": "RUNNING",
                    "cache_key": cache_key(design, cfg),
                    "attempts": 1,
                    "created_unix_s": 1.0,
                }
            )
        )
        revived = JobManager(tmp_path, max_workers=1)
        try:
            view = revived.status("deadbeef0000")
            assert view["state"] in ("QUEUED", "RUNNING", "DONE")
            final = wait_terminal(revived, "deadbeef0000")
            assert final["state"] == "DONE"
            result = revived.result("deadbeef0000")
            assert result["est_wl"] == direct.floorplan_result.est_wl
            assert result["twl"] == direct.twl
            events, _ = revived.events("deadbeef0000")
            assert events[0]["type"] == "recovered"
        finally:
            revived.shutdown()

    @fork_only
    def test_torn_frame_fails_the_job_and_frees_the_runner(
        self, design, tmp_path, monkeypatch
    ):
        real = jobs._job_worker_main
        monkeypatch.setattr(jobs, "_job_worker_main", _torn_frame_worker)
        manager = JobManager(
            tmp_path, max_workers=1, crash_retries=0, start_method="fork"
        )
        try:
            torn = manager.submit(design_to_dict(design))
            final = wait_terminal(manager, torn["id"], timeout_s=30.0)
            assert final["state"] == "FAILED", final
            assert "died" in final["error"]
            monkeypatch.setattr(jobs, "_job_worker_main", real)
            after = manager.submit(design_to_dict(design))
            assert after["cached"] is False
            assert wait_terminal(manager, after["id"])["state"] == "DONE"
        finally:
            manager.shutdown()


class TestStateSalvage:
    def test_torn_state_json_is_salvaged_from_spec(
        self, design, direct, tmp_path
    ):
        # The state snapshot is torn (half-written at crash time) but the
        # spec survived: recovery must rebuild the job from the spec and
        # requeue it rather than abandon the directory.
        manager = JobManager(tmp_path, max_workers=1)
        manager.shutdown()
        job_dir = tmp_path / "jobs" / "torn00000000"
        job_dir.mkdir(parents=True)
        (job_dir / "spec.json").write_text(
            json.dumps(
                {
                    "design": design_to_dict(design),
                    "config": flow_config_to_dict(FlowConfig()),
                    "timeout_s": None,
                }
            )
        )
        (job_dir / "state.json").write_text('{"id": "torn0000')
        revived = JobManager(tmp_path, max_workers=1)
        try:
            final = wait_terminal(revived, "torn00000000")
            assert final["state"] == "DONE"
            result = revived.result("torn00000000")
            assert result["est_wl"] == direct.floorplan_result.est_wl
            events, _ = revived.events("torn00000000")
            assert events[0]["type"] == "recovered"
        finally:
            revived.shutdown()


class TestDedupeSubmit:
    def test_dedupe_returns_the_registered_job(self, design, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            first = manager.submit(design_to_dict(design))
            again = manager.submit(design_to_dict(design), dedupe=True)
            assert again["id"] == first["id"]
            assert len(manager.list_jobs()) == 1
            wait_terminal(manager, first["id"])
        finally:
            manager.shutdown()

    def test_dedupe_without_a_match_submits_normally(
        self, design, tmp_path
    ):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            view = manager.submit(design_to_dict(design), dedupe=True)
            assert wait_terminal(manager, view["id"])["state"] == "DONE"
        finally:
            manager.shutdown()


class TestTerminalGC:
    def test_oldest_terminal_jobs_are_pruned(self, tmp_path):
        manager = JobManager(tmp_path, max_workers=1, max_terminal_jobs=2)
        try:
            ids = []
            for i in range(4):
                data = design_to_dict(
                    load_tiny(die_count=3, signal_count=6)
                )
                data["name"] = f"gc-variant-{i}"
                view = manager.submit(data)
                wait_terminal(manager, view["id"])
                ids.append(view["id"])
            survivors = {j["id"] for j in manager.list_jobs()}
            assert survivors == set(ids[-2:])
            for pruned in ids[:2]:
                assert not (tmp_path / "jobs" / pruned).exists()
                with pytest.raises(LookupError):
                    manager.status(pruned)
        finally:
            manager.shutdown()

    def test_max_terminal_zero_keeps_no_history(self, tmp_path):
        # max_terminal_jobs=0 prunes each job the moment it finishes;
        # the cached result proves it ran to completion, and GC never
        # touched it while QUEUED/RUNNING.
        manager = JobManager(tmp_path, max_workers=1, max_terminal_jobs=0)
        try:
            data = design_to_dict(load_tiny(die_count=3, signal_count=6))
            view = manager.submit(data)
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                try:
                    state = manager.status(view["id"])["state"]
                except LookupError:
                    break  # finished and pruned
                assert state in ("QUEUED", "RUNNING", "DONE")
                time.sleep(0.05)
            else:
                raise AssertionError("job neither finished nor pruned")
            assert view["cache_key"] in manager.cache
            assert manager.list_jobs() == []
        finally:
            manager.shutdown()

    def test_gc_applies_on_recovery_scan(self, tmp_path):
        manager = JobManager(tmp_path, max_workers=1)
        try:
            ids = []
            for i in range(3):
                data = design_to_dict(
                    load_tiny(die_count=3, signal_count=6)
                )
                data["name"] = f"recovery-gc-{i}"
                view = manager.submit(data)
                wait_terminal(manager, view["id"])
                ids.append(view["id"])
        finally:
            manager.shutdown()
        revived = JobManager(tmp_path, max_workers=1, max_terminal_jobs=1)
        try:
            assert len(revived.list_jobs()) == 1
        finally:
            revived.shutdown()


class TestTimeout:
    def test_timeout_fails_the_job(self, tmp_path):
        # A 5-die full enumeration takes far longer than 0.5 s.
        design = load_tiny(die_count=5, signal_count=20)
        manager = JobManager(tmp_path, max_workers=1)
        try:
            view = manager.submit(design_to_dict(design), timeout_s=0.5)
            final = wait_terminal(manager, view["id"], timeout_s=60.0)
            assert final["state"] == "FAILED"
            assert "timeout" in final["error"]
        finally:
            manager.shutdown()
