"""Tests for the checkpoint store and checkpointed EFA resume.

The property that matters: a search resumed from a checkpoint — partial
or complete, after any number of interruptions — returns exactly the
result of the uninterrupted run.
"""

import json

import pytest

from repro.benchgen import load_tiny
from repro.floorplan import EFAConfig
from repro.parallel import (
    ParallelEFAConfig,
    checkpoint_fingerprint,
    make_shards,
    run_parallel_efa,
)
from repro.service import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
)


@pytest.fixture(scope="module")
def design():
    return load_tiny(die_count=4, signal_count=10)


FINGERPRINT = {"design": "sha256:abc", "efa": {"x": 1}, "shards": [[0, 4]]}


class TestCheckpointStore:
    def test_fresh_store_replays_nothing(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt.json")
        assert store.open_run(FINGERPRINT) == []
        assert store.records == []

    def test_record_flush_reload(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = CheckpointStore(path)
        store.open_run(FINGERPRINT)
        store.record(
            {"shard": 0, "found": True, "est_wl": 1.5, "stats": {}}
        )
        store.record(
            {"shard": 1, "found": False, "est_wl": None, "stats": {}}
        )
        assert path.exists()
        replayed = CheckpointStore(path).open_run(FINGERPRINT)
        assert [r["shard"] for r in replayed] == [0, 1]
        assert replayed[0]["est_wl"] == 1.5

    def test_records_json_round_trip_immediately(self, tmp_path):
        # A replayed record must be indistinguishable from one recorded
        # this run: tuples arrive back as lists either way.
        store = CheckpointStore(tmp_path / "ckpt.json")
        store.open_run(FINGERPRINT)
        store.record({"shard": 0, "candidate": ((0, 1), (1, 0), 3)})
        assert store.records[0]["candidate"] == [[0, 1], [1, 0], 3]

    def test_fingerprint_mismatch_starts_fresh(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = CheckpointStore(path)
        store.open_run(FINGERPRINT)
        store.record({"shard": 0})
        other = dict(FINGERPRINT, design="sha256:def")
        assert CheckpointStore(path).open_run(other) == []

    def test_fingerprint_match_is_canonical_not_ordered(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = CheckpointStore(path)
        store.open_run(FINGERPRINT)
        store.record({"shard": 0, "found": False, "stats": {}})
        reordered = {k: FINGERPRINT[k] for k in reversed(list(FINGERPRINT))}
        assert len(CheckpointStore(path).open_run(reordered)) == 1

    def test_corrupt_file_starts_fresh(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        assert CheckpointStore(path).open_run(FINGERPRINT) == []

    def test_wrong_kind_or_schema_starts_fresh(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"kind": "other", "records": []}))
        assert CheckpointStore(path).open_run(FINGERPRINT) == []
        path.write_text(
            json.dumps(
                {
                    "kind": CHECKPOINT_KIND,
                    "schema": CHECKPOINT_SCHEMA_VERSION + 1,
                    "fingerprint": FINGERPRINT,
                    "records": [{"shard": 0}],
                }
            )
        )
        assert CheckpointStore(path).open_run(FINGERPRINT) == []

    def test_flush_leaves_no_tmp_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt.json")
        store.open_run(FINGERPRINT)
        store.record({"shard": 0})
        store.flush()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_discard_removes_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = CheckpointStore(path)
        store.open_run(FINGERPRINT)
        store.record({"shard": 0})
        store.discard()
        assert not path.exists()
        store.discard()  # idempotent

    @pytest.mark.parametrize("uptime", [5.0, 1e6])
    def test_flush_interval_batches_writes(self, tmp_path, monkeypatch, uptime):
        # time.monotonic() counts from boot: the first record must flush
        # on a host up for seconds as well as on one up for days.
        import repro.service.checkpoint as checkpoint

        monkeypatch.setattr(checkpoint.time, "monotonic", lambda: uptime)
        path = tmp_path / "ckpt.json"
        store = CheckpointStore(path, flush_interval_s=3600.0)
        store.open_run(FINGERPRINT)
        store.record({"shard": 0})  # first record always flushes
        store.record({"shard": 1})  # throttled
        on_disk = json.loads(path.read_text())
        assert len(on_disk["records"]) == 1
        store.flush()
        on_disk = json.loads(path.read_text())
        assert len(on_disk["records"]) == 2


class TestCheckpointedSearch:
    def _run(self, design, checkpoint=None, workers=1):
        return run_parallel_efa(
            design,
            ParallelEFAConfig(
                workers=workers,
                oversubscribe=True,
                efa=EFAConfig(illegal_cut=True, inferior_cut=True),
            ),
            checkpoint=checkpoint,
        )

    def test_full_checkpoint_resumes_without_search(
        self, design, tmp_path
    ):
        path = tmp_path / "ckpt.json"
        baseline = self._run(design)
        first = self._run(design, CheckpointStore(path))
        assert first.est_wl == baseline.est_wl
        # All shards are now journaled: the resumed run replays them all
        # and explores nothing new.
        resumed = self._run(design, CheckpointStore(path))
        assert resumed.est_wl == baseline.est_wl
        assert resumed.candidate_key == baseline.candidate_key
        assert (
            resumed.floorplan.placements == baseline.floorplan.placements
        )
        # Same merged totals (replayed stats), near-zero fresh runtime.
        assert (
            resumed.stats.floorplans_evaluated
            == first.stats.floorplans_evaluated
        )

    def test_partial_checkpoint_resume_is_identical(self, design, tmp_path):
        path = tmp_path / "ckpt.json"
        baseline = self._run(design)
        self._run(design, CheckpointStore(path))
        # Truncate the journal to its first record: the resumed run must
        # redo the other shards and still land on the identical result.
        doc = json.loads(path.read_text())
        assert len(doc["records"]) >= 2
        doc["records"] = doc["records"][:1]
        path.write_text(json.dumps(doc))
        resumed = self._run(design, CheckpointStore(path))
        assert resumed.est_wl == baseline.est_wl
        assert resumed.candidate_key == baseline.candidate_key
        assert (
            resumed.floorplan.placements == baseline.floorplan.placements
        )

    def test_timed_out_records_are_not_replayed(self, design, tmp_path):
        path = tmp_path / "ckpt.json"
        baseline = self._run(design)
        self._run(design, CheckpointStore(path))
        # Forge a budget-truncated shard record: it must be re-run, not
        # trusted (a truncated shard may have skipped the true winner).
        doc = json.loads(path.read_text())
        for rec in doc["records"]:
            rec["stats"]["timed_out"] = True
            rec["found"] = False
            rec["est_wl"] = None
        path.write_text(json.dumps(doc))
        resumed = self._run(design, CheckpointStore(path))
        assert resumed.est_wl == baseline.est_wl
        assert resumed.candidate_key == baseline.candidate_key

    def test_resume_works_multiprocess(self, design, tmp_path):
        path = tmp_path / "ckpt.json"
        baseline = self._run(design)
        self._run(design, CheckpointStore(path))
        doc = json.loads(path.read_text())
        doc["records"] = doc["records"][: len(doc["records"]) // 2]
        path.write_text(json.dumps(doc))
        resumed = self._run(design, CheckpointStore(path), workers=2)
        assert resumed.est_wl == baseline.est_wl
        assert resumed.candidate_key == baseline.candidate_key

    def test_fingerprint_covers_shard_layout(self, design):
        efa = EFAConfig(illegal_cut=True, inferior_cut=True)
        n = len(design.dies)
        one = checkpoint_fingerprint(
            design, efa, make_shards(n, 1, 4, plus_range=None)
        )
        two = checkpoint_fingerprint(
            design, efa, make_shards(n, 2, 4, plus_range=None)
        )
        assert one != two

    def test_fingerprint_covers_design_content(self, design):
        efa = EFAConfig(illegal_cut=True, inferior_cut=True)
        shards = make_shards(len(design.dies), 1, 4, plus_range=None)
        other = load_tiny(die_count=4, signal_count=12)
        assert checkpoint_fingerprint(design, efa, shards) != (
            checkpoint_fingerprint(other, efa, shards)
        )
