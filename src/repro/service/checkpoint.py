"""Disk-backed checkpoint store for resumable sharded searches.

:class:`CheckpointStore` implements the duck-typed protocol
:func:`repro.parallel.run_parallel_efa` consumes (``open_run`` /
``record`` / ``flush``): completed-shard records are appended as the
search produces them and persisted as one JSON document, so a killed
process — crash, eviction, deliberate restart — resumes the search from
its last flushed shard instead of recomputing everything.

Two properties carry the correctness story:

* **Fingerprinted.**  A checkpoint is only replayed when its stored
  fingerprint (design content hash, result-affecting EFA switches, exact
  shard boundaries — see
  :func:`repro.parallel.checkpoint_fingerprint`) matches the new run
  byte-for-byte in canonical form.  Anything else silently re-partitions
  the rank space and would make shard indices lie; mismatches discard
  the checkpoint and start fresh.
* **Atomic.**  Every flush writes a temp file and ``os.replace``\\ s it
  over the checkpoint, so a kill mid-write leaves the previous complete
  document, never a torn one.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import math

from .. import obs
from ..io import canonical_json
from ..validate import faults

logger = obs.get_logger("service.checkpoint")

CHECKPOINT_KIND = "repro.checkpoint"
CHECKPOINT_SCHEMA_VERSION = 1

__all__ = ["CHECKPOINT_KIND", "CHECKPOINT_SCHEMA_VERSION", "CheckpointStore"]


def _valid_record(rec: Any) -> bool:
    """Structural sanity of one replayed shard record.

    A torn or tampered record must not reach the executor: resume
    consumers index ``rec["shard"]`` / ``rec["est_wl"]`` / ``rec["stats"]``
    directly, and a half-written dict would crash the resumed search
    instead of degrading it.  Dropping the record is always safe — the
    executor simply re-searches that shard (the degradation contract).
    """
    if not isinstance(rec, dict):
        return False
    if not isinstance(rec.get("shard"), int) or isinstance(
        rec.get("shard"), bool
    ):
        return False
    found = rec.get("found")
    if not isinstance(found, bool):
        return False
    if found:
        est = rec.get("est_wl")
        if (
            isinstance(est, bool)
            or not isinstance(est, (int, float))
            or not math.isfinite(float(est))
        ):
            return False
    if not isinstance(rec.get("stats"), dict):
        return False
    return True


class CheckpointStore:
    """One resumable search's completed-shard journal, on disk.

    ``flush_interval_s`` throttles disk writes: 0 (the default) flushes
    on every record — right for the shard granularity of the EFA
    executor, where records arrive at most every few hundred
    milliseconds and each one is exactly the progress a crash would
    otherwise lose.
    """

    def __init__(
        self,
        path: Union[str, Path],
        flush_interval_s: float = 0.0,
    ):
        self.path = Path(path)
        self.flush_interval_s = flush_interval_s
        self._fingerprint: Optional[Dict[str, Any]] = None
        self._records: List[Dict[str, Any]] = []
        self._dirty = False
        # None = never flushed, so the first record always flushes.  A
        # 0.0 start would compare against ``time.monotonic()``, which
        # counts from boot, and skip that flush on young hosts.
        self._last_flush: Optional[float] = None

    # -- executor protocol ---------------------------------------------------

    def open_run(
        self, fingerprint: Dict[str, Any]
    ) -> List[Dict[str, Any]]:
        """Bind the store to a run; return any replayable shard records.

        Loads the on-disk checkpoint, validates it against
        ``fingerprint`` (canonical-JSON equality) and returns its
        records; an absent, unreadable or mismatching checkpoint yields
        an empty list and resets the store to this fingerprint.
        """
        self._fingerprint = fingerprint
        self._records = []
        self._dirty = False
        stored = self._load()
        if stored is None:
            return []
        if canonical_json(stored.get("fingerprint")) != canonical_json(
            fingerprint
        ):
            logger.warning(
                "%s: checkpoint fingerprint mismatch; starting fresh",
                self.path,
            )
            return []
        records = stored.get("records")
        if not isinstance(records, list):
            return []
        if records and faults.should_fire("checkpoint_corrupt"):
            # Chaos: replay one torn record — everything but the shard
            # index lost, as a kill mid-write without the atomic-replace
            # guarantee would leave it.
            torn = records[0]
            records = [
                {"shard": torn.get("shard") if isinstance(torn, dict) else 0}
            ] + records[1:]
        kept = [r for r in records if _valid_record(r)]
        dropped = len(records) - len(kept)
        if dropped:
            logger.warning(
                "%s: dropped %d torn/invalid checkpoint record(s); the "
                "affected shard(s) will be re-searched",
                self.path,
                dropped,
            )
        self._records = kept
        return list(self._records)

    def record(self, rec: Dict[str, Any]) -> None:
        """Append one completed-shard record (and maybe flush).

        Records pass through a JSON round-trip immediately so that a
        replayed record is indistinguishable from a flushed-and-reloaded
        one — resume behaviour cannot depend on whether a restart
        actually happened.
        """
        self._records.append(json.loads(json.dumps(rec)))
        self._dirty = True
        if (
            self._last_flush is None
            or time.monotonic() - self._last_flush >= self.flush_interval_s
        ):
            self.flush()

    def flush(self) -> None:
        """Persist the journal atomically (no-op when nothing changed).

        A failed write is survivable — the journal stays dirty and the
        next :meth:`record`/:meth:`flush` retries, so one transient I/O
        error costs at most the progress a crash in that window would
        have lost anyway, never the run.
        """
        if not self._dirty:
            return
        document = {
            "kind": CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": self._fingerprint,
            "records": self._records,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            faults.fire(
                "checkpoint_write_io",
                lambda: OSError("injected checkpoint write failure"),
            )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(document))
            os.replace(tmp, self.path)
        except OSError as exc:
            logger.warning(
                "%s: checkpoint flush failed (%s); journal stays dirty "
                "and will be retried",
                self.path,
                exc,
            )
            self._last_flush = time.monotonic()
            return
        self._dirty = False
        self._last_flush = time.monotonic()

    # -- inspection ----------------------------------------------------------

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The in-memory journal (replayed + recorded this run)."""
        return list(self._records)

    def discard(self) -> None:
        """Delete the on-disk checkpoint (end of a completed job)."""
        self._records = []
        self._dirty = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def _load(self) -> Optional[Dict[str, Any]]:
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("%s: unreadable checkpoint (%s)", self.path, exc)
            return None
        try:
            document = json.loads(raw)
        except ValueError:
            logger.warning(
                "%s: corrupt checkpoint JSON; starting fresh", self.path
            )
            return None
        if (
            not isinstance(document, dict)
            or document.get("kind") != CHECKPOINT_KIND
            or document.get("schema") != CHECKPOINT_SCHEMA_VERSION
        ):
            logger.warning(
                "%s: not a schema-%d %s document; starting fresh",
                self.path,
                CHECKPOINT_SCHEMA_VERSION,
                CHECKPOINT_KIND,
            )
            return None
        return document
