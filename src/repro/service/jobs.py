"""The asynchronous job manager behind the floorplanning service.

Submissions become *jobs*: one flow run each, executed in its own child
process by a bounded pool of runner threads.  A job walks the lifecycle

    QUEUED -> RUNNING -> DONE | FAILED | CANCELLED

(with a RUNNING -> QUEUED back-edge when a crashed attempt is requeued to
resume from its checkpoint); DESIGN.md carries the full transition
diagram.

Why a process per job rather than a thread: ``run_flow`` resets the
process-global observability scope at entry, so two concurrent in-process
runs would stomp each other's traces and reports — and a process gives
cancel/timeout an honest ``terminate()`` instead of cooperative polling.
The runner thread parses the job's ``spec.json`` once per attempt and
hands the design and config to the child as ``Process`` args.  The child
registers an :mod:`repro.obs` event listener that forwards
heartbeat/incumbent events over a one-way pipe; the runner blocks until
the next event or the child's exit, appends each event to the job's
in-memory event log (the server's NDJSON stream reads it), and verifies
the result against the same parsed design.  The child also runs a
parent-pid watchdog so a SIGKILLed server never leaks orphaned solver
processes.

Results are content-addressed: :func:`cache_key` hashes the design
content plus the result-affecting flow config (see
:func:`repro.flow.flow_config_cache_dict`), so an identical re-submission
is answered from :class:`repro.service.ResultCache` as an instantly-DONE
job with ``cached=True`` and **zero** floorplans evaluated.  EFA jobs
additionally journal completed shards through
:class:`repro.service.CheckpointStore`; a crashed or restarted job
resumes the search instead of recomputing, with a provably identical
result (see :mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import functools
import json
import multiprocessing as mp
import os
import queue as queue_mod
import shutil
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import obs
from ..floorplan import run_efa_mix
from ..flow import (
    FlowConfig,
    flow_config_cache_dict,
    flow_config_from_dict,
    flow_config_to_dict,
    run_flow,
)
from ..io import (
    assignment_to_dict,
    content_hash,
    design_from_dict,
    design_to_dict,
    floorplan_to_dict,
)
from ..model import Design
from ..validate import faults
from ..validate.lint import DesignLintError, ERROR, check_design
from ..validate.verify_result import verify_result_payload
from .cache import DEFAULT_MAX_ENTRIES, ResultCache
from .checkpoint import CheckpointStore
from .metrics import ServiceMetrics, service_metrics

logger = obs.get_logger("service.jobs")

# Job lifecycle states.
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

RESULT_KIND = "repro.service.result"
RESULT_SCHEMA_VERSION = 1

# Solver identity folded into every cache key.  Bump whenever the flow's
# result *semantics* change without a flow-config schema bump (a new
# default pruning rule, a changed tie-break), so stale cached results are
# missed instead of mis-served.
SOLVER_CACHE_TAG = "repro-flow-v1"

# Crashed attempts requeued (resuming from checkpoint) before FAILED.
DEFAULT_CRASH_RETRIES = 1

# Terminal (DONE/FAILED/CANCELLED) job directories kept on disk; older
# ones are garbage-collected so a long-lived server's footprint stays
# bounded.
DEFAULT_MAX_TERMINAL_JOBS = 512

# Test hook: when set to N > 0, the job child calls os._exit after N
# checkpoint records — once per job directory — so crash/resume tests are
# deterministic instead of racing a SIGKILL against the search.
TEST_EXIT_ENV = "REPRO_SERVICE_TEST_EXIT_AFTER_SHARDS"

_JOIN_GRACE_S = 10.0

# Longest a runner blocks before it re-checks cancel, shutdown and the
# deadline.  A child's events and its exit wake the runner at once.
_WAIT_TICK_S = 0.1

__all__ = [
    "CANCELLED",
    "DEFAULT_CRASH_RETRIES",
    "DEFAULT_MAX_TERMINAL_JOBS",
    "DONE",
    "FAILED",
    "Job",
    "JobManager",
    "QUEUED",
    "RESULT_KIND",
    "RESULT_SCHEMA_VERSION",
    "RUNNING",
    "SOLVER_CACHE_TAG",
    "TERMINAL_STATES",
    "TEST_EXIT_ENV",
    "cache_key",
]


def cache_key(design: Design, cfg: FlowConfig) -> str:
    """The content hash a finished flow result is cached under.

    ``sha256(canonical_json({design, result-affecting config, solver
    tag}))`` — invariant to dict ordering, float spelling and worker
    count.
    """
    return content_hash(
        {
            "design": design_to_dict(design),
            "config": flow_config_cache_dict(cfg),
            "solver": SOLVER_CACHE_TAG,
        }
    )


def _verify_errors(design: Design, payload: Dict[str, Any]) -> List[Any]:
    """ERROR diagnostics from independently re-deriving ``payload``."""
    return [
        d
        for d in verify_result_payload(design, payload)
        if d.severity == ERROR
    ]


def _write_json_atomic(path: Path, data: Dict[str, Any]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, default=obs.json_default))
    os.replace(tmp, path)


# -- child process -----------------------------------------------------------


def _start_parent_watchdog(parent_pid: int, poll_s: float = 1.0) -> None:
    """Exit hard if the server process disappears (job gets reparented)."""

    def watch() -> None:
        while True:
            if os.getppid() != parent_pid:
                os._exit(3)
            time.sleep(poll_s)

    threading.Thread(
        target=watch, daemon=True, name="parent-watchdog"
    ).start()


class _ExitingCheckpoint(CheckpointStore):
    """:data:`TEST_EXIT_ENV` hook: die mid-search, exactly once per job.

    After ``exit_after`` recorded shards the store flushes, drops a
    marker file beside the checkpoint and ``os._exit``\\ s — so the
    requeued attempt (same job directory, marker present) runs to
    completion from the journal instead of crash-looping.
    """

    def __init__(self, path: Union[str, Path], exit_after: int):
        super().__init__(path)
        self._exit_after = exit_after
        self._marker = self.path.with_name(self.path.name + ".crashed")
        self._armed = not self._marker.exists()

    def record(self, rec: Dict[str, Any]) -> None:
        super().record(rec)
        self._exit_after -= 1
        if self._armed and self._exit_after <= 0:
            self.flush()
            self._marker.write_text("crashed\n")
            os._exit(42)


def _open_checkpoint(path: Path) -> CheckpointStore:
    raw = os.environ.get(TEST_EXIT_ENV)
    if raw:
        try:
            exit_after = int(raw)
        except ValueError:
            exit_after = 0
        if exit_after > 0:
            return _ExitingCheckpoint(path, exit_after)
    return CheckpointStore(path)


def _result_payload(design: Design, result) -> Dict[str, Any]:
    """The JSON result document a finished job stores (and caches)."""
    wl = result.wirelength
    return {
        "kind": RESULT_KIND,
        "schema": RESULT_SCHEMA_VERSION,
        "design_name": design.name,
        "summary": result.summary(),
        "est_wl": result.floorplan_result.est_wl,
        "twl": wl.total,
        "wirelength": {
            "wl_intra_die": wl.wl_intra_die,
            "wl_internal": wl.wl_internal,
            "wl_external": wl.wl_external,
            "total": wl.total,
        },
        "floorplan": floorplan_to_dict(result.floorplan),
        "assignment": assignment_to_dict(result.assignment),
        "report": result.obs_report,
    }


def _job_worker_main(
    job_dir: str,
    parent_pid: int,
    design: Design,
    cfg: FlowConfig,
    profile_fmt: Optional[str],
    conn,
) -> None:
    """Job-process entry point (module-level, spawn-safe).

    Runs the flow on the design and config the runner parsed from
    ``spec.json`` (checkpointed when the design takes the enumerative
    EFA_c3 arm), and leaves exactly one verdict file behind:
    ``result.json`` on success, ``error.json`` on a flow exception.  A
    crash leaves neither — that absence is what tells the parent to
    requeue-and-resume.

    A ``profile_fmt`` (from the spec's ``profile`` field or
    ``REPRO_PROFILE``) runs the flow under the sampling profiler and
    drops ``profile.json``/``profile.txt`` beside the result, with the
    hotspot summary folded into the report.  Events go to the runner
    over ``conn``, the write end of a one-way pipe.  On exit — success
    or failure — the child sends its typed metrics export the same way,
    for the parent's :class:`ServiceMetrics` to merge.
    """
    _start_parent_watchdog(parent_pid)
    job_path = Path(job_dir)
    send_lock = threading.Lock()

    def forward(event: Dict[str, Any]) -> None:
        # A Connection is not thread-safe; listeners run on the emitting
        # thread.
        with send_lock:
            conn.send(event)

    obs.add_event_listener(forward)
    try:
        floorplanner = None
        checkpoint: Optional[CheckpointStore] = None
        if not cfg.portfolio:
            # EFA_mix journals its c3 arm's completed shards here; the
            # store touches no file until a record arrives.
            checkpoint = _open_checkpoint(job_path / "checkpoint.json")
            floorplanner = functools.partial(
                run_efa_mix,
                time_budget_s=cfg.floorplan_budget_s,
                workers=max(1, cfg.floorplan_workers),
                checkpoint=checkpoint,
            )
        profiler = (
            obs.SamplingProfiler().start() if profile_fmt else None
        )
        try:
            result = run_flow(design, cfg, floorplanner=floorplanner)
        finally:
            if profiler is not None:
                profiler.stop()
        payload = _result_payload(design, result)
        if profiler is not None:
            suffix = "json" if profile_fmt == "speedscope" else "txt"
            profiler.write(
                str(job_path / f"profile.{suffix}"), profile_fmt
            )
            report = payload.get("report")
            if isinstance(report, dict):
                report["profile"] = {
                    "format": profile_fmt,
                    "samples": profiler.sample_count,
                    "hotspots": obs.profile_hotspots(
                        profiler.collapsed()
                    ),
                }
        if faults.should_fire("verify_tamper"):
            # Chaos: misreport the achieved wirelength, the way a solver
            # bookkeeping bug would.  The parent's verification gate
            # must catch this and fail the job.
            payload["est_wl"] = float(payload["est_wl"]) * 1.001 + 1.0
        _write_json_atomic(job_path / "result.json", payload)
        if checkpoint is not None:
            checkpoint.discard()
    except Exception as exc:  # noqa: BLE001 - verdict file, then exit
        _write_json_atomic(
            job_path / "error.json",
            {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            },
        )
    finally:
        try:
            forward({"type": "metrics", "export": obs.export_metrics()})
        except Exception:  # noqa: BLE001 - advisory telemetry
            pass


# -- parent side -------------------------------------------------------------


@dataclass
class Job:
    """One submission's in-memory record (persisted view: ``state.json``)."""

    id: str
    dir: Path
    design_name: str
    cache_key: str
    state: str = QUEUED
    cached: bool = False
    error: Optional[str] = None
    timeout_s: Optional[float] = None
    attempts: int = 0
    created_unix_s: float = 0.0
    started_unix_s: Optional[float] = None
    finished_unix_s: Optional[float] = None
    cancel_requested: bool = False
    events: List[Dict[str, Any]] = field(default_factory=list)
    proc: Optional[Any] = None

    def view(self) -> Dict[str, Any]:
        """The JSON-ready status snapshot the API returns."""
        return {
            "id": self.id,
            "design": self.design_name,
            "state": self.state,
            "cached": self.cached,
            "error": self.error,
            "cache_key": self.cache_key,
            "attempts": self.attempts,
            "timeout_s": self.timeout_s,
            "created_unix_s": self.created_unix_s,
            "started_unix_s": self.started_unix_s,
            "finished_unix_s": self.finished_unix_s,
            "events": len(self.events),
        }


class JobManager:
    """Bounded async execution of flow jobs with cache and resume.

    ``max_workers`` runner threads each own at most one child process at
    a time, so at most ``max_workers`` flows run concurrently; further
    submissions wait in FIFO order.  All public methods are thread-safe
    (the HTTP server calls them from handler threads).
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        max_workers: int = 2,
        cache_entries: int = DEFAULT_MAX_ENTRIES,
        default_timeout_s: Optional[float] = None,
        crash_retries: int = DEFAULT_CRASH_RETRIES,
        start_method: Optional[str] = None,
        max_terminal_jobs: int = DEFAULT_MAX_TERMINAL_JOBS,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.data_dir / "cache", cache_entries)
        self.default_timeout_s = default_timeout_s
        self.crash_retries = max(0, crash_retries)
        self.max_terminal_jobs = max(0, max_terminal_jobs)
        self.start_method = start_method
        self.max_workers = max(1, max_workers)
        # Metrics and the resource sampler exist before _recover(): a
        # recovery requeue already increments the resume counter.
        self.metrics = metrics if metrics is not None else service_metrics()
        self._cache_counted = {"hits": 0, "misses": 0, "evictions": 0}
        self.resources = obs.ResourceSampler(
            self._resource_targets, self._on_resource_sample
        )
        self._jobs: Dict[str, Job] = {}
        self._events = threading.Condition()
        self._queue: "queue_mod.Queue[Optional[str]]" = queue_mod.Queue()
        self._stop = threading.Event()
        # Held from a job pipe's creation until the parent has closed its
        # write end, so no other runner's fork inherits that end: EOF on
        # the pipe then means the job child is gone.
        self._spawn_lock = threading.Lock()
        self._recover()
        self.resources.start()
        self._threads = [
            threading.Thread(
                target=self._runner_loop, name=f"job-runner-{i}", daemon=True
            )
            for i in range(self.max_workers)
        ]
        for t in self._threads:
            t.start()

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        design: Union[Design, Dict[str, Any]],
        config: Union[FlowConfig, Dict[str, Any], None] = None,
        timeout_s: Optional[float] = None,
        dedupe: bool = False,
        profile: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Register one flow run; return its status view immediately.

        Designs are linted first: a provably-bad input raises
        :class:`~repro.validate.DesignLintError` (carrying the full
        diagnostic list) before a job exists — the server maps that to a
        400 with diagnostics JSON.  A cache hit is *verified* before it
        is served: a poisoned entry is evicted and the job queued as a
        miss, so the hit path can never return a wrong result.

        ``dedupe=True`` is the idempotent-resubmission handshake the
        retrying client uses: when a live (non-FAILED/CANCELLED) job
        with the same cache key already exists, its view is returned
        instead of a duplicate being queued — a retried POST whose first
        attempt actually landed does not run the flow twice.

        ``profile`` (``"collapsed"`` or ``"speedscope"``) runs the job
        child under the sampling profiler; the profile file lands in the
        job directory (``GET /jobs/<id>/profile``) and the hotspot
        summary in the report.  Profiling does not enter the cache key —
        it never changes the result — so a profiled resubmission of a
        cached design is an (unprofiled) cache hit.
        """
        profile_fmt = obs.profile_format(profile) if profile else None
        design_obj = check_design(design)
        self.metrics.counter(
            "service.jobs.submitted",
            help="Job submissions accepted (past design lint)",
        ).inc()
        if config is None:
            cfg = FlowConfig()
        elif isinstance(config, FlowConfig):
            cfg = config
        else:
            cfg = flow_config_from_dict(config)
        key = cache_key(design_obj, cfg)
        if dedupe:
            with self._events:
                for existing in sorted(
                    self._jobs.values(),
                    key=lambda j: (j.created_unix_s, j.id),
                    reverse=True,
                ):
                    if (
                        existing.cache_key == key
                        and existing.state not in (FAILED, CANCELLED)
                    ):
                        logger.info(
                            "job %s: deduplicated resubmission of %s",
                            existing.id,
                            key,
                        )
                        return existing.view()
        job = Job(
            id=uuid.uuid4().hex[:12],
            dir=self.jobs_dir / "",
            design_name=design_obj.name,
            cache_key=key,
            timeout_s=(
                self.default_timeout_s if timeout_s is None else timeout_s
            ),
            created_unix_s=round(time.time(), 3),
        )
        job.dir = self.jobs_dir / job.id
        job.dir.mkdir(parents=True, exist_ok=True)
        spec: Dict[str, Any] = {
            "design": design_to_dict(design_obj),
            "config": flow_config_to_dict(cfg),
            "timeout_s": job.timeout_s,
        }
        if profile_fmt:
            spec["profile"] = profile_fmt
        _write_json_atomic(job.dir / "spec.json", spec)
        cached_payload = self.cache.get(key)
        if cached_payload is not None:
            # Trust-but-verify: a cached result is re-checked against the
            # submitted design before it is served.  Failure means the
            # entry is poisoned (tampering, a stale solver bug) — evict
            # it and fall through to a normal queued recompute.
            bad = _verify_errors(design_obj, cached_payload)
            if bad:
                logger.warning(
                    "cache entry %s failed verification (%s); evicting "
                    "and recomputing",
                    key,
                    "; ".join(str(d) for d in bad[:3]),
                )
                self.cache.invalidate(key)
                cached_payload = None
        with self._events:
            self._jobs[job.id] = job
            if cached_payload is not None:
                job.cached = True
                job.started_unix_s = job.created_unix_s
                _write_json_atomic(job.dir / "result.json", cached_payload)
                self._transition(job, DONE)
                logger.info(
                    "job %s (%s): cache hit %s", job.id, job.design_name, key
                )
            else:
                self._transition(job, QUEUED)
                self._queue.put(job.id)
                logger.info(
                    "job %s (%s): queued (cache miss %s)",
                    job.id,
                    job.design_name,
                    key,
                )
            return job.view()

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's current status view (raises ``KeyError`` if unknown)."""
        with self._events:
            return self._jobs[job_id].view()

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Status views of every known job, oldest first."""
        with self._events:
            jobs = sorted(
                self._jobs.values(), key=lambda j: (j.created_unix_s, j.id)
            )
            return [j.view() for j in jobs]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; terminal jobs are returned unchanged."""
        with self._events:
            job = self._jobs[job_id]
            if job.state not in TERMINAL_STATES:
                job.cancel_requested = True
                if job.state == QUEUED:
                    self._transition(job, CANCELLED)
            return job.view()

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished job's result document.

        Raises ``LookupError`` unless the job is DONE.
        """
        with self._events:
            job = self._jobs[job_id]
            if job.state != DONE:
                raise LookupError(
                    f"job {job_id} has no result (state {job.state})"
                )
        return json.loads((job.dir / "result.json").read_text())

    def events(
        self,
        job_id: str,
        after: int = 0,
        timeout: Optional[float] = None,
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events with ``seq > after``, plus an end-of-stream flag.

        Blocks up to ``timeout`` seconds for news when nothing is
        pending.  The flag is True once the job is terminal *and* every
        event has been delivered — the NDJSON stream's stop condition.
        """
        with self._events:
            job = self._jobs[job_id]
            if (
                timeout
                and len(job.events) <= after
                and job.state not in TERMINAL_STATES
            ):
                self._events.wait(timeout)
            new = [dict(e) for e in job.events[after:]]
            done = (
                job.state in TERMINAL_STATES
                and len(job.events) == after + len(new)
            )
            return new, done

    def stats(self) -> Dict[str, Any]:
        """Manager-level counters for the ``/stats`` endpoint."""
        with self._events:
            by_state: Dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
        cache = self.cache.stats()
        return {
            "jobs": dict(sorted(by_state.items())),
            "queued": self._queue.qsize(),
            "queue_depth": self._queue.qsize(),
            "workers": self.max_workers,
            "uptime_s": round(self.metrics.uptime_s, 3),
            "cache_hit_ratio": cache.get("hit_ratio"),
            "cache": cache,
        }

    def profile(self, job_id: str) -> Tuple[str, str]:
        """A finished job's profile as ``(text, format)``.

        Raises ``KeyError`` for an unknown job, ``LookupError`` when the
        job was not submitted with profiling (or has not produced the
        file yet).
        """
        with self._events:
            job = self._jobs[job_id]
        for fmt, name in (
            ("speedscope", "profile.json"),
            ("collapsed", "profile.txt"),
        ):
            path = job.dir / name
            if path.exists():
                return path.read_text(), fmt
        raise LookupError(f"job {job_id} has no profile")

    def render_metrics(self) -> str:
        """The live OpenMetrics exposition for ``GET /api/v1/metrics``.

        Point-in-time gauges (job states, queue depth, cache entries,
        uptime) are refreshed from the authoritative structures at
        scrape time; counters and histograms accumulate as events
        happen.  Cache hit/miss/eviction counters mirror the
        :class:`ResultCache`'s cumulative totals via delta-increments so
        the exposed counters stay monotonic.
        """
        with self._events:
            by_state = {state: 0 for state in sorted(
                (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
            )}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
        for state, count in by_state.items():
            self.metrics.gauge(
                "service.jobs.state",
                {"state": state.lower()},
                help="Jobs currently in each lifecycle state",
            ).set(count)
        self.metrics.gauge(
            "service.queue.depth",
            help="Submitted jobs waiting for a free runner",
        ).set(self._queue.qsize())
        self.metrics.gauge(
            "service.uptime_seconds",
            help="Seconds since the service metrics scope started",
        ).set(round(self.metrics.uptime_s, 3))
        cache = self.cache.stats()
        self.metrics.gauge(
            "service.cache.entries",
            help="Result-cache entries currently on disk",
        ).set(cache["entries"])
        for field_name, help_text in (
            ("hits", "Result-cache lookups answered from disk"),
            ("misses", "Result-cache lookups that ran the flow"),
            ("evictions", "Result-cache entries evicted (LRU or poison)"),
        ):
            delta = cache[field_name] - self._cache_counted[field_name]
            if delta > 0:
                self.metrics.counter(
                    f"service.cache.{field_name}", help=help_text
                ).inc(delta)
                self._cache_counted[field_name] = cache[field_name]
        return self.metrics.render()

    def shutdown(self) -> None:
        """Stop the runner threads and terminate any running children."""
        self._stop.set()
        for _ in self._threads:
            self._queue.put(None)  # wakes an idle runner
        self.resources.stop()
        with self._events:
            procs = [j.proc for j in self._jobs.values() if j.proc is not None]
            self._events.notify_all()
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001 - already-dead process
                pass
        for t in self._threads:
            t.join(timeout=_JOIN_GRACE_S)

    # -- internals -----------------------------------------------------------

    def _recover(self) -> None:
        """Reload persisted jobs; requeue anything the crash interrupted.

        A job found QUEUED or RUNNING on disk did not finish — its child
        died with the old server (parent watchdog) — so it re-enters the
        queue and resumes from its checkpoint.  A RUNNING job whose
        ``result.json`` already landed is promoted straight to DONE.
        A torn ``state.json`` (the crash hit mid-persist on a filesystem
        without atomic replace) is *salvaged* from ``spec.json`` and the
        job requeued — boot-time recovery never abandons a job a client
        is still polling just because one status snapshot tore.
        """
        for job_dir in sorted(
            p for p in self.jobs_dir.iterdir() if p.is_dir()
        ):
            state_path = job_dir / "state.json"
            data: Any = None
            try:
                data = json.loads(state_path.read_text())
            except (OSError, ValueError):
                data = None
            if not isinstance(data, dict) or "id" not in data:
                logger.warning(
                    "%s: torn or missing job state; salvaging from spec",
                    state_path,
                )
                job = self._salvage_job(job_dir)
                if job is None:
                    continue
                self._jobs[job.id] = job
                if (job.dir / "result.json").exists():
                    job.state = DONE
                    self._persist(job)
                    continue
                job.events.append(
                    {
                        "seq": 1,
                        "type": "recovered",
                        "note": "state salvaged from spec; requeued",
                    }
                )
                job.state = QUEUED
                self._persist(job)
                self._queue.put(job.id)
                self._count_resume()
                logger.info("job %s: salvaged and requeued", job.id)
                continue
            job = Job(
                id=str(data["id"]),
                dir=job_dir,
                design_name=str(data.get("design", "?")),
                cache_key=str(data.get("cache_key", "")),
                state=str(data.get("state", FAILED)),
                cached=bool(data.get("cached", False)),
                error=data.get("error"),
                timeout_s=data.get("timeout_s"),
                attempts=int(data.get("attempts", 0)),
                created_unix_s=float(data.get("created_unix_s") or 0.0),
                started_unix_s=data.get("started_unix_s"),
                finished_unix_s=data.get("finished_unix_s"),
            )
            self._jobs[job.id] = job
            if job.state in TERMINAL_STATES:
                continue
            if (job.dir / "result.json").exists():
                job.state = DONE
                self._persist(job)
                continue
            job.events.append(
                {
                    "seq": 1,
                    "type": "recovered",
                    "note": "requeued after server restart",
                }
            )
            job.state = QUEUED
            self._persist(job)
            self._queue.put(job.id)
            self._count_resume()
            logger.info("job %s: requeued after restart", job.id)
        self._gc_terminal_locked()

    def _count_resume(self) -> None:
        self.metrics.counter(
            "service.jobs.resumed",
            help="Jobs requeued to resume from checkpoint (crash or "
            "restart)",
        ).inc()

    def _salvage_job(self, job_dir: Path) -> Optional[Job]:
        """Rebuild a job record from ``spec.json`` when state.json tore.

        The spec carries everything needed to re-derive identity (the
        cache key from design + config) and re-run; only the event
        history and timestamps of the torn snapshot are lost.  Returns
        ``None`` when the spec itself is unusable — then the directory
        is genuinely unrecoverable and is left for inspection.
        """
        try:
            spec = json.loads((job_dir / "spec.json").read_text())
            design = design_from_dict(spec["design"])
            cfg = flow_config_from_dict(spec["config"])
        except Exception as exc:  # noqa: BLE001 - any spec problem ends salvage
            logger.warning(
                "%s: unrecoverable job directory (unusable spec: %s); "
                "skipping",
                job_dir,
                exc,
            )
            return None
        try:
            created = round(
                (job_dir / "spec.json").stat().st_mtime, 3
            )
        except OSError:
            created = round(time.time(), 3)
        return Job(
            id=job_dir.name,
            dir=job_dir,
            design_name=design.name,
            cache_key=cache_key(design, cfg),
            timeout_s=spec.get("timeout_s"),
            created_unix_s=created,
        )

    def _gc_terminal_locked(self) -> None:
        """Prune terminal job directories beyond ``max_terminal_jobs``.

        Oldest-finished first, so recently completed jobs stay pollable;
        live (QUEUED/RUNNING) jobs are never touched.
        """
        terminal = [
            j for j in self._jobs.values() if j.state in TERMINAL_STATES
        ]
        excess = len(terminal) - self.max_terminal_jobs
        if excess <= 0:
            return
        terminal.sort(
            key=lambda j: (
                j.finished_unix_s or j.created_unix_s or 0.0,
                j.id,
            )
        )
        for job in terminal[:excess]:
            shutil.rmtree(job.dir, ignore_errors=True)
            del self._jobs[job.id]
            logger.info(
                "gc: pruned terminal job %s (%s)", job.id, job.state
            )

    def _transition(self, job: Job, state: str) -> None:
        """Move ``job`` to ``state`` (lock held), persist, notify."""
        job.state = state
        now = round(time.time(), 3)
        if state == RUNNING and job.started_unix_s is None:
            job.started_unix_s = now
            self.metrics.histogram(
                "service.job.queue_wait_seconds",
                help="Seconds jobs spent queued before a runner took them",
            ).observe(max(0.0, now - job.created_unix_s))
        if state in TERMINAL_STATES:
            job.finished_unix_s = now
            if job.started_unix_s is not None and not job.cached:
                self.metrics.histogram(
                    "service.job.run_seconds",
                    help="Wall-clock seconds from first start to terminal",
                ).observe(max(0.0, now - job.started_unix_s))
            self.resources.pop(job.id)
            self.metrics.discard("job.cpu_percent", {"job": job.id})
            self.metrics.discard("job.rss_bytes", {"job": job.id})
        event: Dict[str, Any] = {"type": "state", "state": state}
        if job.cached:
            event["cached"] = True
        if job.error:
            event["error"] = job.error
        self._append_event_locked(job, event)
        self._persist(job)
        if state in TERMINAL_STATES:
            self._gc_terminal_locked()

    def _persist(self, job: Job) -> None:
        try:
            faults.fire(
                "state_write_io",
                lambda: OSError("injected state write failure"),
            )
            _write_json_atomic(job.dir / "state.json", job.view())
        except OSError as exc:
            # The in-memory record stays authoritative; the next
            # transition re-persists.  Worst case a crash in this window
            # loses one snapshot — which boot-time salvage handles.
            logger.warning(
                "job %s: state persist failed (%s); continuing with "
                "in-memory state",
                job.id,
                exc,
            )

    def _append_event_locked(self, job: Job, event: Dict[str, Any]) -> None:
        entry = {"seq": len(job.events) + 1, **event}
        job.events.append(entry)
        self._events.notify_all()

    def _append_event(self, job: Job, event: Dict[str, Any]) -> None:
        with self._events:
            self._append_event_locked(job, event)

    def _consume_event(self, job: Job, event: Dict[str, Any]) -> None:
        """Route one child event: metrics exports merge, the rest append
        to the job's event log."""
        if isinstance(event, dict) and event.get("type") == "metrics":
            try:
                self.metrics.merge_child(event.get("export") or {})
            except Exception:  # noqa: BLE001 - advisory telemetry
                logger.exception(
                    "job %s: child metrics merge failed", job.id
                )
            return
        self._append_event(job, event)

    def _pump_event(self, job: Job, reader) -> bool:
        """Read one child event into the job; False at the pipe's end.

        The end is EOF, a frame torn by the child's death (``OSError``),
        or, on a non-blocking reader, no more data.
        """
        try:
            event = reader.recv()
        except (EOFError, OSError):
            return False
        self._consume_event(job, event)
        return True

    # -- resource sampling ---------------------------------------------------

    def _resource_targets(self) -> Dict[str, int]:
        """``{job_id: pid}`` of every live job child (sampler callback)."""
        with self._events:
            return {
                job.id: job.proc.pid
                for job in self._jobs.values()
                if job.state == RUNNING
                and job.proc is not None
                and job.proc.pid is not None
            }

    def _on_resource_sample(
        self, job_id: str, sample: Dict[str, float]
    ) -> None:
        """Publish one job's resource sample (sampler callback)."""
        labels = {"job": job_id}
        self.metrics.gauge(
            "job.cpu_percent",
            labels,
            help="CPU utilization of the job child over the last sample "
            "interval",
        ).set(round(sample["cpu_percent"], 2))
        self.metrics.gauge(
            "job.rss_bytes",
            labels,
            help="Resident set size of the job child",
        ).set(sample["rss_bytes"])
        with self._events:
            job = self._jobs.get(job_id)
            if job is not None and job.state == RUNNING:
                self._append_event_locked(
                    job,
                    {
                        "type": "resources",
                        "cpu_percent": round(sample["cpu_percent"], 2),
                        "rss_bytes": sample["rss_bytes"],
                        "cpu_time_s": round(sample["cpu_time_s"], 3),
                    },
                )

    def _runner_loop(self) -> None:
        while not self._stop.is_set():
            job_id = self._queue.get()
            if job_id is None:
                continue
            with self._events:
                job = self._jobs.get(job_id)
                if job is None or job.state != QUEUED:
                    continue  # cancelled while queued, or stale entry
                self._transition(job, RUNNING)
                job.attempts += 1
            try:
                self._run_job(job)
            except Exception:  # noqa: BLE001 - runner must survive
                logger.exception("job %s: runner thread error", job.id)
                with self._events:
                    job.error = "internal runner error"
                    self._transition(job, FAILED)

    def _run_job(self, job: Job) -> None:
        """Own one RUNNING job: spawn, pump events, judge the outcome.

        The spec is parsed once per attempt: the child gets the design
        and config as ``Process`` args, and the result is verified
        against the same design.  The runner blocks until the child's
        next event or its exit, so a finished job is collected at once.
        EOF, or a frame torn by the child's death, means the child is
        gone.
        """
        from ..parallel import resolve_start_method

        ctx = mp.get_context(resolve_start_method(self.start_method))
        try:
            spec = json.loads((job.dir / "spec.json").read_text())
            design = design_from_dict(spec["design"])
            cfg = flow_config_from_dict(spec["config"])
            profile_fmt = obs.profile_format(spec.get("profile") or None)
            # Free the JSON tree before the fork, so neither this
            # process nor the child carries it through the run.
            del spec
        except Exception as exc:  # noqa: BLE001 - a bad spec fails the job
            with self._events:
                job.error = f"{type(exc).__name__}: {exc}"
                self._transition(job, FAILED)
            return
        with self._spawn_lock:
            reader, writer = ctx.Pipe(duplex=False)
            with writer:
                proc = ctx.Process(
                    target=_job_worker_main,
                    args=(
                        str(job.dir),
                        os.getpid(),
                        design,
                        cfg,
                        profile_fmt,
                        writer,
                    ),
                    daemon=True,
                )
                job.proc = proc
                proc.start()
        deadline = (
            None
            if job.timeout_s is None
            else time.monotonic() + job.timeout_s
        )
        outcome: Optional[str] = None
        with reader:
            while not self._stop.is_set():
                if job.cancel_requested:
                    outcome = "cancelled"
                    break
                tick = _WAIT_TICK_S
                if deadline is not None:
                    tick = min(tick, deadline - time.monotonic())
                    if tick <= 0:
                        outcome = "timeout"
                        break
                ready = mp_connection.wait([reader, proc.sentinel], tick)
                if reader in ready:
                    if not self._pump_event(job, reader):
                        break
                elif ready or not proc.is_alive():
                    # is_alive() sees an exit the sentinel misses: a
                    # fork-started floorplan worker inherits the
                    # sentinel's write end and may outlive the child.
                    break
            if outcome is not None or self._stop.is_set():
                proc.terminate()
            proc.join(timeout=_JOIN_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=_JOIN_GRACE_S)
            # All the child wrote is in the pipe now.  Drain it without
            # blocking, so a torn last frame ends the drain.
            os.set_blocking(reader.fileno(), False)
            while self._pump_event(job, reader):
                pass
        exitcode = proc.exitcode
        job.proc = None

        if outcome == "cancelled":
            with self._events:
                self._transition(job, CANCELLED)
            return
        if outcome == "timeout":
            with self._events:
                job.error = (
                    f"job exceeded its timeout of {job.timeout_s:g}s"
                )
                self._transition(job, FAILED)
            return
        if self._stop.is_set():
            return  # shutdown mid-run; job stays RUNNING on disk -> requeued

        result_path = job.dir / "result.json"
        error_path = job.dir / "error.json"
        if result_path.exists():
            try:
                payload = json.loads(result_path.read_text())
            except ValueError:
                payload = None
            if isinstance(payload, dict):
                # Mandatory verification gate: a job only reaches DONE
                # (and the cache) when every claim in its result is
                # independently re-derived.  A failure is a FAILED job
                # with the diagnostic list — never a silently-wrong
                # DONE.
                diagnostics = _verify_errors(design, payload)
                if diagnostics:
                    with self._events:
                        job.error = (
                            "result failed verification: "
                            + "; ".join(str(d) for d in diagnostics[:5])
                        )
                        self._append_event_locked(
                            job,
                            {
                                "type": "verification",
                                "ok": False,
                                "diagnostics": [
                                    d.to_dict() for d in diagnostics
                                ],
                            },
                        )
                        self._transition(job, FAILED)
                    logger.error(
                        "job %s (%s): result failed verification with "
                        "%d diagnostic(s)",
                        job.id,
                        job.design_name,
                        len(diagnostics),
                    )
                    return
                # Stamp the external sampler's peaks into the report and
                # rewrite result.json BEFORE the cache put, so a later
                # cache hit serves byte-identical content.
                peaks = self.resources.pop(job.id)
                if peaks:
                    report = payload.get("report")
                    if isinstance(report, dict):
                        resources = report.setdefault("resources", {})
                        if isinstance(resources, dict):
                            resources["sampler"] = {
                                "peak_rss_bytes": peaks["peak_rss_bytes"],
                                "cpu_time_s": round(
                                    peaks["cpu_time_s"], 3
                                ),
                            }
                            _write_json_atomic(result_path, payload)
                self.cache.put(job.cache_key, payload)
                with self._events:
                    self._append_event_locked(
                        job, {"type": "verification", "ok": True}
                    )
                    self._transition(job, DONE)
                logger.info(
                    "job %s (%s): done (verified), cached as %s",
                    job.id,
                    job.design_name,
                    job.cache_key,
                )
                return
        if error_path.exists():
            try:
                error = json.loads(error_path.read_text())
            except ValueError:
                error = {}
            with self._events:
                job.error = str(error.get("error", "flow failed"))
                self._transition(job, FAILED)
            return
        # No verdict file: the child crashed (or was killed).  Requeue to
        # resume from the checkpoint while retries remain.
        with self._events:
            if job.attempts <= self.crash_retries:
                logger.warning(
                    "job %s: process died (exit %s) without a verdict; "
                    "requeueing to resume from checkpoint (attempt %d)",
                    job.id,
                    exitcode,
                    job.attempts + 1,
                )
                self._append_event_locked(
                    job,
                    {
                        "type": "retry",
                        "attempt": job.attempts,
                        "exitcode": exitcode,
                    },
                )
                self._transition(job, QUEUED)
                self._queue.put(job.id)
                self._count_resume()
            else:
                job.error = (
                    f"job process died (exit {exitcode}) with no result "
                    f"after {job.attempts} attempts"
                )
                self._transition(job, FAILED)
