"""Multi-process sharded EFA search with shared incumbent bounds.

:func:`run_parallel_efa` runs the enumeration of
:class:`repro.floorplan.EnumerativeFloorplanner` split across worker
processes along the shards of :mod:`repro.parallel.shard`.  Workers pull
shards from a task queue, run the stock EFA loop restricted to the
shard's gamma_plus rank interval, and exchange the best-known ``est_wl``
through a :class:`SharedIncumbent` (one lock-protected shared double), so
the Sec. 3.2 inferior branch cut keeps pruning with the *global* best
bound instead of each worker's local one.

**Determinism.**  For a fixed design and config the returned floorplan is
identical for any worker count, including ``workers=1`` and the plain
serial :func:`repro.floorplan.run_efa`:

* every candidate carries its global enumeration rank ``(plus_rank,
  minus_rank, combo_index)``; the parent merges per-shard winners by
  ``(est_wl, rank)``, so equal-wirelength ties always resolve to the
  lowest rank — exactly what the serial loop order produces;
* incumbent exchange only tightens the inferior-cut bound, which prunes
  candidates *strictly* worse than the bound; a pruned candidate can
  neither win nor tie, so exchange timing cannot change the winner.

**Spawn safety.**  Worker entry points are module-level functions with
picklable arguments (the design, an :class:`EFAConfig`, queues and the
shared value), so the executor works under the ``spawn`` start method;
``fork`` is preferred where available because it skips the re-import cost.

**Observability.**  Each worker runs its own obs scope; at exit it ships
its metric export, span snapshot and telemetry snapshot back, and the
parent reduces them into the calling process's registry/trace/telemetry
(spans under ``workerN`` — rendered as separate process timelines by the
trace exporter, since worker span offsets use the worker's own epoch).
The parent additionally feeds a ``floorplan.parallel`` heartbeat as shard
records arrive, records the pool-level incumbent trajectory (source
``"pool"``, parent-epoch timestamps) and accumulates per-worker
shard-balance gauges into the report's ``telemetry`` section (schema v2).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import queue as queue_mod
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..floorplan import EFAConfig, EnumerativeFloorplanner
from ..floorplan.base import FloorplanResult, SearchStats
from ..model import Design
from .shard import DEFAULT_CHUNKS_PER_WORKER, Shard, make_shards

logger = obs.get_logger("parallel.executor")

# Seconds the parent waits for a worker to exit after its sentinel before
# escalating to terminate().
_JOIN_GRACE_S = 10.0

# End-of-run shard-imbalance warning: when the per-worker pairs_explored
# Gini coefficient exceeds this, the executor logs a structured warning
# so imbalance is visible without opening the dashboard.  Override with
# $REPRO_SHARD_GINI_WARN (<= 0 disables the check).
SHARD_GINI_WARN_DEFAULT = 0.4

__all__ = [
    "LocalIncumbent",
    "ParallelEFAConfig",
    "SHARD_GINI_WARN_DEFAULT",
    "SharedIncumbent",
    "available_cpus",
    "checkpoint_fingerprint",
    "resolve_start_method",
    "resolve_workers",
    "run_parallel_efa",
    "shard_gini_threshold",
]


class LocalIncumbent:
    """In-process incumbent with the same peek/offer protocol.

    Used by the single-worker fast path and by tests; also a reference
    for the duck-typed contract :meth:`EnumerativeFloorplanner.run`
    expects.
    """

    def __init__(self, value: float = float("inf")):
        self._value = value

    def peek(self) -> float:
        """The best wirelength offered so far."""
        return self._value

    def offer(self, wl: float) -> None:
        """Record ``wl`` if it improves on the current best."""
        if wl < self._value:
            self._value = wl


class SharedIncumbent:
    """Best-known ``est_wl`` shared across worker processes.

    A single lock-protected shared double.  ``offer`` takes the lock (it
    must compare-and-set); ``peek`` reads the synchronized wrapper, which
    is cheap enough for EFA's periodic (every-4096-candidates) pull.
    """

    def __init__(self, ctx=None):
        self._value = (ctx or mp).Value("d", float("inf"))

    def peek(self) -> float:
        """The best wirelength any worker has offered so far."""
        return self._value.value

    def offer(self, wl: float) -> None:
        """Publish ``wl`` if it improves on the global best."""
        with self._value.get_lock():
            if wl < self._value.value:
                self._value.value = wl


@dataclass
class ParallelEFAConfig:
    """Pool shape and exchange knobs for :func:`run_parallel_efa`."""

    workers: Optional[int] = None  # None -> available_cpus()
    chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER
    # None -> $REPRO_PAR_START_METHOD, else "fork" when available.
    start_method: Optional[str] = None
    # Allow more worker processes than the machine has schedulable
    # cores.  Off by default: the enumeration is CPU-bound, so extra
    # processes only add fork/IPC overhead and multiply the batched
    # kernel's cache working set while time-slicing the same cores —
    # on a 1-core host, workers=4 measured ~4.5x *slower* than
    # workers=1 on t8b before this cap.  The result is identical for
    # any worker count either way (see Determinism above).
    oversubscribe: bool = False
    efa: EFAConfig = field(
        default_factory=lambda: EFAConfig(
            illegal_cut=True, inferior_cut=True
        )
    )


def available_cpus() -> int:
    """Cores this process may actually schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(
    workers: Optional[int], oversubscribe: bool = True
) -> int:
    """Normalize a worker-count request (``None`` -> available cores).

    With ``oversubscribe=False`` an explicit request is additionally
    capped at :func:`available_cpus` — the :class:`ParallelEFAConfig`
    default, see its ``oversubscribe`` field.
    """
    if workers is None:
        workers = available_cpus()
    workers = max(1, int(workers))
    if not oversubscribe:
        workers = min(workers, available_cpus())
    return workers


def resolve_start_method(start_method: Optional[str]) -> str:
    """Pick the multiprocessing start method.

    Preference order: explicit argument, ``$REPRO_PAR_START_METHOD``,
    ``fork`` when the platform offers it (cheapest), ``spawn`` otherwise.
    All worker code is spawn-safe, so any available method works.
    """
    method = start_method or os.environ.get("REPRO_PAR_START_METHOD")
    available = mp.get_all_start_methods()
    if method:
        if method not in available:
            raise ValueError(
                f"start method {method!r} not available (have {available})"
            )
        return method
    return "fork" if "fork" in available else "spawn"


# -- worker side ------------------------------------------------------------


def _shard_record(
    shard: Shard, result: FloorplanResult, worker: int = 0
) -> Dict[str, Any]:
    """The picklable per-shard result shipped back to the parent."""
    return {
        "kind": "shard",
        "shard": shard.index,
        "worker": worker,
        "found": result.found,
        "est_wl": result.est_wl,
        "candidate": result.candidate,
        "candidate_key": result.candidate_key,
        "stats": asdict(result.stats),
    }


def _worker_main(
    worker_id: int,
    design: Design,
    config: EFAConfig,
    shards: List[Shard],
    task_queue,
    result_queue,
    incumbent: SharedIncumbent,
    deadline: Optional[float],
) -> None:
    """Worker loop: drain shards from the queue, ship records back.

    Module-level (spawn-safe) entry point.  The worker builds its own
    :class:`EnumerativeFloorplanner` (the evaluator's numpy tables never
    cross the process boundary) and runs one obs scope whose metric
    export and span snapshot are sent back in the final record.
    """
    obs.reset_run()
    planner = EnumerativeFloorplanner(design, config)
    shards_done = 0
    try:
        while True:
            shard_index = task_queue.get()
            if shard_index is None:
                break
            shard = shards[shard_index]
            if deadline is not None:
                # Remaining wall-clock, floored at 0 so late shards drain
                # as immediate timed-out records instead of blocking.
                planner.config.time_budget_s = max(
                    0.0, deadline - time.monotonic()
                )
            result = planner.run(
                plus_range=(shard.plus_lo, shard.plus_hi),
                incumbent=incumbent,
            )
            shards_done += 1
            result_queue.put(_shard_record(shard, result, worker_id))
        result_queue.put(
            {
                "kind": "final",
                "worker": worker_id,
                "shards_done": shards_done,
                "metrics": obs.export_metrics(),
                "spans": obs.trace_snapshot(),
                # Worker-local telemetry (incumbent trajectory, heartbeat
                # counts); trajectory offsets are relative to the
                # *worker's* run epoch — the parent merge tags sources.
                "telemetry": obs.telemetry().snapshot(),
            }
        )
    except Exception as exc:  # pragma: no cover - defensive
        result_queue.put(
            {
                "kind": "error",
                "worker": worker_id,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
        raise


# -- checkpoint/resume -------------------------------------------------------
#
# ``run_parallel_efa`` optionally persists completed-shard records through
# a duck-typed *checkpoint store* (``open_run(fingerprint) -> records``,
# ``record(rec)``, ``flush()`` — implemented by
# :class:`repro.service.CheckpointStore`).  Because the search result is
# a pure merge of per-shard winners, replaying stored records and running
# only the remaining shards provably reproduces the uninterrupted run:
# the merge is order-independent and the incumbent seed can only tighten
# pruning of strictly-worse candidates.  Only *complete* shard records
# are stored — a budget-truncated shard may have skipped candidates and
# must be re-run, not replayed.


def checkpoint_fingerprint(
    design: Design, efa_cfg: EFAConfig, shards: List[Shard]
) -> Dict[str, Any]:
    """The identity a shard checkpoint is only valid against.

    Covers everything that gives a stored shard record its meaning: the
    design content, the result-affecting EFA switches, and the exact
    shard boundaries (a different worker/chunk layout re-partitions the
    rank space, so index ``i`` would name a different interval).
    """
    from ..io import design_hash

    fixed = efa_cfg.fixed_orientations
    return {
        "design": design_hash(design),
        "efa": {
            "illegal_cut": efa_cfg.illegal_cut,
            "inferior_cut": efa_cfg.inferior_cut,
            "fixed_orientations": None
            if fixed is None
            else {die: o.value for die, o in sorted(fixed.items())},
            "plus_range": None
            if efa_cfg.plus_range is None
            else list(efa_cfg.plus_range),
            "minus_range": None
            if efa_cfg.minus_range is None
            else list(efa_cfg.minus_range),
        },
        "shards": [[s.plus_lo, s.plus_hi] for s in shards],
    }


def _normalize_resumed(
    records: Optional[List[Dict[str, Any]]], shard_count: int
) -> List[Dict[str, Any]]:
    """Sanitize checkpointed records (JSON round-trips lists for tuples).

    Drops records with out-of-range or duplicate shard indices and
    re-tuples ``candidate`` / ``candidate_key`` so resumed records merge
    and tie-break exactly like freshly computed ones.
    """
    out: List[Dict[str, Any]] = []
    seen: set = set()
    for rec in records or []:
        idx = rec.get("shard")
        if not isinstance(idx, int) or not 0 <= idx < shard_count:
            continue
        if idx in seen or rec.get("stats", {}).get("timed_out"):
            continue
        seen.add(idx)
        rec = dict(rec)
        if rec.get("candidate") is not None:
            rec["candidate"] = tuple(
                tuple(int(v) for v in part) for part in rec["candidate"]
            )
        if rec.get("candidate_key") is not None:
            rec["candidate_key"] = tuple(
                int(v) for v in rec["candidate_key"]
            )
        out.append(rec)
    return out


# -- parent side ------------------------------------------------------------


def _balance_fields(stats: Dict[str, Any]) -> Dict[str, float]:
    """Per-worker shard-balance gauges derived from one shard's stats.

    Beyond the load measures (runtime, pairs explored) this carries the
    pruning attribution — which cut did the work *on which worker* — so
    sharded runs keep the per-shard funnel the work-stealing analysis
    needs; the merged pool totals alone cannot recover it.
    """
    return {
        "runtime_s": stats["runtime_s"],
        "pairs_explored": stats["sequence_pairs_explored"],
        "pruned_illegal": stats["pruned_illegal"],
        "pruned_inferior": stats["pruned_inferior"],
        "lower_bound_evaluations": stats["lower_bound_evaluations"],
        "floorplans_evaluated": stats["floorplans_evaluated"],
        "rejected_outline": stats["floorplans_rejected_outline"],
    }


def _merge_stats(
    shard_stats: List[Dict[str, Any]], sequence_pairs_total: int
) -> SearchStats:
    """Reduce per-shard :class:`SearchStats` dicts into pool totals."""
    merged = SearchStats(sequence_pairs_total=sequence_pairs_total)
    for s in shard_stats:
        merged.sequence_pairs_explored += s["sequence_pairs_explored"]
        merged.pruned_illegal += s["pruned_illegal"]
        merged.pruned_inferior += s["pruned_inferior"]
        merged.lower_bound_evaluations += s["lower_bound_evaluations"]
        merged.floorplans_evaluated += s["floorplans_evaluated"]
        merged.floorplans_rejected_outline += s[
            "floorplans_rejected_outline"
        ]
        merged.timed_out = merged.timed_out or s["timed_out"]
        # The design-wide certified bound is shard-independent, but keep
        # the min defensively (shards of a future heterogeneous pool may
        # certify differently); older records may lack the key entirely.
        bound = s.get("certified_lower_bound")
        if bound is not None and (
            merged.certified_lower_bound is None
            or bound < merged.certified_lower_bound
        ):
            merged.certified_lower_bound = bound
    return merged


def _pick_winner(
    records: List[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Lowest ``(est_wl, candidate_key)`` among found shard records."""
    found = [r for r in records if r["found"]]
    if not found:
        return None
    return min(found, key=lambda r: (r["est_wl"], r["candidate_key"]))


def shard_gini_threshold() -> float:
    """The Gini level above which the imbalance warning fires (env-able)."""
    raw = os.environ.get("REPRO_SHARD_GINI_WARN")
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return SHARD_GINI_WARN_DEFAULT


def _warn_on_imbalance(
    records: List[Dict[str, Any]], workers: int
) -> None:
    """Structured end-of-run warning when shard load skewed badly.

    Derives the per-worker balance from this run's fresh records (never
    resumed ones — they did no work now) and pushes it through
    :func:`repro.obs.analytics.shard_imbalance`, the same summary the
    dashboard renders, so the log line and the dashboard agree.
    """
    threshold = shard_gini_threshold()
    if threshold <= 0 or workers <= 1:
        return
    balance: Dict[str, Dict[str, float]] = {}
    for rec in records:
        entry = balance.setdefault(f"worker{rec.get('worker', 0)}", {})
        entry["shards"] = entry.get("shards", 0) + 1
        for key, value in _balance_fields(rec["stats"]).items():
            entry[key] = entry.get(key, 0) + value
    imbalance = obs.shard_imbalance(balance)
    gini = imbalance.get("gini")
    if gini is None or gini <= threshold:
        return
    logger.warning(
        "shard imbalance: pairs_explored gini %.3f exceeds %.2f "
        "(max/mean %.2f across %d workers)",
        gini,
        threshold,
        imbalance.get("max_over_mean") or float("nan"),
        imbalance.get("workers", 0),
        extra={"shard_imbalance": imbalance},
    )


def _run_serial(
    design: Design,
    config: EFAConfig,
    shards: List[Shard],
    seed_wl: float = float("inf"),
    checkpoint=None,
) -> List[Dict[str, Any]]:
    """Single-process fallback walking the identical shard sequence."""
    # The planner's own copy: the walk re-sets its budget per shard and
    # must not shrink the caller's config.
    planner = EnumerativeFloorplanner(design, replace(config))
    incumbent = LocalIncumbent(seed_wl)
    records = []
    deadline = (
        None
        if config.time_budget_s is None
        else time.monotonic() + config.time_budget_s
    )
    for shard in shards:
        if deadline is not None:
            planner.config.time_budget_s = max(
                0.0, deadline - time.monotonic()
            )
        result = planner.run(
            plus_range=(shard.plus_lo, shard.plus_hi), incumbent=incumbent
        )
        rec = _shard_record(shard, result)
        records.append(rec)
        if checkpoint is not None and not rec["stats"]["timed_out"]:
            checkpoint.record(rec)
        obs.telemetry().record_shard_balance(
            "worker0", shards=1, **_balance_fields(asdict(result.stats))
        )
    return records


def run_parallel_efa(
    design: Design,
    config: Optional[ParallelEFAConfig] = None,
    checkpoint=None,
) -> FloorplanResult:
    """Sharded multi-process EFA; deterministic for any worker count.

    Returns a merged :class:`FloorplanResult` whose stats are the pool
    totals and whose floorplan is re-materialized in the parent from the
    winning candidate's enumeration indices.

    ``checkpoint`` (duck-typed, see the checkpoint/resume section above)
    persists completed-shard records as they arrive and replays them on
    the next run with the same fingerprint, so an interrupted search
    resumes instead of recomputing — with a result identical to the
    uninterrupted one.
    """
    cfg = config or ParallelEFAConfig()
    efa_cfg = cfg.efa
    workers = resolve_workers(cfg.workers, oversubscribe=cfg.oversubscribe)
    n = len(design.dies)
    n_fact = math.factorial(n)
    # Enumeration windows (see EFAConfig) shard like the full space:
    # only the configured gamma_plus window is partitioned, and every
    # worker keeps the gamma_minus window intact inside its shard.
    plus_lo, plus_hi = efa_cfg.plus_range or (0, n_fact)
    minus_lo, minus_hi = efa_cfg.minus_range or (0, n_fact)
    pairs_total = (plus_hi - plus_lo) * (minus_hi - minus_lo)
    shards = make_shards(
        n, workers, cfg.chunks_per_worker, plus_range=efa_cfg.plus_range
    )
    resumed: List[Dict[str, Any]] = []
    if checkpoint is not None:
        resumed = _normalize_resumed(
            checkpoint.open_run(
                checkpoint_fingerprint(design, efa_cfg, shards)
            ),
            len(shards),
        )
        if resumed:
            logger.info(
                "resuming from checkpoint: %d/%d shards already complete",
                len(resumed),
                len(shards),
            )
    done_idx = {r["shard"] for r in resumed}
    todo = [s for s in shards if s.index not in done_idx]
    # The best replayed wirelength seeds the incumbent so the remaining
    # shards prune against everything the interrupted run already knew.
    seed_wl = min(
        (r["est_wl"] for r in resumed if r["found"]), default=float("inf")
    )
    workers = max(1, min(workers, len(todo) or 1))
    start = time.monotonic()

    with obs.span(
        "floorplan.parallel",
        variant=efa_cfg.name,
        workers=workers,
        shards=len(shards),
        resumed=len(resumed),
    ) as sp:
        if not todo:
            new_records: List[Dict[str, Any]] = []
        elif workers <= 1:
            new_records = _run_serial(
                design, efa_cfg, todo, seed_wl, checkpoint
            )
        else:
            new_records = _run_pool(
                design, efa_cfg, shards, todo, workers, cfg,
                seed_wl, checkpoint,
            )
        if checkpoint is not None:
            checkpoint.flush()
        records = resumed + new_records

        merged = _merge_stats([r["stats"] for r in records], pairs_total)
        merged.runtime_s = time.monotonic() - start
        winner = _pick_winner(records)
        sp.annotate(
            est_wl=None if winner is None else winner["est_wl"],
            timed_out=merged.timed_out,
        )
    _warn_on_imbalance(new_records, workers)

    algorithm = f"{efa_cfg.name}[x{workers}]"
    logger.info(
        "%s: %d shards on %d workers, %d floorplans evaluated in %.2fs%s",
        algorithm,
        len(shards),
        workers,
        merged.floorplans_evaluated,
        merged.runtime_s,
        " (budget-truncated)" if merged.timed_out else "",
    )
    if winner is None:
        return FloorplanResult(None, float("inf"), merged, algorithm)
    plus, minus, combo = winner["candidate"]
    floorplan = EnumerativeFloorplanner(design, efa_cfg).realize_candidate(
        plus, minus, combo
    )
    return FloorplanResult(
        floorplan,
        winner["est_wl"],
        merged,
        algorithm,
        candidate=winner["candidate"],
        candidate_key=winner["candidate_key"],
    )


def _run_pool(
    design: Design,
    efa_cfg: EFAConfig,
    shards: List[Shard],
    todo: List[Shard],
    workers: int,
    cfg: ParallelEFAConfig,
    seed_wl: float = float("inf"),
    checkpoint=None,
) -> List[Dict[str, Any]]:
    """Spawn the pool, feed the remaining shards, collect records.

    ``shards`` is the full partition (workers index into it); ``todo``
    the subset actually enqueued — they differ only when a checkpoint
    replayed completed shards.
    """
    ctx = mp.get_context(resolve_start_method(cfg.start_method))
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    incumbent = SharedIncumbent(ctx)
    if seed_wl < float("inf"):
        incumbent.offer(seed_wl)
    deadline = (
        None
        if efa_cfg.time_budget_s is None
        else time.monotonic() + efa_cfg.time_budget_s
    )
    for shard in todo:
        task_queue.put(shard.index)
    for _ in range(workers):
        task_queue.put(None)

    procs = [
        ctx.Process(
            target=_worker_main,
            args=(
                i,
                design,
                efa_cfg,
                shards,
                task_queue,
                result_queue,
                incumbent,
                deadline,
            ),
            daemon=True,
        )
        for i in range(workers)
    ]
    for p in procs:
        p.start()

    records: List[Dict[str, Any]] = []
    finals = 0
    errors: List[str] = []
    progress = obs.Progress(
        "floorplan.parallel", total=len(todo), unit="shards", logger=logger
    )
    # The pool's own incumbent-vs-time trajectory: stamped against the
    # *parent's* run epoch (unlike worker-local points), sourced "pool".
    pool_best = float("inf")
    while finals < workers and len(errors) == 0:
        shared_best = incumbent.peek()
        if shared_best < pool_best:
            pool_best = shared_best
            obs.record_incumbent(pool_best, source="pool")
        try:
            rec = result_queue.get(timeout=1.0)
        except queue_mod.Empty:
            progress.update(done=len(records), best=pool_best)
            dead = [
                p for p in procs if not p.is_alive() and p.exitcode not in (0, None)
            ]
            if dead:
                errors.append(
                    "worker process(es) died: "
                    + ", ".join(f"pid={p.pid} rc={p.exitcode}" for p in dead)
                )
            continue
        if rec["kind"] == "shard":
            records.append(rec)
            if checkpoint is not None and not rec["stats"]["timed_out"]:
                checkpoint.record(rec)
            obs.telemetry().record_shard_balance(
                f"worker{rec['worker']}",
                shards=1,
                **_balance_fields(rec["stats"]),
            )
            progress.update(done=len(records), best=pool_best)
        elif rec["kind"] == "final":
            finals += 1
            obs.merge_metrics(rec["metrics"])
            obs.graft_spans(rec["spans"], under=f"worker{rec['worker']}")
            snap = rec.get("telemetry")
            if snap:
                obs.telemetry().merge(snap, source=f"worker{rec['worker']}")
        elif rec["kind"] == "error":
            errors.append(f"worker {rec['worker']}: {rec['error']}")
    shared_best = incumbent.peek()
    if shared_best < pool_best:
        pool_best = shared_best
        obs.record_incumbent(pool_best, source="pool")
    progress.finish(done=len(records), best=pool_best)

    for p in procs:
        p.join(timeout=_JOIN_GRACE_S)
        if p.is_alive():
            p.terminate()
            p.join(timeout=_JOIN_GRACE_S)
    if errors:
        raise RuntimeError(
            "parallel EFA failed: " + "; ".join(errors)
        )
    if len(records) != len(todo):
        raise RuntimeError(
            f"parallel EFA lost shards: got {len(records)} of "
            f"{len(todo)} records"
        )
    return records
