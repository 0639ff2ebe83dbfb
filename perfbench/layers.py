"""The traced pass: time calls into each layer without touching ``src/``.

:class:`Tracer` replaces a layer's public entry point *at the name its
caller looks up* (``repro.assign.mcmf_assign.min_cost_max_flow`` is what
the assigner calls, not ``repro.netflow.min_cost_max_flow``) with a
timing wrapper, and puts the original back on :meth:`Tracer.restore`.
Counts come from the run report's existing counters and spans.

:func:`derive` turns the summed raw quantities of the traced operations
into the ``per_layer`` metrics of ``BENCHMARK.json``.  A layer the
workload never enters reads 0.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Mapping, Optional, Tuple

from stats import median

# (module, attribute path inside it, layer name)
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.floorplan.dop", "predetermine_orientations", "floorplan.greedy"),
    ("repro.floorplan.efa", "EnumerativeFloorplanner.run", "floorplan.efa"),
    ("repro.floorplan", "run_sa", "floorplan.sa"),
    ("repro.floorplan", "run_btree_sa", "floorplan.btree"),
    ("repro.assign.mcmf_assign", "MCMFAssigner.assign_with_stats", "assign"),
    ("repro.assign.mcmf_assign", "window_candidates", "assign.window"),
    ("repro.assign.mcmf_assign", "min_cost_max_flow", "netflow.mcmf"),
    ("repro.assign.mcmf_assign", "build_topologies", "mst.topologies"),
    ("repro.flow", "total_wirelength", "eval.twl"),
    ("repro.validate.lint", "lint_design", "validate.lint"),
    ("repro.validate", "verify_flow_result", "validate.verify"),
    ("repro.validate", "verify_floorplan", "validate.verify"),
    ("repro.service.jobs", "JobManager.submit", "service.submit"),
    ("repro.service.jobs", "JobManager.result", "service.result"),
    ("repro.service.jobs", "check_design", "service.lint"),
    ("repro.service.jobs", "cache_key", "service.cache_key"),
    ("repro.service.jobs", "verify_result_payload", "service.verify"),
    ("repro.service.cache", "ResultCache.get", "service.cache_get"),
    ("repro.service.cache", "ResultCache.put", "service.cache_put"),
)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Per-layer call durations, recorded while installed.

    ``with tracer:`` clears the samples, installs the wrappers and
    restores the originals on exit.  The HTTP server calls into the
    service layers from its own threads, so recording takes a lock.
    """

    def __init__(self):
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        self._lock = threading.Lock()

    def seconds(self, layer: str) -> float:
        with self._lock:
            return sum(self.samples.get(layer, ()))

    def _record(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.samples[layer].append(seconds)

    def _wrap(self, original: Any, layer: str) -> Any:
        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._record(layer, time.perf_counter() - start)

        return timed

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for module, path, layer in LAYER_TARGETS:
                owner, attr = _resolve(module, path)
                own = attr in vars(owner)
                original = vars(owner)[attr] if own else getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, layer))
                self._patched.append((owner, attr, original, own))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        with self._lock:
            self.samples.clear()
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Layer self-times that together make up one solve on the blocking path.
# ``assign_s`` already contains its children, so they are not listed.
COVERAGE_LAYERS = (
    "greedy_s",
    "efa_s",
    "sa_s",
    "btree_s",
    "assign_s",
    "twl_s",
    "lint_s",
)


# Per-request service samples reported as medians.
SERVICE_SAMPLES = (
    "submit",
    "lint",
    "cache_key",
    "cache_get",
    "verify",
    "result",
    "http",
    "cache_put",
    "queue_wait",
    "run",
    "run_overhead",
)


def derive(
    raw: Mapping[str, float],
    service: Optional[Mapping[str, List[float]]] = None,
    cache_hit_ratio: float = 0.0,
    overhead_ratio: float = 0.0,
) -> Dict[str, float]:
    """The ``per_layer`` metrics from sums over ``raw["ops"]`` traced solves.

    Times are seconds per solve, rates divide a count by the time of
    the layer that did the work, and ratios divide summed numerators by
    summed denominators.  ``service`` holds per-request samples whose
    medians become the ``service.*_p50`` metrics.
    """
    ops = raw.get("ops", 0.0)

    def per_op(key: str) -> float:
        return _ratio(raw.get(key, 0.0), ops)

    # The wrapped children run inside assign_with_stats, so this residual
    # (arc-by-arc network build, Eq. 3, rehome) cannot be negative.
    residual = (
        raw.get("assign_s", 0.0)
        - raw.get("window_s", 0.0)
        - raw.get("mcmf_s", 0.0)
        - raw.get("topologies_s", 0.0)
    )
    covered = sum(raw.get(key, 0.0) for key in COVERAGE_LAYERS)
    out = {
        "flow_s": per_op("flow_s"),
        "layers.coverage_ratio": _ratio(covered, raw.get("flow_s", 0.0)),
        "floorplan.greedy_s": per_op("greedy_s"),
        "floorplan.greedy.candidates_per_s": _ratio(
            raw.get("greedy_candidates", 0.0), raw.get("greedy_s", 0.0)
        ),
        "floorplan.dop_probe_s": per_op("dop_probe_s"),
        "floorplan.dop_enumerate_s": per_op("dop_enumerate_s"),
        "floorplan.efa_s": per_op("efa_s"),
        "floorplan.efa.pairs_per_s": _ratio(
            raw.get("efa_pairs", 0.0), raw.get("efa_s", 0.0)
        ),
        "floorplan.efa.eval_yield": _ratio(
            raw.get("efa_evaluated", 0.0),
            raw.get("efa_evaluated", 0.0) + raw.get("efa_rejected", 0.0),
        ),
        "floorplan.efa.pruned_ratio": _ratio(
            raw.get("efa_pruned", 0.0), raw.get("efa_pairs_total", 0.0)
        ),
        "floorplan.sa_s": per_op("sa_s"),
        "floorplan.sa.moves_per_s": _ratio(
            raw.get("sa_moves", 0.0), raw.get("sa_s", 0.0)
        ),
        "floorplan.sa.incremental_dirty_ratio": _ratio(
            raw.get("sa_dirty_signals", 0.0), raw.get("sa_signals_total", 0.0)
        ),
        "floorplan.btree_s": per_op("btree_s"),
        "floorplan.btree.moves_per_s": _ratio(
            raw.get("btree_moves", 0.0), raw.get("btree_s", 0.0)
        ),
        "floorplan.est_wl": per_op("est_wl"),
        "assign_s": per_op("assign_s"),
        "assign.window_s": per_op("window_s"),
        "assign.network_build_s": _ratio(residual, ops),
        "assign.arcs": per_op("arcs"),
        "assign.window_retry_ratio": _ratio(
            raw.get("window_retries", 0.0), raw.get("window_iterations", 0.0)
        ),
        "netflow.mcmf_s": per_op("mcmf_s"),
        "netflow.augmenting_paths": per_op("augmenting_paths"),
        "netflow.nodes_settled_per_s": _ratio(
            raw.get("nodes_settled", 0.0), raw.get("mcmf_s", 0.0)
        ),
        "mst.topologies_s": per_op("topologies_s"),
        "eval.twl_s": per_op("twl_s"),
        "eval.twl": per_op("twl"),
        "validate.lint_s": per_op("lint_s"),
        "validate.verify_s": per_op("verify_s"),
        "service.cache_hit_ratio": cache_hit_ratio,
        "obs.trace_overhead_ratio": overhead_ratio,
    }
    for key in SERVICE_SAMPLES:
        values = (service or {}).get(key) or []
        out[f"service.{key}_s_p50"] = median(values) if values else 0.0
    return out


# Which metric each per-layer metric should move, on which workload,
# written down before anything is optimised.  An empty list means the
# metric should not move: it is budget-bound, a sanity check, or the
# quality the other metrics must keep.
_T4B = [("solve_s_p50", "flow_t4b")]
_T4M = [("solve_s_p50", "floorplan_t4m")]
_HIT = [("request_s_p10", "service_mix")]
_MISS = [("solve_s_p50", "service_mix"), ("solves_per_s", "service_mix")]
SHOULD_MOVE: Dict[str, List[Tuple[str, str]]] = {
    "flow_s": [],
    "layers.coverage_ratio": [],
    "floorplan.greedy_s": [("solve_s_p50", "flow_t8b")],
    "floorplan.greedy.candidates_per_s": [("solve_s_p50", "flow_t8b")],
    "floorplan.dop_probe_s": [],
    "floorplan.dop_enumerate_s": [],
    "floorplan.efa_s": _T4B + _T4M + _MISS,
    "floorplan.efa.pairs_per_s": _T4B
    + _T4M
    + [("floorplan.est_wl", "flow_t8b")],
    "floorplan.efa.eval_yield": [("floorplan.est_wl", "flow_t8b")],
    "floorplan.efa.pruned_ratio": _T4M,
    "floorplan.sa_s": _T4M,
    "floorplan.sa.moves_per_s": _T4M,
    "floorplan.sa.incremental_dirty_ratio": _T4M,
    "floorplan.btree_s": _T4M,
    "floorplan.btree.moves_per_s": _T4M,
    "floorplan.est_wl": [],
    "assign_s": _T4B + [("solve_s_p50", "flow_t8b")],
    "assign.window_s": _T4B,
    "assign.network_build_s": _T4B,
    "assign.arcs": _T4B,
    "assign.window_retry_ratio": _T4B,
    "netflow.mcmf_s": _T4B,
    "netflow.augmenting_paths": _T4B,
    "netflow.nodes_settled_per_s": _T4B,
    "mst.topologies_s": _T4B,
    "eval.twl_s": _T4B,
    "eval.twl": [],
    "validate.lint_s": _T4B,
    "validate.verify_s": [],
    "service.submit_s_p50": _HIT,
    "service.lint_s_p50": _HIT,
    "service.cache_key_s_p50": _HIT,
    "service.cache_get_s_p50": _HIT,
    "service.verify_s_p50": _HIT,
    "service.result_s_p50": _HIT,
    "service.http_s_p50": _HIT,
    "service.cache_put_s_p50": _MISS,
    "service.queue_wait_s_p50": _MISS,
    "service.run_s_p50": _MISS,
    "service.run_overhead_s_p50": _MISS,
    "service.cache_hit_ratio": [],
    "obs.trace_overhead_ratio": [],
}
