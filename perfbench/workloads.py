"""The four workloads: inputs made from the seed, timed operations, checks.

Seed 0 runs the Table 1 suite cases as generated, service designs
1000-1005 and SA seed 7.  Seed N adds N to every generator seed and to
the SA seed, and keeps each size class.  A workload that runs several
designs of one class spaces their generator seeds 1000 apart, so each
run solves a fixed set of designs whatever the host speed, and the set
for one seed shares no design with the set for a nearby seed.

Every operation is checked: it must not raise, the independent verifier
must report no ERROR, a design solved twice must give the same identity
both times, a cache hit must be byte-identical to its miss, and at seed
0 the identity must equal the values pinned in ``pins.json``.  A failed
check counts against ``failed``; it never stops the run.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

from layers import Tracer
from stats import median

SA_SEED = 7
SEED_STRIDE = 1000
SERVICE_BASE_SEED = 1000
SERVICE_DESIGNS = 6
SERVICE_WARMUP_ROUNDS = 2
# A miss of a t4s-class design takes well under a second; a job still
# running after this long is a failure, not a slow sample.
JOB_TIMEOUT_S = 120.0
# Identities are deterministic; this only absorbs float formatting.
PIN_REL_TOL = 1e-9


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=PIN_REL_TOL, abs_tol=0.0)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@dataclass
class Tally:
    """Samples, failures and identities of one run."""

    solve_s: List[float] = field(default_factory=list)
    request_s: List[float] = field(default_factory=list)
    # Wall seconds in which the fresh solves were produced.
    solve_phase_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    identity: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # Traced pass: raw per-layer sums and per-request service samples.
    raw: Counter = field(default_factory=Counter)
    service: Dict[str, List[float]] = field(default_factory=dict)
    cache_hit_ratio: float = 0.0
    traced_s: List[float] = field(default_factory=list)
    untraced_s: List[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; ``what`` explains a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def identity_problem(
        self,
        key: str,
        ident: Dict[str, Any],
        pins: Optional[Dict[str, Dict[str, Any]]],
    ) -> Optional[str]:
        """Why ``ident`` is wrong for design ``key``, or None."""
        first = self.identity.setdefault(key, ident)
        if not all(_same(first.get(k), v) for k, v in ident.items()):
            return f"{key}: identity changed between runs: {ident} != {first}"
        if pins is not None:
            pinned = pins.get(key)
            if pinned is None:
                return f"{key}: no pinned identity"
            if set(pinned) != set(ident) or not all(
                _same(pinned[k], ident[k]) for k in pinned
            ):
                return f"{key}: identity {ident} != pinned {pinned}"
        return None

    @property
    def overhead_ratio(self) -> float:
        if not self.traced_s or not self.untraced_s:
            return 0.0
        return median(self.traced_s) / median(self.untraced_s)


def _errors(diagnostics: List[Any]) -> List[Any]:
    from repro.validate import ERROR

    return [d for d in diagnostics if d.severity == ERROR]


def _suite_design(case: str, gen_seed: int):
    from repro.benchgen import generate_design, suite_config

    return generate_design(
        replace(suite_config(case), seed=gen_seed, name=f"{case}@{gen_seed}")
    )


class Workload:
    """One named workload; subclasses supply inputs and operations."""

    name = ""

    def __init__(self, seed: int, pins: Optional[Dict[str, Dict]] = None):
        self.seed = seed
        # Identity pins for this workload (seed 0 only), by design name.
        self.pins = pins

    def setup(self, work_dir: Path) -> None:
        """Make the inputs and finish lazy set-up (untimed by ``run``)."""
        raise NotImplementedError

    def run(
        self, seconds: float, tally: Tally, tracer: Optional[Tracer] = None
    ) -> None:
        """Measure for about ``seconds`` (traced when given a tracer)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class _OpWorkload(Workload):
    """Closed loop, one caller: passes over ``copies`` designs of ``case``.

    The untraced pass repeats whole passes until ``seconds`` have
    elapsed.  The traced pass runs every design twice in a row, once
    untraced and once traced, so the tracing overhead is measured on
    the same inputs.
    """

    case = ""
    copies = 1

    def _warm_up(self) -> None:
        raise NotImplementedError

    def _op(self, design: Any, tally: Tally, tracer: Optional[Tracer]):
        """Run and check one operation; return its seconds."""
        raise NotImplementedError

    def setup(self, work_dir: Path) -> None:
        from repro.benchgen import suite_config

        base = suite_config(self.case).seed + self.seed
        self.designs = [
            _suite_design(self.case, base + SEED_STRIDE * k)
            for k in range(self.copies)
        ]
        self._warm_up()

    def run(
        self, seconds: float, tally: Tally, tracer: Optional[Tracer] = None
    ) -> None:
        start = time.perf_counter()
        while True:
            for design in self.designs:
                if tracer is None:
                    self._timed(design, tally, None)
                    continue
                untraced = self._timed(design, tally, None)
                traced = self._timed(design, tally, tracer)
                if untraced is not None and traced is not None:
                    tally.untraced_s.append(untraced)
                    tally.traced_s.append(traced)
            if time.perf_counter() - start >= seconds:
                return

    def _timed(
        self, design: Any, tally: Tally, tracer: Optional[Tracer]
    ) -> Optional[float]:
        try:
            with tracer or nullcontext():
                seconds = self._op(design, tally, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            tally.check(False, f"{design.name}: {type(exc).__name__}: {exc}")
            return None
        tally.solve_s.append(seconds)
        tally.request_s.append(seconds)
        tally.solve_phase_s += seconds
        return seconds


class FlowWorkload(_OpWorkload):
    """``run_flow`` with the default EFA_mix + MCMF_fast configuration."""

    def __init__(
        self,
        name: str,
        case: str,
        copies: int,
        budget_s: Optional[float],
        warm_dies: int,
        seed: int,
        pins: Optional[Dict[str, Dict]] = None,
    ):
        super().__init__(seed, pins)
        self.name = name
        self.case = case
        self.copies = copies
        self.budget_s = budget_s
        self.warm_dies = warm_dies

    def _warm_up(self) -> None:
        from repro.benchgen import load_tiny
        from repro.flow import FlowConfig, run_flow

        # A miniature design takes the same EFA_mix arm as the real one.
        run_flow(
            load_tiny(die_count=self.warm_dies, signal_count=8),
            FlowConfig(floorplan_budget_s=0.2),
        )

    def _op(self, design: Any, tally: Tally, tracer: Optional[Tracer]):
        from repro import validate
        from repro.flow import FlowConfig, run_flow

        config = FlowConfig(
            floorplan_budget_s=self.budget_s, floorplan_workers=1
        )
        start = time.perf_counter()
        result = run_flow(design, config)
        seconds = time.perf_counter() - start
        bad = _errors(validate.verify_flow_result(design, result))
        ident = {"est_wl": result.floorplan_result.est_wl, "twl": result.twl}
        problem = (
            f"{design.name}: verifier: {bad[0]}"
            if bad
            else tally.identity_problem(design.name, ident, self.pins)
        )
        tally.check(problem is None, problem or "")
        if tracer is not None:
            tally.raw.update(self._raw(tracer, result, seconds))
        return seconds

    @staticmethod
    def _raw(tracer: Tracer, result: Any, seconds: float) -> Dict[str, float]:
        from repro import obs

        report = result.obs_report or {}
        counters = report.get("metrics", {})
        dop = "flow.floorplan.floorplan.dop"
        fp_stats = result.floorplan_result.stats
        return {
            "ops": 1,
            "flow_s": seconds,
            "greedy_s": tracer.seconds("floorplan.greedy"),
            "greedy_candidates": counters.get(
                "floorplan.greedy.candidates_evaluated", 0
            ),
            "dop_probe_s": obs.span_seconds(report, f"{dop}.probe") or 0.0,
            "dop_enumerate_s": (
                obs.span_seconds(report, f"{dop}.enumerate") or 0.0
            ),
            "efa_s": tracer.seconds("floorplan.efa"),
            "efa_pairs": counters.get(
                "floorplan.efa.sequence_pairs_explored", 0
            ),
            "efa_evaluated": counters.get(
                "floorplan.efa.floorplans_evaluated", 0
            ),
            "efa_rejected": counters.get("floorplan.efa.rejected_outline", 0),
            "efa_pruned": fp_stats.pruned_illegal + fp_stats.pruned_inferior,
            "efa_pairs_total": fp_stats.sequence_pairs_total,
            "assign_s": tracer.seconds("assign"),
            "window_s": tracer.seconds("assign.window"),
            "mcmf_s": tracer.seconds("netflow.mcmf"),
            "topologies_s": tracer.seconds("mst.topologies"),
            "arcs": result.assignment_result.total_edges,
            "window_retries": counters.get("assign.window.retries", 0),
            "window_iterations": counters.get("assign.window.iterations", 0),
            "augmenting_paths": counters.get(
                "assign.mcmf.augmenting_paths", 0
            ),
            "nodes_settled": counters.get("assign.mcmf.nodes_settled", 0),
            "twl_s": tracer.seconds("eval.twl"),
            "lint_s": tracer.seconds("validate.lint"),
            "verify_s": tracer.seconds("validate.verify"),
            "est_wl": result.floorplan_result.est_wl,
            "twl": result.twl,
        }


class FloorplanWorkload(_OpWorkload):
    """EFA_c3 with both cuts, then SA and B*-tree SA, on t4m-class designs."""

    name = "floorplan_t4m"
    case = "t4m"
    copies = 8

    def _solve(self, design: Any):
        from repro import floorplan

        sa_seed = SA_SEED + self.seed
        efa_config = floorplan.EFAConfig(illegal_cut=True, inferior_cut=True)
        # Looked up on the package at call time, where the tracer patches.
        return (
            floorplan.run_efa(design, efa_config),
            floorplan.run_sa(design, floorplan.SAConfig(seed=sa_seed)),
            floorplan.run_btree_sa(
                design, floorplan.BTreeSAConfig(seed=sa_seed)
            ),
        )

    def _warm_up(self) -> None:
        from repro.benchgen import load_tiny

        self._solve(load_tiny(die_count=4, signal_count=8))

    def _op(self, design: Any, tally: Tally, tracer: Optional[Tracer]):
        from repro import validate

        start = time.perf_counter()
        efa, sa, btree = self._solve(design)
        seconds = time.perf_counter() - start
        problem = None
        for label, res in (("EFA", efa), ("SA", sa), ("B*-tree", btree)):
            if not res.found:
                problem = f"{design.name}: {label} found no floorplan"
                break
            bad = _errors(
                validate.verify_floorplan(
                    design, res.floorplan, claimed_est_wl=res.est_wl
                )
            )
            if bad:
                problem = f"{design.name}: {label} verifier: {bad[0]}"
                break
        if problem is None:
            ident = {
                "efa_est_wl": efa.est_wl,
                "candidate_key": list(efa.candidate_key),
                "sa_est_wl": sa.est_wl,
                "sa_moves": sa.stats.floorplans_evaluated,
                "btree_est_wl": btree.est_wl,
                "btree_moves": btree.stats.floorplans_evaluated,
            }
            problem = tally.identity_problem(design.name, ident, self.pins)
        tally.check(problem is None, problem or "")
        if tracer is not None:
            tally.raw.update(
                {
                    "ops": 1,
                    "flow_s": seconds,
                    "efa_s": tracer.seconds("floorplan.efa"),
                    "efa_pairs": efa.stats.sequence_pairs_explored,
                    "efa_evaluated": efa.stats.floorplans_evaluated,
                    "efa_rejected": efa.stats.floorplans_rejected_outline,
                    "efa_pruned": efa.stats.pruned_illegal
                    + efa.stats.pruned_inferior,
                    "efa_pairs_total": efa.stats.sequence_pairs_total,
                    "sa_s": tracer.seconds("floorplan.sa"),
                    "sa_moves": sa.stats.floorplans_evaluated,
                    "sa_dirty_signals": sa.stats.incremental_dirty_signals,
                    "sa_signals_total": sa.stats.incremental_signals_total,
                    "btree_s": tracer.seconds("floorplan.btree"),
                    "btree_moves": btree.stats.floorplans_evaluated,
                    "verify_s": tracer.seconds("validate.verify"),
                    "est_wl": efa.est_wl,
                }
            )
        return seconds


class ServiceWorkload(Workload):
    """An in-process job server, one runner, one client, one request at a time.

    Writes: a burst of distinct t4s-class designs, each followed on its
    NDJSON event stream to a terminal state.  Reads: resubmissions of
    the same designs, each a submit plus a result GET, until the run's
    time is up.  Every miss writes the cache and every hit reads it.
    """

    name = "service_mix"

    def setup(self, work_dir: Path) -> None:
        from repro.io import design_to_dict
        from repro.service import FloorplanService, ServiceClient

        self.designs = [
            _suite_design("t4s", SERVICE_BASE_SEED + self.seed + k)
            for k in range(SERVICE_DESIGNS)
        ]
        self.bodies = [design_to_dict(d) for d in self.designs]
        work_dir.mkdir(parents=True, exist_ok=True)
        self.data_dir = Path(tempfile.mkdtemp(prefix="service-", dir=work_dir))
        self.service = FloorplanService(self.data_dir, port=0, max_workers=1)
        self.service.start()
        self.client = ServiceClient(self.service.url)
        self.client.health()

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def run(
        self, seconds: float, tally: Tally, tracer: Optional[Tracer] = None
    ) -> None:
        start = time.perf_counter()
        self.canonical: List[Optional[str]] = [None] * len(self.designs)
        with tracer or nullcontext():
            self._misses(tally, tracer)
        if tracer is not None:
            tally.service["cache_put"] = list(
                tracer.samples.get("service.cache_put", [])
            )
        for _ in range(SERVICE_WARMUP_ROUNDS):
            for k in range(len(self.designs)):
                self._hit(k, tally, None)
        rounds = 0
        while time.perf_counter() - start < seconds:
            traced = tracer is not None and rounds % 2 == 1
            for k in range(len(self.designs)):
                seconds_k = self._hit(k, tally, tracer if traced else None)
                if seconds_k is None:
                    continue
                tally.request_s.append(seconds_k)
                if tracer is not None:
                    (tally.traced_s if traced else tally.untraced_s).append(
                        seconds_k
                    )
            rounds += 1
        ratio = self.client.stats().get("cache_hit_ratio")
        tally.cache_hit_ratio = float(ratio or 0.0)

    def _misses(self, tally: Tally, tracer: Optional[Tracer]) -> None:
        submitted = []
        for k, (design, body) in enumerate(zip(self.designs, self.bodies)):
            t0 = time.perf_counter()
            try:
                view = self.client.submit(body, timeout_s=JOB_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                tally.check(False, f"{design.name}: submit: {exc}")
                continue
            submitted.append((k, design, t0, view))
        first = submitted[0][2] if submitted else time.perf_counter()
        last = first
        for k, design, t0, view in submitted:
            try:
                for _event in self.client.stream_events(view["id"]):
                    pass  # the server closes the stream at a terminal state
                done = time.perf_counter()
                final = self.client.status(view["id"])
                result = (
                    self.client.result(view["id"])
                    if final["state"] == "DONE"
                    else None
                )
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                tally.check(False, f"{design.name}: miss: {exc}")
                continue
            last = done
            tally.solve_s.append(done - t0)
            tally.request_s.append(done - t0)
            problem = self._miss_problem(design, view, final, result, tally)
            tally.check(problem is None, problem or "")
            if problem is None:
                self.canonical[k] = json.dumps(result, sort_keys=True)
                self._record_miss(final, result, tally, tracer)
        tally.solve_phase_s += last - first

    def _miss_problem(
        self, design, view, final, result, tally
    ) -> Optional[str]:
        from repro.validate import verify_result_payload

        if view.get("cached"):
            return f"{design.name}: first submission was served from cache"
        if final["state"] != "DONE":
            return f"{design.name}: job {final['state']}: {final.get('error')}"
        bad = _errors(verify_result_payload(design, result))
        if bad:
            return f"{design.name}: verifier: {bad[0]}"
        ident = {"est_wl": result["est_wl"], "twl": result["twl"]}
        return tally.identity_problem(design.name, ident, self.pins)

    @staticmethod
    def _record_miss(final, result, tally, tracer) -> None:
        if tracer is None:
            return
        from repro import obs

        flow_s = obs.span_seconds(result.get("report") or {}, "flow") or 0.0
        run_s = final["finished_unix_s"] - final["started_unix_s"]
        samples = tally.service
        samples.setdefault("queue_wait", []).append(
            final["started_unix_s"] - final["created_unix_s"]
        )
        samples.setdefault("run", []).append(run_s)
        samples.setdefault("run_overhead", []).append(run_s - flow_s)
        tally.raw.update(
            {
                "ops": 1,
                "flow_s": flow_s,
                "est_wl": result["est_wl"],
                "twl": result["twl"],
            }
        )

    def _hit(
        self, k: int, tally: Tally, tracer: Optional[Tracer]
    ) -> Optional[float]:
        design = self.designs[k]
        try:
            with tracer or nullcontext():
                start = time.perf_counter()
                view = self.client.submit(
                    self.bodies[k], timeout_s=JOB_TIMEOUT_S
                )
                result = self.client.result(view["id"])
                seconds = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            tally.check(False, f"{design.name}: hit: {exc}")
            return None
        if view.get("state") != "DONE" or not view.get("cached"):
            problem = f"{design.name}: resubmission was not a cache hit"
        elif json.dumps(result, sort_keys=True) != self.canonical[k]:
            problem = f"{design.name}: cache hit differs from its miss"
        else:
            problem = None
        tally.check(problem is None, problem or "")
        if tracer is not None:
            submit = tracer.seconds("service.submit")
            result_s = tracer.seconds("service.result")
            for key, layer in (
                ("submit", "service.submit"),
                ("lint", "service.lint"),
                ("cache_key", "service.cache_key"),
                ("cache_get", "service.cache_get"),
                ("verify", "service.verify"),
                ("result", "service.result"),
            ):
                tally.service.setdefault(key, []).append(tracer.seconds(layer))
            tally.service.setdefault("http", []).append(
                seconds - submit - result_s
            )
        return seconds


WORKLOADS = ("flow_t4b", "flow_t8b", "floorplan_t4m", "service_mix")


def make(
    name: str, seed: int, pins: Optional[Dict[str, Dict]] = None
) -> Workload:
    """The workload called ``name`` with inputs from ``seed``."""
    if name == "flow_t4b":
        return FlowWorkload(
            name, "t4b", copies=8, budget_s=None, warm_dies=4, seed=seed,
            pins=pins,
        )
    if name == "flow_t8b":
        # The budget sits inside the incumbent plateau of the default
        # case: the last improvement lands about 4 s into enumeration.
        return FlowWorkload(
            name, "t8b", copies=1, budget_s=10.0, warm_dies=6, seed=seed,
            pins=pins,
        )
    if name == "floorplan_t4m":
        return FloorplanWorkload(seed, pins)
    if name == "service_mix":
        return ServiceWorkload(seed, pins)
    raise ValueError(
        f"unknown workload {name!r} (have {', '.join(WORKLOADS)})"
    )
