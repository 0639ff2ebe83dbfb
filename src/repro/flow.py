"""The end-to-end 2.5D wirelength-minimization flow.

The paper splits the problem into multi-die floorplanning followed by
signal assignment; :func:`run_flow` glues the two stages together and
evaluates Eq. 1 on the result.  The default configuration is the paper's
production flow: EFA_mix for floorplanning and MCMF_fast for assignment.

Every run is instrumented through :mod:`repro.obs`: the stages execute
inside ``flow.floorplan`` / ``flow.assign`` spans, the solvers publish
their counters to the metrics registry, and the whole run is serialized
into a versioned JSON report attached as ``FlowResult.obs_report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from . import obs
from .assign import AssignmentRunResult, MCMFAssigner, MCMFAssignerConfig
from .eval import WirelengthBreakdown, total_wirelength
from .floorplan import FloorplanResult, run_efa_mix
from .model import Assignment, Design, Floorplan

logger = obs.get_logger("flow")


@dataclass
class FlowConfig:
    """Stage budgets and variant switches for :func:`run_flow`."""

    floorplan_budget_s: Optional[float] = None
    assigner: MCMFAssignerConfig = field(default_factory=MCMFAssignerConfig)
    # Apply the post-floorplan die-shifting pass (future work [16]) between
    # the two stages.
    post_optimize: bool = False
    # Reset the process-local trace/metrics scope at entry so the attached
    # report describes exactly this run.  Disable when aggregating several
    # runs into one observability scope.
    reset_observability: bool = True
    # Worker processes for the floorplanning stage (see repro.parallel).
    # 1 = serial; >1 shards EFA_mix's enumeration arm across a process
    # pool with a guaranteed-identical result.
    floorplan_workers: int = 1
    # Race EFA_c3 / EFA_dop / SA on the pool instead of running EFA_mix;
    # the best legal floorplan wins.  Overrides floorplan_workers.
    portfolio: bool = False
    # Seed for the stochastic floorplanners (today: the SA entrant of the
    # portfolio).  Plumbed end-to-end so portfolio races are reproducible.
    seed: int = 0


# Version tag of the flow-config wire format below; bumped whenever a
# field changes meaning (the service folds it into cache keys, so a bump
# invalidates stale cached results instead of mis-serving them).
FLOW_CONFIG_SCHEMA_VERSION = 1

# Fields that change *how fast* the flow runs but provably not *what* it
# returns: the worker count (the sharded search is bit-identical to
# serial for any pool size).  The service's cache key drops them so that
# e.g. a 4-worker resubmission of a design solved serially is a hit.
_RESULT_INVARIANT_FIELDS = ("floorplan_workers",)


def flow_config_to_dict(cfg: FlowConfig) -> Dict[str, Any]:
    """Serialize a :class:`FlowConfig` to a plain JSON-ready dict.

    ``reset_observability`` is deliberately excluded: it steers process
    instrumentation scope, never the solution, and must not distinguish
    otherwise-identical configs.
    """
    return {
        "schema": FLOW_CONFIG_SCHEMA_VERSION,
        "floorplan_budget_s": cfg.floorplan_budget_s,
        "post_optimize": cfg.post_optimize,
        "floorplan_workers": cfg.floorplan_workers,
        "portfolio": cfg.portfolio,
        "seed": cfg.seed,
        "assigner": {
            "window_matching": cfg.assigner.window_matching,
            "window_slack": cfg.assigner.window_slack,
            "die_order": cfg.assigner.die_order,
            "order_seed": cfg.assigner.order_seed,
            "time_budget_s": cfg.assigner.time_budget_s,
            "max_window_retries": cfg.assigner.max_window_retries,
            "max_edges_per_sub_sap": cfg.assigner.max_edges_per_sub_sap,
        },
    }


def flow_config_from_dict(data: Dict[str, Any]) -> FlowConfig:
    """Rebuild a :class:`FlowConfig` from :func:`flow_config_to_dict`.

    Strict about both the schema tag and unknown keys — a config that
    silently dropped a field would be cached under the wrong key.
    """
    if data.get("schema") != FLOW_CONFIG_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported flow-config schema {data.get('schema')!r}; "
            f"expected {FLOW_CONFIG_SCHEMA_VERSION}"
        )
    known = {
        "schema",
        "floorplan_budget_s",
        "post_optimize",
        "floorplan_workers",
        "portfolio",
        "seed",
        "assigner",
        # Retired (it chose between two bit-identical EFA paths); specs
        # persisted before its removal still carry it, so it is dropped.
        "floorplan_batch_eval",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown flow-config keys: {sorted(unknown)}"
        )
    asg = dict(data.get("assigner") or {})
    unknown_asg = set(asg) - {
        "window_matching",
        "window_slack",
        "die_order",
        "order_seed",
        "time_budget_s",
        "max_window_retries",
        "max_edges_per_sub_sap",
    }
    if unknown_asg:
        raise ValueError(
            f"unknown assigner-config keys: {sorted(unknown_asg)}"
        )
    budget = data.get("floorplan_budget_s")
    return FlowConfig(
        floorplan_budget_s=None if budget is None else float(budget),
        assigner=MCMFAssignerConfig(**asg),
        post_optimize=bool(data.get("post_optimize", False)),
        floorplan_workers=int(data.get("floorplan_workers", 1)),
        portfolio=bool(data.get("portfolio", False)),
        seed=int(data.get("seed", 0)),
    )


def flow_config_cache_dict(cfg: FlowConfig) -> Dict[str, Any]:
    """The config's contribution to a content-addressed cache key.

    :func:`flow_config_to_dict` minus the result-invariant fields (see
    ``_RESULT_INVARIANT_FIELDS``), so submissions differing only in pool
    size or evaluation path share one cache entry.
    """
    data = flow_config_to_dict(cfg)
    for field_name in _RESULT_INVARIANT_FIELDS:
        data.pop(field_name, None)
    return data


@dataclass
class FlowResult:
    """Everything one flow run produced."""

    design: Design
    floorplan_result: FloorplanResult
    assignment_result: AssignmentRunResult
    wirelength: WirelengthBreakdown
    # The versioned JSON-ready run report (spans + metrics + results); see
    # :mod:`repro.obs.report` for the schema.
    obs_report: Optional[Dict[str, Any]] = None

    @property
    def floorplan(self) -> Floorplan:
        """The chosen floorplan."""
        return self.floorplan_result.floorplan

    @property
    def assignment(self) -> Assignment:
        """The chosen signal assignment."""
        return self.assignment_result.assignment

    @property
    def twl(self) -> float:
        """The Eq. 1 total wirelength of the final solution."""
        return self.wirelength.total

    def summary(self) -> str:
        """One-line human-readable run summary."""
        fp = self.floorplan_result
        asg = self.assignment_result
        return (
            f"{self.design.name}: {fp.algorithm or 'floorplan'} "
            f"({fp.stats.runtime_s:.2f}s, estWL={fp.est_wl:.3f}) + "
            f"{asg.algorithm} ({asg.runtime_s:.2f}s) -> {self.wirelength}"
        )


def run_flow(
    design: Design,
    config: Optional[FlowConfig] = None,
    floorplan: Optional[Floorplan] = None,
    floorplanner: Optional[Callable[[Design], FloorplanResult]] = None,
    assigner=None,
) -> FlowResult:
    """Floorplan (unless one is supplied), assign signals, evaluate Eq. 1.

    ``floorplanner`` (a callable returning a :class:`FloorplanResult`) and
    ``assigner`` (an object with ``assign_with_stats``) override the paper's
    default EFA_mix + MCMF_fast stages — the CLI uses this to run alternate
    variants through the same instrumented flow.

    Raises :class:`~repro.validate.DesignLintError` when the design fails
    the pre-flight lint (a provably-infeasible input must never start a
    search), ``RuntimeError`` when the floorplanner finds no legal
    floorplan and :class:`~repro.assign.AssignmentError` when the SAP
    fails; partial results are never silently scored.
    """
    from .validate.lint import DesignLintError, ERROR, lint_design

    lint_errors = [d for d in lint_design(design) if d.severity == ERROR]
    if lint_errors:
        raise DesignLintError(lint_errors)
    cfg = config or FlowConfig()
    if cfg.reset_observability:
        obs.reset_run()
    logger.info("flow start: design %s", design.name)
    with obs.span("flow") as flow_span:
        with obs.span("floorplan") as fp_span:
            if floorplan is not None:
                fp_result = FloorplanResult(floorplan, algorithm="given")
            elif floorplanner is not None:
                fp_result = floorplanner(design)
            elif cfg.portfolio:
                from .parallel import PortfolioConfig, run_portfolio

                fp_result = run_portfolio(
                    design,
                    PortfolioConfig(
                        time_budget_s=cfg.floorplan_budget_s,
                        seed=cfg.seed,
                    ),
                )
            else:
                fp_result = run_efa_mix(
                    design,
                    time_budget_s=cfg.floorplan_budget_s,
                    workers=cfg.floorplan_workers,
                )
            if not fp_result.found:
                logger.error(
                    "no legal floorplan found for design %s", design.name
                )
                raise RuntimeError(
                    f"no legal floorplan found for design {design.name!r}"
                )
            if cfg.post_optimize:
                from .floorplan import optimize_floorplan

                with obs.span("postopt") as post_span:
                    optimized, post_stats = optimize_floorplan(
                        design, fp_result.floorplan
                    )
                post_span.annotate(
                    moves=post_stats.moves,
                    improvement=post_stats.improvement,
                )
                fp_result.floorplan = optimized
                fp_result.est_wl = post_stats.final_est_wl
                # EFA's certified bound covers the packed candidates it
                # enumerates; shifted dies leave that set, so the bound
                # no longer holds for this floorplan.
                fp_result.stats.certified_lower_bound = None
                # The floorplan stage's reported wall-clock must include
                # the shifting pass, or FT under-reports the stage.
                fp_result.stats.runtime_s += post_stats.runtime_s
            fp_span.annotate(
                algorithm=fp_result.algorithm, est_wl=fp_result.est_wl
            )
            # Anchor the stage outcome on the run trajectory even when
            # the floorplanner ran out-of-process (workers' own points
            # keep worker-relative timestamps).
            obs.record_incumbent(
                fp_result.est_wl, metric="est_wl", source="flow.floorplan"
            )
        with obs.span("assign") as asg_span:
            stage_assigner = (
                assigner if assigner is not None
                else MCMFAssigner(cfg.assigner)
            )
            asg_result = stage_assigner.assign_with_stats(
                design, fp_result.floorplan
            )
            if not asg_result.complete:
                logger.error(
                    "signal assignment failed for design %s: %s",
                    design.name,
                    asg_result.note,
                )
                raise RuntimeError(
                    f"signal assignment failed for design {design.name!r}: "
                    f"{asg_result.note}"
                )
            asg_span.annotate(algorithm=asg_result.algorithm)
        with obs.span("evaluate"):
            wl = total_wirelength(
                design, fp_result.floorplan, asg_result.assignment
            )
        obs.record_incumbent(wl.total, metric="twl", source="flow.evaluate")
        flow_span.annotate(design=design.name, twl=wl.total)
    result = FlowResult(design, fp_result, asg_result, wl)
    # The schema-v3 quality section: optimality gap of the search
    # objective vs the certified interval lower bound (None for
    # non-enumerative floorplanners) plus anytime metrics over the whole
    # flow's est_wl trajectory.
    quality = obs.quality_section(
        final_est_wl=fp_result.est_wl,
        final_twl=wl.total,
        certified_lower_bound=fp_result.stats.certified_lower_bound,
        trajectory=obs.telemetry().snapshot().get("trajectory"),
    )
    result.obs_report = obs.build_report(
        result, quality=quality, resources=obs.self_resources()
    )
    logger.info("flow done: %s", result.summary())
    return result
