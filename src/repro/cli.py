"""Command-line interface.

Exposes the library's main entry points as subcommands operating on JSON
artifacts, so the flow can be scripted without writing Python:

* ``repro-25d generate`` — build a suite/tiny testcase, write design JSON;
* ``repro-25d validate`` — lint a design document and print the
  machine-readable diagnostics (exit 1 on any error-severity finding);
* ``repro-25d floorplan`` — run a floorplanner on a design JSON;
* ``repro-25d assign`` — run a signal assigner on design + floorplan;
* ``repro-25d evaluate`` — score a complete solution with Eq. 1 (and
  optionally the RDL congestion estimate);
* ``repro-25d run`` — the whole flow in one call;
* ``repro-25d render`` — write an SVG of a (solved) layout;
* ``repro-25d dashboard`` — render an existing run report (any schema
  version) into the self-contained HTML dashboard;
* ``repro-25d metrics-dump`` — OpenMetrics/Prometheus text exposition of
  a run report's counters plus the derived quality analytics;
* ``repro-25d serve`` — the async job server of :mod:`repro.service`
  (submit/poll/stream over HTTP, content-addressed result cache,
  checkpoint/resume);
* ``repro-25d submit`` — post a design to a running server (optionally
  following the live event stream until the job finishes);
* ``repro-25d job`` — inspect, cancel or download one server-side job.

Every command prints a short human summary to stdout and writes machine
artifacts only where asked.  All subcommands additionally accept:

* ``--log-level LEVEL`` / ``--log-json`` — configure the ``repro.*``
  logger hierarchy (diagnostics go to stderr; results stay on stdout);
* ``--report OUT.json`` — write the versioned observability run report
  (span tree + solver counters + results) after the command finishes;
* ``--trace-out TRACE.json`` — write the run's span tree as Chrome
  trace-event JSON (loadable in Perfetto / ``chrome://tracing``);
* ``--heartbeat SECONDS`` — progress-heartbeat interval for the
  long-running stages (implies ``--log-level info``);
* ``--profile-out PROFILE`` — run under the wall-clock sampling
  profiler of :mod:`repro.obs.profiler` and write the profile
  (``.json`` -> speedscope, anything else collapsed stacks;
  ``$REPRO_PROFILE`` overrides the format).

``floorplan`` and ``run`` additionally accept ``--dashboard-out D.html``
to write the HTML run dashboard next to (or instead of) the JSON report.

The floorplanning commands (``floorplan``, ``run``) further accept
``--workers N`` (sharded multi-process EFA search, result identical to
serial for any ``N``), ``--portfolio`` (race EFA_c3 / EFA_dop / SA and
keep the best legal floorplan), ``--seed`` (reproducibility of the
stochastic floorplanners) and ``--verify`` (independently re-derive the
result's claims with :mod:`repro.validate.verify_result`; any mismatch
fails the command); see :mod:`repro.parallel`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import io as json_io
from . import obs
from .assign import (
    BipartiteAssigner,
    BipartiteAssignerConfig,
    GreedyAssigner,
    MCMFAssigner,
    MCMFAssignerConfig,
)
from .benchgen import load_case, load_tiny, suite_names
from .eval import CongestionConfig, estimate_congestion, total_wirelength
from .floorplan import (
    EFAConfig,
    SAConfig,
    optimize_floorplan,
    run_efa,
    run_efa_dop,
    run_efa_mix,
    run_sa,
)
from .viz import render_layout

FLOORPLANNERS = ("mix", "ori", "c1", "c2", "c3", "dop", "sa", "btree-sa")
ASSIGNERS = ("mcmf-fast", "mcmf-ori", "greedy", "bipartite")

logger = obs.get_logger("cli")


def _maybe_write_report(args, verification=None, **sections) -> None:
    """Write the run report / dashboard when their flags were given.

    ``sections`` are forwarded to :func:`repro.obs.build_report`; the span
    tree and metric snapshot are always included.  ``--report`` and
    ``--dashboard-out`` share one report build, so the dashboard always
    renders exactly what the JSON artifact records.  ``verification`` (a
    diagnostic list from ``--verify``) is recorded on the report when
    given — including an empty list, which marks the run verified-clean.
    """
    report_path = getattr(args, "report", None)
    dashboard_path = getattr(args, "dashboard_out", None)
    if not report_path and not dashboard_path:
        return
    report = obs.build_report(
        command=args.command,
        resources=obs.self_resources(),
        **sections,
    )
    if verification is not None:
        obs.attach_verification(report, verification)
    if report_path:
        obs.write_report(report, report_path)
        print(f"wrote report {report_path}")
    if dashboard_path:
        obs.write_dashboard(report, dashboard_path)
        print(f"wrote dashboard {dashboard_path}")


def _load_design(path: str):
    """Load a design, dispatching on the file extension (.25d = text).

    Malformed documents exit with the first constructor error and a
    pointer at ``repro-25d validate``, which reports *all* problems.
    """
    try:
        if str(path).endswith(".25d"):
            return json_io.load_design_text(path)
        return json_io.load_design(path)
    except ValueError as exc:
        raise SystemExit(
            f"{path}: {exc}\n(run `repro-25d validate {path}` for the "
            f"full diagnostic list)"
        ) from exc


def _save_design(design, path: str) -> None:
    if str(path).endswith(".25d"):
        json_io.save_design_text(design, path)
    else:
        json_io.save_design(design, path)


def _run_floorplanner(
    design,
    algorithm: str,
    budget: Optional[float],
    workers: int = 1,
    seed: int = 0,
    portfolio: bool = False,
):
    if portfolio:
        from .parallel import PortfolioConfig, run_portfolio

        return run_portfolio(
            design, PortfolioConfig(time_budget_s=budget, seed=seed)
        )
    if algorithm == "mix":
        return run_efa_mix(design, time_budget_s=budget, workers=workers)
    if algorithm == "dop":
        return run_efa_dop(design, time_budget_s=budget)
    if algorithm == "sa":
        return run_sa(design, SAConfig(seed=seed, time_budget_s=budget))
    if algorithm == "btree-sa":
        from .floorplan import BTreeSAConfig, run_btree_sa

        return run_btree_sa(
            design, BTreeSAConfig(seed=seed, time_budget_s=budget)
        )
    config = EFAConfig(
        illegal_cut=algorithm in ("c1", "c3"),
        inferior_cut=algorithm in ("c2", "c3"),
        time_budget_s=budget,
    )
    if workers > 1:
        from .parallel import ParallelEFAConfig, run_parallel_efa

        return run_parallel_efa(
            design, ParallelEFAConfig(workers=workers, efa=config)
        )
    return run_efa(design, config)


def _report_verification(diagnostics) -> bool:
    """Print the ``--verify`` verdict; returns True when it passed.

    Every diagnostic goes to the log (errors as errors, the rest as
    warnings); the one-line verdict goes to stdout with the results.
    """
    errors = 0
    for diag in diagnostics:
        if diag.severity == "error":
            errors += 1
            logger.error("%s", diag)
        else:
            logger.warning("%s", diag)
    if errors:
        print(f"verification FAILED: {errors} error(s) (see log)")
        return False
    print("verification OK (independent recomputation matches)")
    return True


def _make_assigner(algorithm: str, budget: Optional[float]):
    if algorithm == "mcmf-fast":
        return MCMFAssigner(MCMFAssignerConfig(time_budget_s=budget))
    if algorithm == "mcmf-ori":
        return MCMFAssigner(
            MCMFAssignerConfig(window_matching=False, time_budget_s=budget)
        )
    if algorithm == "greedy":
        return GreedyAssigner()
    return BipartiteAssigner(BipartiteAssignerConfig(time_budget_s=budget))


def cmd_generate(args) -> int:
    """Handle ``repro-25d generate``."""
    if args.case == "tiny":
        design = load_tiny(die_count=args.dies, signal_count=args.signals)
    else:
        design = load_case(args.case)
    _save_design(design, args.output)
    stats = design.stats()
    print(f"wrote {args.output}: {design.name} {stats}")
    _maybe_write_report(args, design=design)
    return 0


def cmd_validate(args) -> int:
    """Handle ``repro-25d validate`` (lint a design, JSON diagnostics).

    Lints the *raw* document (not a built :class:`Design`), so every
    problem is reported at once instead of dying on the first
    constructor error.  Prints one JSON diagnostics document to stdout
    (or ``--output``); the exit code is 0 only when no error-severity
    diagnostics were found.
    """
    import json

    from .validate import Diagnostic, ERROR, lint_design

    path = str(args.design)
    data = None
    try:
        if path.endswith(".25d"):
            # The text format has no raw-dict form: parse it, then lint
            # the JSON-shaped serialization of what it described.
            data = json_io.design_to_dict(json_io.load_design_text(path))
        else:
            data = json_io.load_json(path)
    except OSError as exc:
        diagnostics = [Diagnostic("io.read", ERROR, path, str(exc))]
    except ValueError as exc:
        diagnostics = [Diagnostic("schema.parse", ERROR, path, str(exc))]
    if data is not None:
        diagnostics = lint_design(data)
    errors = sum(1 for d in diagnostics if d.severity == ERROR)
    document = {
        "kind": "repro.lint_report",
        "design": path,
        "ok": errors == 0,
        "errors": errors,
        "warnings": len(diagnostics) - errors,
        "diagnostics": [d.to_dict() for d in diagnostics],
    }
    text = json.dumps(document, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote lint report {args.output}")
    else:
        sys.stdout.write(text)
    return 0 if errors == 0 else 1


def cmd_floorplan(args) -> int:
    """Handle ``repro-25d floorplan``."""
    design = _load_design(args.design)
    result = _run_floorplanner(
        design,
        args.algorithm,
        args.budget,
        workers=args.workers,
        seed=args.seed,
        portfolio=args.portfolio,
    )
    if not result.found:
        logger.error("no legal floorplan found")
        _maybe_write_report(args, design=design, floorplan_result=result)
        return 1
    floorplan = result.floorplan
    if args.post_optimize:
        floorplan, post = optimize_floorplan(design, floorplan)
        result.floorplan = floorplan
        result.est_wl = post.final_est_wl
        result.stats.runtime_s += post.runtime_s
        print(
            f"post-opt: {post.moves} moves, "
            f"estWL {post.initial_est_wl:.4f} -> {post.final_est_wl:.4f}"
        )
    json_io.save_floorplan(floorplan, args.output)
    print(
        f"wrote {args.output}: {result.algorithm or args.algorithm}, "
        f"estWL={result.est_wl:.4f}, "
        f"{result.stats.floorplans_evaluated} floorplans in "
        f"{result.stats.runtime_s:.2f}s"
        + (" (budget-truncated)" if result.stats.timed_out else "")
    )
    verification = None
    verified_ok = True
    if args.verify:
        from .validate import verify_floorplan

        verification = verify_floorplan(
            design, floorplan, claimed_est_wl=result.est_wl
        )
        verified_ok = _report_verification(verification)
    _maybe_write_report(
        args,
        design=design,
        floorplan_result=result,
        verification=verification,
    )
    return 0 if verified_ok else 1


def cmd_assign(args) -> int:
    """Handle ``repro-25d assign``."""
    design = _load_design(args.design)
    floorplan = json_io.load_floorplan(args.floorplan, design)
    assigner = _make_assigner(args.algorithm, args.budget)
    result = assigner.assign_with_stats(design, floorplan)
    if not result.complete:
        logger.error("assignment failed: %s", result.note)
        _maybe_write_report(args, design=design, assignment_result=result)
        return 1
    json_io.save_assignment(result.assignment, args.output)
    wl = total_wirelength(design, floorplan, result.assignment)
    print(
        f"wrote {args.output}: {result.algorithm} in "
        f"{result.runtime_s:.2f}s, {wl}"
    )
    _maybe_write_report(
        args, design=design, assignment_result=result, wirelength=wl
    )
    return 0


def cmd_evaluate(args) -> int:
    """Handle ``repro-25d evaluate``."""
    design = _load_design(args.design)
    floorplan = json_io.load_floorplan(args.floorplan, design)
    assignment = json_io.load_assignment(args.assignment)
    problems = assignment.violations(design)
    if problems:
        logger.error(
            "invalid assignment (%d problems): %s",
            len(problems),
            "; ".join(str(p) for p in problems[:10]),
        )
        return 1
    wl = total_wirelength(design, floorplan, assignment)
    print(wl)
    if args.congestion:
        report = estimate_congestion(
            design, floorplan, assignment,
            CongestionConfig(grid=args.congestion_grid),
        )
        print(
            f"congestion: max {report.max_utilization:.2%}, mean "
            f"{report.mean_utilization:.2%}, overflow cells "
            f"{report.overflow_cells} -> "
            f"{'routable' if report.routable else 'NOT routable'}"
        )
    _maybe_write_report(args, design=design, wirelength=wl)
    return 0


def cmd_run(args) -> int:
    """Handle ``repro-25d run`` (the full flow).

    Delegates to :func:`repro.flow.run_flow` so the run is fully
    instrumented: stage spans, solver counters and (with ``--report``) the
    JSON run report all come from the same machinery library users get.
    """
    from .flow import FlowConfig, run_flow
    from .validate import DesignLintError

    design = _load_design(args.design)
    try:
        result = run_flow(
            design,
            FlowConfig(
                post_optimize=args.post_optimize,
                floorplan_workers=args.workers,
                portfolio=args.portfolio,
                seed=args.seed,
            ),
            floorplanner=lambda d: _run_floorplanner(
                d,
                args.floorplanner,
                args.budget,
                workers=args.workers,
                seed=args.seed,
                portfolio=args.portfolio,
            ),
            assigner=_make_assigner(args.assigner, args.budget),
        )
    except DesignLintError as exc:
        for diag in exc.diagnostics:
            logger.error("%s", diag)
        logger.error(
            "design rejected: %s (run `repro-25d validate` for the "
            "JSON diagnostic document)", exc,
        )
        return 1
    except RuntimeError as exc:
        # run_flow already logged the stage-level diagnostics.
        logger.error("flow failed: %s", exc)
        _maybe_write_report(args, design=design)
        return 1
    print(result.wirelength)
    if args.floorplan_out:
        json_io.save_floorplan(result.floorplan, args.floorplan_out)
    if args.assignment_out:
        json_io.save_assignment(result.assignment, args.assignment_out)
    verification = None
    verified_ok = True
    if args.verify:
        from .validate import verify_flow_result

        verification = verify_flow_result(design, result)
        verified_ok = _report_verification(verification)
        if result.obs_report is not None:
            obs.attach_verification(result.obs_report, verification)
    _maybe_write_report(args, flow_result=result, verification=verification)
    return 0 if verified_ok else 1


def cmd_route(args) -> int:
    """Handle ``repro-25d route``."""
    from .route import GridConfig, route_design

    design = _load_design(args.design)
    floorplan = json_io.load_floorplan(args.floorplan, design)
    assignment = json_io.load_assignment(args.assignment)
    result = route_design(
        design,
        floorplan,
        assignment,
        GridConfig(
            cells_x=args.grid,
            cells_y=args.grid,
            wire_pitch=args.wire_pitch,
            rdl_layers=args.layers,
        ),
    )
    print(
        f"routed {len(result.nets)} internal nets: total "
        f"{result.total_routed_length:.4f} mm (MST estimate "
        f"{result.total_mst_length:.4f} mm), correlation "
        f"{result.correlation():.3f}"
    )
    print(
        f"max utilization {result.max_utilization:.1%}, overflow "
        f"{result.overflow} -> "
        f"{'routable' if result.routable else 'NOT routable'}"
    )
    _maybe_write_report(
        args,
        design=design,
        extra={
            "routing": {
                "nets": len(result.nets),
                "total_routed_length": result.total_routed_length,
                "total_mst_length": result.total_mst_length,
                "correlation": result.correlation(),
                "max_utilization": result.max_utilization,
                "overflow": result.overflow,
                "rerouted_nets": result.rerouted_nets,
                "runtime_s": result.runtime_s,
            }
        },
    )
    return 0 if result.routable else 2


def _load_report(path: str) -> dict:
    """Load a run-report JSON, with a kind sanity check."""
    import json

    with open(path) as handle:
        report = json.load(handle)
    if not isinstance(report, dict):
        raise SystemExit(f"{path}: not a run report (expected an object)")
    kind = report.get("kind")
    if kind not in (None, obs.REPORT_KIND):
        logger.warning(
            "%s: kind %r is not %r; rendering anyway",
            path, kind, obs.REPORT_KIND,
        )
    return report


def cmd_dashboard(args) -> int:
    """Handle ``repro-25d dashboard`` (report JSON -> HTML)."""
    report = _load_report(args.report_json)
    obs.write_dashboard(report, args.output)
    print(f"wrote dashboard {args.output}")
    return 0


def cmd_metrics_dump(args) -> int:
    """Handle ``repro-25d metrics-dump`` (report JSON -> OpenMetrics)."""
    report = _load_report(args.report_json)
    text = obs.render_report(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote metrics {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_render(args) -> int:
    """Handle ``repro-25d render``."""
    design = _load_design(args.design)
    floorplan = json_io.load_floorplan(args.floorplan, design)
    assignment = None
    if args.assignment:
        assignment = json_io.load_assignment(args.assignment)
    svg = render_layout(design, floorplan, assignment)
    with open(args.output, "w") as handle:
        handle.write(svg)
    print(f"wrote {args.output}")
    _maybe_write_report(args, design=design)
    return 0


def cmd_serve(args) -> int:
    """Handle ``repro-25d serve`` (the async job server)."""
    from .service import FloorplanService

    manager_kwargs = {}
    if args.max_terminal_jobs is not None:
        manager_kwargs["max_terminal_jobs"] = args.max_terminal_jobs
    service = FloorplanService(
        args.data_dir,
        host=args.host,
        port=args.port,
        max_workers=args.job_workers,
        cache_entries=args.cache_entries,
        default_timeout_s=args.job_timeout,
        **manager_kwargs,
    )
    print(f"serving on {service.url} (data dir: {args.data_dir})")
    service.serve_forever()
    return 0


def _print_event(event: dict) -> None:
    import json

    print(json.dumps(event, sort_keys=True))


def cmd_submit(args) -> int:
    """Handle ``repro-25d submit`` (post a design to a running server)."""
    import json

    from .flow import FlowConfig, flow_config_to_dict
    from .service import ServiceClient, ServiceError

    design = _load_design(args.design)
    config = flow_config_to_dict(
        FlowConfig(
            floorplan_budget_s=args.budget,
            post_optimize=args.post_optimize,
            floorplan_workers=args.workers,
            portfolio=args.portfolio,
            seed=args.seed,
        )
    )
    client = ServiceClient(args.url)
    try:
        view = client.submit(
            json_io.design_to_dict(design),
            config=config,
            timeout_s=args.job_timeout,
            profile=args.profile,
        )
        job_id = view["id"]
        print(
            f"job {job_id}: {view['state']}"
            + (" (cache hit)" if view.get("cached") else "")
        )
        if args.no_wait:
            return 0
        if args.follow and view["state"] not in (
            "DONE", "FAILED", "CANCELLED",
        ):
            for event in client.stream_events(job_id):
                _print_event(event)
        final = client.wait(job_id, timeout_s=args.wait_timeout)
        if final["state"] != "DONE":
            logger.error(
                "job %s %s: %s", job_id, final["state"], final.get("error")
            )
            return 1
        result = client.result(job_id)
    except ServiceError as exc:
        logger.error("service error: %s", exc)
        return 1
    print(result["summary"])
    if args.result_out:
        with open(args.result_out, "w") as handle:
            json.dump(result, handle)
        print(f"wrote result {args.result_out}")
    return 0


def cmd_job(args) -> int:
    """Handle ``repro-25d job`` (inspect/cancel/download one job)."""
    import json

    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.cancel:
            view = client.cancel(args.job_id)
        elif args.events:
            for event in client.stream_events(args.job_id):
                _print_event(event)
            view = client.status(args.job_id)
        else:
            view = client.status(args.job_id)
        print(json.dumps(view, sort_keys=True))
        if args.result_out:
            with open(args.result_out, "w") as handle:
                json.dump(client.result(args.job_id), handle)
            print(f"wrote result {args.result_out}")
        if args.report_out:
            with open(args.report_out, "w") as handle:
                json.dump(client.report(args.job_id), handle)
            print(f"wrote report {args.report_out}")
        if args.dashboard_out:
            with open(args.dashboard_out, "w") as handle:
                handle.write(client.dashboard(args.job_id))
            print(f"wrote dashboard {args.dashboard_out}")
        if args.job_profile_out:
            with open(args.job_profile_out, "w") as handle:
                handle.write(client.profile(args.job_id))
            print(f"wrote profile {args.job_profile_out}")
    except ServiceError as exc:
        logger.error("service error: %s", exc)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-25d",
        description="Floorplanning and signal assignment for 2.5D ICs "
        "(DAC'14 reproduction)",
    )
    # Observability flags shared by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error", "critical"],
        help="diagnostic verbosity on stderr (default: warning)",
    )
    common.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as JSON objects",
    )
    common.add_argument(
        "--report",
        metavar="OUT.json",
        help="write the observability run report (spans + counters) here",
    )
    common.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        help="write the run's span tree as Chrome trace-event JSON "
        "(load in Perfetto / chrome://tracing)",
    )
    common.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="progress-heartbeat interval (implies --log-level info; "
        "<= 0 disables; default: $REPRO_HEARTBEAT_S or 2.0)",
    )
    common.add_argument(
        "--profile-out",
        metavar="PROFILE",
        help="run under the wall-clock sampling profiler and write the "
        "profile here (.json -> speedscope, else collapsed stacks; "
        "override the format with $REPRO_PROFILE)",
    )

    def add_parser(name: str, parents=(), **kwargs):
        return sub.add_parser(
            name, parents=[common, *parents], **kwargs
        )

    sub = parser.add_subparsers(dest="command", required=True)

    p = add_parser("generate", help="generate a testcase design JSON")
    p.add_argument(
        "--case",
        default="tiny",
        choices=["tiny"] + suite_names() + [n + "'" for n in suite_names()],
    )
    p.add_argument("--dies", type=int, default=3)
    p.add_argument("--signals", type=int, default=12)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_generate)

    # Parallel-search flags shared by the floorplanning commands.
    parallel_common = argparse.ArgumentParser(add_help=False)
    parallel_common.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sharded EFA search (default: 1 = "
        "serial; the result is identical for any worker count)",
    )
    parallel_common.add_argument(
        "--portfolio",
        action="store_true",
        help="race EFA_c3 / EFA_dop / SA on the process pool and keep "
        "the best legal floorplan (overrides --floorplanner/--algorithm)",
    )
    parallel_common.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the stochastic floorplanners (SA and the "
        "portfolio's SA entrant; default: 0)",
    )
    # Dashboard output, shared by the commands that produce a result
    # worth looking at (floorplan / run).
    dashboard_common = argparse.ArgumentParser(add_help=False)
    dashboard_common.add_argument(
        "--dashboard-out",
        metavar="D.html",
        help="write the self-contained HTML run dashboard here "
        "(floorplan SVG + trajectory + waterfall + pruning funnel)",
    )

    p = add_parser(
        "validate",
        help="lint a design and print machine-readable diagnostics",
    )
    p.add_argument("design")
    p.add_argument(
        "--output", "-o", default=None,
        help="write the JSON lint report here instead of stdout",
    )
    p.set_defaults(func=cmd_validate)

    # --verify, shared by the commands that produce a checkable result.
    verify_common = argparse.ArgumentParser(add_help=False)
    verify_common.add_argument(
        "--verify",
        action="store_true",
        help="independently re-derive the result's claims (legality, "
        "wirelengths, bound arithmetic) and fail on any mismatch",
    )

    p = add_parser(
        "floorplan",
        help="floorplan a design",
        parents=[parallel_common, dashboard_common, verify_common],
    )
    p.add_argument("design")
    p.add_argument("--algorithm", default="mix", choices=FLOORPLANNERS)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--post-optimize", action="store_true")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_floorplan)

    p = add_parser("assign", help="assign signals to bumps and TSVs")
    p.add_argument("design")
    p.add_argument("floorplan")
    p.add_argument("--algorithm", default="mcmf-fast", choices=ASSIGNERS)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_assign)

    p = add_parser("evaluate", help="score a complete solution (Eq. 1)")
    p.add_argument("design")
    p.add_argument("floorplan")
    p.add_argument("assignment")
    p.add_argument("--congestion", action="store_true")
    p.add_argument("--congestion-grid", type=int, default=32)
    p.set_defaults(func=cmd_evaluate)

    p = add_parser(
        "run",
        help="full flow: floorplan + assign + evaluate",
        parents=[parallel_common, dashboard_common, verify_common],
    )
    p.add_argument("design")
    p.add_argument("--floorplanner", default="mix", choices=FLOORPLANNERS)
    p.add_argument("--assigner", default="mcmf-fast", choices=ASSIGNERS)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--post-optimize", action="store_true")
    p.add_argument("--floorplan-out")
    p.add_argument("--assignment-out")
    p.set_defaults(func=cmd_run)

    p = add_parser(
        "route", help="globally route the internal nets on the RDL grid"
    )
    p.add_argument("design")
    p.add_argument("floorplan")
    p.add_argument("assignment")
    p.add_argument("--grid", type=int, default=24)
    p.add_argument("--wire-pitch", type=float, default=0.004)
    p.add_argument("--layers", type=int, default=4)
    p.set_defaults(func=cmd_route)

    p = add_parser("render", help="write an SVG of the layout")
    p.add_argument("design")
    p.add_argument("floorplan")
    p.add_argument("--assignment")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_render)

    p = add_parser(
        "dashboard",
        help="render an existing run report into the HTML dashboard",
    )
    p.add_argument("report_json", metavar="report.json")
    p.add_argument("--output", "-o", required=True, metavar="D.html")
    p.set_defaults(func=cmd_dashboard)

    p = add_parser(
        "metrics-dump",
        help="OpenMetrics text exposition of a run report's metrics",
    )
    p.add_argument("report_json", metavar="report.json")
    p.add_argument(
        "--output", "-o", default=None,
        help="write here instead of stdout",
    )
    p.set_defaults(func=cmd_metrics_dump)

    p = add_parser("serve", help="run the async floorplanning job server")
    p.add_argument(
        "--data-dir",
        required=True,
        help="directory for job state, checkpoints and the result cache",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8025,
        help="listen port (0 = ephemeral; default: 8025)",
    )
    p.add_argument(
        "--job-workers", type=int, default=2,
        help="concurrent flow jobs (each runs in its own process; "
        "default: 2)",
    )
    p.add_argument(
        "--cache-entries", type=int, default=256,
        help="LRU bound on cached results (default: 256)",
    )
    p.add_argument(
        "--job-timeout", type=float, default=None,
        help="default per-job wall-clock timeout in seconds "
        "(default: none)",
    )
    p.add_argument(
        "--max-terminal-jobs", type=int, default=None,
        help="finished (DONE/FAILED/CANCELLED) jobs kept on disk before "
        "the oldest are garbage-collected (default: 512; 0 keeps none)",
    )
    p.set_defaults(func=cmd_serve)

    # Client-side flags shared by submit/job.
    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument(
        "--url", default="http://127.0.0.1:8025",
        help="base URL of a running server (default: %(default)s)",
    )

    p = add_parser(
        "submit",
        help="submit a design to a running job server",
        parents=[parallel_common, client_common],
    )
    p.add_argument("design")
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--post-optimize", action="store_true")
    p.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock timeout in seconds",
    )
    p.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="stream the job's NDJSON events (heartbeats, incumbent "
        "improvements, state changes) while waiting",
    )
    p.add_argument(
        "--wait-timeout", type=float, default=None,
        help="give up waiting after this many seconds (job keeps running)",
    )
    p.add_argument(
        "--result-out", metavar="OUT.json",
        help="write the finished result document here",
    )
    p.add_argument(
        "--profile", choices=["collapsed", "speedscope"], default=None,
        help="run the job under the server-side sampling profiler "
        "(fetch with GET /api/v1/jobs/<id>/profile)",
    )
    p.set_defaults(func=cmd_submit)

    p = add_parser(
        "job",
        help="inspect, cancel or download one server-side job",
        parents=[client_common],
    )
    p.add_argument("job_id")
    p.add_argument("--cancel", action="store_true")
    p.add_argument(
        "--events", action="store_true",
        help="follow the job's NDJSON event stream until it ends",
    )
    p.add_argument("--result-out", metavar="OUT.json")
    p.add_argument("--report-out", metavar="OUT.json")
    p.add_argument(
        "--dashboard-out", metavar="D.html",
        help="write the finished job's HTML dashboard here",
    )
    p.add_argument(
        # Distinct from the global --profile-out (which profiles this
        # client process): this downloads the worker-side profile.
        "--worker-profile-out", dest="job_profile_out", metavar="PROF",
        help="download the profile of a job submitted with --profile "
        "(speedscope JSON or collapsed text, as submitted)",
    )
    p.set_defaults(func=cmd_job)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    log_level = args.log_level
    if args.heartbeat is not None:
        # Solvers (and worker processes) read the interval from the
        # environment; heartbeats only emit at INFO, so raise the default
        # level rather than making the flag silently do nothing.
        os.environ["REPRO_HEARTBEAT_S"] = str(args.heartbeat)
        if log_level == "warning":
            log_level = "info"
    obs.configure_logging(level=log_level, json_mode=args.log_json)
    # Each invocation is one observability scope; commands that delegate
    # to run_flow reset again, which is harmless.
    obs.reset_run()
    profiler = None
    profile_out = getattr(args, "profile_out", None)
    if profile_out:
        profiler = obs.SamplingProfiler().start()
    try:
        return args.func(args)
    finally:
        if profiler is not None:
            profiler.stop()
            fmt = profiler.write(profile_out)
            print(f"wrote {fmt} profile {profile_out}")
        # The span tree exists even when the command failed; a trace of a
        # failed run is exactly what one wants to look at.
        if getattr(args, "trace_out", None):
            obs.write_trace(args.trace_out)
            print(f"wrote trace {args.trace_out}")


if __name__ == "__main__":
    sys.exit(main())
