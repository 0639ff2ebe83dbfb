"""Perf-regression benchmark harness.

Runs a benchmark — one of the built-in fast specs below, or any bench
module via pytest — and writes a versioned ``BENCH_<name>.json`` *record*:
git sha, host fingerprint, per-stage wall-clock seconds (minimum over
repeats, read from the observability run report's span tree — never an
external stopwatch) and the result identity (``est_wl`` / candidate key)
the timed run produced.

``compare`` checks a fresh record against a baseline record with a
noise-aware rule: a stage regresses only when it is both ``threshold``
times slower (default 1.25x) *and* more than an absolute floor slower
(default 0.05 s), so micro-stage jitter cannot fail a build.  Result
identity must match exactly — a "faster" run that found a different
floorplan is a correctness bug, not a speedup.  When the two records'
host fingerprints differ the timing comparison is reported but does not
fail (cross-host numbers are not comparable); pass ``--strict-host`` to
fail anyway.  Identity mismatches fail regardless of host, since the
solvers are deterministic.

Usage::

    python benchmarks/harness.py list
    python benchmarks/harness.py run efa_t4s flow_t4s --repeats 3
    python benchmarks/harness.py run efa_t4s --compare          # vs committed baseline
    python benchmarks/harness.py run --module benchmarks/bench_parallel_speedup.py
    python benchmarks/harness.py compare NEW.json BASELINE.json

Records additionally carry a ``quality`` section (final ``est_wl`` /
``twl``, the certified optimality gap and the anytime-AUC, read from the
run report's v3 ``quality`` section) and ``compare`` gates on it: a
wirelength or gap that got *worse* than baseline fails alongside the
timing regressions (AUC is recorded but advisory — it is
timing-sensitive).  Schema-1 baselines without a quality section skip
the quality gate.

Self-test hooks: ``REPRO_HARNESS_INJECT_SLOWDOWN=<factor>`` multiplies
every measured stage time at record time, and
``REPRO_HARNESS_INJECT_WL_REGRESSION=<factor>`` multiplies the recorded
quality wirelengths; CI uses them to prove both gates actually fire (an
injected 2x slowdown / 1.1x wirelength must fail ``compare`` that an
identical re-run passes).

Committed baselines live in ``benchmarks/baselines/``; fresh records are
written next to them in ``benchmarks/out/`` by default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

RECORD_SCHEMA_VERSION = 2
# Older record schemas `load_record` still accepts (v1: no quality
# section; compare simply skips the quality gate against them).
COMPATIBLE_SCHEMA_VERSIONS = (1, 2)
RECORD_KIND = "repro.bench_record"
DEFAULT_THRESHOLD = 1.25
DEFAULT_ABS_FLOOR_S = 0.05
# Relative worsening tolerated on quality scalars before gating; the
# solvers are deterministic, so this only absorbs float noise.
QUALITY_REL_TOL = 1e-6
DEFAULT_REPEATS = 3
BASELINE_DIR = Path(__file__).resolve().parent / "baselines"
OUT_DIR = Path(__file__).resolve().parent / "out"


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return proc.stdout.strip()
    except Exception:
        return None


def host_fingerprint() -> Dict[str, Any]:
    """What must match for two records' timings to be comparable."""
    return {
        "hostname": socket.gethostname(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _inject_factor() -> float:
    raw = os.environ.get("REPRO_HARNESS_INJECT_SLOWDOWN")
    return float(raw) if raw else 1.0


def _inject_wl_factor() -> float:
    raw = os.environ.get("REPRO_HARNESS_INJECT_WL_REGRESSION")
    return float(raw) if raw else 1.0


def _quality_from_report(report: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The record's ``quality`` section from a run report's v3 one.

    Wirelengths and the certified gap gate the compare step; the
    anytime-AUC rides along for trend dashboards.  The wirelength
    self-test hook scales the wirelengths here — record time, quality
    only — so the injected regression exercises the quality gate rather
    than the identity check.
    """
    quality = (report or {}).get("quality") or {}
    factor = _inject_wl_factor()

    def scaled(key: str) -> Optional[float]:
        value = quality.get(key)
        return None if value is None else float(value) * factor

    return {
        "est_wl": scaled("final_est_wl"),
        "twl": scaled("final_twl"),
        "gap": quality.get("gap"),
        "anytime_auc": quality.get("anytime_auc"),
    }


# -- built-in fast specs ------------------------------------------------------
#
# Each spec callable runs ONE repeat of the measured unit inside a fresh
# obs scope and returns (stage_seconds, identity, report): the per-stage
# wall-clock read from the run report's span tree, the result identity
# the compare step asserts on, and the run report itself (the quality
# section is extracted from it).


def _spec_efa_t4s() -> Tuple[Dict[str, float], Dict[str, Any], Dict]:
    """Serial batched EFA_c3 on t4s (the Table 2 hot path)."""
    from repro import obs
    from repro.benchgen import load_case
    from repro.floorplan import EFAConfig, run_efa

    design = load_case("t4s")
    obs.reset_run()
    result = run_efa(
        design, EFAConfig(illegal_cut=True, inferior_cut=True)
    )
    report = obs.build_report(floorplan_result=result)
    assert result.found, "efa_t4s found no floorplan"
    return (
        {"floorplan.efa": obs.span_seconds(report, "floorplan.efa")},
        {
            "est_wl": result.est_wl,
            "candidate_key": list(result.candidate_key),
        },
        report,
    )


def _spec_flow_t4s() -> Tuple[Dict[str, float], Dict[str, Any], Dict]:
    """The full default flow (EFA_mix + MCMF_fast + Eq. 1) on t4s."""
    from repro import obs
    from repro.benchgen import load_case
    from repro.flow import FlowConfig, run_flow

    design = load_case("t4s")
    result = run_flow(design, FlowConfig())
    report = result.obs_report
    stages = {}
    for path in ("flow", "flow.floorplan", "flow.assign", "flow.evaluate"):
        seconds = obs.span_seconds(report, path)
        if seconds is not None:
            stages[path] = seconds
    return (
        stages,
        {
            "est_wl": result.floorplan_result.est_wl,
            "twl": result.twl,
        },
        report,
    )


def _spec_sa_t4m() -> Tuple[Dict[str, float], Dict[str, Any], Dict]:
    """SA move loop on t4m (the delta-HPWL hot path).

    Identity: ``est_wl`` is the best legal cost the anneal visited, so
    it moves with any change to the accepted trajectory;
    ``floorplans_evaluated`` is the move count, fixed by the schedule in
    an unbudgeted run.  Both must be bit-identical whether the shared
    annealer's delta evaluation is on (the default) or disabled via
    ``REPRO_SA_FULL_EVAL=1``.  Only the ``floorplan.sa`` stage time may
    move, which is exactly what the compare gate watches: running this
    spec under ``REPRO_SA_FULL_EVAL=1`` against a delta-eval baseline
    must FAIL timing compare on the same host (see the harness
    self-test in tests/test_harness.py).
    """
    from repro import obs
    from repro.benchgen import load_case
    from repro.floorplan import SAConfig, run_sa

    design = load_case("t4m")
    obs.reset_run()
    result = run_sa(
        design,
        SAConfig(seed=7, cooling=0.9, moves_per_temperature=120),
    )
    report = obs.build_report(floorplan_result=result)
    assert result.found, "sa_t4m found no floorplan"
    return (
        {"floorplan.sa": obs.span_seconds(report, "floorplan.sa")},
        {
            "est_wl": result.est_wl,
            "moves": result.stats.floorplans_evaluated,
        },
        report,
    )


SPECS: Dict[
    str, Callable[[], Tuple[Dict[str, float], Dict[str, Any], Dict]]
] = {
    "efa_t4s": _spec_efa_t4s,
    "flow_t4s": _spec_flow_t4s,
    "sa_t4m": _spec_sa_t4m,
}


# -- record building ----------------------------------------------------------


def _telemetry_overhead_probes():
    """Optional sampler/profiler armed around each repeat.

    ``REPRO_PROFILE`` arms the wall-clock sampling profiler and
    ``REPRO_RESOURCE_SAMPLE_S`` a self-targeted resource sampler for the
    duration of one spec call — the CI overhead self-test runs the
    harness with both on and asserts the timings stay inside the normal
    noise gate.  Unset (the default) both are no-ops and the hot path is
    untouched.
    """
    from repro import obs

    probes = []
    if obs.profile_format():
        probes.append(obs.SamplingProfiler())
    interval = (
        obs.sample_interval_s()
        if os.environ.get("REPRO_RESOURCE_SAMPLE_S")
        else None
    )
    if interval:
        pid = os.getpid()
        probes.append(
            obs.ResourceSampler(
                lambda: {"self": pid},
                lambda key, sample: None,
                interval_s=interval,
            )
        )
    return probes


def run_spec(name: str, repeats: int) -> Dict[str, Any]:
    """Run one built-in spec ``repeats`` times; min-of-repeats record."""
    spec = SPECS[name]
    per_repeat: Dict[str, List[float]] = {}
    identity: Dict[str, Any] = {}
    quality: Dict[str, Any] = {}
    for i in range(repeats):
        probes = _telemetry_overhead_probes()
        for probe in probes:
            probe.start()
        try:
            stages, ident, report = spec()
        finally:
            for probe in probes:
                probe.stop()
        for stage, seconds in stages.items():
            per_repeat.setdefault(stage, []).append(float(seconds))
        if i == 0:
            identity = ident
            quality = _quality_from_report(report)
        elif ident != identity:
            raise AssertionError(
                f"{name}: non-deterministic result across repeats: "
                f"{ident} != {identity}"
            )
    factor = _inject_factor()
    return _record(
        name,
        repeats,
        {s: [v * factor for v in vals] for s, vals in per_repeat.items()},
        identity,
        quality,
    )


def run_module(module: str, repeats: int) -> Dict[str, Any]:
    """Run a bench module under pytest; the stage is total wall-clock."""
    rel = Path(module)
    name = rel.stem.replace("bench_", "")
    times: List[float] = []
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(rel), "-q"],
            cwd=REPO_ROOT,
            env=env,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(
                f"bench module {module} failed (rc={proc.returncode})"
            )
        times.append(elapsed)
    factor = _inject_factor()
    return _record(
        name, repeats, {"pytest": [t * factor for t in times]}, {}, {}
    )


def _record(
    name: str,
    repeats: int,
    per_repeat: Dict[str, List[float]],
    identity: Dict[str, Any],
    quality: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "kind": RECORD_KIND,
        "name": name,
        "created_unix_s": round(time.time(), 3),
        "git_sha": git_sha(),
        "host": host_fingerprint(),
        "repeats": repeats,
        "stage_seconds": {
            stage: [round(v, 6) for v in vals]
            for stage, vals in sorted(per_repeat.items())
        },
        "seconds": {
            stage: round(min(vals), 6)
            for stage, vals in sorted(per_repeat.items())
        },
        "identity": identity,
        "quality": {
            key: (None if value is None else round(float(value), 9))
            for key, value in quality.items()
        },
    }


def record_path(record: Dict[str, Any], out_dir: Path) -> Path:
    return out_dir / f"BENCH_{record['name']}.json"


def write_record(record: Dict[str, Any], out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = record_path(record, out_dir)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def load_record(path: Path) -> Dict[str, Any]:
    record = json.loads(Path(path).read_text())
    if record.get("kind") != RECORD_KIND:
        raise SystemExit(f"{path}: not a {RECORD_KIND} document")
    if record.get("schema_version") not in COMPATIBLE_SCHEMA_VERSIONS:
        raise SystemExit(
            f"{path}: record schema {record.get('schema_version')} not in "
            f"{COMPATIBLE_SCHEMA_VERSIONS}"
        )
    return record


# -- comparison ---------------------------------------------------------------


def compare_records(
    record: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
    strict_host: bool = False,
) -> Tuple[bool, List[str]]:
    """(ok, report lines).  ``ok`` is False on a gating failure."""
    lines: List[str] = []
    ok = True

    if record.get("identity") and baseline.get("identity"):
        if record["identity"] != baseline["identity"]:
            ok = False
            lines.append(
                f"IDENTITY MISMATCH: {record['identity']} != baseline "
                f"{baseline['identity']}"
            )

    hosts_match = record.get("host") == baseline.get("host")
    if not hosts_match:
        lines.append(
            "host fingerprint differs from baseline; timing deltas are "
            "advisory" + (" (strict-host: gating anyway)" if strict_host else "")
        )

    # Quality gate: deterministic scalars, host-independent, so a worse
    # value always gates.  Gated keys are "lower is better"; the AUC is
    # advisory (it depends on wall-clock, which is host noise).
    base_quality = baseline.get("quality") or {}
    new_quality = record.get("quality") or {}
    for key in ("est_wl", "twl", "gap"):
        base_v = base_quality.get(key)
        new_v = new_quality.get(key)
        if base_v is None or new_v is None:
            continue
        if new_v > base_v + abs(base_v) * QUALITY_REL_TOL:
            ok = False
            lines.append(
                f"QUALITY REGRESSION: {key} {new_v:.6g} vs baseline "
                f"{base_v:.6g}"
            )
        else:
            lines.append(f"quality {key}: {new_v:.6g} ok")
    base_auc = base_quality.get("anytime_auc")
    new_auc = new_quality.get("anytime_auc")
    if base_auc is not None and new_auc is not None:
        lines.append(
            f"quality anytime_auc: {new_auc:.4g} vs baseline "
            f"{base_auc:.4g} (advisory)"
        )

    regressions = 0
    for stage, base_s in baseline.get("seconds", {}).items():
        new_s = record.get("seconds", {}).get(stage)
        if new_s is None:
            lines.append(f"{stage}: missing from new record")
            continue
        ratio = new_s / base_s if base_s > 0 else float("inf")
        verdict = "ok"
        if new_s > base_s * threshold and new_s - base_s > abs_floor_s:
            verdict = "REGRESSION"
            regressions += 1
        elif ratio < 1.0 / threshold:
            verdict = "improved"
        lines.append(
            f"{stage}: {new_s:.4f}s vs baseline {base_s:.4f}s "
            f"({ratio:.2f}x) {verdict}"
        )
    if regressions and (hosts_match or strict_host):
        ok = False
    return ok, lines


# -- CLI ----------------------------------------------------------------------


def _cmd_list(_args) -> int:
    for name in sorted(SPECS):
        print(f"{name}: {SPECS[name].__doc__.strip().splitlines()[0]}")
    return 0


def _cmd_run(args) -> int:
    out_dir = Path(args.out_dir)
    targets = list(args.spec)
    if not targets and not args.module:
        raise SystemExit("run: name at least one spec or --module")
    rc = 0
    records = []
    for name in targets:
        if name not in SPECS:
            raise SystemExit(
                f"unknown spec {name!r} (have: {', '.join(sorted(SPECS))})"
            )
        records.append(run_spec(name, args.repeats))
    for module in args.module or []:
        records.append(run_module(module, args.repeats))
    for record in records:
        path = write_record(record, out_dir)
        print(f"wrote {path}")
        for stage, seconds in record["seconds"].items():
            print(f"  {stage}: {seconds:.4f}s (min of {record['repeats']})")
        if args.compare:
            base_path = Path(args.compare_dir) / path.name
            if not base_path.exists():
                print(f"  no baseline {base_path}; skipping compare")
                continue
            ok, lines = compare_records(
                record,
                load_record(base_path),
                threshold=args.threshold,
                abs_floor_s=args.abs_floor,
                strict_host=args.strict_host,
            )
            for line in lines:
                print(f"  {line}")
            print(f"  compare vs {base_path}: {'PASS' if ok else 'FAIL'}")
            if not ok:
                rc = 1
    return rc


def _cmd_compare(args) -> int:
    ok, lines = compare_records(
        load_record(Path(args.record)),
        load_record(Path(args.baseline)),
        threshold=args.threshold,
        abs_floor_s=args.abs_floor,
        strict_host=args.strict_host,
    )
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harness.py", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list the built-in fast specs")
    p.set_defaults(func=_cmd_list)

    thresholds = argparse.ArgumentParser(add_help=False)
    thresholds.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"regression ratio gate (default {DEFAULT_THRESHOLD})",
    )
    thresholds.add_argument(
        "--abs-floor",
        type=float,
        default=DEFAULT_ABS_FLOOR_S,
        help="absolute slowdown floor in seconds below which a ratio "
        f"breach is noise (default {DEFAULT_ABS_FLOOR_S})",
    )
    thresholds.add_argument(
        "--strict-host",
        action="store_true",
        help="gate on timing regressions even when host fingerprints "
        "differ (default: cross-host timings are advisory)",
    )

    p = sub.add_parser(
        "run", parents=[thresholds], help="run specs / bench modules"
    )
    p.add_argument("spec", nargs="*", help="built-in spec names")
    p.add_argument(
        "--module",
        action="append",
        help="bench module to run under pytest (repeatable)",
    )
    p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    p.add_argument(
        "--out-dir",
        default=str(OUT_DIR),
        help="where BENCH_<name>.json records land (default benchmarks/out)",
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="after writing each record, compare it against the matching "
        "baseline and exit non-zero on a gating failure",
    )
    p.add_argument(
        "--compare-dir",
        default=str(BASELINE_DIR),
        help="baseline directory for --compare (default benchmarks/baselines)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "compare", parents=[thresholds], help="compare two records"
    )
    p.add_argument("record", help="the new BENCH_<name>.json")
    p.add_argument("baseline", help="the baseline record to gate against")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
