"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flow_t4b --seed 0 --seconds 15 \
        --trace 0

Every run starts with three set-up probes: fresh interpreters that
import the package, make the workload's inputs, warm it up (and boot the
service and answer its health check) and report when ready.  ``setup_s``
is their median.  The run then sets itself up the same way and measures
for ``--seconds``.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the traced pass and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A JSON record of the run is written under
``--out``.

The benchmark builds nothing: it runs the package from ``src/`` next to
this directory and fails, without printing a result, when that source
tree is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import workloads
from layers import Tracer, derive
from stats import median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0
HOST_REF_LOOPS = 200_000
HOST_REF_REPEATS = 3
RECORD_KIND = "perfbench.record"
RECORD_SCHEMA = 1


def _use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return json.loads((HERE / "pins.json").read_text())


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the workload being ready.

    The probe prints ``time.monotonic()`` when ready; on Linux that
    clock is shared by every process, so the difference to the spawn
    time is the set-up a user pays.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-only",
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(
            f"set-up probe failed (exit {proc.returncode}): {out!r}"
        )
    return float(lines[1]) - spawned


def host_ref_s() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    On a host that shares its cores, the speed of the same code drifts
    by up to 2x over minutes, and the guest sees no steal time for most
    of it.  Records keep this reference so that a reader can tell a
    regression from a slower host.
    """
    start = time.perf_counter()
    total = 0
    for i in range(HOST_REF_LOOPS):
        total += i * i
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    return peak_kb / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def end_to_end(tally, setup_samples: List[float]) -> Dict[str, tuple]:
    """``{name: (value, sample count)}`` for every end-to-end metric.

    Request latency is reported at its 10th percentile: on a shared host
    whose speed swings up to 2x from second to second, the median of
    hundreds of ~50 ms service hits follows the host's share of slow
    seconds, while the low tail follows the cost of the code.
    """
    return {
        "setup_s": (median(setup_samples), len(setup_samples)),
        "solve_s_p50": (median(tally.solve_s), len(tally.solve_s)),
        "solves_per_s": (
            len(tally.solve_s) / tally.solve_phase_s,
            len(tally.solve_s),
        ),
        "request_s_p10": (
            percentile(tally.request_s, 10),
            len(tally.request_s),
        ),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def layer_counts(tally, names: List[str]) -> Dict[str, int]:
    """Sample count behind each per-layer metric."""
    counts = {}
    for name in names:
        if name.startswith("service.") and name.endswith("_s_p50"):
            key = name[len("service."):-len("_s_p50")]
            counts[name] = len(tally.service.get(key, ()))
        elif name == "obs.trace_overhead_ratio":
            counts[name] = len(tally.traced_s) + len(tally.untraced_s)
        else:
            counts[name] = int(tally.raw.get("ops", 0))
    return counts


def host() -> Dict[str, Any]:
    return {
        "hostname": socket.gethostname(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        default=str(HERE / "out"),
        help="directory for the JSON record (default perfbench/out)",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print 'ready <monotonic time>' and exit "
        "(the set-up probe)",
    )
    parser.add_argument(
        "--update-pins",
        action="store_true",
        help="store this seed-0 run's identities in pins.json instead of "
        "checking them (a deliberate re-baseline)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _use_source_tree()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r} "
            f"(have {', '.join(workloads.WORKLOADS)})"
        )
    work_dir = Path(args.out)
    if args.setup_only:
        workload = workloads.make(args.workload, args.seed)
        workload.setup(work_dir)
        print(f"ready {time.monotonic()!r}", flush=True)
        workload.close()
        return 0

    spec = load_spec()
    if args.update_pins and (args.seed != 0 or args.trace):
        raise SystemExit("perfbench: --update-pins needs --seed 0 --trace 0")
    pins = None
    if args.seed == 0 and not args.update_pins:
        pins = load_pins().get(args.workload, {})
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    host_ref = [host_ref_s() for _ in range(HOST_REF_REPEATS)]
    # The traced pass reports no set-up time.
    setup_samples = [
        probe_setup(args.workload, args.seed)
        for _ in range(0 if args.trace else SETUP_PROBES)
    ]
    workload = workloads.make(args.workload, args.seed, pins)
    workload.setup(work_dir)
    tally = workloads.Tally()
    try:
        workload.run(seconds, tally, Tracer() if args.trace else None)
    finally:
        workload.close()
    host_ref += [host_ref_s() for _ in range(HOST_REF_REPEATS)]

    if args.trace:
        values = derive(
            tally.raw,
            tally.service,
            tally.cache_hit_ratio,
            tally.overhead_ratio,
        )
        listed = spec["per_layer"]
        counts = layer_counts(tally, [m["name"] for m in listed])
    else:
        if not tally.solve_s or not tally.request_s:
            raise SystemExit(
                f"perfbench: no operation completed: {tally.errors[:3]}"
            )
        measured = end_to_end(tally, setup_samples)
        values = {name: value for name, (value, _) in measured.items()}
        listed = spec["end_to_end"]
        counts = {name: n for name, (_, n) in measured.items()}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
    }

    error_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    for m in listed:
        print(
            f"{m['name']:40s} {values[m['name']]:14.6g} {m['unit']:6s} "
            f"(n={counts[m['name']]})"
        )
    print(f"{'error_ratio':40s} {error_ratio:14.6g} {'ratio':6s} "
          f"(n={tally.attempted})")
    print(f"{'host_ref_s':40s} {median(host_ref):14.6g} {'s':6s} "
          f"(n={len(host_ref)})")
    for error in tally.errors[:10]:
        print(f"FAILED: {error}")

    record = {
        "kind": RECORD_KIND,
        "schema": RECORD_SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": seconds,
        "created_unix_s": time.time(),
        "host": host(),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:50],
        "metrics": metrics,
        "samples": counts,
        "setup_s_samples": setup_samples,
        "solve_s_samples": tally.solve_s,
        "request_s_samples": tally.request_s,
        "host_ref_s": host_ref,
        "identity": tally.identity,
    }
    work_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path = work_dir / name
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"record: {record_path}")

    if args.update_pins and tally.failed == 0:
        all_pins = load_pins()
        all_pins[args.workload] = tally.identity
        (HERE / "pins.json").write_text(
            json.dumps(all_pins, indent=2, sort_keys=True) + "\n"
        )
        print(f"pinned {len(tally.identity)} identities for {args.workload}")

    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
