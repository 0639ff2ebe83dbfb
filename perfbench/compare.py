"""Compare two sets of benchmark records: a parent commit and a change.

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON records ``run.py --out DIR`` wrote, one per
run, ideally ten or more seeds per workload on each side.  For every
workload and end-to-end metric the table gives each side's median and
quartiles and a verdict against the bound in ``BENCHMARK.json``:
``ok``, ``regression`` or ``unresolved`` (the spread between a side's own
runs is wider than the bound).  Traced records (``--trace 1``) give the
per-layer delta table below it.  The exit status is 1 on any regression
or when the change fails a larger share of its operations than the
parent; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from run import RECORD_KIND, load_spec
from stats import REGRESSION, median, quartiles, verdict, worsening


Records = Dict[Tuple[str, int], List[Dict[str, Any]]]


def load_records(directory: Path) -> Records:
    """Records under ``directory`` keyed by ``(workload, trace)``."""
    grouped: Records = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and record.get("kind") == RECORD_KIND:
            grouped[(record["workload"], int(record["trace"]))].append(record)
    return grouped


def _values(records: List[Dict[str, Any]], name: str) -> List[float]:
    return [
        r["metrics"][name]["value"] for r in records if name in r["metrics"]
    ]


def _error_ratio(records: List[Dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 1.0


def _fmt(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare_end_to_end(
    parent: Records, change: Records, spec: Dict[str, Any]
) -> Tuple[bool, List[str]]:
    """(ok, table lines) for the untraced records."""
    ok = True
    lines = [
        "| workload | metric | unit | parent median [q1, q3] | "
        "change median [q1, q3] | worse by | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload in [w["name"] for w in spec["workloads"]]:
        before = parent.get((workload, 0), [])
        after = change.get((workload, 0), [])
        if not before or not after:
            lines.append(f"| {workload} | (records missing on a side) |||||||")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p, c = _values(before, name), _values(after, name)
            if not p or not c:
                continue
            result = verdict(p, c, metric["bound"], metric["better"])
            worse = worsening(median(p), median(c), metric["better"])
            lines.append(
                f"| {workload} | {name} | {metric['unit']} "
                f"| {_fmt(p)} (n={len(p)}) | {_fmt(c)} (n={len(c)}) "
                f"| {worse * 100:+.1f}% "
                f"| {metric['bound'] * 100:.0f}% | {result} |"
            )
            ok &= result != REGRESSION
        p_err, c_err = _error_ratio(before), _error_ratio(after)
        higher = c_err > p_err
        lines.append(
            f"| {workload} | error_ratio | ratio | {p_err:.4g} | {c_err:.4g} "
            f"| | 0 | {REGRESSION if higher else 'ok'} |"
        )
        ok &= not higher
        p_ref, c_ref = _host_ref(before), _host_ref(after)
        if p_ref and c_ref:
            lines.append(
                f"| {workload} | host_ref_s | s | {median(p_ref):.4g} "
                f"| {median(c_ref):.4g} | | | host speed, not gated |"
            )
    return ok, lines


def _host_ref(records: List[Dict[str, Any]]) -> List[float]:
    """Each record's median host reference time, where it has one."""
    return [median(r["host_ref_s"]) for r in records if r.get("host_ref_s")]


def compare_layers(
    parent: Records, change: Records, spec: Dict[str, Any]
) -> List[str]:
    """The per-layer delta table of the traced records (no verdicts)."""
    lines = [
        "| workload | layer metric | unit | parent median | change median "
        "| delta |",
        "|---|---|---|---|---|---|",
    ]
    for workload in [w["name"] for w in spec["workloads"]]:
        before = parent.get((workload, 1), [])
        after = change.get((workload, 1), [])
        if not before or not after:
            continue
        for metric in spec["per_layer"]:
            name = metric["name"]
            p, c = _values(before, name), _values(after, name)
            if not p or not c or (median(p) == 0 and median(c) == 0):
                continue  # the workload never enters this layer
            pm, cm = median(p), median(c)
            delta = f"{(cm - pm) / abs(pm) * 100:+.1f}%" if pm else "new"
            lines.append(
                f"| {workload} | {name} | {metric['unit']} | {pm:.4g} "
                f"| {cm:.4g} | {delta} |"
            )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="records of the parent")
    parser.add_argument("change", type=Path, help="records of the change")
    args = parser.parse_args(argv)
    spec = load_spec()
    parent, change = load_records(args.parent), load_records(args.change)
    if not parent or not change:
        raise SystemExit("compare: no records in one of the directories")
    ok, lines = compare_end_to_end(parent, change, spec)
    print("\n".join(lines))
    layer_lines = compare_layers(parent, change, spec)
    if len(layer_lines) > 2:
        print()
        print("\n".join(layer_lines))
    print()
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
