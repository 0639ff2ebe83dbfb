"""Self-test of the benchmark; runs in seconds.

    python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- BENCHMARK.json ----------------------------------------------------------


def test_spec_keys_and_limits():
    assert set(SPEC) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["perfbench"]
    assert all(not part.startswith("/") and ".." not in part
               for part in SPEC["command"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_spec_names_units_and_reasons():
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"].strip() and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_names_its_target():
    metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(layers.SHOULD_MOVE) == {m["name"] for m in SPEC["per_layer"]}
    for layer, targets in layers.SHOULD_MOVE.items():
        for metric, workload in targets:
            assert metric in metrics, (layer, metric)
            assert workload in names, (layer, workload)


def test_derive_yields_every_layer_metric():
    values = layers.derive({})
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v == 0.0 for v in values.values())


# -- statistics and verdicts -------------------------------------------------


def test_order_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.median(values) == 3.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert stats.quartiles(values) == (1.5, 3.0, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.spread([9.0, 10.0, 11.0, 10.0]) == pytest.approx(0.15)
    assert stats.percentile([float(v) for v in range(101)], 10) == 10.0
    assert stats.percentile([2.0, 1.0], 10) == pytest.approx(1.1)
    assert stats.percentile([7.0], 10) == 7.0
    with pytest.raises(ValueError):
        stats.quartiles([])
    with pytest.raises(ValueError):
        stats.percentile([], 10)


def test_verdicts_lower_is_better():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    assert stats.verdict(parent, [1.01, 1.0, 1.02, 0.99], 0.1, "lower") == "ok"
    assert (
        stats.verdict(parent, [1.2, 1.21, 1.19, 1.2], 0.1, "lower")
        == "regression"
    )
    assert stats.verdict(parent, [0.5, 0.51, 0.49], 0.1, "lower") == "ok"


def test_verdicts_higher_is_better():
    parent = [2.0, 2.02, 1.98, 2.0]
    assert (
        stats.verdict(parent, [1.6, 1.61, 1.59, 1.6], 0.1, "higher")
        == "regression"
    )
    assert stats.verdict(parent, [2.5, 2.4, 2.6], 0.1, "higher") == "ok"
    assert stats.worsening(2.0, 1.5, "higher") == pytest.approx(0.25)
    assert stats.worsening(2.0, 1.5, "lower") == pytest.approx(-0.25)


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2]
    assert stats.verdict(noisy, [1.05, 1.4, 0.75, 1.3], 0.1, "lower") == (
        "unresolved"
    )
    # Every change run better than every parent run resolves it anyway.
    assert stats.verdict(noisy, [0.5, 0.6, 0.55], 0.1, "lower") == "ok"
    # So does every parent run beating every change run by a wide margin.
    assert stats.verdict(noisy, [3.0, 4.0, 3.5], 0.1, "lower") == "regression"


def test_compare_flags_regression_and_error_ratio(tmp_path, capsys):
    def record(side, workload, seed, value, failed=0):
        metrics = {
            m["name"]: {"value": value, "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / f"{workload}-{seed}.json").write_text(
            json.dumps(
                {
                    "kind": "perfbench.record", "workload": workload,
                    "trace": 0, "seed": seed, "attempted": 10,
                    "failed": failed, "metrics": metrics,
                }
            )
        )

    for seed in range(5):
        record("parent", "flow_t4b", seed, 1.0 + 0.001 * seed)
        record("same", "flow_t4b", seed, 1.0 + 0.001 * seed)
        record("slow", "flow_t4b", seed, 2.0 + 0.001 * seed)
        record("failing", "flow_t4b", seed, 1.0 + 0.001 * seed, failed=1)
    base = str(tmp_path / "parent")
    assert compare.main([base, str(tmp_path / "same")]) == 0
    assert compare.main([base, str(tmp_path / "slow")]) == 1
    assert "regression" in capsys.readouterr().out
    assert compare.main([base, str(tmp_path / "failing")]) == 1


# -- tracing -----------------------------------------------------------------


def _patched_originals():
    out = []
    for module, path, _layer in layers.LAYER_TARGETS:
        owner, attr = layers._resolve(module, path)
        out.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
    return out


def test_tracer_restores_every_original():
    before = _patched_originals()
    with layers.Tracer():
        for owner, attr, original, _own in before:
            assert getattr(owner, attr) is not original
    for owner, attr, original, own in before:
        assert getattr(owner, attr) is original
        assert (attr in vars(owner)) == own


def _tiny_flow_workload(pins=None):
    from repro.benchgen import load_tiny

    workload = workloads.FlowWorkload(
        "flow_tiny", "t4s", 1, None, 3, seed=0, pins=pins
    )
    workload.designs = [load_tiny(die_count=3, signal_count=10)]
    return workload


def test_traced_flow_layers_are_consistent():
    workload = _tiny_flow_workload()
    tally = workloads.Tally()
    workload.run(0.0, tally, layers.Tracer())
    raw = tally.raw
    assert tally.failed == 0 and raw["ops"] == 1
    children = raw["window_s"] + raw["mcmf_s"] + raw["topologies_s"]
    assert 0.0 < children <= raw["assign_s"]
    values = layers.derive(raw)
    assert values["assign.network_build_s"] >= 0.0
    assert values["assign_s"] > 0.0 and values["floorplan.efa_s"] > 0.0
    assert 0.0 < values["layers.coverage_ratio"] <= 1.0
    assert len(tally.traced_s) == len(tally.untraced_s) == 1


def test_injected_verifier_error_counts_as_failure(monkeypatch):
    from repro import validate
    from repro.validate import ERROR, Diagnostic

    monkeypatch.setattr(
        validate,
        "verify_flow_result",
        lambda design, result: [
            Diagnostic("verify.injected", ERROR, "result", "injected")
        ],
    )
    tally = workloads.Tally()
    _tiny_flow_workload().run(0.0, tally)
    assert tally.attempted == 1 and tally.failed == 1
    assert "injected" in tally.errors[0]
    assert len(tally.solve_s) == 1


def test_identity_mismatch_counts_as_failure():
    design_name = _tiny_flow_workload().designs[0].name
    pins = {design_name: {"est_wl": 1.0, "twl": 2.0}}
    tally = workloads.Tally()
    _tiny_flow_workload(pins).run(0.0, tally)
    assert tally.attempted == 1 and tally.failed == 1
    assert "pinned" in tally.errors[0]


def test_identity_comparison():
    tally = workloads.Tally()
    ident = {"est_wl": 1.5, "candidate_key": [1, 2, 3], "moves": 10}
    assert tally.identity_problem("d", ident, {"d": dict(ident)}) is None
    assert tally.identity_problem("d", dict(ident, moves=11), None)
    assert tally.identity_problem("e", ident, {}) == "e: no pinned identity"
    assert not workloads._same(1.0, math.nan)


def test_pins_cover_every_workload_at_seed_zero():
    pins = json.loads((HERE / "pins.json").read_text())
    assert set(pins) == set(workloads.WORKLOADS)
    assert pins["flow_t4b"]["t4b@43"]["est_wl"] == pytest.approx(
        239.7785836633108, rel=1e-12
    )
    assert pins["flow_t8b"]["t8b@83"] == pytest.approx(
        {"est_wl": 970.4882879911925, "twl": 1117.7990264743778}, rel=1e-12
    )


# -- the command -------------------------------------------------------------


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "flow_t4b",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
