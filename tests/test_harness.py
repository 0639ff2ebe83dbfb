"""Unit tests for the perf-regression harness (benchmarks/harness.py).

The harness lives outside ``src`` (it is an operational tool, not part of
the package), so the tests import it by path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

HARNESS_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "harness.py"
)
_spec = importlib.util.spec_from_file_location("repro_harness", HARNESS_PATH)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def make_record(seconds, identity=None, host=None, name="spec",
                quality=None):
    record = harness._record(
        name, 3, {stage: [s] for stage, s in seconds.items()},
        identity or {"est_wl": 1.25},
        quality if quality is not None else {},
    )
    if host is not None:
        record["host"] = host
    return record


class TestCompareRecords:
    def test_identical_records_pass(self):
        rec = make_record({"flow": 1.0, "flow.assign": 0.2})
        ok, lines = harness.compare_records(rec, rec)
        assert ok
        assert all("REGRESSION" not in line for line in lines)

    def test_two_x_slowdown_fails(self):
        base = make_record({"flow": 1.0})
        slow = make_record({"flow": 2.0})
        ok, lines = harness.compare_records(slow, base)
        assert not ok
        assert any("REGRESSION" in line and "2.00x" in line for line in lines)

    def test_abs_floor_classifies_tiny_stage_jitter_as_ok(self):
        # 2x ratio but only +10ms: below the 50ms floor, so not gating.
        base = make_record({"flow.evaluate": 0.010})
        slow = make_record({"flow.evaluate": 0.020})
        ok, lines = harness.compare_records(slow, base)
        assert ok
        assert any("2.00x" in line and "ok" in line for line in lines)

    def test_improvement_is_labelled(self):
        base = make_record({"flow": 2.0})
        fast = make_record({"flow": 1.0})
        ok, lines = harness.compare_records(fast, base)
        assert ok
        assert any("improved" in line for line in lines)

    def test_identity_mismatch_fails_even_cross_host(self):
        base = make_record({"flow": 1.0}, identity={"est_wl": 1.25})
        other = make_record(
            {"flow": 1.0}, identity={"est_wl": 9.99},
            host={"hostname": "elsewhere"},
        )
        ok, lines = harness.compare_records(other, base)
        assert not ok
        assert any("IDENTITY MISMATCH" in line for line in lines)

    def test_host_mismatch_makes_timings_advisory(self):
        base = make_record({"flow": 1.0})
        slow = make_record({"flow": 3.0}, host={"hostname": "elsewhere"})
        ok, lines = harness.compare_records(slow, base)
        assert ok  # regression reported but not gating
        assert any("advisory" in line for line in lines)
        assert any("REGRESSION" in line for line in lines)

    def test_strict_host_gates_cross_host_regressions(self):
        base = make_record({"flow": 1.0})
        slow = make_record({"flow": 3.0}, host={"hostname": "elsewhere"})
        ok, _ = harness.compare_records(slow, base, strict_host=True)
        assert not ok

    def test_missing_stage_is_reported_not_gating(self):
        base = make_record({"flow": 1.0, "gone": 0.5})
        rec = make_record({"flow": 1.0})
        ok, lines = harness.compare_records(rec, base)
        assert ok
        assert any("gone: missing from new record" in line for line in lines)

    def test_custom_threshold(self):
        base = make_record({"flow": 1.0})
        slow = make_record({"flow": 1.4})
        ok, _ = harness.compare_records(slow, base, threshold=1.5)
        assert ok
        ok, _ = harness.compare_records(slow, base, threshold=1.3)
        assert not ok


QUALITY = {"est_wl": 119.05, "twl": 141.40, "gap": 0.0,
           "anytime_auc": 0.2}


class TestQualityGate:
    def test_identical_quality_passes(self):
        rec = make_record({"flow": 1.0}, quality=QUALITY)
        ok, lines = harness.compare_records(rec, rec)
        assert ok
        assert any("quality est_wl" in l and "ok" in l for l in lines)
        assert all("QUALITY REGRESSION" not in l for l in lines)

    def test_worse_wirelength_fails(self):
        base = make_record({"flow": 1.0}, quality=QUALITY)
        worse = make_record(
            {"flow": 1.0}, quality={**QUALITY, "est_wl": 119.05 * 1.1}
        )
        ok, lines = harness.compare_records(worse, base)
        assert not ok
        assert any(
            "QUALITY REGRESSION" in l and "est_wl" in l for l in lines
        )

    def test_worse_gap_fails(self):
        base = make_record({"flow": 1.0}, quality=QUALITY)
        worse = make_record({"flow": 1.0}, quality={**QUALITY, "gap": 0.05})
        ok, lines = harness.compare_records(worse, base)
        assert not ok
        assert any("QUALITY REGRESSION" in l and "gap" in l for l in lines)

    def test_better_quality_passes(self):
        base = make_record({"flow": 1.0}, quality=QUALITY)
        better = make_record(
            {"flow": 1.0}, quality={**QUALITY, "twl": 140.0}
        )
        ok, _ = harness.compare_records(better, base)
        assert ok

    def test_quality_gates_even_cross_host(self):
        # Timings become advisory across hosts; quality is deterministic
        # and host-independent, so it still gates.
        base = make_record({"flow": 1.0}, quality=QUALITY)
        worse = make_record(
            {"flow": 1.0}, quality={**QUALITY, "est_wl": 130.0},
            host={"hostname": "elsewhere"},
        )
        ok, lines = harness.compare_records(worse, base)
        assert not ok
        assert any("QUALITY REGRESSION" in l for l in lines)

    def test_v1_baseline_without_quality_skips_the_gate(self):
        base = make_record({"flow": 1.0})
        base.pop("quality")  # as loaded from a schema-1 baseline
        rec = make_record({"flow": 1.0}, quality=QUALITY)
        ok, lines = harness.compare_records(rec, base)
        assert ok
        assert all("QUALITY" not in l for l in lines)

    def test_auc_is_advisory_not_gating(self):
        base = make_record({"flow": 1.0}, quality=QUALITY)
        slower_auc = make_record(
            {"flow": 1.0}, quality={**QUALITY, "anytime_auc": 0.9}
        )
        ok, lines = harness.compare_records(slower_auc, base)
        assert ok
        assert any(
            "anytime_auc" in l and "advisory" in l for l in lines
        )

    def test_inject_wl_regression_hook(self, monkeypatch):
        report = {
            "quality": {
                "final_est_wl": 100.0, "final_twl": 120.0,
                "gap": 0.0, "anytime_auc": 0.1,
            }
        }
        assert harness._quality_from_report(report)["est_wl"] == 100.0
        monkeypatch.setenv("REPRO_HARNESS_INJECT_WL_REGRESSION", "1.1")
        scaled = harness._quality_from_report(report)
        assert scaled["est_wl"] == pytest.approx(110.0)
        assert scaled["twl"] == pytest.approx(132.0)
        # The hook scales wirelengths only: gap/AUC stay as reported.
        assert scaled["gap"] == 0.0
        assert scaled["anytime_auc"] == 0.1

    def test_missing_report_yields_none_quality(self):
        quality = harness._quality_from_report(None)
        assert quality == {
            "est_wl": None, "twl": None, "gap": None, "anytime_auc": None,
        }


class TestRecordIO:
    def test_record_shape_and_min_of_repeats(self):
        record = harness._record(
            "x", 3, {"stage": [0.3, 0.1, 0.2]}, {"est_wl": 1.0},
            {"est_wl": 1.0000000001234, "gap": None},
        )
        assert record["schema_version"] == harness.RECORD_SCHEMA_VERSION
        assert record["kind"] == harness.RECORD_KIND
        assert record["seconds"]["stage"] == 0.1
        assert record["stage_seconds"]["stage"] == [0.3, 0.1, 0.2]
        assert record["quality"]["est_wl"] == round(1.0000000001234, 9)
        assert record["quality"]["gap"] is None
        assert set(record["host"]) == {
            "hostname", "machine", "system", "python", "cpu_count",
        }

    def test_load_accepts_schema_1_records(self, tmp_path):
        record = make_record({"flow": 1.0}, name="old")
        record["schema_version"] = 1
        del record["quality"]
        path = harness.write_record(record, tmp_path)
        assert harness.load_record(path)["schema_version"] == 1

    def test_write_and_load_roundtrip(self, tmp_path):
        record = make_record({"flow": 1.0}, name="roundtrip")
        path = harness.write_record(record, tmp_path)
        assert path.name == "BENCH_roundtrip.json"
        assert harness.load_record(path) == record

    def test_load_rejects_wrong_kind_and_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(SystemExit, match="not a repro.bench_record"):
            harness.load_record(path)
        path.write_text(
            json.dumps({"kind": harness.RECORD_KIND, "schema_version": 99})
        )
        with pytest.raises(SystemExit, match="schema 99"):
            harness.load_record(path)

    def test_inject_slowdown_hook(self, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_INJECT_SLOWDOWN", "2")
        assert harness._inject_factor() == 2.0
        monkeypatch.delenv("REPRO_HARNESS_INJECT_SLOWDOWN")
        assert harness._inject_factor() == 1.0

    def test_committed_baselines_load(self):
        for path in sorted(harness.BASELINE_DIR.glob("BENCH_*.json")):
            record = harness.load_record(path)
            assert record["seconds"], f"{path} has no stage seconds"
            assert record["identity"], f"{path} has no result identity"


class TestFullEvalGateSelfTest:
    """The timing gate must catch the REPRO_SA_FULL_EVAL slow path.

    The sa_t4m spec anneals a large case through the delta-HPWL layer;
    forcing full evaluation keeps the result bit-identical (same moves,
    same est_wl — the identity section proves it) but slows the
    ``floorplan.sa`` stage well past the regression threshold.  A
    compare of the forced record against a delta-eval baseline on the
    same host must therefore FAIL on timing alone — this is the live
    end-to-end proof that the harness gate guards the incremental
    evaluator, complementing the synthetic INJECT_SLOWDOWN hook tests.
    """

    @staticmethod
    def _min_of(records):
        """Merge single-repeat records of one spec into one
        min-of-repeats record, as ``run_spec`` builds it."""
        identity = records[0]["identity"]
        per_repeat = {}
        for record in records:
            assert record["identity"] == identity
            for stage, seconds in record["stage_seconds"].items():
                per_repeat.setdefault(stage, []).extend(seconds)
        return harness._record(
            records[0]["name"],
            len(records),
            per_repeat,
            identity,
            records[0]["quality"],
        )

    def test_forced_full_eval_fails_compare(self, monkeypatch):
        # Interleave the repeats (fast, slow, fast, slow) so a swing in
        # host speed lands on both sides rather than on one block.
        runs = {"fast": [], "slow": []}
        for _ in range(2):
            monkeypatch.delenv("REPRO_SA_FULL_EVAL", raising=False)
            runs["fast"].append(harness.run_spec("sa_t4m", repeats=1))
            monkeypatch.setenv("REPRO_SA_FULL_EVAL", "1")
            runs["slow"].append(harness.run_spec("sa_t4m", repeats=1))
        fast = self._min_of(runs["fast"])
        slow = self._min_of(runs["slow"])
        # Bit-identical trajectory: the escape hatch may only move time.
        assert slow["identity"] == fast["identity"]
        ok, lines = harness.compare_records(slow, fast)
        assert not ok
        assert any(
            "REGRESSION" in line and "floorplan.sa" in line
            for line in lines
        )
        assert all("IDENTITY MISMATCH" not in line for line in lines)
        # And the fast path passes against itself (the control).
        ok, _ = harness.compare_records(fast, fast)
        assert ok


class TestCompareCli:
    def test_compare_subcommand_exit_codes(self, tmp_path, capsys):
        base = harness.write_record(
            make_record({"flow": 1.0}, name="base"), tmp_path
        )
        slow_rec = make_record({"flow": 2.0}, name="slow")
        slow = harness.write_record(slow_rec, tmp_path)
        assert harness.main(
            ["compare", str(base), str(base)]
        ) == 0
        assert "PASS" in capsys.readouterr().out
        assert harness.main(
            ["compare", str(slow), str(base)]
        ) == 1
        assert "FAIL" in capsys.readouterr().out
