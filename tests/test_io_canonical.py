"""Tests for canonical JSON serialization and content hashing.

The service keys caches and checkpoint fingerprints on these hashes, so
the properties under test are exactly the cache-correctness story: the
encoding is a function of the *value* (never dict order, float spelling
or tuple-vs-list), round-trips preserve it, and hashes survive a process
restart.
"""

import json
import subprocess
import sys

import pytest

from repro.benchgen import load_case, load_tiny
from repro.flow import (
    FlowConfig,
    flow_config_cache_dict,
    flow_config_from_dict,
    flow_config_to_dict,
)
from repro.io import (
    HASH_PREFIX,
    canonical_json,
    canonicalize,
    content_hash,
    design_from_dict,
    design_hash,
    design_to_dict,
)
from repro.service.jobs import SOLVER_CACHE_TAG, cache_key


class TestCanonicalize:
    def test_sorts_keys_and_compacts(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_key_order_invariance(self):
        a = {"x": [1, 2], "y": {"p": 1, "q": 2}}
        b = {"y": {"q": 2, "p": 1}, "x": [1, 2]}
        assert canonical_json(a) == canonical_json(b)
        assert content_hash(a) == content_hash(b)

    def test_tuples_become_lists(self):
        assert canonicalize((1, (2, 3))) == [1, [2, 3]]
        assert content_hash({"k": (1, 2)}) == content_hash({"k": [1, 2]})

    def test_negative_zero_normalized(self):
        assert canonical_json({"v": -0.0}) == canonical_json({"v": 0.0})

    def test_int_vs_float_distinct(self):
        # 1 and 1.0 compare equal in Python but hash differently here:
        # they deserialize to different types, so they are different
        # content.
        assert content_hash({"v": 1}) != content_hash({"v": 1.0})

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf")]
    )
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            canonical_json({"v": bad})

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            canonicalize({1: "a"})

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            canonicalize({"v": object()})

    def test_hash_format(self):
        h = content_hash({"a": 1})
        assert h.startswith(HASH_PREFIX)
        assert len(h) == len(HASH_PREFIX) + 64


class TestCacheKey:
    def test_key_from_design_dict_equals_the_full_encoding(self):
        design = load_tiny(die_count=3, signal_count=8)
        cfg = FlowConfig(seed=3)
        full = content_hash(
            {
                "design": design_to_dict(design),
                "config": flow_config_cache_dict(cfg),
                "solver": SOLVER_CACHE_TAG,
            }
        )
        assert cache_key(design, cfg) == full
        assert cache_key(design_to_dict(design), cfg) == full


class TestDesignHash:
    @pytest.mark.parametrize("case", ["t4s", "t4m"])
    def test_round_trip_preserves_hash(self, case):
        design = load_case(case)
        data = design_to_dict(design)
        rebuilt = design_from_dict(json.loads(json.dumps(data)))
        assert design_hash(rebuilt) == design_hash(design)
        assert design_to_dict(rebuilt) == data

    def test_stable_across_constructions(self):
        assert design_hash(load_tiny(die_count=3)) == design_hash(
            load_tiny(die_count=3)
        )

    def test_distinct_designs_distinct_hashes(self):
        assert design_hash(load_tiny(die_count=3)) != design_hash(
            load_tiny(die_count=4)
        )

    def test_hash_survives_key_reordering(self):
        def reorder(value):
            if isinstance(value, dict):
                return {k: reorder(value[k]) for k in reversed(list(value))}
            if isinstance(value, list):
                return [reorder(v) for v in value]
            return value

        data = design_to_dict(load_tiny(die_count=3))
        reordered = reorder(data)
        assert list(reordered) != list(data)  # iteration order does differ
        assert content_hash(reordered) == content_hash(data)

    def test_hash_stable_across_process_restart(self):
        import repro

        src_root = str(
            __import__("pathlib").Path(repro.__file__).parent.parent
        )
        design = load_tiny(die_count=3, signal_count=8)
        here = design_hash(design)
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.benchgen import load_tiny\n"
            "from repro.io import design_hash\n"
            "print(design_hash(load_tiny(die_count=3, signal_count=8)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, src_root],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == here


class TestFlowConfigSerialization:
    def test_round_trip(self):
        cfg = FlowConfig(
            floorplan_budget_s=2.5,
            post_optimize=True,
            floorplan_workers=4,
            seed=7,
        )
        data = json.loads(json.dumps(flow_config_to_dict(cfg)))
        rebuilt = flow_config_from_dict(data)
        assert flow_config_to_dict(rebuilt) == flow_config_to_dict(cfg)

    def test_default_round_trip(self):
        data = flow_config_to_dict(FlowConfig())
        assert flow_config_to_dict(flow_config_from_dict(data)) == data

    def test_unknown_keys_rejected(self):
        data = flow_config_to_dict(FlowConfig())
        data["mystery"] = 1
        with pytest.raises(ValueError, match="unknown flow-config"):
            flow_config_from_dict(data)

    def test_unknown_assigner_keys_rejected(self):
        data = flow_config_to_dict(FlowConfig())
        data["assigner"]["mystery"] = 1
        with pytest.raises(ValueError, match="unknown assigner-config"):
            flow_config_from_dict(data)

    def test_wrong_schema_rejected(self):
        data = flow_config_to_dict(FlowConfig())
        data["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            flow_config_from_dict(data)

    def test_cache_dict_drops_result_invariant_fields(self):
        serial = flow_config_cache_dict(FlowConfig(floorplan_workers=1))
        pooled = flow_config_cache_dict(FlowConfig(floorplan_workers=8))
        assert serial == pooled
        assert "floorplan_workers" not in serial
        assert "floorplan_batch_eval" not in serial

    def test_retired_batch_eval_key_accepted(self):
        # A dict written before ``floorplan_batch_eval`` was retired (a
        # persisted job spec, say) still loads, and keys the cache and
        # the checkpoint exactly as it did then.
        assigner = {
            "window_matching": True,
            "window_slack": 0,
            "die_order": "decreasing",
            "order_seed": 0,
            "time_budget_s": None,
            "max_window_retries": 4,
            "max_edges_per_sub_sap": None,
        }
        written = {
            "schema": 1,
            "floorplan_budget_s": 2.5,
            "post_optimize": False,
            "floorplan_workers": 4,
            "floorplan_batch_eval": "auto",
            "portfolio": False,
            "seed": 7,
            "assigner": assigner,
        }
        cfg = flow_config_from_dict(written)
        assert cfg.floorplan_workers == 4 and cfg.seed == 7
        assert flow_config_cache_dict(cfg) == {
            "schema": 1,
            "floorplan_budget_s": 2.5,
            "post_optimize": False,
            "portfolio": False,
            "seed": 7,
            "assigner": assigner,
        }

    def test_cache_dict_keeps_result_affecting_fields(self):
        assert flow_config_cache_dict(FlowConfig(seed=0)) != (
            flow_config_cache_dict(FlowConfig(seed=1))
        )
