"""End-to-end tests for the two-stage flow."""

import pytest

from repro.assign import MCMFAssignerConfig
from repro.benchgen import load_tiny
from repro.floorplan import EFAConfig, FastHpwlEvaluator, run_efa
from repro.flow import FlowConfig, FlowResult, run_flow
from repro.validate import ERROR, verify_flow_result


@pytest.fixture(scope="module")
def design():
    return load_tiny(die_count=3, signal_count=10)


class TestRunFlow:
    def test_default_flow_completes(self, design):
        result = run_flow(design)
        assert isinstance(result, FlowResult)
        assert result.floorplan.is_legal()
        assert result.assignment.violations(design) == []
        assert result.twl > 0

    def test_summary_is_informative(self, design):
        result = run_flow(design)
        text = result.summary()
        assert design.name in text
        assert "TWL" in text

    def test_supplied_floorplan_is_used(self, design):
        fp = run_efa(design, EFAConfig(illegal_cut=True)).floorplan
        result = run_flow(design, floorplan=fp)
        assert result.floorplan_result.algorithm == "given"
        assert result.floorplan is fp

    def test_twl_matches_breakdown(self, design):
        result = run_flow(design)
        assert result.twl == pytest.approx(result.wirelength.total)

    def test_failed_floorplan_raises(self, design):
        with pytest.raises(RuntimeError, match="no legal floorplan"):
            run_flow(design, FlowConfig(floorplan_budget_s=0.0))

    def test_failed_assignment_raises(self, design):
        config = FlowConfig(
            assigner=MCMFAssignerConfig(time_budget_s=0.0)
        )
        with pytest.raises(RuntimeError, match="signal assignment failed"):
            run_flow(design, config)

    def test_deterministic(self, design):
        a = run_flow(design)
        b = run_flow(design)
        assert a.twl == pytest.approx(b.twl)

    def test_post_optimize_flag(self, design):
        plain = run_flow(design)
        post = run_flow(design, FlowConfig(post_optimize=True))
        # The shifting pass cannot worsen the floorplanner's estimate.
        assert post.floorplan_result.est_wl <= (
            plain.floorplan_result.est_wl + 1e-9
        )
        assert post.floorplan.is_legal()

    def test_post_optimize_reports_evaluator_est_wl(self, design):
        # The shifting pass reports est_wl from the same kernel as every
        # floorplanner, and the independent verifier accepts it.
        post = run_flow(design, FlowConfig(post_optimize=True))
        assert post.floorplan_result.est_wl == FastHpwlEvaluator(
            design
        ).hpwl_of_floorplan(post.floorplan)
        errors = [
            d for d in verify_flow_result(design, post) if d.severity == ERROR
        ]
        assert errors == []
