"""Fig. 1(b)/(c) — the cost of ignoring PCB-level (escape) wirelength.

The paper's motivating figure contrasts a 2.5D IC optimized with the
escape/external nets in the objective (Fig. 1(b), short interconnects)
against one optimized while ignoring them, as [5] does (Fig. 1(c), long
PCB-level detours).  This bench reproduces the comparison quantitatively:
the same design is floorplanned and signal-assigned twice —

* **PCB-aware**: the full flow (escape terminals participate in the HPWL
  estimate and in Eqs. 3/4);
* **PCB-blind**: a modified design whose escape terminals are hidden from
  optimization (signals stripped of their escape points); the TSV stage is
  then solved on the blind floorplan/bump assignment.

Both solutions are scored with the *full* Eq. 1 including external nets.
Expected shape: the PCB-aware flow yields clearly lower total TWL, driven
by the external-net term.

The comparison runs on 4-die cases only: there the floorplanner completes
its exact search, so the aware/blind difference measures objective
awareness rather than budget-truncation noise (which dominates on the
6/8-die cases).
"""

from dataclasses import replace

import pytest

from common import bench_cases, cached_case, emit_table, t2_budget
from repro.benchgen import generate_design, suite_config
from repro.assign import MCMFAssigner
from repro.eval import total_wirelength
from repro.flow import FlowConfig, run_flow
from repro.model import Assignment, Design, Signal


def _blind_design(design: Design) -> Design:
    """A copy of ``design`` whose signals pretend not to escape."""
    signals = [
        Signal(s.id, s.buffer_ids, None)
        if len(s.buffer_ids) >= 2
        else s  # Single-buffer escape signals must keep their escape.
        for s in design.signals
    ]
    return Design(
        name=design.name + "-blind",
        dies=design.dies,
        interposer=design.interposer,
        package=design.package,
        signals=signals,
        weights=design.weights,
        spacing=design.spacing,
    )


def _load(name):
    if name == "t4e":
        # An extra escape-heavy 4-die case (90% escaping signals) to probe
        # the regime Fig. 1 illustrates most starkly.
        return generate_design(
            replace(suite_config("t4s"), name="t4e", escape_fraction=0.9,
                    seed=99)
        )
    return cached_case(name)


def _run_case(name):
    design = _load(name)
    budget = t2_budget()

    aware = run_flow(design, FlowConfig(floorplan_budget_s=budget))

    blind_design = _blind_design(design)
    blind = run_flow(blind_design, FlowConfig(floorplan_budget_s=budget))
    # Re-attach the escapes: keep the blind floorplan and bump assignment
    # verbatim, solve only the now-unavoidable TSV stage, and score with
    # the full Eq. 1 objective.
    completed = MCMFAssigner().assign_with_stats(
        design,
        blind.floorplan,
        locked=Assignment(buffer_to_bump=blind.assignment.buffer_to_bump),
    )
    assert completed.complete
    wl_blind = total_wirelength(design, blind.floorplan, completed.assignment)
    return aware.wirelength, wl_blind


@pytest.mark.benchmark(group="fig1")
def test_fig1_pcb_awareness(benchmark):
    names = bench_cases(["t4s", "t4m", "t4e"])  # Escape-bearing 4-die cases.

    def run_all():
        return {name: _run_case(name) for name in names}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    headers = [
        "Testcase",
        "TWL aware", "WL_E aware",
        "TWL blind", "WL_E blind",
        "blind/aware",
    ]
    rows = []
    for name in names:
        aware, blind = results[name]
        rows.append(
            [
                name,
                aware.total, aware.wl_external,
                blind.total, blind.wl_external,
                blind.total / aware.total,
            ]
        )
    emit_table(
        "fig1.txt",
        "Fig. 1(b)/(c): PCB-aware vs PCB-blind optimization "
        "(both scored with full Eq. 1)",
        headers,
        rows,
    )

    # Shape: ignoring the PCB level must cost total wirelength on these
    # escape-heavy cases.
    worse = sum(
        1 for name in names
        if results[name][1].total > results[name][0].total * 1.01
    )
    assert worse >= len(names) - 1, (
        "PCB-blind optimization should be clearly worse on escape-heavy "
        "cases"
    )
