"""Shared fixtures/builders for the test suite."""

import pytest

from repro.geometry import Point, Rect
from repro.io import expand_site_grid
from repro.model import (
    Design,
    Die,
    EscapePoint,
    IOBuffer,
    Interposer,
    MicroBump,
    Package,
    Signal,
    TSV,
)


def build_design(**overrides):
    """A small, fully valid two-die design used across these tests."""
    dies = overrides.pop(
        "dies",
        [
            Die(
                id="d1",
                width=1.0,
                height=1.0,
                buffers=[IOBuffer("b1", "d1", Point(0.9, 0.5), "s1")],
                bumps=[
                    MicroBump("m1", "d1", Point(0.8, 0.5)),
                    MicroBump("m2", "d1", Point(0.6, 0.5)),
                ],
            ),
            Die(
                id="d2",
                width=1.0,
                height=1.0,
                buffers=[IOBuffer("b2", "d2", Point(0.1, 0.5), "s1")],
                bumps=[MicroBump("m3", "d2", Point(0.2, 0.5))],
            ),
        ],
    )
    interposer = overrides.pop(
        "interposer",
        Interposer(width=3.0, height=2.0, tsvs=[TSV("t1", Point(1.5, 1.0))]),
    )
    package = overrides.pop(
        "package",
        Package(
            frame=Rect(-0.5, -0.5, 4.0, 3.0),
            escape_points=[EscapePoint("e1", Point(-0.5, 0.0), "s1")],
        ),
    )
    signals = overrides.pop("signals", [Signal("s1", ("b1", "b2"), "e1")])
    return Design(
        name="unit",
        dies=dies,
        interposer=interposer,
        package=package,
        signals=signals,
        **overrides,
    )


def run_efa_scalar(monkeypatch, design, config):
    """``run_efa`` on the scalar kernel: with no die count small enough
    for the sweep, EFA scores every candidate one at a time."""
    import repro.floorplan.efa
    from repro.floorplan import run_efa

    with monkeypatch.context() as patch:
        patch.setattr(repro.floorplan.efa, "MAX_SWEEP_DIES", 0)
        return run_efa(design, config)


def assert_same_search(a, b):
    """Same winner, tie-break key, placements and counters."""
    assert a.est_wl == b.est_wl  # exact
    assert a.candidate == b.candidate
    assert a.candidate_key == b.candidate_key
    assert a.floorplan.placements == b.floorplan.placements
    for field in (
        "sequence_pairs_total",
        "sequence_pairs_explored",
        "pruned_illegal",
        "pruned_inferior",
        "lower_bound_evaluations",
        "floorplans_evaluated",
        "floorplans_rejected_outline",
        "timed_out",
        "certified_lower_bound",
    ):
        assert getattr(a.stats, field) == getattr(b.stats, field), field


def explicit(data):
    """Design dict ``data`` with every site grid written out as its
    explicit list (``repro.io``'s list form), in place."""
    fields = [(die, "bumps") for die in data["dies"]]
    if isinstance(data.get("interposer"), dict):
        fields.append((data["interposer"], "tsvs"))
    for owner, key in fields:
        if isinstance(owner[key], dict):
            owner[key] = expand_site_grid(owner[key])
    return data
