"""Post-floorplan wirelength optimization (the paper's future work, [16]).

The paper's conclusion names extending Tang et al., "Minimizing wire
length in floorplanning" (TCAD'06) — shifting placed components without
changing the floorplan topology to further shrink wirelength — as future
work.  This module implements that optimizer for the multi-die setting.

Given a legal floorplan, each die is repeatedly slid along one axis inside
the *slack interval* permitted by its neighbours (keeping the die-to-die
spacing ``c_d``) and the interposer boundary (keeping ``c_b``).  With the
other dies fixed and the orientation unchanged, the total-HPWL objective
restricted to one die's x (or y) coordinate is a convex piecewise-linear
function: each signal touching the die contributes
``max(hi, x + o) - min(lo, x + o)`` where ``[lo, hi]`` is the bounding
interval of the signal's *other* terminals and ``o`` the die-local offset
of its terminal on this die.  The exact minimizer is therefore a median of
the breakpoints ``{lo - o, hi - o}``, clamped into the slack interval — no
sampling, no line search.  Sweeps repeat until no die moves.

The optimizer never degrades the estimate (every accepted move is an exact
improvement) and never leaves the legal region.  It reports the estimate
from :class:`FastHpwlEvaluator`, the kernel every floorplanner scores with.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..geometry import Point, Rect
from ..model import Design, Floorplan, Placement
from .estimator import FastHpwlEvaluator

_EPS = 1e-9


@dataclass
class PostOptStats:
    """What one :func:`optimize_floorplan` run did."""

    sweeps: int = 0
    moves: int = 0
    initial_est_wl: float = 0.0
    final_est_wl: float = 0.0
    runtime_s: float = 0.0

    @property
    def improvement(self) -> float:
        """Fractional estimated-wirelength reduction."""
        if self.initial_est_wl <= 0:
            return 0.0
        return 1.0 - self.final_est_wl / self.initial_est_wl


def _slack_interval(
    design: Design,
    rects: Dict[str, Rect],
    die_id: str,
    axis: str,
) -> Tuple[float, float]:
    """Allowed positions of ``die_id``'s lower-left coordinate on ``axis``.

    Keeps the die inside the interposer with ``c_b`` clearance and at
    least ``c_d`` away from every die whose projection on the *other* axis
    overlaps (those are the dies it could collide with while sliding).
    """
    me = rects[die_id]
    c_d = design.spacing.die_to_die
    c_b = design.spacing.die_to_boundary
    outline = design.interposer.outline
    if axis == "x":
        lo = outline.x + c_b
        hi = outline.x2 - c_b - me.width
    else:
        lo = outline.y + c_b
        hi = outline.y2 - c_b - me.height
    for other_id, other in rects.items():
        if other_id == die_id:
            continue
        if axis == "x":
            # Sliding in x can only hit dies overlapping in y (within c_d).
            if other.y >= me.y2 + c_d - _EPS or me.y >= other.y2 + c_d - _EPS:
                continue
            if other.center.x <= me.center.x:
                lo = max(lo, other.x2 + c_d)
            else:
                hi = min(hi, other.x - c_d - me.width)
        else:
            if other.x >= me.x2 + c_d - _EPS or me.x >= other.x2 + c_d - _EPS:
                continue
            if other.center.y <= me.center.y:
                lo = max(lo, other.y2 + c_d)
            else:
                hi = min(hi, other.y - c_d - me.height)
    return lo, hi


def _optimal_position(
    breakpoints: List[Tuple[float, float]],
    current: float,
    lo: float,
    hi: float,
) -> float:
    """Minimize sum of ``max(hi_k, x+o_k) - min(lo_k, x+o_k)`` over [lo, hi].

    ``breakpoints`` holds per-signal ``(lo_k - o_k, hi_k - o_k)`` pairs;
    the objective's subgradient increases by +1 past each upper breakpoint
    and by +1 after each lower breakpoint (from -1), so any median of the
    flattened breakpoint multiset minimizes it.
    """
    if hi < lo:
        return current  # No slack at all: stay put.
    if not breakpoints:
        return min(max(current, lo), hi)
    flat = sorted(v for pair in breakpoints for v in pair)
    mid = (len(flat) - 1) // 2
    # Any point between flat[mid] and flat[mid + 1] (or the single median)
    # is optimal; prefer the interval point closest to the current
    # position to avoid gratuitous movement.
    lo_opt = flat[mid]
    hi_opt = flat[mid + 1] if len(flat) % 2 == 0 else flat[mid]
    target = min(max(current, lo_opt), hi_opt)
    return min(max(target, lo), hi)


def optimize_floorplan(
    design: Design,
    floorplan: Floorplan,
    max_sweeps: int = 20,
    min_gain: float = 1e-9,
) -> Tuple[Floorplan, PostOptStats]:
    """Slide dies to locally-optimal positions; returns the new floorplan.

    Raises ``ValueError`` when handed an illegal floorplan — the slack
    intervals are only meaningful from a legal start.
    """
    if not floorplan.is_legal():
        raise ValueError("post-floorplan optimization needs a legal floorplan")

    start = time.monotonic()
    est_wl = FastHpwlEvaluator(design).hpwl_of_floorplan
    stats = PostOptStats(initial_est_wl=est_wl(floorplan))

    placements: Dict[str, Placement] = floorplan.placements
    # Per-die signal terminals: (signal, local offset of this die's buffer).
    die_signals: Dict[str, List[Tuple[str, Point]]] = {d.id: [] for d in design.dies}
    for signal in design.signals:
        for buffer_id in signal.buffer_ids:
            die_id = design.die_of_buffer(buffer_id)
            die_signals[die_id].append((signal.id, buffer_id))

    current = Floorplan(design, placements)
    for sweep in range(max_sweeps):
        stats.sweeps = sweep + 1
        moved = False
        for die in design.dies:
            for axis in ("x", "y"):
                rects = {d.id: current.die_rect(d.id) for d in design.dies}
                lo, hi = _slack_interval(design, rects, die.id, axis)
                placement = current.placement(die.id)
                pos = placement.position.x if axis == "x" else placement.position.y
                breakpoints = _breakpoints_for(
                    design, current, die.id, die_signals[die.id], axis
                )
                target = _optimal_position(breakpoints, pos, lo, hi)
                if abs(target - pos) <= min_gain:
                    continue
                new_pos = (
                    Point(target, placement.position.y)
                    if axis == "x"
                    else Point(placement.position.x, target)
                )
                new_placements = current.placements
                new_placements[die.id] = Placement(
                    new_pos, placement.orientation
                )
                candidate = Floorplan(design, new_placements)
                current = candidate
                moved = True
                stats.moves += 1
        if not moved:
            break

    stats.final_est_wl = est_wl(current)
    stats.runtime_s = time.monotonic() - start
    return current, stats


def _breakpoints_for(
    design: Design,
    floorplan: Floorplan,
    die_id: str,
    signal_buffers: List[Tuple[str, str]],
    axis: str,
) -> List[Tuple[float, float]]:
    """Per-signal ``(lo - o, hi - o)`` pairs for one die and axis."""
    die = design.die(die_id)
    placement = floorplan.placement(die_id)
    out: List[Tuple[float, float]] = []
    for signal_id, buffer_id in signal_buffers:
        signal = design.signal(signal_id)
        # Bounding interval of the *other* terminals.
        lo = float("inf")
        hi = float("-inf")
        for other_buffer in signal.buffer_ids:
            if other_buffer == buffer_id:
                continue
            p = floorplan.buffer_position(other_buffer)
            v = p.x if axis == "x" else p.y
            lo = min(lo, v)
            hi = max(hi, v)
        if signal.escape_id is not None:
            p = design.escape(signal.escape_id).position
            v = p.x if axis == "x" else p.y
            lo = min(lo, v)
            hi = max(hi, v)
        if lo > hi:
            continue  # Signal has no other terminal (cannot happen today).
        local = placement.orientation.apply(
            design.buffer(buffer_id).position, die.width, die.height
        )
        offset = local.x if axis == "x" else local.y
        out.append((lo - offset, hi - offset))
    return out
