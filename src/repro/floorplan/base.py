"""Common types for the floorplanning algorithms.

All floorplanners in :mod:`repro.floorplan` return a
:class:`FloorplanResult`; enumerative ones additionally fill in the search
statistics that the paper's Table 2 is built from (floorplans explored,
branches pruned, wall-clock, whether the time budget truncated the search).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..geometry import ALL_ORIENTATIONS, Point
from ..model import Design, Floorplan, Placement
from ..obs import metrics


class TimeBudget:
    """A wall-clock budget, mirroring the paper's 12-hour cut-offs.

    The paper forces EFA variants to "jump out of the floorplanning stage
    after 12 hours" and keep the best floorplan found; on our scaled
    testcases the same mechanism runs with budgets of seconds.  A ``None``
    budget never expires.
    """

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self._start = time.monotonic()

    def restart(self) -> None:
        """Reset the budget's clock to now."""
        self._start = time.monotonic()

    @property
    def elapsed(self) -> float:
        """Seconds since the budget started."""
        return time.monotonic() - self._start

    @property
    def expired(self) -> bool:
        """True once the wall-clock budget is spent."""
        return self.seconds is not None and self.elapsed >= self.seconds


class PackingFrame:
    """The swollen-die frame every floorplanner packs and centres in.

    Spacing follows the paper: each die is swollen by ``c_d / 2`` per
    side, which bakes the die-to-die constraint into the packing, and the
    outline check shrinks the interposer by ``c_b - c_d / 2`` per side so
    the actual (unswollen) dies keep ``c_b`` boundary clearance.
    """

    def __init__(self, design: Design):
        self.design = design
        c_d = design.spacing.die_to_die
        c_b = design.spacing.die_to_boundary
        interposer = design.interposer
        # Allowed region for the *swollen* dies.
        self.avail_w = interposer.width - 2 * c_b + c_d
        self.avail_h = interposer.height - 2 * c_b + c_d
        self.half_cd = c_d / 2.0
        self.center = interposer.center
        # dims_by_code[die index][orientation code] -> swollen (w, h);
        # orientation codes follow ALL_ORIENTATIONS order.
        self.dims_by_code: List[List[Tuple[float, float]]] = []
        for die in design.dies:
            per_code = []
            for o in ALL_ORIENTATIONS:
                w, h = o.rotated_dims(die.width, die.height)
                per_code.append((w + c_d, h + c_d))
            self.dims_by_code.append(per_code)

    def offsets(self, width: float, height: float) -> Tuple[float, float]:
        """Offsets that centre a ``width`` x ``height`` packing on the
        interposer, in unswollen die-origin coordinates."""
        return (
            self.center.x - width / 2.0 + self.half_cd,
            self.center.y - height / 2.0 + self.half_cd,
        )

    def overflow(self, width: float, height: float) -> float:
        """How far a packing overruns the allowed region (0 if it fits)."""
        return max(width - self.avail_w, 0.0) + max(
            height - self.avail_h, 0.0
        )

    def dims(self, codes: Sequence[int]) -> List[Tuple[float, float]]:
        """Swollen ``(w, h)`` of each die under its orientation code."""
        return [self.dims_by_code[i][c] for i, c in enumerate(codes)]

    def floorplan(self, packing, codes: Sequence[int]) -> Floorplan:
        """The centred :class:`Floorplan` of a packing
        ``(xs, ys, width, height)`` made with ``dims(codes)``."""
        xs, ys, width, height = packing
        off_x, off_y = self.offsets(width, height)
        placements = {}
        for i, die in enumerate(self.design.dies):
            placements[die.id] = Placement(
                Point(xs[i] + off_x, ys[i] + off_y), ALL_ORIENTATIONS[codes[i]]
            )
        return Floorplan(self.design, placements)


def validate_sa_schedule(
    config_name: str,
    *,
    initial_acceptance: float,
    cooling: float,
    moves_per_temperature: int,
    min_temperature_ratio: float,
    overflow_penalty: float,
) -> None:
    """Validate an annealing schedule, with actionable error messages.

    The annealers derive the initial temperature as
    ``-avg_delta / log(initial_acceptance)``, so an acceptance outside
    (0, 1) silently turns into ``ZeroDivisionError`` / ``ValueError``
    deep inside the run; validating at config construction surfaces the
    mistake where it was made.
    """
    if not 0.0 < initial_acceptance < 1.0:
        raise ValueError(
            f"{config_name}.initial_acceptance must be in (0, 1), got "
            f"{initial_acceptance!r}: it is the target probability of "
            "accepting an average uphill move, and log() of it must be "
            "finite and negative to calibrate the initial temperature"
        )
    if not 0.0 < cooling < 1.0:
        raise ValueError(
            f"{config_name}.cooling must be in (0, 1), got {cooling!r}: "
            "the temperature is multiplied by it every level and must "
            "strictly decrease towards the floor"
        )
    if moves_per_temperature < 1:
        raise ValueError(
            f"{config_name}.moves_per_temperature must be >= 1, got "
            f"{moves_per_temperature!r}"
        )
    if not 0.0 < min_temperature_ratio < 1.0:
        raise ValueError(
            f"{config_name}.min_temperature_ratio must be in (0, 1), got "
            f"{min_temperature_ratio!r}: the anneal stops once the "
            "temperature falls below this fraction of the initial one"
        )
    if overflow_penalty <= 0.0:
        raise ValueError(
            f"{config_name}.overflow_penalty must be positive, got "
            f"{overflow_penalty!r}: without it illegal arrangements "
            "would win on wirelength alone"
        )


@dataclass
class SearchStats:
    """Counters describing one enumerative floorplanning run."""

    sequence_pairs_total: int = 0
    sequence_pairs_explored: int = 0
    pruned_illegal: int = 0
    pruned_inferior: int = 0
    lower_bound_evaluations: int = 0
    floorplans_evaluated: int = 0
    floorplans_rejected_outline: int = 0
    runtime_s: float = 0.0
    timed_out: bool = False
    # Sequence-pair-independent certified wirelength lower bound (the
    # interval bound of the inferior cut, relaxed over every candidate).
    # ``None`` for algorithms that cannot certify one (the annealers).
    certified_lower_bound: Optional[float] = None
    # Delta-evaluation bookkeeping (the SA engines with incremental
    # HPWL; all zero for full-evaluation runs and the enumerators).
    # ``incremental_dirty_signals / incremental_signals_total`` is the
    # mean dirty-net ratio — the fraction of per-signal bounding boxes
    # each move actually recomputed.
    incremental_proposals: int = 0
    incremental_dirty_signals: int = 0
    incremental_signals_total: int = 0
    incremental_full_rescores: int = 0
    incremental_cross_checks: int = 0

    def publish(self, prefix: str = "floorplan.efa") -> None:
        """Bulk-publish these counters to the process metrics registry.

        Called once at the end of a search (never inside the candidate
        loop), so the report's ``floorplan.*`` counters always match the
        :class:`SearchStats` the paper's Table 2 is built from.
        """
        reg = metrics.registry()
        reg.counter(f"{prefix}.sequence_pairs_explored").inc(
            self.sequence_pairs_explored
        )
        reg.counter(f"{prefix}.pruned_illegal").inc(self.pruned_illegal)
        reg.counter(f"{prefix}.pruned_inferior").inc(self.pruned_inferior)
        reg.counter(f"{prefix}.floorplans_evaluated").inc(
            self.floorplans_evaluated
        )
        reg.counter(f"{prefix}.rejected_outline").inc(
            self.floorplans_rejected_outline
        )
        reg.counter(f"{prefix}.lower_bound_evaluations").inc(
            self.lower_bound_evaluations
        )
        if self.certified_lower_bound is not None:
            reg.gauge(f"{prefix}.certified_lower_bound").set(
                self.certified_lower_bound
            )
        if self.incremental_proposals:
            reg.counter(f"{prefix}.incremental_proposals").inc(
                self.incremental_proposals
            )
            reg.counter(f"{prefix}.incremental_dirty_signals").inc(
                self.incremental_dirty_signals
            )
            reg.counter(f"{prefix}.incremental_full_rescores").inc(
                self.incremental_full_rescores
            )
            reg.counter(f"{prefix}.incremental_cross_checks").inc(
                self.incremental_cross_checks
            )
            if self.incremental_signals_total:
                reg.gauge(f"{prefix}.incremental_dirty_ratio").set(
                    self.incremental_dirty_signals
                    / self.incremental_signals_total
                )


@dataclass
class FloorplanResult:
    """A floorplanner's output: the best floorplan and how it was found.

    ``est_wl`` is the estimator value (total per-signal HPWL by default)
    that the search minimized — *not* the post-assignment TWL of Eq. 1,
    which can only be computed after the SAP is solved.

    Enumerative searches additionally record the winning candidate's
    coordinates in the enumeration space: ``candidate`` is the
    ``(plus, minus, combo)`` index tuple and ``candidate_key`` its global
    ``(plus_rank, minus_rank, combo_index)`` enumeration rank.  The rank is
    the system-wide tie-break — equal-``est_wl`` candidates resolve to the
    lowest key — which is what lets sharded multi-process searches merge
    worker results into exactly the serial answer.
    """

    floorplan: Optional[Floorplan]
    est_wl: float = float("inf")
    stats: SearchStats = field(default_factory=SearchStats)
    algorithm: str = ""
    candidate: Optional[tuple] = None
    candidate_key: Optional[tuple] = None

    @property
    def found(self) -> bool:
        """True when a legal floorplan was produced."""
        return self.floorplan is not None
