"""The bipartite-matching baseline of Ho & Chang, DAC'13 (the paper's [5]).

[5] plans micro-bump assignment by per-die minimum-cost bipartite matching,
but — as the paper points out — it neither assigns TSVs nor supports
multi-terminal signals, and it keeps every signal's far terminal anchored
at the original I/O buffer position (no MST edge-splitting updates between
dies).  Table 4 therefore compares on the *primed* testcases: every signal
has exactly two I/O-buffer terminals and nothing escapes.

This implementation mirrors those restrictions faithfully:

* it refuses designs with multi-terminal or escaping signals;
* the matching cost for assigning buffer ``b`` to bump ``m`` is
  ``alpha * D(b, m) + beta * D(m, anchor(b))`` where ``anchor(b)`` is the
  signal's *other I/O buffer* position — never a bump, because [5] has no
  topology updating;
* ``window_matching=True`` reproduces the paper's "[5] + window matching"
  column, where our window method is grafted onto [5] to make the big
  cases tractable.

Everything else is the MCMF pipeline (:class:`~repro.assign.MCMFAssigner`):
the die order, the window-retry loop and the sub-SAP kernel
(:mod:`repro.assign.ssp`; a unit-capacity bipartite min-cost flow *is* an
assignment problem), just as [5]'s matcher would solve it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..model import Assignment, Design, Floorplan, Weights
from .base import AssignmentError, AssignmentRunResult
from .mcmf_assign import MCMFAssigner


@dataclass
class BipartiteAssignerConfig:
    """Switches for the [5]-style baseline."""

    window_matching: bool = False
    window_slack: int = 0
    die_order: str = "decreasing"
    order_seed: int = 0
    time_budget_s: Optional[float] = None
    max_window_retries: int = 4
    max_edges_per_die: Optional[int] = None

    @property
    def name(self) -> str:
        """Display name ([5] or [5]+window)."""
        return "[5]+window" if self.window_matching else "[5]"


class BipartiteAssigner(MCMFAssigner):
    """Per-die minimum-cost bipartite matching, no TSVs, no MST updates."""

    def __init__(self, config: Optional[BipartiteAssignerConfig] = None):
        self.config = config or BipartiteAssignerConfig()

    def assign_with_stats(
        self,
        design: Design,
        floorplan: Floorplan,
        locked: Optional[Assignment] = None,
    ) -> AssignmentRunResult:
        """Solve per-die matchings; raises :class:`AssignmentError` up
        front on a design [5] cannot express."""
        for signal in design.signals:
            if signal.escapes:
                raise AssignmentError(
                    f"[5] cannot assign TSVs (signal {signal.id!r} escapes); "
                    "use the primed testcases as in the paper's Table 4"
                )
            if len(signal.buffer_ids) != 2:
                raise AssignmentError(
                    f"[5] cannot handle multi-terminal signal {signal.id!r}"
                )
        return super().assign_with_stats(design, floorplan, locked)

    def _edge_limit(self) -> Optional[int]:
        return self.config.max_edges_per_die

    def _far_weight(self, kind: str, weights: Weights) -> float:
        # The far terminal is always the other buffer, costed as the
        # internal net it anchors.
        return weights.beta

    def _rehome(self, topology, key, terminal) -> None:
        # [5] keeps every far terminal at its original buffer.
        pass
