"""The greedy signal assignment baseline (Section 5.2).

Solves the sub-SAPs in the same die-by-die (then TSV) order as the MCMF
assigner, but within a sub-SAP it simply walks the buffers in listed order
and gives each one the cheapest *still-unassigned* site under the Eq. 3
cost.  No flow network, no global optimality: in the paper this runs ~4x
faster than MCMF_fast but ends ~21% worse in TWL.  The stages, the Eq. 3
cost and the MST updates are the MCMF pipeline's own
(:class:`~repro.assign.MCMFAssigner`), so the comparison isolates the
matching quality, not the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import AssignmentError, SubSapStats
from .mcmf_assign import MCMFAssigner


@dataclass
class GreedyAssignerConfig:
    """Order knobs shared with the MCMF assigner for fair ablations."""

    die_order: str = "decreasing"
    order_seed: int = 0

    @property
    def name(self) -> str:
        """Display name."""
        return "Greedy"


class GreedyAssigner(MCMFAssigner):
    """First-come, cheapest-site signal assignment."""

    def __init__(self, config: Optional[GreedyAssignerConfig] = None):
        self.config = config or GreedyAssignerConfig()

    def _budget_s(self) -> Optional[float]:
        return None

    def _match(self, stage, weights, topologies, clock) -> SubSapStats:
        """Each source in turn takes its cheapest free site."""
        taken = np.zeros(len(stage.site_ids), dtype=bool)
        total_cost = 0.0
        for i in range(len(stage.source_ids)):
            if taken.all():
                raise AssignmentError(
                    f"greedy sub-SAP {stage.scope!r} ran out of free sites"
                )
            costs = self._cost_row(stage, i, slice(None), weights, topologies)
            costs[taken] = np.inf
            pick = int(np.argmin(costs))
            taken[pick] = True
            total_cost += float(costs[pick])
            self._commit(stage, i, pick, topologies)
        return stage.stats(
            len(stage.source_ids) * len(stage.site_ids), total_cost
        )
