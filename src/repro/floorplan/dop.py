"""EFA with die orientation pre-determination (EFA_dop, Section 3.3).

Runs the greedy packer to fix every die's orientation, then EFA over the
``n!^2`` sequence pairs with exactly one orientation vector each — the
orders-of-magnitude speedup of the paper's Table 2.

Two robustness refinements beyond the paper's pseudo code (both
documented in DESIGN.md):

* **candidate-vector probing** — besides the greedy packer's orientation
  vector, the all-R0 vector (the dies as designed) is considered; a short
  sampled EFA run scores each candidate and the winner gets the full
  budget.  The greedy packer optimizes its own reference arrangement,
  which occasionally transfers poorly to the best sequence-pair
  arrangement; the probe catches that at negligible cost.
* **legal fallback** — if the winning vector admits no legal floorplan at
  all within budget, the greedy reference floorplan itself (when legal) is
  returned, so callers always get a floorplan if one was ever seen;
  failing that, the all-R0 vector gets one more enumeration unless it was
  the vector just enumerated.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..geometry import Orientation
from ..model import Design
from ..obs import get_logger, span
from .base import FloorplanResult
from .efa import EFAConfig, EnumerativeFloorplanner
from .estimator import FastHpwlEvaluator
from .greedy_packing import predetermine_orientations

logger = get_logger("floorplan.dop")

# Fraction of the budget spent probing each candidate orientation vector.
_PROBE_FRACTION = 0.1
_PROBE_CAP_S = 2.0


def _probe_budget(time_budget_s: Optional[float]) -> float:
    if time_budget_s is None:
        return _PROBE_CAP_S
    return min(_PROBE_CAP_S, max(time_budget_s * _PROBE_FRACTION, 0.05))


def run_efa_dop(
    design: Design, time_budget_s: Optional[float] = None
) -> FloorplanResult:
    """Greedy packing + orientation-fixed EFA (with vector probing).

    The returned ``stats.runtime_s`` covers the whole pipeline — greedy
    packing, candidate probing and the main enumeration — so Table 2's FT
    column accounts for every cost EFA_dop pays.
    """
    import time as _time

    wall_start = _time.monotonic()
    with span("floorplan.dop.greedy_packing"):
        packing = predetermine_orientations(design)
    all_r0: Dict[str, Orientation] = {
        d.id: Orientation.R0 for d in design.dies
    }
    candidates: List[Dict[str, Orientation]] = [packing.orientations]
    if packing.orientations != all_r0:
        candidates.append(all_r0)
    # A brief unrestricted probe (all orientations enumerated) often
    # stumbles on a good vector for small die counts; harvest it as a
    # third candidate.  For large die counts the truncated prefix rarely
    # yields a legal floorplan, in which case nothing is added.
    with span("floorplan.dop.probe"):
        free_probe = EnumerativeFloorplanner(
            design, EFAConfig(time_budget_s=_probe_budget(time_budget_s))
        ).run()
        if free_probe.found:
            probe_vec = {
                d.id: free_probe.floorplan.placement(d.id).orientation
                for d in design.dies
            }
            if probe_vec not in candidates:
                candidates.append(probe_vec)

        chosen = candidates[0]
        if len(candidates) > 1:
            probe_s = _probe_budget(time_budget_s)
            best_probe = float("inf")
            for vec in candidates:
                probe = EnumerativeFloorplanner(
                    design,
                    EFAConfig(fixed_orientations=vec, time_budget_s=probe_s),
                ).run()
                if probe.est_wl < best_probe:
                    best_probe = probe.est_wl
                    chosen = vec
    logger.info(
        "EFA_dop: probed %d orientation vectors, fixed %s",
        len(candidates),
        {d: o.name for d, o in sorted(chosen.items())},
    )

    config = EFAConfig(
        fixed_orientations=chosen, time_budget_s=time_budget_s
    )
    with span("floorplan.dop.enumerate"):
        result = EnumerativeFloorplanner(design, config).run()
    if not result.found and packing.floorplan.is_legal():
        logger.warning(
            "EFA_dop: enumeration found no legal floorplan; falling back "
            "to the greedy reference floorplan"
        )
        result.floorplan = packing.floorplan
        result.est_wl = FastHpwlEvaluator(design).hpwl_of_floorplan(
            packing.floorplan
        )
    if not result.found and chosen != all_r0:
        # Last resort: the as-designed orientations (feasible by
        # construction for chip-sliced designs).  When the enumeration
        # just run already fixed them, a rerun would repeat it.
        retry = EnumerativeFloorplanner(
            design,
            EFAConfig(
                fixed_orientations=all_r0, time_budget_s=time_budget_s
            ),
        ).run()
        if retry.found:
            retry.algorithm = "EFA_dop(R0-fallback)"
            retry.stats.runtime_s = _time.monotonic() - wall_start
            return retry
    result.stats.runtime_s = _time.monotonic() - wall_start
    return result
