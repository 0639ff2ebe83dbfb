"""The hybrid flow EFA_mix (Section 5.1).

The paper balances quality against runtime by invoking EFA_c3 (both branch
cuttings, full orientation enumeration) when the design has at most
``threshold`` dies and EFA_dop above that.  The paper's threshold is 5.

``workers`` extends the hybrid to the sharded multi-process search of
:mod:`repro.parallel`: the EFA_c3 arm — the expensive full enumeration —
is what parallelizes, and its sharded result is guaranteed identical to
the serial one for any worker count.  EFA_dop's enumeration is already
orders of magnitude cheaper (one orientation vector per sequence pair),
so the large-``n`` arm stays serial.
"""

from __future__ import annotations

from typing import Optional

from ..model import Design
from ..obs import get_logger
from .base import FloorplanResult
from .dop import run_efa_dop
from .efa import EFAConfig, EnumerativeFloorplanner

DEFAULT_DIE_THRESHOLD = 5

logger = get_logger("floorplan.mix")


def run_efa_mix(
    design: Design,
    time_budget_s: Optional[float] = None,
    die_threshold: int = DEFAULT_DIE_THRESHOLD,
    workers: int = 1,
    checkpoint=None,
) -> FloorplanResult:
    """EFA_c3 for small die counts, EFA_dop otherwise.

    ``workers > 1`` runs the EFA_c3 arm on the sharded process pool
    (identical result, shorter wall-clock on multi-core hosts).  A
    ``checkpoint`` store routes that arm through the same shard executor
    (serially at ``workers=1``), which journals completed shards there so
    an interrupted run resumes (see :func:`repro.parallel.run_parallel_efa`).
    """
    logger.info(
        "EFA_mix: %d dies -> %s%s",
        len(design.dies),
        "EFA_c3" if len(design.dies) <= die_threshold else "EFA_dop",
        f" on {workers} workers"
        if workers > 1 and len(design.dies) <= die_threshold
        else "",
    )
    if len(design.dies) <= die_threshold:
        config = EFAConfig(
            illegal_cut=True,
            inferior_cut=True,
            time_budget_s=time_budget_s,
        )
        if workers > 1 or checkpoint is not None:
            # Imported here: repro.parallel depends on repro.floorplan, so
            # a module-level import would be circular.
            from ..parallel import ParallelEFAConfig, run_parallel_efa

            result = run_parallel_efa(
                design,
                ParallelEFAConfig(workers=workers, efa=config),
                checkpoint=checkpoint,
            )
            result.algorithm = (
                f"EFA_mix(c3[x{workers}])" if workers > 1 else "EFA_mix(c3)"
            )
            return result
        result = EnumerativeFloorplanner(design, config).run()
        result.algorithm = "EFA_mix(c3)"
        return result
    result = run_efa_dop(design, time_budget_s=time_budget_s)
    result.algorithm = "EFA_mix(dop)"
    return result
