"""Multi-die floorplanning: EFA, its accelerations, and the SA baseline."""

from .annealing import AnnealingFloorplanner, SAConfig, run_sa
from .base import (
    FloorplanResult,
    SearchStats,
    TimeBudget,
    validate_sa_schedule,
)
from .batch import MAX_SWEEP_DIES, OrientationSweep, pack_indices
from .btree import (
    BStarTree,
    BTreeFloorplanner,
    BTreeSAConfig,
    pack_btree,
    run_btree_sa,
)
from .dop import run_efa_dop
from .efa import EFAConfig, EnumerativeFloorplanner, run_efa
from .estimator import (
    DEFAULT_BATCH_CHUNK_BYTES,
    FastHpwlEvaluator,
    greedy_assignment_est_wl,
    orientation_code,
    orientation_from_code,
)
from .incremental import (
    DEFAULT_CROSS_CHECK_EVERY,
    IncrementalHpwl,
    full_eval_forced,
)
from .greedy_packing import (
    GreedyPacker,
    GreedyPackingResult,
    predetermine_orientations,
)
from .mix import DEFAULT_DIE_THRESHOLD, run_efa_mix
from .postopt import PostOptStats, optimize_floorplan

__all__ = [
    "AnnealingFloorplanner",
    "BStarTree",
    "BTreeFloorplanner",
    "BTreeSAConfig",
    "DEFAULT_BATCH_CHUNK_BYTES",
    "DEFAULT_CROSS_CHECK_EVERY",
    "DEFAULT_DIE_THRESHOLD",
    "IncrementalHpwl",
    "full_eval_forced",
    "pack_btree",
    "run_btree_sa",
    "EFAConfig",
    "EnumerativeFloorplanner",
    "FastHpwlEvaluator",
    "FloorplanResult",
    "GreedyPacker",
    "MAX_SWEEP_DIES",
    "OrientationSweep",
    "pack_indices",
    "validate_sa_schedule",
    "GreedyPackingResult",
    "PostOptStats",
    "optimize_floorplan",
    "SAConfig",
    "SearchStats",
    "TimeBudget",
    "greedy_assignment_est_wl",
    "orientation_code",
    "orientation_from_code",
    "predetermine_orientations",
    "run_efa",
    "run_efa_dop",
    "run_efa_mix",
    "run_sa",
]
