"""Simulated-annealing floorplanners (the baseline EFA is compared against).

Section 3 of the paper motivates EFA by noting it beats an SA-based
floorplanner; this module provides that baseline.  :class:`Annealer` is
the one annealing engine: candidates are packed, centred and scored
with the same swollen-dimension HPWL machinery EFA uses, with an
overflow penalty for arrangements that do not fit the interposer, so SA
can travel through illegal space but never returns an illegal result.

A representation supplies only what differs: its initial state, its
move set, its pack-cache key and its packer.  Here that is the
sequence pair (moves: swap in gamma_plus, swap in gamma_minus, swap in
both, rotate one die); :mod:`repro.floorplan.btree` is the other one.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

import numpy as np

from ..model import Design, Floorplan
from ..obs import Progress, get_logger, record_incumbent, span
from .base import (
    FloorplanResult,
    PackingFrame,
    SearchStats,
    validate_sa_schedule,
)
from .batch import pack_indices
from .estimator import FastHpwlEvaluator
from .incremental import (
    DEFAULT_CROSS_CHECK_EVERY,
    IncrementalHpwl,
    full_eval_forced,
)

_EPS = 1e-9

# A sequence-pair state: (gamma_plus, gamma_minus) as die-index tuples.
SeqPairState = Tuple[Tuple[int, ...], Tuple[int, ...]]

# Entries kept in the packed-result cache.  SA revisits states far
# beyond its immediate neighborhood (a few-die design has only hundreds
# to thousands of distinct (state, shape) keys, and the anneal crosses
# them repeatedly), and an entry is just a key plus two tiny arrays, so
# the bound is sized for whole-run reuse rather than a single
# neighborhood.  At the limit the *oldest* entry is evicted — dict order
# is insertion order — so the hot recent states survive instead of
# being wiped wholesale mid-anneal.
_PACK_CACHE_LIMIT = 4096

# Orientation-code vectors seen recently, mapped to their (codes array,
# shape key) pair so the hot move loop never rebuilds either.  Same
# bounded oldest-first policy as the pack cache.
_CODE_CACHE_LIMIT = 256

# For the rotate move: every orientation code except the current one.
# Codes follow ALL_ORIENTATIONS order (see ``orientation_code``).
_OTHER_CODES = {
    c: tuple(x for x in range(4) if x != c) for c in range(4)
}

logger = get_logger("floorplan.sa")


def _rand_index(rng: random.Random, n: int) -> int:
    """Uniform index in ``[0, n)`` via one C-level ``random()`` draw.

    ``rng.randrange`` burns several Python frames per call
    (``_randbelow`` and friends), which is measurable at SA move rates;
    ``int(random() * n)`` is exact for the die counts involved (the
    product stays far below 2**53, and ``random() < 1``).
    """
    return int(rng.random() * n)


def _distinct_pair(rng: random.Random, n: int) -> Tuple[int, int]:
    """Uniform ordered pair of distinct indices in ``[0, n)``."""
    i = _rand_index(rng, n)
    j = _rand_index(rng, n - 1)
    if j >= i:
        j += 1
    return i, j


def _rotate_one(rng: random.Random, codes: Tuple[int, ...]) -> Tuple[int, ...]:
    """``codes`` with one random die turned to another orientation."""
    i = _rand_index(rng, len(codes))
    rotated = list(codes)
    rotated[i] = _OTHER_CODES[rotated[i]][_rand_index(rng, 3)]
    return tuple(rotated)


def _no_op() -> None:
    pass


@dataclass
class SAConfig:
    """Annealing schedule parameters (defaults tuned for <= 8 dies)."""

    seed: int = 0
    initial_acceptance: float = 0.8
    cooling: float = 0.95
    moves_per_temperature: int = 60
    min_temperature_ratio: float = 1e-4
    time_budget_s: Optional[float] = None
    overflow_penalty: float = 1e6
    # Verify the delta (dirty-net) HPWL result against a from-scratch
    # evaluation every this-many proposals (0 disables).
    cross_check_every: int = DEFAULT_CROSS_CHECK_EVERY

    def __post_init__(self) -> None:
        name = type(self).__name__
        validate_sa_schedule(
            name,
            initial_acceptance=self.initial_acceptance,
            cooling=self.cooling,
            moves_per_temperature=self.moves_per_temperature,
            min_temperature_ratio=self.min_temperature_ratio,
            overflow_penalty=self.overflow_penalty,
        )
        if self.cross_check_every < 0:
            raise ValueError(
                f"{name}.cross_check_every must be >= 0, got "
                f"{self.cross_check_every!r}"
            )


class Annealer:
    """SA over (representation state, orientation-code tuple) states.

    Subclasses name themselves — ``algorithm`` (result label and
    incumbent source), ``span_name`` (span, progress and metric prefix),
    and, when not the sequence-pair defaults, ``log`` and
    ``config_type`` — and implement the representation:

    * ``_initial_state(rng)``: the starting state (it may draw from
      ``rng``; it is built before the first evaluation);
    * ``_neighbor(rng, state, codes)`` -> ``(state, codes)``: one move.
      States are values: a move returns a new state, or the same object
      when it leaves the state alone, and never mutates its input, so
      the loop keeps its best state without copying;
    * ``_pack_key(state, shape_key)``: the pack-cache key;
    * ``_pack(state, dims)`` -> ``(xs, ys, width, height)``: the packer,
      over swollen per-die dims in die-index order.
    """

    algorithm = ""
    span_name = ""
    log = logger
    config_type = SAConfig

    def __init__(self, design: Design, config: Optional[SAConfig] = None):
        self.design = design
        self.config = config or self.config_type()
        self.evaluator = FastHpwlEvaluator(design)
        self._die_ids = self.evaluator.die_ids
        self.frame = PackingFrame(design)
        self._pack_cache: dict = {}
        self._code_cache: dict = {}
        self.pack_cache_hits = 0
        self.pack_cache_misses = 0
        # ``_score`` prices a candidate; ``_accept`` adopts the last one
        # as the delta-eval reference (nothing to adopt under full
        # evaluation, which REPRO_SA_FULL_EVAL=1 forces).  Delta HPWL is
        # bit-identical; see incremental.py.
        self._inc: Optional[IncrementalHpwl] = None
        self._score, self._accept = self.evaluator.hpwl, _no_op
        if not full_eval_forced():
            self._inc = IncrementalHpwl(
                self.evaluator, self.config.cross_check_every
            )
            self._score, self._accept = self._inc.propose, self._inc.accept

    # -- state evaluation -----------------------------------------------------

    def _packed(
        self, state, shape_key: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """Pack and centre a state, reusing the cached result when only
        shapes match; returns ``(die_x, die_y, overflow)``.

        A 180-degree orientation flip changes terminal positions but not
        the die footprint, so the packing — the expensive half of a move
        evaluation — is keyed by the state plus each die's shape class
        (``orientation_code & 1``), not the full orientation vector.
        The rotate move therefore re-scores HPWL without re-packing half
        the time.  The cached entry holds the *centred* global die-origin
        arrays (the centring offset is a pure function of the packed
        extent), so cache hits hand the evaluator the very same array
        objects — which the incremental evaluator's identity fast path
        recognizes as unmoved dies.
        """
        key = self._pack_key(state, shape_key)
        cached = self._pack_cache.get(key)
        if cached is not None:
            self.pack_cache_hits += 1
            return cached
        self.pack_cache_misses += 1
        frame = self.frame
        xs, ys, width, height = self._pack(state, frame.dims(shape_key))
        off_x, off_y = frame.offsets(width, height)
        entry = (
            np.asarray(xs) + off_x,
            np.asarray(ys) + off_y,
            frame.overflow(width, height),
        )
        if len(self._pack_cache) >= _PACK_CACHE_LIMIT:
            # Bounded oldest-first eviction (insertion order): keeps the
            # hot recent neighborhood instead of clearing wholesale.
            self._pack_cache.pop(next(iter(self._pack_cache)))
        self._pack_cache[key] = entry
        return entry

    def _code_entry(
        self, codes: Tuple[int, ...]
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """(codes array, shape key) of a code vector, cached."""
        entry = (
            np.asarray(codes, dtype=np.int64),
            tuple(c & 1 for c in codes),
        )
        if len(self._code_cache) >= _CODE_CACHE_LIMIT:
            self._code_cache.pop(next(iter(self._code_cache)))
        self._code_cache[codes] = entry
        return entry

    def _evaluate(self, state, codes: Tuple[int, ...]) -> Tuple[float, bool]:
        """(cost, legal) of one state; cost folds in outline overflow."""
        entry = self._code_cache.get(codes) or self._code_entry(codes)
        codes_arr, shape_key = entry
        die_x, die_y, overflow = self._packed(state, shape_key)
        wl = self._score(die_x, die_y, codes_arr)
        return wl + self.config.overflow_penalty * overflow, overflow <= _EPS

    # -- driver ---------------------------------------------------------------

    def run(self) -> FloorplanResult:
        """Anneal and return the best legal floorplan found."""
        with span(self.span_name) as sp:
            result = self._anneal()
        sp.annotate(
            est_wl=result.est_wl if result.found else None,
            moves=result.stats.floorplans_evaluated,
            timed_out=result.stats.timed_out,
        )
        result.stats.publish(prefix=self.span_name)
        return result

    def _anneal(self) -> FloorplanResult:
        cfg = self.config
        name = self.algorithm
        rng = random.Random(cfg.seed)
        stats = SearchStats()
        clock = time.monotonic
        start = clock()
        # The budget is checked on every move, so it is a bare deadline
        # compare rather than a TimeBudget property call.
        deadline = math.inf
        if cfg.time_budget_s is not None:
            deadline = start + cfg.time_budget_s
        neighbor = self._neighbor
        evaluate = self._evaluate
        commit = self._accept

        state = self._initial_state(rng)
        codes = (0,) * len(self._die_ids)
        cost, legal = evaluate(state, codes)
        commit()
        stats.floorplans_evaluated += 1

        best = (state, codes) if legal else None
        best_cost = cost if legal else float("inf")

        # Calibrate the initial temperature from a random walk so the
        # configured initial acceptance probability holds for average
        # uphill moves.  Probes are schedule calibration, not search, so
        # they are excluded from ``stats.floorplans_evaluated``.  Every
        # probe advances the walk, so each one commits as the delta-eval
        # reference; the first real move then diffs against the walk's
        # end state, which is just another valid reference.
        deltas = []
        probe, probe_codes, probe_cost = state, codes, cost
        for _ in range(30):
            cand, cand_codes = neighbor(rng, probe, probe_codes)
            cand_cost, _ = evaluate(cand, cand_codes)
            commit()
            deltas.append(abs(cand_cost - probe_cost))
            probe, probe_codes, probe_cost = cand, cand_codes, cand_cost
        avg_delta = max(sum(deltas) / len(deltas), 1e-6)
        temperature = -avg_delta / math.log(cfg.initial_acceptance)
        floor_temperature = temperature * cfg.min_temperature_ratio
        self.log.debug(
            "%s: initial temperature %.4g (floor %.4g)",
            name,
            temperature,
            floor_temperature,
        )
        # Geometric schedule -> the level count is known up front, so the
        # heartbeat can carry a real ETA.  Updated once per level.
        total_levels = max(
            1,
            int(
                math.ceil(
                    math.log(cfg.min_temperature_ratio)
                    / math.log(cfg.cooling)
                )
            ),
        )
        progress = Progress(
            self.span_name, total=total_levels, unit="levels", logger=self.log
        )
        if best_cost < float("inf"):
            record_incumbent(best_cost, source=name)

        level = 0
        while temperature > floor_temperature and clock() < deadline:
            for _ in range(cfg.moves_per_temperature):
                # Checked per move, not per level: a level at the default
                # 60 moves can outlive a sub-second budget many times
                # over on large designs.
                if clock() >= deadline:
                    break
                cand, cand_codes = neighbor(rng, state, codes)
                cand_cost, cand_legal = evaluate(cand, cand_codes)
                stats.floorplans_evaluated += 1
                delta = cand_cost - cost
                if delta <= 0 or rng.random() < math.exp(
                    -delta / temperature
                ):
                    commit()
                    state, codes, cost = cand, cand_codes, cand_cost
                    if cand_legal and cand_cost < best_cost:
                        best_cost = cand_cost
                        best = (cand, cand_codes)
                        record_incumbent(best_cost, source=name)
            temperature *= cfg.cooling
            level += 1
            progress.update(
                done=level,
                best=best_cost,
                temp=temperature,
                moves=stats.floorplans_evaluated,
            )
        stats.timed_out = clock() >= deadline
        stats.runtime_s = clock() - start
        if self._inc is not None:
            stats.incremental_proposals = self._inc.proposals
            stats.incremental_dirty_signals = self._inc.dirty_signals
            stats.incremental_signals_total = self._inc.signals_total
            stats.incremental_full_rescores = self._inc.full_rescores
            stats.incremental_cross_checks = self._inc.cross_checks
        progress.finish(
            done=level, best=best_cost, moves=stats.floorplans_evaluated
        )
        self.log.info(
            "%s: %d moves in %.2fs, best cost %.4f%s",
            name,
            stats.floorplans_evaluated,
            stats.runtime_s,
            best_cost,
            " (budget-truncated)" if stats.timed_out else "",
        )

        if best is None:
            self.log.warning("%s: no legal floorplan visited", name)
            return FloorplanResult(None, float("inf"), stats, name)
        return FloorplanResult(self._realize(*best), best_cost, stats, name)

    def _realize(self, state, codes: Tuple[int, ...]) -> Floorplan:
        dims = self.frame.dims(codes)
        return self.frame.floorplan(self._pack(state, dims), codes)


class AnnealingFloorplanner(Annealer):
    """SA over (sequence pair, orientation codes) states.

    As in EFA, a sequence pair is a ``(gamma_plus, gamma_minus)`` pair
    of die-index tuples, so packing needs no id lookups.
    """

    algorithm = "SA"
    span_name = "floorplan.sa"

    def _initial_state(self, rng: random.Random) -> SeqPairState:
        indices = tuple(range(len(self._die_ids)))
        return indices, indices

    def _neighbor(
        self, rng: random.Random, sp: SeqPairState, codes: Tuple[int, ...]
    ) -> Tuple[SeqPairState, Tuple[int, ...]]:
        n = len(codes)
        move = _rand_index(rng, 4) if n > 1 else 3
        if move == 3:
            # Rotate one die: the sequence pair is untouched.
            return sp, _rotate_one(rng, codes)
        plus, minus = list(sp[0]), list(sp[1])
        if move in (0, 2):
            i, j = _distinct_pair(rng, n)
            plus[i], plus[j] = plus[j], plus[i]
        if move in (1, 2):
            i, j = _distinct_pair(rng, n)
            minus[i], minus[j] = minus[j], minus[i]
        return (tuple(plus), tuple(minus)), codes

    def _pack_key(
        self, sp: SeqPairState, shape_key: Tuple[int, ...]
    ) -> Hashable:
        return (sp, shape_key)

    def _pack(self, sp: SeqPairState, dims: List[Tuple[float, float]]):
        """Longest-path packing over die indices (``pack_indices``)."""
        plus, minus = sp
        rank_plus = [0] * len(minus)
        for rank, i in enumerate(plus):
            rank_plus[i] = rank
        return pack_indices(minus, rank_plus, dims)


def run_sa(
    design: Design, config: Optional[SAConfig] = None
) -> FloorplanResult:
    """One-call convenience wrapper around :class:`AnnealingFloorplanner`."""
    return AnnealingFloorplanner(design, config).run()
