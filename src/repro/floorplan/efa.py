"""The enumeration-based floorplanning algorithm (EFA, Section 3).

EFA enumerates every sequence pair over the die set and, per sequence pair,
every combination of the four die orientations; each candidate is packed,
centred on the interposer, legality-checked and scored with the HPWL
estimator.  The three acceleration techniques of the paper are switchable:

* ``illegal_cut``   — Section 3.1, illegal branch cutting (lossless);
* ``inferior_cut``  — Section 3.2, inferior branch cutting via a
  *certified* form of the Eq. 2 lower bound (the paper's formulation is
  heuristic; ours brackets every die origin and terminal offset over all
  orientation combinations, so the cut is provably lossless — see
  ``_lower_bound`` and DESIGN.md §5);
* ``fixed_orientations`` — Section 3.3, die orientation pre-determination
  (pass the orientations from :mod:`repro.floorplan.greedy_packing`).

Spacing handling follows the paper exactly; it lives in
:class:`repro.floorplan.base.PackingFrame`, which every floorplanner
packs in.

Implementation note: the search iterates over *index* permutations and
packs with flat lists — with up to ``n!^2 * 4^n`` candidates this inner
loop dominates the floorplanning stage, so no :class:`SequencePair` or
dict machinery is allowed inside it.  The semantics are identical to
:func:`repro.seqpair.pack_sequence_pair`, which the tests cross-check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations, product
from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..geometry import (
    Orientation,
    landscape_orientations,
    portrait_orientations,
)
from ..model import Design, Floorplan
from ..obs import Progress, get_logger, record_incumbent, span
from ..seqpair import iter_permutations_range
from .base import FloorplanResult, PackingFrame, SearchStats, TimeBudget
from .batch import MAX_SWEEP_DIES, OrientationSweep, pack_indices
from .estimator import FastHpwlEvaluator, orientation_code

_EPS = 1e-9
_INF = float("inf")
# Candidates per heartbeat tick (and per in-pair budget check of the
# scalar kernel).
_TICK = 4096

logger = get_logger("floorplan.efa")


@dataclass
class EFAConfig:
    """Switches selecting which EFA variant to run.

    The paper's variant names map to configs as:
    ``EFA_ori`` = no flags, ``EFA_c1`` = illegal_cut, ``EFA_c2`` =
    inferior_cut, ``EFA_c3`` = both, ``EFA_dop`` = fixed_orientations from
    the greedy packer (and no cuts — with one orientation per sequence pair
    the cuts cannot pay for themselves, as the paper notes).
    """

    illegal_cut: bool = False
    inferior_cut: bool = False
    fixed_orientations: Optional[Mapping[str, Orientation]] = None
    time_budget_s: Optional[float] = None
    # Optional enumeration window: restrict gamma_plus / gamma_minus to
    # lexicographic rank intervals [lo, hi).  None = the full n! range.
    # Windows compose with the parallel sharder (shards partition the
    # plus window) and keep global ranks, so tie-breaking and the
    # serial/sharded identity guarantee are unchanged within a window.
    plus_range: Optional[Tuple[int, int]] = None
    minus_range: Optional[Tuple[int, int]] = None

    @property
    def name(self) -> str:
        """The paper's name for this variant (EFA_ori/c1/c2/c3/dop)."""
        if self.fixed_orientations is not None:
            return "EFA_dop"
        if self.illegal_cut and self.inferior_cut:
            return "EFA_c3"
        if self.illegal_cut:
            return "EFA_c1"
        if self.inferior_cut:
            return "EFA_c2"
        return "EFA_ori"


class EnumerativeFloorplanner:
    """Runs EFA over a design, per the Fig. 3 pseudo code."""

    def __init__(self, design: Design, config: Optional[EFAConfig] = None):
        self.design = design
        self.config = config or EFAConfig()
        self.evaluator = FastHpwlEvaluator(design)
        self._die_ids = self.evaluator.die_ids
        self._prepare_dims()
        # Orientation-sweep tables, built lazily by the first run() on
        # the sweep kernel and reused across calls: the parallel executor
        # runs many shards through one planner, and rebuilding the
        # (n, 4^n) tables per shard wastes ~15ms apiece at n=8.
        self._sweep: Optional[OrientationSweep] = None

    def _prepare_dims(self) -> None:
        """Take swollen dims and outline bounds from the shared packing
        frame; add the landscape/portrait dims the Eq. 2 bound needs."""
        frame = self._frame = PackingFrame(self.design)
        self._low_dims: List[Tuple[float, float]] = []
        self._thin_dims: List[Tuple[float, float]] = []
        for die, per_code in zip(self.design.dies, frame.dims_by_code):
            low = landscape_orientations(die.width, die.height)[0]
            thin = portrait_orientations(die.width, die.height)[0]
            self._low_dims.append(per_code[orientation_code(low)])
            self._thin_dims.append(per_code[orientation_code(thin)])
        # Per-die minimum swollen extents, used by the Eq. 2 bound to cap
        # any legal candidate's die origins (origin + min extent <= avail).
        self._min_heights = np.asarray([d[1] for d in self._low_dims])
        self._min_widths = np.asarray([d[0] for d in self._thin_dims])

    # -- fast index-based packing -------------------------------------------------

    # Longest-path packing over die indices; lives in
    # :mod:`repro.floorplan.batch` so the SA floorplanners share it.
    _pack = staticmethod(pack_indices)

    # -- public entry ---------------------------------------------------------

    def run(
        self,
        plus_range: Optional[Tuple[int, int]] = None,
        incumbent=None,
    ) -> FloorplanResult:
        """Enumerate per Fig. 3 and return the best floorplan found.

        ``plus_range`` restricts the outer gamma_plus loop to permutations
        with lexicographic rank in ``[lo, hi)`` — the shard interface used
        by :mod:`repro.parallel`.  ``incumbent`` is an optional shared
        bound exchange (duck-typed: ``peek() -> float`` and
        ``offer(wl: float)``); when given, the Sec. 3.2 inferior cut also
        prunes against the best value any *other* worker has found, and
        improvements found here are published back.  Both default to the
        serial single-process behaviour.
        """
        with span("floorplan.efa", variant=self.config.name) as sp:
            result = self._run(plus_range=plus_range, incumbent=incumbent)
        sp.annotate(
            est_wl=result.est_wl if result.found else None,
            timed_out=result.stats.timed_out,
            certified_lower_bound=result.stats.certified_lower_bound,
        )
        result.stats.publish()
        return result

    def _run(
        self,
        plus_range: Optional[Tuple[int, int]] = None,
        incumbent=None,
    ) -> FloorplanResult:
        cfg = self.config
        n = len(self._die_ids)
        n_fact = math.factorial(n)
        cfg_lo, cfg_hi = (
            cfg.plus_range if cfg.plus_range is not None else (0, n_fact)
        )
        if not 0 <= cfg_lo <= cfg_hi <= n_fact:
            raise ValueError(
                f"plus_range {(cfg_lo, cfg_hi)} out of bounds for n={n}"
            )
        if plus_range is None:
            lo, hi = cfg_lo, cfg_hi
        else:
            lo, hi = plus_range
            if not 0 <= lo <= hi <= n_fact:
                raise ValueError(
                    f"plus_range {(lo, hi)} out of bounds for n={n}"
                )
            # A shard interval composes with the config window by
            # intersection (empty when they don't overlap).
            lo, hi = max(lo, cfg_lo), min(hi, cfg_hi)
            if lo > hi:
                lo = hi
        mlo, mhi = (
            cfg.minus_range if cfg.minus_range is not None else (0, n_fact)
        )
        if not 0 <= mlo <= mhi <= n_fact:
            raise ValueError(
                f"minus_range {(mlo, mhi)} out of bounds for n={n}"
            )
        stats = SearchStats(sequence_pairs_total=(hi - lo) * (mhi - mlo))
        budget = TimeBudget(cfg.time_budget_s)
        # Heartbeats ride the loop's periodic sites (per plus permutation
        # and one tick every _TICK candidates), so a disabled reporter
        # costs one branch at each.
        progress = Progress(
            cfg.name,
            total=stats.sequence_pairs_total,
            unit="pairs",
            logger=logger,
        )
        start = time.monotonic()
        logger.info(
            "%s: enumerating %d dies, %d sequence pairs%s%s",
            cfg.name,
            n,
            stats.sequence_pairs_total,
            "" if plus_range is None else f", shard ranks [{lo}, {hi})",
            ""
            if cfg.time_budget_s is None
            else f", budget {cfg.time_budget_s:.1f}s",
        )

        best_wl = _INF
        best_pair: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
        # Global enumeration rank of the best candidate: (plus_rank,
        # minus_rank, combo_index).  Equal-wl candidates resolve to the
        # lowest key, so any partition of the search space merges back to
        # the serial winner.  In a serial run keys only grow, so the tie
        # branch of the fold never replaces anything — it exists for
        # provability and for the cross-shard merge.
        best_key: Optional[Tuple[int, int, int]] = None
        # The wl the inferior cut prunes against: the tightest of our own
        # best and the shared incumbent.  Every value in it is a real
        # candidate wirelength, and the certified Eq. 2 bound only ever
        # cuts candidates strictly above it, so no pruning order — serial,
        # sharded, or incumbent-fed — can lose the winner or a tie.
        prune_wl = _INF
        # Tightest Eq. 2 bound among *pruned* branches.  Every explored
        # pair is evaluated exactly and every pruned one bounds its
        # candidates from below, so min(best_wl, min_pruned_bound)
        # certifies the whole enumerated window (see _certify_bound).
        min_pruned_bound = _INF

        if cfg.fixed_orientations is not None:
            fixed_codes: Optional[Tuple[int, ...]] = tuple(
                orientation_code(cfg.fixed_orientations[d])
                for d in self._die_ids
            )
        else:
            fixed_codes = None
        # The kernel follows from the input: the vectorized sweep needs a
        # real orientation sweep to amortize over and (n, 4^n) tables that
        # fit; everything else — EFA_dop's one vector per pair, or n above
        # MAX_SWEEP_DIES — is scored one candidate at a time.
        use_sweep = fixed_codes is None and n <= MAX_SWEEP_DIES
        if use_sweep:
            best_of_pair = self._sweep_kernel(stats, budget)
        else:
            best_of_pair = self._scalar_kernel(stats, budget, fixed_codes)
        tick_pairs = max(1, _TICK // (4**n if fixed_codes is None else 1))
        # The sweep pulls the shared incumbent once per sequence pair (a
        # sweep is >= 4^n candidates); the scalar kernel at each tick.
        pull_each_pair = use_sweep and incumbent is not None

        low_dims = self._low_dims
        thin_dims = self._thin_dims
        avail_w = self._frame.avail_w + _EPS
        avail_h = self._frame.avail_h + _EPS
        use_illegal = cfg.illegal_cut
        use_inferior = cfg.inferior_cut

        indices = tuple(range(n))
        rank_plus = [0] * n
        if (lo, hi) == (0, n_fact):
            plus_iter = enumerate(permutations(indices))
        else:
            plus_iter = zip(
                range(lo, hi), iter_permutations_range(n, lo, hi)
            )
        for plus_rank, plus in plus_iter:
            for r, i in enumerate(plus):
                rank_plus[i] = r
            if incumbent is not None:
                shared = incumbent.peek()
                if shared < prune_wl:
                    prune_wl = shared
            timed_out = False
            if cfg.minus_range is None:
                minus_iter = enumerate(permutations(indices))
            else:
                minus_iter = zip(
                    range(mlo, mhi), iter_permutations_range(n, mlo, mhi)
                )
            for minus_rank, minus in minus_iter:
                if budget.expired:
                    timed_out = True
                    break
                if pull_each_pair:
                    shared = incumbent.peek()
                    if shared < prune_wl:
                        prune_wl = shared
                if use_illegal or use_inferior:
                    low_pack = self._pack(minus, rank_plus, low_dims)
                    thin_pack = self._pack(minus, rank_plus, thin_dims)
                    if use_illegal and (
                        low_pack[3] > avail_h or thin_pack[2] > avail_w
                    ):
                        stats.pruned_illegal += 1
                        continue
                    if use_inferior and prune_wl < _INF:
                        stats.lower_bound_evaluations += 1
                        bound = self._lower_bound(low_pack, thin_pack)
                        if bound > prune_wl + _EPS:
                            stats.pruned_inferior += 1
                            if bound < min_pruned_bound:
                                min_pruned_bound = bound
                            continue

                stats.sequence_pairs_explored += 1
                # The pair's best legal candidate (lowest combo index on
                # ties; partial when the budget ran out inside the pair),
                # folded into the incumbent here and only here.
                wl, combo_index, timed_out = best_of_pair(minus, rank_plus)
                if wl < best_wl:
                    best_wl = wl
                    best_pair = (plus, minus)
                    best_key = (plus_rank, minus_rank, combo_index)
                    record_incumbent(wl, source=cfg.name)
                    if wl < prune_wl:
                        prune_wl = wl
                    if incumbent is not None:
                        incumbent.offer(wl)
                elif wl == best_wl and best_pair is not None:
                    key = (plus_rank, minus_rank, combo_index)
                    if key < best_key:
                        best_pair = (plus, minus)
                        best_key = key
                if stats.sequence_pairs_explored % tick_pairs == 0:
                    if incumbent is not None:
                        shared = incumbent.peek()
                        if shared < prune_wl:
                            prune_wl = shared
                    progress.update(
                        done=stats.sequence_pairs_explored
                        + stats.pruned_illegal
                        + stats.pruned_inferior,
                        best=best_wl,
                        candidates=stats.floorplans_evaluated
                        + stats.floorplans_rejected_outline,
                    )
                if timed_out:
                    break
            progress.update(
                done=stats.sequence_pairs_explored
                + stats.pruned_illegal
                + stats.pruned_inferior,
                best=best_wl,
            )
            if timed_out:
                stats.timed_out = True
                break

        stats.runtime_s = time.monotonic() - start
        progress.finish(
            done=stats.sequence_pairs_explored
            + stats.pruned_illegal
            + stats.pruned_inferior,
            best=best_wl,
            evaluated=stats.floorplans_evaluated,
        )
        logger.info(
            "%s: explored %d sequence pairs (%d pruned illegal, %d pruned "
            "inferior), evaluated %d floorplans in %.2fs%s",
            cfg.name,
            stats.sequence_pairs_explored,
            stats.pruned_illegal,
            stats.pruned_inferior,
            stats.floorplans_evaluated,
            stats.runtime_s,
            " (budget-truncated)" if stats.timed_out else "",
        )
        stats.certified_lower_bound = self._certify_bound(
            best_wl, min_pruned_bound, stats.timed_out
        )
        if best_pair is None:
            logger.warning("%s: no legal floorplan found", cfg.name)
            return FloorplanResult(None, _INF, stats, cfg.name)
        if fixed_codes is not None:
            combo = fixed_codes
        else:
            # Combo indices follow itertools.product(range(4), repeat=n)
            # order — first die slowest — which is C-order unravelling.
            combo = tuple(
                int(c) for c in np.unravel_index(best_key[2], (4,) * n)
            )
        candidate = (*best_pair, combo)
        return FloorplanResult(
            self.realize_candidate(*candidate),
            best_wl,
            stats,
            cfg.name,
            candidate=candidate,
            candidate_key=best_key,
        )

    # -- candidate kernels -------------------------------------------------------
    #
    # Each returns ``best_of_pair(minus, rank_plus)``, which scores every
    # orientation vector of one sequence pair, counts evaluated and
    # outline-rejected floorplans into ``stats`` and returns ``(wl,
    # combo_index, timed_out)`` for its best legal one (the lowest combo
    # index on ties; ``(inf, -1, ...)`` when none is legal).  The two
    # kernels are bit-identical to each other.

    def _sweep_kernel(self, stats: SearchStats, budget: TimeBudget):
        """Score all ``4^n`` orientation vectors of a pair at once: one
        :meth:`OrientationSweep.pack_all` pass, then ``hpwl_batch`` over
        the legal rows in byte-budgeted chunks, checking the time budget
        after each chunk."""
        if self._sweep is None:
            self._sweep = OrientationSweep(self._frame.dims_by_code)
        sweep = self._sweep
        frame = self._frame
        hpwl_batch = self.evaluator.hpwl_batch
        chunk_rows = self.evaluator.batch_chunk_rows()
        avail_w = frame.avail_w + _EPS
        avail_h = frame.avail_h + _EPS
        codes = sweep.codes
        size = sweep.size

        def best_of_pair(minus, rank_plus):
            xs, ys, w, h = sweep.pack_all(minus, rank_plus)
            legal = np.flatnonzero(~((w > avail_w) | (h > avail_h)))
            stats.floorplans_rejected_outline += size - legal.size
            best_wl = _INF
            best_combo = -1
            if legal.size:
                off_x, off_y = frame.offsets(w, h)
                xs_t = xs.T  # (4^n, n) candidate-major views
                ys_t = ys.T
                for lo in range(0, legal.size, chunk_rows):
                    sel = legal[lo : lo + chunk_rows]
                    wl = hpwl_batch(
                        xs_t[sel] + off_x[sel, None],
                        ys_t[sel] + off_y[sel, None],
                        codes[sel],
                    )
                    stats.floorplans_evaluated += sel.size
                    j = int(np.argmin(wl))
                    # Strict < keeps the earliest chunk on ties and argmin
                    # the earliest row within one: the lowest combo index.
                    if wl[j] < best_wl:
                        best_wl = float(wl[j])
                        best_combo = int(sel[j])
                    if budget.expired:
                        return best_wl, best_combo, True
            return best_wl, best_combo, False

        return best_of_pair

    def _scalar_kernel(
        self,
        stats: SearchStats,
        budget: TimeBudget,
        fixed_codes: Optional[Tuple[int, ...]],
    ):
        """Score a pair's orientation vectors one at a time.

        Serves a fixed vector (EFA_dop: one candidate per pair, where a
        one-row sweep costs over 10x a scalar pack) and die counts above
        ``MAX_SWEEP_DIES``, where one pair hides ``4^n`` candidates and
        the time budget is re-checked every ``_TICK`` of them.
        """
        frame = self._frame
        n = len(self._die_ids)
        indices = tuple(range(n))
        pack = self._pack
        hpwl = self.evaluator.hpwl
        avail_w = frame.avail_w + _EPS
        avail_h = frame.avail_h + _EPS
        center_x = frame.center.x
        center_y = frame.center.y
        half_cd = frame.half_cd
        die_x = np.empty(n)
        die_y = np.empty(n)
        codes_arr = np.empty(n, dtype=np.int64)
        dims_by_code = frame.dims_by_code
        fixed = None
        if fixed_codes is not None:
            fixed = ((fixed_codes, frame.dims(fixed_codes)),)

        def best_of_pair(minus, rank_plus):
            best_wl = _INF
            best_combo = -1
            combos = fixed or zip(
                product(range(4), repeat=n), product(*dims_by_code)
            )
            for combo_index, (codes, dims) in enumerate(combos):
                if combo_index and not combo_index % _TICK and budget.expired:
                    return best_wl, best_combo, True
                xs, ys, w, h = pack(minus, rank_plus, dims)
                if w > avail_w or h > avail_h:
                    stats.floorplans_rejected_outline += 1
                    continue
                # Centre the arrangement on the interposer (Fig. 3 line
                # 5); positions below are of the *actual* dies (swollen
                # position plus the c_d/2 inset).
                off_x = center_x - w / 2.0 + half_cd
                off_y = center_y - h / 2.0 + half_cd
                for i in indices:
                    die_x[i] = xs[i] + off_x
                    die_y[i] = ys[i] + off_y
                    codes_arr[i] = codes[i]
                wl = hpwl(die_x, die_y, codes_arr)
                stats.floorplans_evaluated += 1
                if wl < best_wl:
                    best_wl = wl
                    best_combo = combo_index
            return best_wl, best_combo, False

        return best_of_pair

    # -- internals ---------------------------------------------------------------

    def _certify_bound(
        self,
        best_wl: float,
        min_pruned_bound: float,
        timed_out: bool,
    ) -> Optional[float]:
        """Certified lower bound over the window the run enumerated.

        Every sequence pair ends the run in one of four states: pruned
        illegal (no legal candidates, cannot contain the optimum), pruned
        inferior (all its candidates sit at or above its Eq. 2 bound),
        fully explored (its exact minimum was evaluated, so ``best_wl``
        already accounts for it), or — only on budget truncation —
        unexplored, where the only thing still certifiable is the
        sequence-pair-independent :meth:`design_lower_bound` relaxation.
        The window's optimum therefore sits at or above the min of those
        three certified values.  For a complete run of a certified-exact
        variant this equals ``best_wl`` (gap 0, the Sec. 3.2 soundness
        argument); truncated runs degrade to the looser design-wide
        relaxation.  ``None`` when nothing is certifiable (empty window
        with no bound evaluations).
        """
        bound = min(best_wl, min_pruned_bound)
        if timed_out:
            bound = min(bound, self.design_lower_bound())
        return bound if math.isfinite(bound) else None

    def design_lower_bound(self) -> float:
        """Sequence-pair-*independent* certified wirelength lower bound.

        The same interval relaxation as :meth:`_lower_bound`, but with the
        per-die origin brackets widened to everything any legal candidate
        of *any* sequence pair could realise: origins range over
        ``[0, avail - min_extent]`` per axis, and the centring offset over
        the outline heights ``[max_i min_height_i, avail_h]`` (mirrored in
        x).  The result certifies the whole design — every legal candidate
        of every sequence pair evaluates at or above it — making it the
        fallback :meth:`_certify_bound` charges for the pairs a truncated
        run never reached.  Usually loose (often 0 on roomy interposers):
        the brackets admit all-terminals-coincident placements.
        """
        n = len(self._die_ids)
        zeros = np.zeros(n)
        h_ub = self._frame.avail_h + _EPS
        w_ub = self._frame.avail_w + _EPS
        # Tightest outline any candidate can realise per axis: every die
        # stacked would be taller, but a single row is always at least as
        # tall as the tallest minimum extent.
        h_lb = min(float(self._min_heights.max()), h_ub)
        w_lb = min(float(self._min_widths.max()), w_ub)
        die_y_max = np.maximum(zeros, h_ub - self._min_heights)
        die_x_max = np.maximum(zeros, w_ub - self._min_widths)
        off_x_lo, off_y_lo = self._frame.offsets(w_ub, h_ub)
        off_x_hi, off_y_hi = self._frame.offsets(w_lb, h_lb)
        ly_min = self.evaluator.lower_bound_vertical(
            zeros, die_y_max, off_y_lo, off_y_hi
        )
        lx_min = self.evaluator.lower_bound_horizontal(
            zeros, die_x_max, off_x_lo, off_x_hi
        )
        return lx_min + ly_min

    def _lower_bound(self, low_pack, thin_pack) -> float:
        """``L_min = LX_min + LY_min`` for a sequence pair (Section 3.2).

        A *certified* form of the paper's Eq. 2, valid over every *legal*
        candidate of the sequence pair (illegal ones are outline-rejected
        and can never win, so pruning them costs nothing).  Per axis, each
        die's packing origin is bracketed between its position in the
        minimum-dimension packing (F_low heights / F_thin widths) and the
        maximum-dimension one — longest-path packing is monotone in the
        dims — further capped by legality (origin + minimum extent must
        fit the available region).  A signal's span does not move when all
        its die terminals share the same centring offset, so instead of
        widening every die interval by the offset range, the evaluator
        shifts the escape point by the negated offset interval (pinned by
        the minimum outline and the legality-capped maximum one).  Since
        the intervals cover every orientation combination, any branch
        pruned against a found wirelength contains only strictly-worse or
        illegal candidates.  That soundness is what makes EFA_c2/c3
        return exactly EFA_ori's floorplan and the sharded parallel
        search exactly the serial one, independent of pruning order or
        incumbent timing.
        """
        lxs, lys, lw, lh = low_pack
        txs, tys, tw, th = thin_pack
        # Any legal candidate's outline obeys lh <= h <= min(th, avail_h)
        # (and the mirror in x), which pins the centring offset range:
        # the frame's off_y(h) = c_y - h/2 + c_d/2 is decreasing in h.
        h_ub = min(th, self._frame.avail_h + _EPS)
        w_ub = min(lw, self._frame.avail_w + _EPS)
        off_x_lo, off_y_lo = self._frame.offsets(w_ub, h_ub)
        off_x_hi, off_y_hi = self._frame.offsets(tw, lh)
        # y: origins are lowest in the min-height (F_low) packing and
        # highest in the max-height (F_thin) one, capped so the die still
        # fits the legal outline.
        die_y_min = np.asarray(lys)
        die_y_max = np.minimum(np.asarray(tys), h_ub - self._min_heights)
        ly_min = self.evaluator.lower_bound_vertical(
            die_y_min, die_y_max, off_y_lo, off_y_hi
        )
        # x mirrors it: F_thin has the minimal widths, F_low the maximal.
        die_x_min = np.asarray(txs)
        die_x_max = np.minimum(np.asarray(lxs), w_ub - self._min_widths)
        lx_min = self.evaluator.lower_bound_horizontal(
            die_x_min, die_x_max, off_x_lo, off_x_hi
        )
        return lx_min + ly_min

    def realize_candidate(
        self,
        plus: Tuple[int, ...],
        minus: Tuple[int, ...],
        combo: Tuple[int, ...],
    ) -> Floorplan:
        """Re-pack an enumeration candidate into a :class:`Floorplan`.

        Public so the parallel executor can rebuild a worker's winning
        candidate in the parent process from just the index tuples instead
        of shipping placements across the process boundary.
        """
        rank_plus = [0] * len(plus)
        for r, i in enumerate(plus):
            rank_plus[i] = r
        packing = self._pack(minus, rank_plus, self._frame.dims(combo))
        return self._frame.floorplan(packing, combo)


def run_efa(
    design: Design, config: Optional[EFAConfig] = None
) -> FloorplanResult:
    """One-call convenience wrapper around :class:`EnumerativeFloorplanner`."""
    return EnumerativeFloorplanner(design, config).run()
