"""The greedy two-stage packing algorithm (Fig. 5, Section 3.3).

Die orientation pre-determination builds a reference floorplan ``F_ref``:

* **Stage 1** tries every die pair, every orientation of both dies and
  every contact boundary, packing the second die against the first
  (centre-aligned on the contact boundary, ``c_d`` apart) and keeping the
  cheapest pair as the initial ``F_ref``.
* **Stage 2** repeatedly attaches one unpacked die — every orientation,
  every *available* boundary of ``F_ref`` (a die side not already used as a
  contact) — resolving overlaps by the minimal axis-aligned shift, and
  keeps the cheapest extension.

The cost of a candidate packing is the total HPWL of all signals over the
terminals already located (buffers of packed dies, plus escape points,
which are always located), after centring the arrangement on the
interposer; illegal arrangements get a large penalty.  The orientations of
``F_ref`` then seed ``EFA_dop``.

Candidates are scored in numpy batches — every orientation/boundary of a
stage-1 die pair, every attachment of one die in a stage-2 step, every
orientation of one die in the refinement — on the terminal tables of
:class:`~repro.floorplan.estimator.FastHpwlEvaluator`.  Each batched cost
equals the scalar per-candidate formula bit for bit (DESIGN.md, "Batched
greedy pre-pass"), so the packer's choices do not depend on the batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import ALL_ORIENTATIONS, Orientation, Point, Rect
from ..model import Design, Floorplan, Placement
from ..obs import get_logger, metrics, span
from .estimator import FastHpwlEvaluator, orientation_code

logger = get_logger("floorplan.greedy_packing")

SIDES = ("left", "right", "bottom", "top")
_OPPOSITE = {"left": "right", "right": "left", "top": "bottom", "bottom": "top"}

# Penalty added to the cost of an arrangement that does not fit the
# interposer legally; large enough to dominate any real HPWL while keeping
# relative order among illegal arrangements (less overflow is preferred).
_ILLEGAL_PENALTY = 1e9

# Die id -> (lower-left position, orientation), in packing order.
Arrangement = Dict[str, Tuple[Point, Orientation]]


@dataclass
class GreedyPackingResult:
    """``F_ref`` plus the per-die orientations EFA_dop will fix."""

    floorplan: Floorplan
    orientations: Dict[str, Orientation]
    cost: float


class GreedyPacker:
    """Builds ``F_ref`` for a design per the Fig. 5 pseudo code."""

    def __init__(self, design: Design):
        self.design = design
        self._cost_evals = 0
        self._half_cd = design.spacing.die_to_die / 2.0
        self._c_d = design.spacing.die_to_die
        self._c_b = design.spacing.die_to_boundary
        self._target = design.interposer.center
        self._outline = design.interposer.outline
        ev = FastHpwlEvaluator(design)
        self._evaluator = ev
        # Footprint of every die under every orientation code, (4, n).
        dims = [
            [o.rotated_dims(d.width, d.height) for d in design.dies]
            for o in ALL_ORIENTATIONS
        ]
        self._width = np.array([[w for w, _ in row] for row in dims])
        self._height = np.array([[h for _, h in row] for row in dims])
        # Which dies carry each signal's buffers, (S, n), and which signals
        # have two or more terminals once all their dies are packed.
        signals = ev.signal_count
        self._incidence = np.zeros((signals, ev.die_count), dtype=bool)
        self._incidence[ev._t_signal, ev._t_die] = True
        degree = np.bincount(ev._t_signal, minlength=signals)
        has_escape = np.isfinite(ev._fixed_min_x)
        self._scored = (degree > 0) & (degree + has_escape >= 2)

    # -- geometry helpers -----------------------------------------------------

    def _rect(self, die_id: str, pos: Point, orient: Orientation) -> Rect:
        die = self.design.die(die_id)
        w, h = orient.rotated_dims(die.width, die.height)
        return Rect(pos.x, pos.y, w, h)

    def _attach_position(
        self,
        base: Rect,
        die_id: str,
        orient: Orientation,
        side: str,
        align: str = "center",
    ) -> Point:
        """Lower-left of ``die_id`` attached to ``side`` of ``base``.

        The new die's opposite boundary touches the contact boundary at
        distance ``c_d``.  ``align`` picks the along-boundary alignment:
        ``"center"`` (the paper's choice for the initial pair), ``"low"``
        (bottom/left edges flush) or ``"high"`` (top/right edges flush) —
        the extra alignments let the incremental stage reach grid-like
        packings that centre-only attachment cannot, which matters on
        tightly-utilized interposers.
        """
        die = self.design.die(die_id)
        w, h = orient.rotated_dims(die.width, die.height)
        if side in ("right", "left"):
            if align == "center":
                y = base.center.y - h / 2.0
            elif align == "low":
                y = base.y
            else:
                y = base.y2 - h
            x = base.x2 + self._c_d if side == "right" else base.x - self._c_d - w
            return Point(x, y)
        if align == "center":
            x = base.center.x - w / 2.0
        elif align == "low":
            x = base.x
        else:
            x = base.x2 - w
        y = base.y2 + self._c_d if side == "top" else base.y - self._c_d - h
        return Point(x, y)

    def _resolve_overlap(
        self, rect: Rect, placed: List[Rect]
    ) -> Optional[Rect]:
        """Shift ``rect`` by the minimal axis displacement clearing ``placed``.

        Tries each of the four axis directions, iteratively pushing until no
        placed die is closer than ``c_d`` (equivalently: until the
        ``c_d/2``-swollen rectangles stop overlapping), and returns the
        cheapest outcome.  Returns ``rect`` unchanged when already clear.
        """
        swollen = [r.inflated(self._half_cd) for r in placed]
        mine = rect.inflated(self._half_cd)
        if not any(mine.overlaps(s) for s in swollen):
            return rect
        best_rect: Optional[Rect] = None
        best_shift = float("inf")
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            cand = mine
            total = 0.0
            for _ in range(2 * len(placed) + 1):
                hits = [s for s in swollen if cand.overlaps(s)]
                if not hits:
                    break
                if dx > 0:
                    step = max(s.x2 - cand.x for s in hits)
                elif dx < 0:
                    step = max(cand.x2 - s.x for s in hits)
                elif dy > 0:
                    step = max(s.y2 - cand.y for s in hits)
                else:
                    step = max(cand.y2 - s.y for s in hits)
                cand = cand.translated(dx * step, dy * step)
                total += step
            else:
                continue  # Still overlapping after the iteration cap.
            if any(cand.overlaps(s) for s in swollen):
                continue
            if total < best_shift:
                best_shift = total
                best_rect = cand.inflated(-self._half_cd)
        return best_rect

    # -- cost --------------------------------------------------------------------

    def _cost(self, arrangement: Arrangement) -> float:
        """HPWL over located terminals after centring, plus legality penalty."""
        self._cost_evals += 1
        return float(self._score([arrangement])[0])

    def _signal_order(self, order: Sequence[int]) -> np.ndarray:
        """Signals an arrangement of the dies ``order`` scores, summed in
        this order.

        Only signals whose die terminals are *all* packed contribute ("the
        total HPWL of all signals in F_pair"): a partially packed signal
        has no meaningful HPWL yet, and counting its fragment would bias
        the packer toward escape-point geometry instead of die-to-die
        connectivity.  They are summed by the packing rank of their first
        packed die, then by signal index — the order in which a walk over
        the packed dies' terminals first meets them.
        """
        rank = np.full(self._evaluator.die_count, len(order))
        rank[list(order)] = np.arange(len(order))
        packed = (
            np.where(self._incidence, rank, -1).max(axis=1) < len(order)
        )
        first = np.where(self._incidence, rank, len(order)).min(axis=1)
        signals = np.argsort(first, kind="stable")
        return signals[(self._scored & packed)[signals]]

    def _score(self, arrangements: Sequence[Arrangement]) -> np.ndarray:
        """Costs of candidate arrangements that share one die order.

        Each row's cost is the centred-HPWL-plus-penalty of
        :meth:`_cost`, computed for the whole batch in numpy passes
        (chunked by the evaluator's :meth:`batch_chunk_rows`).  Every
        operation repeats the scalar formula's float64 arithmetic in its
        order, so the costs are exact, not approximate.
        """
        order = [self._evaluator.die_index(d) for d in arrangements[0]]
        die_x = np.array(
            [[pos.x for pos, _ in a.values()] for a in arrangements]
        )
        die_y = np.array(
            [[pos.y for pos, _ in a.values()] for a in arrangements]
        )
        codes = np.array(
            [
                [orientation_code(o) for _, o in a.values()]
                for a in arrangements
            ],
            dtype=np.int64,
        )
        signals = self._signal_order(order)
        rows = self._evaluator.batch_chunk_rows()
        return np.concatenate(
            [
                self._score_rows(
                    order,
                    signals,
                    die_x[lo : lo + rows],
                    die_y[lo : lo + rows],
                    codes[lo : lo + rows],
                )
                for lo in range(0, len(arrangements), rows)
            ]
        )

    def _score_rows(
        self,
        order: Sequence[int],
        signals: np.ndarray,
        die_x: np.ndarray,
        die_y: np.ndarray,
        codes: np.ndarray,
    ) -> np.ndarray:
        """One chunk of :meth:`_score`: ``(B, m)`` lower-left origins and
        orientation codes of the dies ``order`` -> ``(B,)`` costs."""
        w = self._width[codes, order]
        h = self._height[codes, order]
        # Centre the arrangement's bounding box on the interposer.  The
        # box is the left-to-right ``Rect.union`` chain, which stores
        # (x, width) and so rounds differently from a plain min/max.
        bx, by, bw, bh = die_x[:, 0], die_y[:, 0], w[:, 0], h[:, 0]
        for k in range(1, len(order)):
            x2 = np.maximum(bx + bw, die_x[:, k] + w[:, k])
            y2 = np.maximum(by + bh, die_y[:, k] + h[:, k])
            bx = np.minimum(bx, die_x[:, k])
            by = np.minimum(by, die_y[:, k])
            bw = x2 - bx
            bh = y2 - by
        gx = die_x + (self._target.x - (bx + bw / 2.0))[:, None]
        gy = die_y + (self._target.y - (by + bh / 2.0))[:, None]

        # Penalty terms, rect by rect: boundary clearance below c_b.
        outline = self._outline
        clearance = np.minimum(
            np.minimum(gx - outline.x, gy - outline.y),
            np.minimum(outline.x2 - (gx + w), outline.y2 - (gy + h)),
        )
        terms = [
            np.where(
                clearance < self._c_b - 1e-9,
                _ILLEGAL_PENALTY * (1.0 + (self._c_b - clearance)),
                0.0,
            )
        ]
        # Then pair by pair: die-to-die overlap or gap below c_d.  These
        # are impossible for the attach-generated candidates but can
        # appear during the in-place orientation refinement.
        i, j = np.triu_indices(len(order), 1)
        if len(i):
            x2 = die_x + w
            y2 = die_y + h
            dx = np.maximum(
                np.maximum(die_x[:, j] - x2[:, i], die_x[:, i] - x2[:, j]), 0.0
            )
            dy = np.maximum(
                np.maximum(die_y[:, j] - y2[:, i], die_y[:, i] - y2[:, j]), 0.0
            )
            gap = np.where(
                (dx > 0.0) & (dy > 0.0), np.maximum(dx, dy), dx + dy
            )
            overlap = (
                (die_x[:, i] < x2[:, j] - 1e-9)
                & (die_x[:, j] < x2[:, i] - 1e-9)
                & (die_y[:, i] < y2[:, j] - 1e-9)
                & (die_y[:, j] < y2[:, i] - 1e-9)
            )
            terms.append(
                np.where(
                    overlap | (gap < self._c_d - 1e-9),
                    _ILLEGAL_PENALTY * (1.0 + (self._c_d - gap)),
                    0.0,
                )
            )

        # Per-signal HPWL over the located terminals (escape included).
        if len(signals):
            ev = self._evaluator
            full_x = np.zeros((len(die_x), ev.die_count))
            full_y = np.zeros((len(die_x), ev.die_count))
            full_codes = np.zeros((len(die_x), ev.die_count), dtype=np.int64)
            full_x[:, order] = gx
            full_y[:, order] = gy
            full_codes[:, order] = codes
            min_x, max_x, min_y, max_y = ev.signal_extents(
                full_x, full_y, full_codes
            )
            terms.append(
                (max_x - min_x)[:, signals] + (max_y - min_y)[:, signals]
            )
        # One left-to-right add over penalties then HPWLs.  ``np.sum``
        # would add pairwise and round differently.
        return np.add.accumulate(np.concatenate(terms, axis=1), axis=1)[:, -1]

    # -- the two stages ------------------------------------------------------------

    def run(self) -> GreedyPackingResult:
        """Run both packing stages and return ``F_ref`` (Fig. 5)."""
        with span("floorplan.greedy_packing") as sp:
            result = self._run()
        sp.annotate(cost=result.cost)
        metrics.counter("floorplan.greedy.candidates_evaluated").inc(
            self._cost_evals
        )
        logger.debug(
            "greedy packing: %d candidate arrangements evaluated, "
            "F_ref cost %.4f",
            self._cost_evals,
            result.cost,
        )
        return result

    def _run(self) -> GreedyPackingResult:
        die_ids = [d.id for d in self.design.dies]
        if len(die_ids) == 1:
            arrangement = {die_ids[0]: (Point(0.0, 0.0), Orientation.R0)}
            return self._finish(arrangement)

        # Stage 1: best pair (Fig. 5 lines 2-12), one batch per die pair.
        best_cost = float("inf")
        best_pair: Optional[Arrangement] = None
        for i, d_i in enumerate(die_ids):
            for d_j in die_ids[i + 1 :]:
                batch = []
                for r_i in ALL_ORIENTATIONS:
                    rect_i = self._rect(d_i, Point(0.0, 0.0), r_i)
                    for r_j in ALL_ORIENTATIONS:
                        for side in SIDES:
                            pos_j = self._attach_position(
                                rect_i, d_j, r_j, side
                            )
                            batch.append(
                                {
                                    d_i: (Point(0.0, 0.0), r_i),
                                    d_j: (pos_j, r_j),
                                }
                            )
                k, cost = self._cheapest(batch)
                if cost < best_cost:
                    best_cost = cost
                    best_pair = batch[k]
        assert best_pair is not None
        arrangement = dict(best_pair)

        # Stage 2: attach remaining dies one by one (Fig. 5 lines 14-24),
        # one batch per unpacked die.
        used_sides: set = set()
        while len(arrangement) < len(die_ids):
            best_cost = float("inf")
            best_step = None
            placed_rects = {
                d: self._rect(d, pos, o)
                for d, (pos, o) in arrangement.items()
            }
            placed = list(placed_rects.values())
            boundaries = self._available_boundaries(arrangement, used_sides)
            for d in die_ids:
                if d in arrangement:
                    continue
                batch = []
                contacts = []
                for orient in ALL_ORIENTATIONS:
                    for anchor, side in boundaries:
                        for align in ("center", "low", "high"):
                            pos = self._attach_position(
                                placed_rects[anchor], d, orient, side, align
                            )
                            rect = self._rect(d, pos, orient)
                            resolved = self._resolve_overlap(rect, placed)
                            if resolved is None:
                                continue
                            candidate = dict(arrangement)
                            candidate[d] = (
                                Point(resolved.x, resolved.y),
                                orient,
                            )
                            batch.append(candidate)
                            contacts.append((anchor, side))
                if not batch:
                    continue
                k, cost = self._cheapest(batch)
                if cost < best_cost:
                    best_cost = cost
                    best_step = (d, batch[k]) + contacts[k]
            if best_step is None:
                raise RuntimeError(
                    "greedy packing could not attach a die without overlap"
                )
            d, arrangement, anchor, side = best_step
            used_sides.add((anchor, side))
            used_sides.add((d, _OPPOSITE[side]))
        arrangement = self._refine_orientations(arrangement)
        return self._finish(arrangement)

    def _cheapest(self, batch: List[Arrangement]) -> Tuple[int, float]:
        """Score a batch; return the first cheapest row and its cost."""
        self._cost_evals += len(batch)
        costs = self._score(batch)
        k = int(np.argmin(costs))
        return k, float(costs[k])

    def _refine_orientations(self, arrangement: Arrangement) -> Arrangement:
        """Coordinate-descent polish of the per-die orientations.

        The greedy attach order can lock in early orientation choices that
        look poor once all dies are placed; since the whole point of
        ``F_ref`` is its orientation *vector* (EFA_dop re-derives the
        positions anyway), rotate each die in place about its centre and
        keep any strictly improving orientation, sweeping until stable.

        All four rotations of a die are scored in one batch, then the
        orientations are visited in order: one equal to the die's current
        orientation is skipped (and not counted as evaluated), and an
        improving one is kept and becomes the current orientation.
        """
        current = dict(arrangement)
        cost = self._cost(current)
        for _ in range(3):
            improved = False
            for die_id in sorted(current):
                pos, orient = current[die_id]
                centre = self._rect(die_id, pos, orient).center
                die = self.design.die(die_id)
                trials = []
                for candidate in ALL_ORIENTATIONS:
                    w, h = candidate.rotated_dims(die.width, die.height)
                    trial = dict(current)
                    trial[die_id] = (
                        Point(centre.x - w / 2.0, centre.y - h / 2.0),
                        candidate,
                    )
                    trials.append(trial)
                costs = self._score(trials)
                for candidate, trial, trial_cost in zip(
                    ALL_ORIENTATIONS, trials, costs
                ):
                    if candidate is orient:
                        continue
                    self._cost_evals += 1
                    if trial_cost < cost - 1e-12:
                        current = trial
                        cost = float(trial_cost)
                        orient = candidate
                        improved = True
            if not improved:
                break
        return current

    def _available_boundaries(self, arrangement, used_sides):
        """(die, side) pairs of ``F_ref`` not yet used as contact boundaries."""
        out = []
        for d in arrangement:
            for side in SIDES:
                if (d, side) not in used_sides:
                    out.append((d, side))
        return out

    def _finish(self, arrangement: Arrangement) -> GreedyPackingResult:
        """Centre the final arrangement and wrap it as a Floorplan."""
        rects = {
            d: self._rect(d, pos, o) for d, (pos, o) in arrangement.items()
        }
        box = None
        for r in rects.values():
            box = r if box is None else box.union(r)
        target = self.design.interposer.center
        dx = target.x - box.center.x
        dy = target.y - box.center.y
        placements = {
            d: Placement(pos.translated(dx, dy), o)
            for d, (pos, o) in arrangement.items()
        }
        floorplan = Floorplan(self.design, placements)
        orientations = {d: o for d, (pos, o) in arrangement.items()}
        return GreedyPackingResult(
            floorplan, orientations, self._cost(arrangement)
        )


def predetermine_orientations(design: Design) -> GreedyPackingResult:
    """Run the greedy packer; convenience entry used by EFA_dop."""
    return GreedyPacker(design).run()
