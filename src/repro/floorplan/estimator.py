"""Wirelength estimators used inside the floorplanning search.

The paper's EFA calls ``estWL`` once per enumerated floorplan, so this is
the hottest code in the floorplanning stage.  Two estimators are provided:

* :class:`FastHpwlEvaluator` — the paper's production choice: total
  per-signal HPWL.  Vectorized with numpy: per-die, per-orientation local
  terminal coordinates are precomputed once, so evaluating one candidate
  floorplan is a handful of array operations regardless of signal count.
* :func:`greedy_assignment_est_wl` — the paper's discarded alternative
  (Section 3): run the greedy signal assignment and score Eq. 1 exactly.
  More accurate, far too slow to call ``n!^2 * 4^n`` times; kept for the
  estimator-accuracy ablation bench.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..geometry import ALL_ORIENTATIONS, Orientation
from ..model import Design, Floorplan, Placement

_ORIENT_CODE = {o: i for i, o in enumerate(ALL_ORIENTATIONS)}
_CODE_ORIENT = {i: o for o, i in _ORIENT_CODE.items()}

#: Per-chunk scratch budget (bytes) for batched evaluation.  The sweep
#: working set is sized from the actual row width and dtype (see
#: :meth:`FastHpwlEvaluator.batch_chunk_rows`) instead of a fixed element
#: count, so designs with more signals get proportionally fewer rows per
#: chunk.
DEFAULT_BATCH_CHUNK_BYTES = 8 << 20


def orientation_code(orientation: Orientation) -> int:
    """Stable 0..3 code (R0, R90, R180, R270) used by the fast evaluator."""
    return _ORIENT_CODE[orientation]


def orientation_from_code(code: int) -> Orientation:
    """Inverse of :func:`orientation_code`."""
    return _CODE_ORIENT[code]


class FastHpwlEvaluator:
    """Vectorized total-HPWL estimator over a design's signals.

    Die positions are passed as arrays indexed by the design's die order
    (``design.dies``); orientations as 0..3 codes.  Escape-point terminals
    are folded into precomputed per-signal fixed extrema, so only die-borne
    terminals are touched per evaluation.

    Every evaluation runs on one die-major block layout.  A *block* is a
    ``(4, S)`` table per axis of local terminal offsets, one row per
    orientation code and one column per signal, holding NaN where the
    signal has no terminal in the block.  Each die with terminals owns one
    block, plus one more for every extra terminal one signal has on it,
    so a validated design (at most one buffer per die per signal) has one
    block per die.  A floorplan's block coordinates are the table row of
    its die's orientation code plus the die's origin, and NaN-skipping
    ``fmin``/``fmax`` fold them into the per-signal extrema.
    """

    def __init__(self, design: Design):
        self.design = design
        self.die_ids: List[str] = [d.id for d in design.dies]
        self._die_index: Dict[str, int] = {
            die_id: i for i, die_id in enumerate(self.die_ids)
        }

        t_die: List[int] = []
        t_signal: List[int] = []
        t_rank: List[int] = []  # earlier terminals of its signal on its die
        local_x: List[List[float]] = []  # per terminal, per orientation code
        local_y: List[List[float]] = []
        fixed_min_x: List[float] = []
        fixed_max_x: List[float] = []
        fixed_min_y: List[float] = []
        fixed_max_y: List[float] = []

        inf = float("inf")
        for s, signal in enumerate(design.signals):
            on_die: Dict[int, int] = {}
            for buffer_id in signal.buffer_ids:
                die_id = design.die_of_buffer(buffer_id)
                die = design.die(die_id)
                pos = die.buffer(buffer_id).position
                d = self._die_index[die_id]
                t_die.append(d)
                t_signal.append(s)
                t_rank.append(on_die.get(d, 0))
                on_die[d] = t_rank[-1] + 1
                located = [
                    o.apply(pos, die.width, die.height)
                    for o in ALL_ORIENTATIONS
                ]
                local_x.append([p.x for p in located])
                local_y.append([p.y for p in located])
            if signal.escape_id is not None:
                e = design.escape(signal.escape_id).position
                fixed_min_x.append(e.x)
                fixed_max_x.append(e.x)
                fixed_min_y.append(e.y)
                fixed_max_y.append(e.y)
            else:
                fixed_min_x.append(inf)
                fixed_max_x.append(-inf)
                fixed_min_y.append(inf)
                fixed_max_y.append(-inf)

        # Die and signal index of each terminal (die -> incident-signal
        # queries for the greedy packer and the incremental evaluator).
        self._t_die = np.asarray(t_die, dtype=np.int64)
        self._t_signal = np.asarray(t_signal, dtype=np.int64)
        self._fixed = np.array(
            [fixed_min_x, fixed_max_x, fixed_min_y, fixed_max_y],
            dtype=np.float64,
        )
        (
            self._fixed_min_x,
            self._fixed_max_x,
            self._fixed_min_y,
            self._fixed_max_y,
        ) = self._fixed
        signals = self._signal_count = len(design.signals)

        # Blocks in die order: die d owns blocks [start[d], start[d + 1]),
        # one per terminal rank of a signal on it.
        rank = np.asarray(t_rank, dtype=np.int64)
        per_die = np.zeros(len(self.die_ids), dtype=np.int64)
        np.maximum.at(per_die, self._t_die, rank + 1)
        start = np.cumsum(per_die) - per_die
        self._block_die = np.repeat(
            np.arange(len(self.die_ids), dtype=np.int64), per_die
        )
        blocks = self._block_die.size
        t_block = start[self._t_die] + rank
        self._block_x = np.full((blocks, 4, signals), np.nan)
        self._block_y = np.full((blocks, 4, signals), np.nan)
        self._block_x[t_block, :, self._t_signal] = np.reshape(
            local_x, (-1, 4)
        )
        self._block_y[t_block, :, self._t_signal] = np.reshape(
            local_y, (-1, 4)
        )
        self._blocks = [
            (int(d), self._block_x[k], self._block_y[k])
            for k, d in enumerate(self._block_die)
        ]
        # Per-block local-coordinate extrema over ALL four orientations
        # (NaN where absent), used by the Eq. 2 lower bounds (inferior
        # branch cutting).  Any candidate orientation keeps each
        # terminal's local offset inside these intervals, which is what
        # makes the bound a certified lower bound rather than the paper's
        # heuristic form.
        self._block_all_x = (
            self._block_x.min(axis=1),
            self._block_x.max(axis=1),
        )
        self._block_all_y = (
            self._block_y.min(axis=1),
            self._block_y.max(axis=1),
        )

    def batch_row_bytes(self) -> int:
        """Live scratch bytes one ``hpwl_batch`` row costs, the unit
        :meth:`batch_chunk_rows` divides the chunk budget by: the four
        ``(B, S)`` float64 extrema plus two gathered block rows (one being
        folded in while the next is gathered)."""
        return 8 * 6 * max(1, self._signal_count)

    def batch_chunk_rows(self) -> int:
        """Rows per ``hpwl_batch`` chunk that keep the live scratch inside
        :data:`DEFAULT_BATCH_CHUNK_BYTES`, derived from the actual row
        width and element size rather than a fixed element count."""
        return max(1, DEFAULT_BATCH_CHUNK_BYTES // self.batch_row_bytes())

    # -- evaluation ---------------------------------------------------------

    @property
    def die_count(self) -> int:
        """Number of dies in the design."""
        return len(self.die_ids)

    @property
    def signal_count(self) -> int:
        """Number of signals (nets) in the design."""
        return self._signal_count

    def die_index(self, die_id: str) -> int:
        """Array index of a die id."""
        return self._die_index[die_id]

    def hpwl(
        self,
        die_x: np.ndarray,
        die_y: np.ndarray,
        orient_codes: np.ndarray,
    ) -> float:
        """Total per-signal HPWL for dies at ``(die_x, die_y)`` (lower-left,
        global) with orientations ``orient_codes`` (0..3 per die): the
        one-row case of :meth:`hpwl_batch`."""
        return float(
            self.hpwl_batch(
                np.reshape(die_x, (1, -1)),
                np.reshape(die_y, (1, -1)),
                np.reshape(orient_codes, (1, -1)),
            )[0]
        )

    def hpwl_batch(
        self,
        die_x: np.ndarray,
        die_y: np.ndarray,
        orient_codes: np.ndarray,
    ) -> np.ndarray:
        """Total HPWL of ``B`` candidate floorplans in one numpy pass.

        ``die_x`` / ``die_y`` are ``(B, n)`` global lower-left die origins
        and ``orient_codes`` a ``(B, n)`` 0..3 code matrix; returns the
        length-``B`` vector of totals: per row, the x and then the y spans
        of :meth:`signal_extents`, each summed in signal order.

        Memory: the pass materializes a few ``(B, S)`` rows, so callers
        should chunk ``B`` via :meth:`batch_chunk_rows`, which sizes the
        chunk from the actual row width and element size.
        """
        min_x, max_x, min_y, max_y = self.signal_extents(
            die_x, die_y, orient_codes
        )
        # ``np.add.reduce`` is what ``np.sum`` runs, minus the wrapper
        # layers that dominate the one-row case.
        add = np.add.reduce
        return add(max_x - min_x, axis=1) + add(max_y - min_y, axis=1)

    def signal_extents(
        self,
        die_x: np.ndarray,
        die_y: np.ndarray,
        orient_codes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-signal terminal extents of ``B`` candidate floorplans.

        Takes the same ``(B, n)`` inputs as :meth:`hpwl_batch` and returns
        ``(min_x, max_x, min_y, max_y)``, each ``(B, S)``: the exact
        min/max over each signal's die terminals (``die origin + local
        offset``) and its escape point.  An escape-only signal spans its
        escape point alone.  ``hpwl_batch`` sums these; the greedy
        packer's cost reads them per signal.

        The extrema start at the escape points.  Each block then gathers
        its table rows by its die's orientation codes, adds the die's
        origin column and folds in with ``fmin``/``fmax``, which skip the
        NaN of signals without a terminal in the block.
        """
        die_x = np.asarray(die_x, dtype=np.float64)
        die_y = np.asarray(die_y, dtype=np.float64)
        codes = np.asarray(orient_codes, dtype=np.int64)
        extents = np.repeat(self._fixed[:, None, :], die_x.shape[0], axis=1)
        min_x, max_x, min_y, max_y = extents
        for d, table_x, table_y in self._blocks:
            code = codes[:, d]
            coords = table_x.take(code, axis=0)
            coords += die_x[:, d, None]
            np.fmin(min_x, coords, out=min_x)
            np.fmax(max_x, coords, out=max_x)
            coords = table_y.take(code, axis=0)
            coords += die_y[:, d, None]
            np.fmin(min_y, coords, out=min_y)
            np.fmax(max_y, coords, out=max_y)
        return min_x, max_x, min_y, max_y

    def hpwl_of_floorplan(self, floorplan: Floorplan) -> float:
        """Convenience wrapper evaluating a :class:`Floorplan` object."""
        die_x = np.empty(self.die_count)
        die_y = np.empty(self.die_count)
        codes = np.empty(self.die_count, dtype=np.int64)
        for i, die_id in enumerate(self.die_ids):
            pl = floorplan.placement(die_id)
            die_x[i] = pl.position.x
            die_y[i] = pl.position.y
            codes[i] = _ORIENT_CODE[pl.orientation]
        return self.hpwl(die_x, die_y, codes)

    # -- Eq. 2 lower bounds ----------------------------------------------------

    def lower_bound_vertical(
        self,
        die_y_min: np.ndarray,
        die_y_max: np.ndarray,
        off_lo: float,
        off_hi: float,
    ) -> float:
        """``LY_min``: certified minimum vertical wirelength (Eq. 2 form).

        ``die_y_min[i]`` / ``die_y_max[i]`` bound die ``i``'s *uncentred*
        packing y-origin over every orientation combination of the current
        sequence pair; ``[off_lo, off_hi]`` brackets the centring offset a
        legal candidate can receive.  A signal's span is invariant under
        the common offset of its die terminals, so the offset interval is
        applied (negated) to the escape point instead of widening every
        die-terminal interval.  Combined with the all-orientation
        local-offset extrema this makes ``l_v(s) = max(ceiling - floor,
        0)`` a true lower bound on the signal's vertical span — pruning on
        it can never discard a candidate that would win or tie.
        """
        return self._lower_bound(
            die_y_min,
            die_y_max,
            self._block_all_y,
            self._fixed_min_y,
            self._fixed_max_y,
            off_lo,
            off_hi,
        )

    def lower_bound_horizontal(
        self,
        die_x_min: np.ndarray,
        die_x_max: np.ndarray,
        off_lo: float,
        off_hi: float,
    ) -> float:
        """``LX_min``: certified minimum horizontal wirelength (Eq. 2 form)."""
        return self._lower_bound(
            die_x_min,
            die_x_max,
            self._block_all_x,
            self._fixed_min_x,
            self._fixed_max_x,
            off_lo,
            off_hi,
        )

    def _lower_bound(
        self,
        die_min: np.ndarray,
        die_max: np.ndarray,
        block_all: Tuple[np.ndarray, np.ndarray],
        fixed_min: np.ndarray,
        fixed_max: np.ndarray,
        off_lo: float,
        off_hi: float,
    ) -> float:
        """One axis of the Eq. 2 bound over the block tables."""
        all_min, all_max = block_all
        dies = self._block_die[:, None]
        # A signal's floor is the min of its terminals' highest potential
        # positions and its ceiling the max of their lowest ones.  Blocks
        # without the signal hold NaN, which fmin/fmax skip; a signal in
        # no block reduces to the identities +inf / -inf.
        floor = np.fmin.reduce(
            die_max[dies] + all_max, axis=0, initial=np.inf
        )
        ceiling = np.fmax.reduce(
            die_min[dies] + all_min, axis=0, initial=-np.inf
        )
        # An escape point has one potential location ``e - off``: it
        # enters the ceiling (a max) with its minimum ``e - off_hi`` and
        # the floor (a min) with its maximum ``e - off_lo``.  The sentinel
        # for signals without an escape must be -inf for the max and +inf
        # for the min, hence fixed_max/fixed_min respectively.  An
        # escape-only signal keeps only its escape term: its ceiling -
        # floor is off_lo - off_hi <= 0, clamped to zero.
        ceiling = np.maximum(ceiling, fixed_max - off_hi)
        floor = np.minimum(floor, fixed_min - off_lo)
        return float(np.sum(np.maximum(ceiling - floor, 0.0)))


def greedy_assignment_est_wl(design: Design, floorplan: Floorplan) -> float:
    """Exact Eq. 1 TWL after a greedy signal assignment (slow estimator).

    This is the alternative ``estWL`` the paper implemented and rejected for
    being too slow inside EFA's enumeration; it remains useful as the
    accuracy reference in the estimator ablation.
    """
    from ..assign import GreedyAssigner
    from ..eval import total_wirelength

    assignment = GreedyAssigner().assign(design, floorplan)
    return total_wirelength(design, floorplan, assignment).total


def placements_from_arrays(
    design: Design,
    die_ids: Sequence[str],
    die_x: Sequence[float],
    die_y: Sequence[float],
    orientations: Sequence[Orientation],
) -> Dict[str, Placement]:
    """Assemble a placement dict from parallel arrays."""
    from ..geometry import Point

    return {
        die_id: Placement(Point(float(x), float(y)), o)
        for die_id, x, y, o in zip(die_ids, die_x, die_y, orientations)
    }
