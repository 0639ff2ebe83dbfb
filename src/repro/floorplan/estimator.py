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
#: count, so designs with wide slot rows get proportionally fewer rows
#: per chunk and stay cache-resident.
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

    Every evaluation runs on one padded, signal-major slot layout: signal
    ``s`` owns slots ``[s * L, (s + 1) * L)``, ``L`` being the largest
    die-terminal count of any signal, and a signal with fewer terminals
    repeats its first one.  ``min`` and ``max`` are exact over repeated
    values, so a slot row reduces to exactly its signal's extrema.  A
    validated design has at most one buffer per die per signal, so
    ``L <= n``.
    """

    def __init__(self, design: Design):
        self.design = design
        self.die_ids: List[str] = [d.id for d in design.dies]
        self._die_index: Dict[str, int] = {
            die_id: i for i, die_id in enumerate(self.die_ids)
        }

        t_die: List[int] = []
        t_signal: List[int] = []
        local_x = [[], [], [], []]  # per orientation code
        local_y = [[], [], [], []]
        fixed_min_x: List[float] = []
        fixed_max_x: List[float] = []
        fixed_min_y: List[float] = []
        fixed_max_y: List[float] = []

        inf = float("inf")
        for s, signal in enumerate(design.signals):
            for buffer_id in signal.buffer_ids:
                die_id = design.die_of_buffer(buffer_id)
                die = design.die(die_id)
                pos = die.buffer(buffer_id).position
                t_die.append(self._die_index[die_id])
                t_signal.append(s)
                for o in ALL_ORIENTATIONS:
                    p = o.apply(pos, die.width, die.height)
                    local_x[_ORIENT_CODE[o]].append(p.x)
                    local_y[_ORIENT_CODE[o]].append(p.y)
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
        self._fixed_min_x = np.asarray(fixed_min_x, dtype=np.float64)
        self._fixed_max_x = np.asarray(fixed_max_x, dtype=np.float64)
        self._fixed_min_y = np.asarray(fixed_min_y, dtype=np.float64)
        self._fixed_max_y = np.asarray(fixed_max_y, dtype=np.float64)
        self._signal_count = len(design.signals)
        counts = np.bincount(self._t_signal, minlength=self._signal_count)
        # Escape-only signals: no die terminal, so their slots point at
        # terminal 0 and reduce to the min/max identities instead.
        self._empty_cols = np.flatnonzero(counts == 0)

        length = int(counts.max(initial=0))
        width = self._signal_count * length
        self._slot_len = length
        self._slot_width = width
        starts = np.cumsum(counts) - counts
        slot_term = np.repeat(np.where(counts > 0, starts, 0), length)
        terms = np.arange(len(t_die))
        slot_term[
            self._t_signal * length + terms - starts[self._t_signal]
        ] = terms
        self._slot_t_die = self._t_die[slot_term]
        self._slot_range = np.arange(width, dtype=np.int64)
        # (4, SL) per-code local coordinates, flattened so one integer
        # gather ``code * SL + slot`` feeds ``np.take`` with an ``out=``.
        slot_x = np.asarray(local_x, dtype=np.float64)[:, slot_term]
        slot_y = np.asarray(local_y, dtype=np.float64)[:, slot_term]
        self._slot_local_x = slot_x.reshape(-1)
        self._slot_local_y = slot_y.reshape(-1)
        # Per-slot local-coordinate extrema over ALL four orientations,
        # used by the Eq. 2 lower bounds (inferior branch cutting).  Any
        # candidate orientation keeps each terminal's local offset inside
        # these intervals, which is what makes the bound a certified
        # lower bound rather than the paper's heuristic form.
        self._slot_all_x = (slot_x.min(axis=0), slot_x.max(axis=0))
        self._slot_all_y = (slot_y.min(axis=0), slot_y.max(axis=0))
        self._slot_scratch_rows = 0

    def _slot_buffers(self, batch: int):
        """Preallocated slotted-kernel scratch, grown to the largest batch
        seen and sliced per call, so chunked sweeps never re-allocate."""
        if batch > self._slot_scratch_rows:
            width = self._slot_width
            self._slot_i1 = np.empty((batch, width), dtype=np.int64)
            self._slot_f1 = np.empty((batch, width))
            self._slot_f2 = np.empty((batch, width))
            self._slot_red = np.empty((4, batch, self._signal_count))
            self._slot_scratch_rows = batch
        return (
            self._slot_i1[:batch],
            self._slot_f1[:batch],
            self._slot_f2[:batch],
            self._slot_red[:, :batch],
        )

    def batch_row_bytes(self) -> int:
        """Live scratch bytes one ``hpwl_batch`` row costs (actual dtype
        and row width), the unit :meth:`batch_chunk_rows` divides the
        chunk budget by: one int64 and two float64 ``(B, SL)`` arrays plus
        four ``(B, S)`` reduction rows."""
        return 8 * (3 * max(1, self._slot_width) + 4 * self._signal_count)

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

        Memory: the pass materializes a few ``(B, SL)`` intermediates, so
        callers should chunk ``B`` via :meth:`batch_chunk_rows`, which
        sizes the chunk from the actual row width and element size.
        """
        die_x = np.asarray(die_x, dtype=np.float64)
        batch = die_x.shape[0]
        # An empty batch scores nothing; with no die terminal at all,
        # every span is a single point.
        if batch == 0 or not self._slot_len:
            return np.zeros(batch)
        min_x, max_x, min_y, max_y = self.signal_extents(
            die_x, die_y, orient_codes
        )
        return np.sum(max_x - min_x, axis=1) + np.sum(max_y - min_y, axis=1)

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
        packer's cost reads them per signal.  The design must have at
        least one die terminal.

        One integer gather builds flat local-table indices, ``np.take``
        fills preallocated scratch, and x/y reuse the same buffers.
        """
        die_x = np.asarray(die_x, dtype=np.float64)
        die_y = np.asarray(die_y, dtype=np.float64)
        codes = np.asarray(orient_codes, dtype=np.int64)
        i1, f1, f2, red = self._slot_buffers(die_x.shape[0])
        rminx, rmaxx, rminy, rmaxy = red
        np.take(codes, self._slot_t_die, axis=1, out=i1)
        i1 *= self._slot_width
        i1 += self._slot_range
        np.take(self._slot_local_x, i1, out=f1)
        np.take(die_x, self._slot_t_die, axis=1, out=f2)
        f1 += f2
        self._reduce_slots(f1, f1, rminx, rmaxx)
        np.take(self._slot_local_y, i1, out=f1)
        np.take(die_y, self._slot_t_die, axis=1, out=f2)
        f1 += f2
        self._reduce_slots(f1, f1, rminy, rmaxy)
        return (
            np.minimum(rminx, self._fixed_min_x),
            np.maximum(rmaxx, self._fixed_max_x),
            np.minimum(rminy, self._fixed_min_y),
            np.maximum(rmaxy, self._fixed_max_y),
        )

    def _reduce_slots(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        red_min: np.ndarray,
        red_max: np.ndarray,
    ) -> None:
        """Per-signal min of ``lo`` into ``red_min`` and max of ``hi`` into
        ``red_max``, for slotted ``(..., SL)`` arrays, via strided column
        passes over their ``(..., S, L)`` views (numpy's small-last-axis
        reductions are far slower).  Escape-only signals come out as the
        identities ``+inf`` / ``-inf``, so their escape extrema decide."""
        shape = lo.shape[:-1] + (self._signal_count, self._slot_len)
        lo = lo.reshape(shape)
        hi = hi.reshape(shape)
        np.copyto(red_min, lo[..., 0])
        np.copyto(red_max, hi[..., 0])
        for j in range(1, self._slot_len):
            np.minimum(red_min, lo[..., j], out=red_min)
            np.maximum(red_max, hi[..., j], out=red_max)
        if self._empty_cols.size:
            red_min[..., self._empty_cols] = np.inf
            red_max[..., self._empty_cols] = -np.inf

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
            self._slot_all_y,
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
            self._slot_all_x,
            self._fixed_min_x,
            self._fixed_max_x,
            off_lo,
            off_hi,
        )

    def _lower_bound(
        self,
        die_min: np.ndarray,
        die_max: np.ndarray,
        slot_all: Tuple[np.ndarray, np.ndarray],
        fixed_min: np.ndarray,
        fixed_max: np.ndarray,
        off_lo: float,
        off_hi: float,
    ) -> float:
        """One axis of the Eq. 2 bound over the slot tables."""
        if not self._slot_len:
            return 0.0
        all_min, all_max = slot_all
        dies = self._slot_t_die
        floor, ceiling = np.empty((2, self._signal_count))
        # A signal's floor is the min of its terminals' highest potential
        # positions and its ceiling the max of their lowest ones.
        self._reduce_slots(
            die_max[dies] + all_max, die_min[dies] + all_min, floor, ceiling
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
