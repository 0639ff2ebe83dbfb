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

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import ALL_ORIENTATIONS, Orientation
from ..model import Design, Floorplan, Placement

_ORIENT_CODE = {o: i for i, o in enumerate(ALL_ORIENTATIONS)}
_CODE_ORIENT = {i: o for o, i in _ORIENT_CODE.items()}

#: Default per-chunk scratch budget (bytes) for batched evaluation.  The
#: sweep working set is sized from the actual row width and dtype (see
#: :meth:`FastHpwlEvaluator.batch_chunk_rows`) instead of a fixed element
#: count, so designs with wide terminal rows get proportionally fewer rows
#: per chunk and stay cache-resident.
DEFAULT_BATCH_CHUNK_BYTES = 8 << 20

#: Padded-slot tables replicate each signal's row out to the longest
#: signal's terminal count.  They are only built (and the strided kernel
#: only used) while that replication stays within this factor of the real
#: terminal count; beyond it the segmented ``reduceat`` path wins.
_SLOT_WIDTH_RATIO_CAP = 4.0


def batch_chunk_bytes() -> int:
    """Per-chunk scratch budget for batched sweeps, in bytes.

    Overridable via ``REPRO_BATCH_CHUNK_BYTES`` so the perf harness can
    sweep the chunk size; values below one row are clamped up to one row
    by :meth:`FastHpwlEvaluator.batch_chunk_rows`.
    """
    raw = os.environ.get("REPRO_BATCH_CHUNK_BYTES", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_BATCH_CHUNK_BYTES must be an integer, got {raw!r}"
            ) from None
        if value > 0:
            return value
    return DEFAULT_BATCH_CHUNK_BYTES


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
    """

    def __init__(self, design: Design):
        self.design = design
        self.die_ids: List[str] = [d.id for d in design.dies]
        self._die_index: Dict[str, int] = {
            die_id: i for i, die_id in enumerate(self.die_ids)
        }

        t_die: List[int] = []
        local_x = [[], [], [], []]  # per orientation code
        local_y = [[], [], [], []]
        signal_starts: List[int] = []
        fixed_min_x: List[float] = []
        fixed_max_x: List[float] = []
        fixed_min_y: List[float] = []
        fixed_max_y: List[float] = []

        inf = float("inf")
        for signal in design.signals:
            signal_starts.append(len(t_die))
            for buffer_id in signal.buffer_ids:
                die_id = design.die_of_buffer(buffer_id)
                die = design.die(die_id)
                pos = die.buffer(buffer_id).position
                t_die.append(self._die_index[die_id])
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

        self._t_die = np.asarray(t_die, dtype=np.int64)
        # Shape (4, num_terminals): row o = local coords under orientation o.
        self._local_x = np.asarray(local_x, dtype=np.float64)
        self._local_y = np.asarray(local_y, dtype=np.float64)
        self._starts = np.asarray(signal_starts, dtype=np.int64)
        # Signals with zero die-borne terminals (escape-only signals)
        # produce empty ``reduceat`` segments, which numpy does not treat
        # as identity reductions: an empty mid-array segment silently
        # *borrows* the next signal's first terminal, and a trailing
        # empty segment (start == terminal_count) raises IndexError.  The
        # evaluators therefore reduce over a one-element-padded array
        # with a sentinel start appended (so every index stays in range
        # and the last real segment keeps its proper end), then overwrite
        # the empty segments with the reduction identity via this mask.
        seg_counts = np.diff(
            np.append(self._starts, len(t_die))
        )
        self._empty_signal = seg_counts == 0
        self._has_empty_signal = bool(self._empty_signal.any())
        self._starts_padded = np.append(self._starts, len(t_die))
        self._fixed_min_x = np.asarray(fixed_min_x, dtype=np.float64)
        self._fixed_max_x = np.asarray(fixed_max_x, dtype=np.float64)
        self._fixed_min_y = np.asarray(fixed_min_y, dtype=np.float64)
        self._fixed_max_y = np.asarray(fixed_max_y, dtype=np.float64)
        self._terminal_count = len(t_die)
        self._terminal_range = np.arange(self._terminal_count)
        # Flattened-batch reduceat offsets, cached per batch size (see
        # hpwl_batch); bounded — chunked sweeps use at most two sizes.
        self._batch_starts: Dict[Tuple[int, int], np.ndarray] = {}
        # Signal index of each terminal (die -> incident-signal queries,
        # used by the incremental evaluator's dirty-set derivation).
        self._t_signal = np.repeat(
            np.arange(len(self._starts), dtype=np.int64), seg_counts
        )
        self._build_slot_tables(seg_counts)

        # Static per-terminal local-coordinate extrema over ALL four
        # orientations, used by the Eq. 2 lower bounds (inferior branch
        # cutting).  Any candidate orientation keeps each terminal's local
        # offset inside these intervals, which is what makes the bound a
        # certified lower bound rather than the paper's heuristic form.
        if self._terminal_count:
            self._all_min_x = np.min(self._local_x, axis=0)
            self._all_max_x = np.max(self._local_x, axis=0)
            self._all_min_y = np.min(self._local_y, axis=0)
            self._all_max_y = np.max(self._local_y, axis=0)
        else:
            empty = np.empty(0)
            self._all_min_x = self._all_max_x = empty
            self._all_min_y = self._all_max_y = empty

    def _build_slot_tables(self, seg_counts: np.ndarray) -> None:
        """Padded-slot layout: each signal gets ``L`` slots (``L`` = longest
        signal), short signals repeating their first terminal as padding.

        ``min`` and ``max`` are idempotent over repeated values, so reducing
        a padded slot row is bit-identical to reducing the signal's real
        terminals — and both reductions can share one gathered coordinate
        array.  Reductions then run as ``L - 1`` strided column ``np.minimum``
        / ``np.maximum`` passes over a ``(B, S, L)`` view, which sidesteps
        ``reduceat``'s per-segment overhead (the batched kernel's former
        bottleneck: ``B * S`` segments of mean length ~2).  Escape-only
        signals have no first terminal; their slots point at terminal 0 and
        the reduced garbage is overwritten via the empty-signal mask.
        """
        signal_count = len(self._starts)
        self._slot_len = int(seg_counts.max()) if signal_count else 0
        self._slot_width = signal_count * self._slot_len
        self._use_slots = (
            self._terminal_count > 0
            and self._slot_width
            <= _SLOT_WIDTH_RATIO_CAP * self._terminal_count
        )
        if not self._use_slots:
            self._slot_term = None
            self._slot_t_die = None
            self._slot_range = None
            self._slot_local_x = None
            self._slot_local_y = None
            self._slot_scratch_rows = 0
            return
        first_term = np.where(seg_counts > 0, self._starts, 0)
        slot_term = np.repeat(first_term, self._slot_len)
        within = self._terminal_range - self._starts[self._t_signal]
        slot_term[self._t_signal * self._slot_len + within] = (
            self._terminal_range
        )
        self._slot_term = slot_term
        self._slot_t_die = self._t_die[slot_term]
        self._slot_range = np.arange(self._slot_width, dtype=np.int64)
        # Flat (4 * SL,) per-code local tables indexed ``code * SL + slot``
        # so one integer gather feeds ``np.take`` with an ``out=`` buffer.
        self._slot_local_x = np.ascontiguousarray(
            self._local_x[:, slot_term]
        ).reshape(-1)
        self._slot_local_y = np.ascontiguousarray(
            self._local_y[:, slot_term]
        ).reshape(-1)
        self._slot_scratch_rows = 0

    def _slot_buffers(self, batch: int):
        """Preallocated slotted-kernel scratch, grown to the largest batch
        seen and sliced per call, so chunked sweeps never re-allocate."""
        if batch > self._slot_scratch_rows:
            width = self._slot_width
            signals = len(self._starts)
            self._slot_i1 = np.empty((batch, width), dtype=np.int64)
            self._slot_f1 = np.empty((batch, width))
            self._slot_f2 = np.empty((batch, width))
            self._slot_red = np.empty((4, batch, signals))
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
        chunk budget by."""
        signals = len(self._starts)
        if self._use_slots:
            # Live: one int64 + two float64 (B, SL) arrays + four (B, S)
            # reduction rows.
            return 8 * (3 * self._slot_width + 4 * signals)
        # Live: tx/ty (B, T) gathers + gathered codes + (B, S) rows.
        return 8 * (3 * max(1, self._terminal_count) + 4 * signals)

    def batch_chunk_rows(self) -> int:
        """Rows per ``hpwl_batch`` chunk that keep the live scratch inside
        :func:`batch_chunk_bytes`, derived from the actual row width and
        element size rather than a fixed element count."""
        return max(1, batch_chunk_bytes() // self.batch_row_bytes())

    # -- evaluation ---------------------------------------------------------

    @property
    def die_count(self) -> int:
        """Number of dies in the design."""
        return len(self.die_ids)

    @property
    def signal_count(self) -> int:
        """Number of signals (nets) in the design."""
        return len(self._starts)

    @property
    def supports_incremental(self) -> bool:
        """Whether the slot tables backing delta evaluation exist (see
        :mod:`repro.floorplan.incremental`)."""
        return self._use_slots

    def die_index(self, die_id: str) -> int:
        """Array index of a die id."""
        return self._die_index[die_id]

    def _reduce_signals(self, values: np.ndarray, ufunc, identity: float):
        """Per-signal ``ufunc`` reduction, correct for empty segments.

        Reduces over a one-element-padded copy with a sentinel start
        appended: the pad keeps every ``reduceat`` index in range (a
        trailing empty segment points exactly at it) and the sentinel
        start caps the last real segment at ``terminal_count``, so no
        non-empty segment's value changes.  Empty segments still come out
        as borrowed garbage — numpy's documented behaviour — and are
        overwritten with the reduction identity.
        """
        padded = np.append(values, 0.0)
        reduced = ufunc.reduceat(padded, self._starts_padded)[:-1]
        return np.where(self._empty_signal, identity, reduced)

    def hpwl(
        self,
        die_x: np.ndarray,
        die_y: np.ndarray,
        orient_codes: np.ndarray,
    ) -> float:
        """Total per-signal HPWL for dies at ``(die_x, die_y)`` (lower-left,
        global) with orientations ``orient_codes`` (0..3 per die)."""
        if self._terminal_count == 0:
            return 0.0
        codes = orient_codes[self._t_die]
        tx = die_x[self._t_die] + self._local_x[codes, self._terminal_range]
        ty = die_y[self._t_die] + self._local_y[codes, self._terminal_range]
        if self._has_empty_signal:
            red_min_x = self._reduce_signals(tx, np.minimum, np.inf)
            red_max_x = self._reduce_signals(tx, np.maximum, -np.inf)
            red_min_y = self._reduce_signals(ty, np.minimum, np.inf)
            red_max_y = self._reduce_signals(ty, np.maximum, -np.inf)
        else:
            red_min_x = np.minimum.reduceat(tx, self._starts)
            red_max_x = np.maximum.reduceat(tx, self._starts)
            red_min_y = np.minimum.reduceat(ty, self._starts)
            red_max_y = np.maximum.reduceat(ty, self._starts)
        min_x = np.minimum(red_min_x, self._fixed_min_x)
        max_x = np.maximum(red_max_x, self._fixed_max_x)
        min_y = np.minimum(red_min_y, self._fixed_min_y)
        max_y = np.maximum(red_max_y, self._fixed_max_y)
        return float(np.sum(max_x - min_x) + np.sum(max_y - min_y))

    def _batch_reduce_starts(self, batch: int, stride: int) -> np.ndarray:
        """Flattened ``reduceat`` offsets for a ``(batch, stride)`` layout."""
        key = (batch, stride)
        starts = self._batch_starts.get(key)
        if starts is None:
            per_row = (
                self._starts_padded
                if self._has_empty_signal
                else self._starts
            )
            starts = (
                per_row[None, :]
                + np.arange(batch, dtype=np.int64)[:, None] * stride
            ).ravel()
            if len(self._batch_starts) >= 8:
                self._batch_starts.clear()
            self._batch_starts[key] = starts
        return starts

    def _batch_reduce(
        self, values: np.ndarray, ufunc, identity: float
    ) -> np.ndarray:
        """Row-wise per-signal reduction of a ``(B, T)`` (or padded
        ``(B, T + 1)``) terminal array; returns ``(B, S)``."""
        batch, stride = values.shape
        starts = self._batch_reduce_starts(batch, stride)
        reduced = ufunc.reduceat(values.reshape(-1), starts).reshape(
            batch, -1
        )
        if self._has_empty_signal:
            reduced = np.where(
                self._empty_signal[None, :], identity, reduced[:, :-1]
            )
        return reduced

    def hpwl_batch(
        self,
        die_x: np.ndarray,
        die_y: np.ndarray,
        orient_codes: np.ndarray,
    ) -> np.ndarray:
        """Total HPWL of ``B`` candidate floorplans in one numpy pass.

        ``die_x`` / ``die_y`` are ``(B, n)`` global lower-left die origins
        and ``orient_codes`` a ``(B, n)`` 0..3 code matrix; returns the
        length-``B`` vector of totals.  Row ``b`` is bit-identical to
        ``hpwl(die_x[b], die_y[b], orient_codes[b])`` — the batch applies
        the same float64 gathers, reductions and (pairwise) sums, just
        laid out over a flattened batch (see :meth:`signal_extents`).

        Memory: the pass materializes a few ``(B, W)`` float64
        intermediates (``W`` = slot or terminal row width), so callers
        should chunk ``B`` via :meth:`batch_chunk_rows`, which sizes the
        chunk from the actual row width and element size against the
        :func:`batch_chunk_bytes` budget.
        """
        die_x = np.asarray(die_x, dtype=np.float64)
        batch = die_x.shape[0]
        if batch == 0 or self._terminal_count == 0:
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
        """
        die_x = np.asarray(die_x, dtype=np.float64)
        die_y = np.asarray(die_y, dtype=np.float64)
        batch = die_x.shape[0]
        if self._use_slots:
            return self._signal_extents_slots(die_x, die_y, orient_codes)
        codes = np.asarray(orient_codes, dtype=np.int64)[:, self._t_die]
        tx = die_x[:, self._t_die] + self._local_x[
            codes, self._terminal_range
        ]
        ty = die_y[:, self._t_die] + self._local_y[
            codes, self._terminal_range
        ]
        if self._has_empty_signal:
            # Pad one column so trailing empty segments index in range;
            # the sentinel start keeps it out of every real segment.
            pad = np.zeros((batch, 1))
            tx = np.concatenate([tx, pad], axis=1)
            ty = np.concatenate([ty, pad], axis=1)
        min_x = np.minimum(
            self._batch_reduce(tx, np.minimum, np.inf), self._fixed_min_x
        )
        max_x = np.maximum(
            self._batch_reduce(tx, np.maximum, -np.inf), self._fixed_max_x
        )
        min_y = np.minimum(
            self._batch_reduce(ty, np.minimum, np.inf), self._fixed_min_y
        )
        max_y = np.maximum(
            self._batch_reduce(ty, np.maximum, -np.inf), self._fixed_max_y
        )
        return min_x, max_x, min_y, max_y

    def _reduce_slots(
        self, values: np.ndarray, red_min: np.ndarray, red_max: np.ndarray
    ) -> None:
        """Per-signal min and max of a ``(B, SL)`` slotted coordinate array
        via strided column passes over the ``(B, S, L)`` view (numpy's
        small-last-axis reductions are far slower)."""
        view = values.reshape(values.shape[0], -1, self._slot_len)
        np.copyto(red_min, view[:, :, 0])
        np.copyto(red_max, view[:, :, 0])
        for j in range(1, self._slot_len):
            col = view[:, :, j]
            np.minimum(red_min, col, out=red_min)
            np.maximum(red_max, col, out=red_max)

    def _signal_extents_slots(
        self,
        die_x: np.ndarray,
        die_y: np.ndarray,
        orient_codes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Slotted extents kernel: one integer gather builds flat
        local-table indices, ``np.take`` fills preallocated scratch, and
        x/y reuse the same buffers.  Bit-identical to the ``reduceat``
        path because the padded slots only repeat values under exact
        min/max."""
        batch = die_x.shape[0]
        codes = np.asarray(orient_codes, dtype=np.int64)
        i1, f1, f2, red = self._slot_buffers(batch)
        rminx, rmaxx, rminy, rmaxy = red
        np.take(codes, self._slot_t_die, axis=1, out=i1)
        i1 *= self._slot_width
        i1 += self._slot_range
        np.take(self._slot_local_x, i1, out=f1)
        np.take(die_x, self._slot_t_die, axis=1, out=f2)
        f1 += f2
        self._reduce_slots(f1, rminx, rmaxx)
        np.take(self._slot_local_y, i1, out=f1)
        np.take(die_y, self._slot_t_die, axis=1, out=f2)
        f1 += f2
        self._reduce_slots(f1, rminy, rmaxy)
        if self._has_empty_signal:
            empty = self._empty_signal[None, :]
            min_x = np.where(
                empty, self._fixed_min_x, np.minimum(rminx, self._fixed_min_x)
            )
            max_x = np.where(
                empty, self._fixed_max_x, np.maximum(rmaxx, self._fixed_max_x)
            )
            min_y = np.where(
                empty, self._fixed_min_y, np.minimum(rminy, self._fixed_min_y)
            )
            max_y = np.where(
                empty, self._fixed_max_y, np.maximum(rmaxy, self._fixed_max_y)
            )
        else:
            min_x = np.minimum(rminx, self._fixed_min_x)
            max_x = np.maximum(rmaxx, self._fixed_max_x)
            min_y = np.minimum(rminy, self._fixed_min_y)
            max_y = np.maximum(rmaxy, self._fixed_max_y)
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
        if self._terminal_count == 0:
            return 0.0
        min_pot = die_y_min[self._t_die] + self._all_min_y
        max_pot = die_y_max[self._t_die] + self._all_max_y
        # An escape point has one potential location ``e - off``: it
        # enters the ceiling (a max) with its minimum ``e - off_hi`` and
        # the floor (a min) with its maximum ``e - off_lo``.  The sentinel
        # for signals without an escape must be -inf for the max and +inf
        # for the min, hence fixed_max/fixed_min respectively.  An
        # escape-only signal (empty segment) keeps only its escape term:
        # its ceiling - floor is off_lo - off_hi <= 0, clamped to zero.
        if self._has_empty_signal:
            red_max = self._reduce_signals(min_pot, np.maximum, -np.inf)
            red_min = self._reduce_signals(max_pot, np.minimum, np.inf)
        else:
            red_max = np.maximum.reduceat(min_pot, self._starts)
            red_min = np.minimum.reduceat(max_pot, self._starts)
        ceiling = np.maximum(red_max, self._fixed_max_y - off_hi)
        floor = np.minimum(red_min, self._fixed_min_y - off_lo)
        return float(np.sum(np.maximum(ceiling - floor, 0.0)))

    def lower_bound_horizontal(
        self,
        die_x_min: np.ndarray,
        die_x_max: np.ndarray,
        off_lo: float,
        off_hi: float,
    ) -> float:
        """``LX_min``: certified minimum horizontal wirelength (Eq. 2 form)."""
        if self._terminal_count == 0:
            return 0.0
        min_pot = die_x_min[self._t_die] + self._all_min_x
        max_pot = die_x_max[self._t_die] + self._all_max_x
        if self._has_empty_signal:
            red_max = self._reduce_signals(min_pot, np.maximum, -np.inf)
            red_min = self._reduce_signals(max_pot, np.minimum, np.inf)
        else:
            red_max = np.maximum.reduceat(min_pot, self._starts)
            red_min = np.minimum.reduceat(max_pot, self._starts)
        ceiling = np.maximum(red_max, self._fixed_max_x - off_hi)
        floor = np.minimum(red_min, self._fixed_min_x - off_lo)
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
