"""Incremental (delta) HPWL evaluation for the SA floorplanners.

The SA engines score one candidate per move.  Re-scoring every signal
from scratch on each move is the classic annealer waste; the classic fix
is delta evaluation — cache per-net bounding boxes, mark only the nets
incident to moved dies dirty, and re-derive the total from the cached
extents.  :class:`IncrementalHpwl` implements that cache with one twist
forced by honesty about this problem's structure: because every
candidate is re-centred on the interposer (``off = center - extent/2``),
any move that changes the packed outline shifts *every* die, so the
dirty set is derived from what **actually changed bitwise** (candidate
die arrays diffed against the committed ones), not from the move type.
Rotation moves and outline-preserving swaps stay cheap; outline-changing
moves trigger a full rescore — through a fused x+y slotted kernel with a
gathered-local cache, so even a 100%-dirty anneal comes out well ahead.

**Bit-identity.**  The returned cost is bit-identical to
:meth:`FastHpwlEvaluator.hpwl` by construction, not by tolerance:

* a clean signal's cached extents are exact min/max over terminal
  coordinates that did not change, so they equal a fresh reduction;
* a dirty signal's extents are recomputed over the evaluator's padded
  slot row, transposed — the same slots, so the same exact min/max;
  every coordinate is the same ``local + die`` float64 sum (IEEE-754
  addition is commutative, so operand order is free);
* the total re-runs ``np.sum`` over full contiguous ``(S,)`` span
  views — the exact pairwise-summation expression ``hpwl`` ends with.

That identity is what lets ``REPRO_SA_FULL_EVAL=1`` (the escape hatch
disabling delta evaluation entirely) change wall-clock without changing
a single accepted cost, move decision, or final floorplan — and what
the always-on cross-check mode verifies at run time: every
``cross_check_every``-th proposal is additionally scored with the full
evaluator, and any mismatch raises immediately.

Usage (what both SA engines do)::

    inc = IncrementalHpwl(evaluator)
    wl = inc.propose(die_x, die_y, codes)   # candidate score
    ... acceptance decision ...
    inc.accept()                            # only if accepted
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np

from .estimator import FastHpwlEvaluator

__all__ = [
    "DEFAULT_CROSS_CHECK_EVERY",
    "IncrementalHpwl",
    "full_eval_forced",
]

#: Default cross-check cadence: every this-many proposals the delta
#: result is verified against a from-scratch evaluation.  Cheap (one
#: extra full evaluation per interval) yet catches drift the same run.
DEFAULT_CROSS_CHECK_EVERY = 1024


def full_eval_forced() -> bool:
    """``REPRO_SA_FULL_EVAL`` escape hatch: truthy disables delta eval."""
    return os.environ.get("REPRO_SA_FULL_EVAL", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


class IncrementalHpwl:
    """Per-signal bounding-box cache with dirty-set delta evaluation.

    The protocol is two-phase: :meth:`propose` scores a candidate die
    arrangement against the committed state and stages it; :meth:`accept`
    commits the staged candidate (buffer swap, no copies).  Proposals
    that are never accepted cost nothing beyond their own evaluation.

    Dirty-set rules (the contract DESIGN.md documents):

    * a die is *changed* when its x, y, or orientation code differs
      bitwise from the committed state;
    * a signal is *dirty* iff it has a terminal on a changed die —
      escape-only signals have none, so no move can dirty them;
    * exactly one changed die: only its incident signals' extents are
      recomputed (precomputed per-die gather tables);
    * any other case — several changed dies, or no committed state yet —
      forces a full rescore of every signal (counted in
      ``full_rescores``); with re-centring in play multiple moved dies
      almost always dirty most of the netlist, so the fused full-rescore
      kernel is the better trade there.

    Both paths produce bitwise-equal extents; the choice only moves
    wall-clock.  The x and y axes share one gather: spans live in
    combined ``(2S,)`` arrays (x rows ``[0, S)``, y rows ``[S, 2S)``)
    and the final total sums the two contiguous halves separately,
    preserving ``hpwl``'s exact pairwise-summation order.
    """

    def __init__(
        self,
        evaluator: FastHpwlEvaluator,
        cross_check_every: int = DEFAULT_CROSS_CHECK_EVERY,
    ):
        self.evaluator = evaluator
        self.cross_check_every = max(0, cross_check_every)
        ev = evaluator
        n = ev.die_count
        signals = ev.signal_count
        length = ev._slot_len
        self._n = n
        self._signals = signals
        self._length = length
        self._width2 = 2 * ev._slot_width
        # Combined x+y slot tables in *transposed* (slot-major) layout:
        # slot ``k = j * 2S + row`` holds terminal slot ``j`` of span row
        # ``row`` (rows < S are x extents, rows >= S the y extents of the
        # same signal).  A gathered coordinate array viewed as
        # ``(L, 2S)`` then reduces over *contiguous* rows — and one flat
        # ``(4 * 2SL,)`` local table indexed ``code * 2SL + k`` lets a
        # single integer gather feed both axes.
        dies = ev._slot_t_die.reshape(signals, length).T
        self._slot_die2 = np.concatenate((dies, dies), axis=1).ravel()
        self._slot_dxy = np.concatenate((dies, dies + n), axis=1).ravel()
        local_x = ev._slot_local_x.reshape(4, signals, length)
        local_y = ev._slot_local_y.reshape(4, signals, length)
        self._local_xy = np.concatenate(
            (local_x.transpose(0, 2, 1), local_y.transpose(0, 2, 1)), axis=2
        ).ravel()
        self._slot_pos = np.arange(self._width2, dtype=np.int64)
        self._fixed_min = np.concatenate(
            (ev._fixed_min_x, ev._fixed_min_y)
        )
        self._fixed_max = np.concatenate(
            (ev._fixed_max_x, ev._fixed_max_y)
        )
        self._empty_rows = (
            np.concatenate((ev._empty_cols, ev._empty_cols + signals))
            if ev._empty_cols.size
            else None
        )
        # Full-rescore scratch (fused kernel).
        self._i1 = np.empty(self._width2, dtype=np.int64)
        self._f1 = np.empty(self._width2)
        self._f2 = np.empty(self._width2)
        self._dxy = np.empty(2 * n)
        # Which (die_x, die_y) array pair _dxy currently holds (by object
        # identity), so repeat positions skip the refill.
        self._dxy_x: Optional[np.ndarray] = None
        self._dxy_y: Optional[np.ndarray] = None
        self._span = np.empty(2 * signals)
        # Tree-reduction scratch for the four-slot fast case.
        self._pair = np.empty((2, 2 * signals))
        # Gathered-local cache: the expensive half of a full rescore
        # (code lookup + flat-index build + local-table gather) depends
        # only on the orientation codes, which SA revisits constantly.
        # Keyed by the codes' raw bytes, bounded, oldest-first eviction.
        self._local_cache: dict = {}
        # Per-die subset tables: for die d, the combined span rows of
        # its incident signals and the flattened slot indices of those
        # rows (x block then y block), plus dedicated scratch sized to
        # the die's incidence count.
        self._die_rows: List[np.ndarray] = []
        self._die_slots: List[np.ndarray] = []
        self._die_die2: List[np.ndarray] = []
        self._die_dxy_idx: List[np.ndarray] = []
        self._die_fixed_min: List[np.ndarray] = []
        self._die_fixed_max: List[np.ndarray] = []
        self._die_i: List[np.ndarray] = []
        self._die_f1: List[np.ndarray] = []
        self._die_f2: List[np.ndarray] = []
        self._die_mn: List[np.ndarray] = []
        self._die_mx: List[np.ndarray] = []
        self._die_pair: List[np.ndarray] = []
        die_sig = np.zeros((n, signals), dtype=bool)
        die_sig[ev._t_die, ev._t_signal] = True
        col = np.arange(length, dtype=np.int64)
        for d in range(n):
            sig = np.flatnonzero(die_sig[d])
            rows = np.concatenate((sig, sig + signals))
            # Transposed per-die slot ids: block j covers the die's span
            # rows at slot j, so the gathered array views as (L, 2K).
            slots = (col[:, None] * (2 * signals) + rows[None, :]).ravel()
            self._die_rows.append(rows)
            self._die_slots.append(slots)
            self._die_die2.append(self._slot_die2[slots].copy())
            self._die_dxy_idx.append(self._slot_dxy[slots].copy())
            self._die_fixed_min.append(self._fixed_min[rows].copy())
            self._die_fixed_max.append(self._fixed_max[rows].copy())
            self._die_i.append(np.empty(slots.size, dtype=np.int64))
            self._die_f1.append(np.empty(slots.size))
            self._die_f2.append(np.empty(slots.size))
            self._die_mn.append(np.empty(rows.size))
            self._die_mx.append(np.empty(rows.size))
            self._die_pair.append(np.empty((2, rows.size)))
        # Committed state: die arrays held by reference (the engines'
        # pack caches reuse array objects, making the identity test a
        # free "positions unchanged" fast path), their Python-scalar
        # mirrors for the cheap per-die diff, spans, and the total.
        self._die_x: Optional[np.ndarray] = None
        self._die_y: Optional[np.ndarray] = None
        self._codes: Optional[np.ndarray] = None
        self._xl: List[float] = []
        self._yl: List[float] = []
        self._cl: List[int] = []
        self._min = np.empty(2 * signals)
        self._max = np.empty(2 * signals)
        self._total = 0.0
        self._primed = False
        # Staged candidate (ping-pong partner of the committed spans).
        self._p_die_x: Optional[np.ndarray] = None
        self._p_die_y: Optional[np.ndarray] = None
        self._p_codes: Optional[np.ndarray] = None
        self._p_xl: List[float] = []
        self._p_yl: List[float] = []
        self._p_cl: List[int] = []
        self._p_min = np.empty(2 * signals)
        self._p_max = np.empty(2 * signals)
        self._p_total = 0.0
        self._p_same = False
        self._have_pending = False
        # Dirty-ratio bookkeeping (published via SearchStats).
        self.proposals = 0
        self.dirty_signals = 0
        self.signals_total = 0
        self.full_rescores = 0
        self.cross_checks = 0

    # -- span recomputation -------------------------------------------------

    def _fill_dxy(self, die_x: np.ndarray, die_y: np.ndarray) -> None:
        n = self._n
        self._dxy[:n] = die_x
        self._dxy[n:] = die_y

    def _gathered_local(self, codes: np.ndarray) -> np.ndarray:
        """Per-slot local coordinates under ``codes``, cached.

        The gather depends only on the orientation codes — which SA
        revisits constantly — so its result is cached by the codes' raw
        bytes (bounded, oldest-first).  Callers must not mutate it.
        """
        key = codes.tobytes()
        base = self._local_cache.get(key)
        if base is None:
            i1 = self._i1
            codes.take(self._slot_die2, out=i1)
            i1 *= self._width2
            i1 += self._slot_pos
            base = self._local_xy.take(i1)
            if len(self._local_cache) >= 128:
                self._local_cache.pop(next(iter(self._local_cache)))
            self._local_cache[key] = base
        return base

    @staticmethod
    def _minmax_rows(
        view: np.ndarray,
        mn: np.ndarray,
        mx: np.ndarray,
        pair: Optional[np.ndarray] = None,
    ) -> None:
        """Row-wise min and max of an ``(L, R)`` array into ``(R,)``
        outputs — contiguous-row passes, not numpy's slow small-axis
        reductions.  ``pair`` is ``(2, R)`` scratch enabling a two-pass
        tree reduction for the common four-slot case (min and max are
        exact, so the combination order is free).  With no rows (no die
        terminal at all) the outputs are the identities ``+inf`` /
        ``-inf``; every span row is then escape-only and overwritten."""
        rows = view.shape[0]
        if rows == 1:
            np.copyto(mn, view[0])
            np.copyto(mx, view[0])
            return
        if rows == 4 and pair is not None:
            np.minimum(view[:2], view[2:], out=pair)
            np.minimum(pair[0], pair[1], out=mn)
            np.maximum(view[:2], view[2:], out=pair)
            np.maximum(pair[0], pair[1], out=mx)
            return
        if not rows:
            mn.fill(np.inf)
            mx.fill(-np.inf)
            return
        np.minimum(view[0], view[1], out=mn)
        np.maximum(view[0], view[1], out=mx)
        for j in range(2, rows):
            row = view[j]
            np.minimum(mn, row, out=mn)
            np.maximum(mx, row, out=mx)

    def _rescore_all(self, codes: np.ndarray) -> None:
        """Every span in one fused x+y pass into the pending buffers.

        ``ndarray.take`` (not ``np.take``) and preallocated ``out=``
        buffers: this runs tens of thousands of times per anneal, so the
        ``fromnumeric`` wrapper layers are measurable.
        """
        f1, f2 = self._f1, self._f2
        base = self._gathered_local(codes)
        self._dxy.take(self._slot_dxy, out=f2)
        np.add(base, f2, out=f1)
        view = f1.reshape(self._length, 2 * self._signals)
        mn, mx = self._p_min, self._p_max
        self._minmax_rows(view, mn, mx, self._pair)
        np.minimum(mn, self._fixed_min, out=mn)
        np.maximum(mx, self._fixed_max, out=mx)
        if self._empty_rows is not None:
            mn[self._empty_rows] = self._fixed_min[self._empty_rows]
            mx[self._empty_rows] = self._fixed_max[self._empty_rows]

    def _rescore_die(self, d: int, codes: np.ndarray) -> None:
        """Recompute only die ``d``'s incident spans (pending buffers
        already hold a copy of the committed spans)."""
        rows = self._die_rows[d]
        i1 = self._die_i[d]
        f1 = self._die_f1[d]
        f2 = self._die_f2[d]
        mn = self._die_mn[d]
        mx = self._die_mx[d]
        codes.take(self._die_die2[d], out=i1)
        i1 *= self._width2
        i1 += self._die_slots[d]
        self._local_xy.take(i1, out=f1)
        self._dxy.take(self._die_dxy_idx[d], out=f2)
        f1 += f2
        view = f1.reshape(self._length, rows.size)
        self._minmax_rows(view, mn, mx, self._die_pair[d])
        np.minimum(mn, self._die_fixed_min[d], out=mn)
        np.maximum(mx, self._die_fixed_max[d], out=mx)
        self._p_min[rows] = mn
        self._p_max[rows] = mx

    # -- protocol -----------------------------------------------------------

    def propose(
        self,
        die_x: np.ndarray,
        die_y: np.ndarray,
        codes: np.ndarray,
    ) -> float:
        """Score a candidate arrangement and stage it for :meth:`accept`.

        Returns the total HPWL, bit-identical to
        ``evaluator.hpwl(die_x, die_y, codes)``.  The arrays are held by
        reference until the next proposal; callers must not mutate them
        in between (the engines' cached pack arrays never are).
        """
        self.proposals += 1
        signals = self._signals
        self.signals_total += signals
        self._p_die_x = die_x
        self._p_die_y = die_y
        self._p_codes = codes
        changed: Optional[List[int]] = None
        if self._primed:
            # The engines' caches reuse array objects, so identity means
            # the value is untouched (positions for pack-cache hits,
            # codes for swap moves reusing the same orientation vector).
            same_pos = die_x is self._die_x and die_y is self._die_y
            if same_pos:
                xl, yl = self._xl, self._yl
            else:
                xl = die_x.tolist()
                yl = die_y.tolist()
            cl = self._cl if codes is self._codes else codes.tolist()
            self._p_xl, self._p_yl, self._p_cl = xl, yl, cl
            oxl, oyl, ocl = self._xl, self._yl, self._cl
            changed = [
                i
                for i in range(self._n)
                if xl[i] != oxl[i] or yl[i] != oyl[i] or cl[i] != ocl[i]
            ]
            if not changed:
                self._p_total = self._total
                self._p_same = True
                self._have_pending = True
                self._maybe_cross_check()
                return self._p_total
        else:
            self._p_xl = die_x.tolist()
            self._p_yl = die_y.tolist()
            self._p_cl = codes.tolist()
        self._p_same = False
        if die_x is not self._dxy_x or die_y is not self._dxy_y:
            self._fill_dxy(die_x, die_y)
            self._dxy_x = die_x
            self._dxy_y = die_y
        if changed is not None and len(changed) == 1:
            d = changed[0]
            self.dirty_signals += self._die_rows[d].size // 2
            np.copyto(self._p_min, self._min)
            np.copyto(self._p_max, self._max)
            self._rescore_die(d, codes)
        else:
            self.dirty_signals += signals
            self.full_rescores += 1
            self._rescore_all(codes)
        span = self._span
        np.subtract(self._p_max, self._p_min, out=span)
        # Sum each contiguous half separately: the exact expression (and
        # pairwise-summation order) hpwl ends with.  ``np.add.reduce`` is
        # what ``np.sum`` dispatches to — same pairwise result, minus the
        # wrapper layers.
        total = float(
            np.add.reduce(span[:signals]) + np.add.reduce(span[signals:])
        )
        self._p_total = total
        self._have_pending = True
        self._maybe_cross_check()
        return total

    def _maybe_cross_check(self) -> None:
        if not self.cross_check_every:
            return
        if self.proposals % self.cross_check_every:
            return
        self.cross_checks += 1
        reference = self.evaluator.hpwl(
            self._p_die_x, self._p_die_y, self._p_codes
        )
        if reference != self._p_total:
            raise RuntimeError(
                "incremental HPWL diverged from full evaluation: "
                f"delta={self._p_total!r} full={reference!r} at proposal "
                f"{self.proposals} (set REPRO_SA_FULL_EVAL=1 to bypass "
                "incremental evaluation)"
            )

    def accept(self) -> None:
        """Commit the staged candidate as the new reference state."""
        if not self._have_pending:
            raise RuntimeError("accept() without a pending propose()")
        self._die_x = self._p_die_x
        self._die_y = self._p_die_y
        self._codes = self._p_codes
        self._xl = self._p_xl
        self._yl = self._p_yl
        self._cl = self._p_cl
        if not self._p_same:
            # Ping-pong: swap staged and committed spans (no copies).
            self._min, self._p_min = self._p_min, self._min
            self._max, self._p_max = self._p_max, self._max
            self._total = self._p_total
        self._primed = True
        self._have_pending = False

    @property
    def dirty_ratio(self) -> Optional[float]:
        """Mean fraction of signals recomputed per proposal."""
        if not self.signals_total:
            return None
        return self.dirty_signals / self.signals_total
