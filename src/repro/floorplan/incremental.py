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
Rotation moves and outline-preserving swaps regather one die's block
rows; outline-changing moves regather every block row in one integer
gather.

**Bit-identity.**  The returned cost is bit-identical to
:meth:`FastHpwlEvaluator.hpwl` by construction, not by tolerance:

* every coordinate is the same ``local + die`` float64 sum the
  evaluator forms (IEEE-754 addition is commutative, so operand order is
  free), and a clean die's rows hold coordinates that did not change;
* the extents are exact ``fmin``/``fmax`` over the same terminal
  coordinates and escape points, so any fold order gives the same
  values;
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
    * exactly one changed die: only its block rows are regathered;
    * any other case — several changed dies, or no committed state yet —
      regathers every block row (counted in ``full_rescores``); with
      re-centring in play multiple moved dies almost always dirty most of
      the netlist.

    The committed state is a ``(blocks + 1, 2S)`` coordinate matrix over
    the evaluator's block tables: one row per block holding its
    terminals' x (columns ``[0, S)``) and y (``[S, 2S)``) coordinates, NaN
    where the signal has no terminal in the block, and a last row holding
    the escape points.  Both paths fold the whole matrix with
    ``fmin``/``fmax`` and sum the two contiguous halves of the spans
    separately, preserving ``hpwl``'s exact pairwise-summation order.
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
        blocks = ev._block_die.size
        self._n = n
        self._signals = signals
        self._blocks = blocks
        # x|y local offsets per block and code: entry ``4 * k + code`` of
        # the flat table is block ``k`` under ``code``, so one integer
        # gather of ``4 * k + codes[die of k]`` lays out every block row
        # at once, and one gather of the concatenated die origins by
        # ``_origin`` gives every row's x and y origin.
        self._local = np.stack((ev._block_x, ev._block_y), axis=2).reshape(
            4 * blocks, 2, signals
        )
        self._block_die = ev._block_die
        self._block_base = 4 * np.arange(blocks, dtype=np.int64)
        self._origin = np.stack(
            (ev._block_die, ev._block_die + n), axis=1
        )[:, :, None]
        # Die d's blocks are rows [lo, hi) (the evaluator keeps them in
        # die order), and how many signals a move of d dirties.
        bounds = np.searchsorted(ev._block_die, np.arange(n + 1)).tolist()
        self._die_blocks = list(zip(bounds[:-1], bounds[1:]))
        incidence = np.zeros((n, signals), dtype=bool)
        incidence[ev._t_die, ev._t_signal] = True
        self._die_signals = incidence.sum(axis=1).tolist()
        escape = np.concatenate((ev._fixed_min_x, ev._fixed_min_y))
        escape[~np.isfinite(escape)] = np.nan
        # Committed and staged coordinate matrices (ping-pong), each with
        # its ``(blocks, 2, S)`` block view, plus span scratch.
        self._coords = self._matrix(escape)
        self._p_coords = self._matrix(escape)
        self._lo = np.empty(2 * signals)
        self._span = np.empty(2 * signals)
        # Committed state: die arrays held by reference (the engines'
        # pack caches reuse array objects, making the identity test a
        # free "positions unchanged" fast path), their Python-scalar
        # mirrors for the cheap per-die diff, and the total.
        self._die_x: Optional[np.ndarray] = None
        self._die_y: Optional[np.ndarray] = None
        self._codes: Optional[np.ndarray] = None
        self._xl: List[float] = []
        self._yl: List[float] = []
        self._cl: List[int] = []
        self._total = 0.0
        self._primed = False
        # Staged candidate.
        self._p_die_x: Optional[np.ndarray] = None
        self._p_die_y: Optional[np.ndarray] = None
        self._p_codes: Optional[np.ndarray] = None
        self._p_xl: List[float] = []
        self._p_yl: List[float] = []
        self._p_cl: List[int] = []
        self._p_total = 0.0
        self._p_same = False
        self._have_pending = False
        # Dirty-ratio bookkeeping (published via SearchStats).
        self.proposals = 0
        self.dirty_signals = 0
        self.signals_total = 0
        self.full_rescores = 0
        self.cross_checks = 0

    def _matrix(self, escape: np.ndarray):
        """A coordinate matrix with the escape row set, and its block rows
        as a ``(blocks, 2, S)`` view."""
        coords = np.empty((self._blocks + 1, 2 * self._signals))
        coords[-1] = escape
        return coords, coords[:-1].reshape(self._blocks, 2, self._signals)

    # -- span recomputation -------------------------------------------------

    def _rescore_all(
        self, die_x: np.ndarray, die_y: np.ndarray, codes: np.ndarray
    ) -> None:
        """Regather every block row into the staged matrix.

        ``ndarray.take`` (not ``np.take``): this runs tens of thousands of
        times per anneal, so the ``fromnumeric`` wrapper layers are
        measurable.
        """
        rows = codes.take(self._block_die)
        rows += self._block_base
        np.add(
            self._local.take(rows, axis=0),
            np.concatenate((die_x, die_y)).take(self._origin),
            out=self._p_coords[1],
        )

    def _rescore_die(self, d: int, x: float, y: float, code: int) -> None:
        """Stage the committed matrix with only die ``d``'s block rows
        regathered."""
        coords, block = self._p_coords
        np.copyto(coords, self._coords[0])
        lo, hi = self._die_blocks[d]
        local = self._local[4 * lo + code : 4 * hi : 4]
        np.add(local[:, 0], x, out=block[lo:hi, 0])
        np.add(local[:, 1], y, out=block[lo:hi, 1])

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
        if changed is not None and len(changed) == 1:
            d = changed[0]
            self.dirty_signals += self._die_signals[d]
            self._rescore_die(d, xl[d], yl[d], cl[d])
        else:
            self.dirty_signals += signals
            self.full_rescores += 1
            self._rescore_all(die_x, die_y, codes)
        coords = self._p_coords[0]
        lo, span = self._lo, self._span
        np.fmin.reduce(coords, axis=0, out=lo)
        np.fmax.reduce(coords, axis=0, out=span)
        span -= lo
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
            # Ping-pong: swap staged and committed matrices (no copies).
            self._coords, self._p_coords = self._p_coords, self._coords
            self._total = self._p_total
        self._primed = True
        self._have_pending = False

    @property
    def dirty_ratio(self) -> Optional[float]:
        """Mean fraction of signals recomputed per proposal."""
        if not self.signals_total:
            return None
        return self.dirty_signals / self.signals_total
