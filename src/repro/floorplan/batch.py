"""Batched sequence-pair realization for orientation sweeps.

EFA's inner loop enumerates, per sequence pair, every combination of the
four die orientations — ``4^n`` candidates that share one constraint-graph
structure and differ only in per-die dimensions.  Re-running the scalar
longest-path packing (and one ``hpwl`` call) per combination is what made
``estWL`` the repo's hottest path; this module instead realizes the whole
sweep vectorially:

* :func:`pack_indices` — the scalar longest-path packing over flat index
  lists (moved here from ``EnumerativeFloorplanner._pack`` so the SA
  floorplanners can share it without importing the enumerator);
* :class:`OrientationSweep` — precomputes the ``(4^n, n)`` orientation-code
  matrix and the per-combination swollen dimensions once, then packs *all*
  combinations of a sequence pair in one batched longest-path pass
  (``O(n^2)`` numpy operations over length-``4^n`` arrays instead of
  ``4^n`` Python-level packings).

**Bit-identity.**  The batched pass applies exactly the serial packing's
float64 operations — the same additions and the same chain of ``max``
updates in the same order, just broadcast over the combination axis — so
every coordinate, outline extent and downstream HPWL it produces is
bit-identical to the scalar path.  ``tests/test_batch_eval.py`` asserts
this with ``==``, not approx.

**Memory contract.**  An ``OrientationSweep`` holds a handful of
``(n, 4^n)`` float64 tables (the per-combination dims and the packing
buffers), so its footprint is ``O(n * 4^n)`` — about 4 MB per table at
``n = 8``.  Construction refuses die counts whose sweep would not fit;
EFA scores such designs with its scalar kernel (where the ``n!^2`` outer
enumeration is unreachable anyway).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

# Largest die count a sweep will materialize (4^12 * 12 * 8 B = 1.5 GB is
# already absurd; EFA's n!^2 outer loop dies long before this).
MAX_SWEEP_DIES = 10

__all__ = ["MAX_SWEEP_DIES", "OrientationSweep", "pack_indices"]


def pack_indices(
    minus: Sequence[int],
    rank_plus: Sequence[int],
    dims: Sequence[Tuple[float, float]],
) -> Tuple[List[float], List[float], float, float]:
    """Longest-path sequence-pair packing over die indices.

    ``minus`` is gamma_minus as a sequence of die indices (a valid
    topological order for both constraint graphs); ``rank_plus[i]`` is die
    ``i``'s rank in gamma_plus; ``dims[i]`` its (already oriented, already
    spacing-swollen) width/height.  Returns per-die x/y plus the bounding
    width/height.  Semantics are identical to
    :func:`repro.seqpair.pack_sequence_pair`, which the tests cross-check.
    """
    n = len(minus)
    xs = [0.0] * n
    ys = [0.0] * n
    width = 0.0
    height = 0.0
    for pos in range(n):
        b = minus[pos]
        rb = rank_plus[b]
        x = 0.0
        y = 0.0
        for prev in range(pos):
            a = minus[prev]
            if rank_plus[a] < rb:
                xa = xs[a] + dims[a][0]
                if xa > x:
                    x = xa
            else:
                ya = ys[a] + dims[a][1]
                if ya > y:
                    y = ya
        xs[b] = x
        ys[b] = y
        xe = x + dims[b][0]
        ye = y + dims[b][1]
        if xe > width:
            width = xe
        if ye > height:
            height = ye
    return xs, ys, width, height


class OrientationSweep:
    """All ``4^n`` orientation variants of a sequence pair, packed at once.

    ``dims_by_code[i][c]`` is die ``i``'s swollen ``(width, height)`` under
    orientation code ``c`` (the :func:`repro.floorplan.orientation_code`
    numbering).  The combination axis is ordered exactly like
    ``itertools.product(range(4), repeat=n)`` — row ``k`` of :attr:`codes`
    is the ``k``-th combination of EFA's serial loop, so a sweep-local
    argmin index *is* the serial ``combo_index`` tie-break key.
    """

    def __init__(self, dims_by_code: Sequence[Sequence[Tuple[float, float]]]):
        n = len(dims_by_code)
        if not 1 <= n <= MAX_SWEEP_DIES:
            raise ValueError(
                f"orientation sweep supports 1..{MAX_SWEEP_DIES} dies, "
                f"got {n}"
            )
        self.n = n
        self.size = 4 ** n
        # (4^n, n) codes in itertools.product order: first die slowest,
        # last die fastest — np.indices in C order matches exactly.
        self.codes = (
            np.indices((4,) * n).reshape(n, -1).T.copy().astype(np.int64)
        )
        # Per-die, per-combination swollen dims, stored (n, 4^n) so the
        # packing loop slices contiguous rows.
        self._w = np.empty((n, self.size))
        self._h = np.empty((n, self.size))
        for i in range(n):
            w4 = np.asarray([dims_by_code[i][c][0] for c in range(4)])
            h4 = np.asarray([dims_by_code[i][c][1] for c in range(4)])
            self._w[i] = w4[self.codes[:, i]]
            self._h[i] = h4[self.codes[:, i]]
        # Packing buffers, reused across sequence pairs (one sweep per
        # planner instance; never shared across threads/processes).
        self._xs = np.empty((n, self.size))
        self._ys = np.empty((n, self.size))
        self._wout = np.empty(self.size)
        self._hout = np.empty(self.size)
        self._tmp = np.empty(self.size)

    def pack_all(
        self, minus: Sequence[int], rank_plus: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pack every orientation combination of one sequence pair.

        Returns ``(xs, ys, width, height)`` where ``xs``/``ys`` are
        ``(n, 4^n)`` packing origins (die axis first) and ``width`` /
        ``height`` are length-``4^n`` outline extents.  The returned
        arrays are internal buffers overwritten by the next call — consume
        (or copy) them before packing again.
        """
        n = self.n
        xs, ys = self._xs, self._ys
        width, height, tmp = self._wout, self._hout, self._tmp
        width[:] = 0.0
        height[:] = 0.0
        for pos in range(n):
            b = minus[pos]
            rb = rank_plus[b]
            x = xs[b]
            y = ys[b]
            x[:] = 0.0
            y[:] = 0.0
            for prev in range(pos):
                a = minus[prev]
                if rank_plus[a] < rb:
                    np.add(xs[a], self._w[a], out=tmp)
                    np.maximum(x, tmp, out=x)
                else:
                    np.add(ys[a], self._h[a], out=tmp)
                    np.maximum(y, tmp, out=y)
            np.add(x, self._w[b], out=tmp)
            np.maximum(width, tmp, out=width)
            np.add(y, self._h[b], out=tmp)
            np.maximum(height, tmp, out=height)
        return xs, ys, width, height
