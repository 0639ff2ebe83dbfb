"""Tests for the batched orientation-sweep evaluation path.

Covers the three layers of the batch engine plus the escape-only
(empty-segment) regression it exposed:

* ``FastHpwlEvaluator.hpwl_batch`` — bit-identical to row-by-row
  ``hpwl``;
* ``OrientationSweep.pack_all`` — bit-identical to the scalar
  ``pack_indices`` per orientation combination, with the combination
  axis in ``itertools.product`` order;
* EFA's sweep kernel — same winner (est_wl, candidate and candidate
  key), placements and counters as its scalar kernel;
* escape-only signals (zero die-borne terminals): before the fix a
  mid-list empty segment silently borrowed the next signal's first
  terminal and a trailing one raised IndexError inside numpy.
"""

import itertools

import numpy as np
import pytest

from repro.benchgen import load_tiny
from repro.floorplan import (
    EFAConfig,
    FastHpwlEvaluator,
    run_efa,
)
from repro.floorplan.batch import MAX_SWEEP_DIES, OrientationSweep, pack_indices
from repro.geometry import Point, Rect
from repro.model import (
    Design,
    Die,
    EscapePoint,
    Floorplan,
    Interposer,
    IOBuffer,
    MicroBump,
    Package,
    Placement,
    Signal,
    TSV,
)

from .helpers import assert_same_search, run_efa_scalar


def make_escape_design(escape_position: str) -> Design:
    """Two dies, two die-to-die signals, one escape-only signal.

    ``escape_position`` places the escape-only signal ``"first"``,
    ``"middle"`` or ``"last"`` in the design's signal list — the middle
    position exercised the silent borrow, the last the IndexError.
    """
    d1 = Die(
        id="d1",
        width=2.0,
        height=1.0,
        buffers=[
            IOBuffer("b1", "d1", Point(0.25, 0.25), "s1"),
            IOBuffer("b3", "d1", Point(1.75, 0.75), "s3"),
        ],
        bumps=[
            MicroBump("m1", "d1", Point(1.0, 0.5)),
            MicroBump("m3", "d1", Point(1.5, 0.5)),
        ],
    )
    d2 = Die(
        id="d2",
        width=1.0,
        height=2.0,
        buffers=[
            IOBuffer("b2", "d2", Point(0.5, 1.5), "s1"),
            IOBuffer("b4", "d2", Point(0.5, 0.5), "s3"),
        ],
        bumps=[
            MicroBump("m2", "d2", Point(0.5, 1.0)),
            MicroBump("m4", "d2", Point(0.5, 0.25)),
        ],
    )
    s1 = Signal("s1", ("b1", "b2"))
    s3 = Signal("s3", ("b3", "b4"))
    s_esc = Signal("s_esc", (), escape_id="e1")
    order = {
        "first": [s_esc, s1, s3],
        "middle": [s1, s_esc, s3],
        "last": [s1, s3, s_esc],
    }[escape_position]
    return Design(
        name=f"escape-only-{escape_position}",
        dies=[d1, d2],
        interposer=Interposer(
            width=10.0, height=10.0, tsvs=[TSV("t1", Point(5.0, 5.0))]
        ),
        package=Package(
            frame=Rect(-1.0, -1.0, 12.0, 12.0),
            escape_points=[EscapePoint("e1", Point(9.0, 2.0), "s_esc")],
        ),
        signals=order,
    )


def reference_hpwl(design: Design, floorplan: Floorplan) -> float:
    """Per-signal bounding-box HPWL straight from terminal positions."""
    total = 0.0
    for signal in design.signals:
        pts = floorplan.signal_terminal_positions(signal)
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


class TestEscapeOnlySignalRegression:
    """The escape-only (empty-segment) fix, at every list position."""

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_hpwl_matches_reference(self, position):
        design = make_escape_design(position)
        evaluator = FastHpwlEvaluator(design)
        fp = Floorplan(
            design,
            {
                "d1": Placement(Point(1.0, 2.0)),
                "d2": Placement(Point(5.0, 4.0)),
            },
        )
        # Pre-fix: "middle"/"first" borrowed a neighbouring signal's
        # terminal into the empty segment (wrong value); "last" indexed
        # one past the terminal array (IndexError).
        assert evaluator.hpwl_of_floorplan(fp) == pytest.approx(
            reference_hpwl(design, fp), rel=1e-12
        )

    @pytest.mark.parametrize("position", ["middle", "last"])
    def test_escape_only_contributes_zero(self, position):
        # Removing the escape-only signal must not change the total: a
        # single fixed point has zero bounding-box span.
        design = make_escape_design(position)
        stripped = Design(
            name="no-escape-only",
            dies=design.dies,
            interposer=design.interposer,
            package=design.package,
            signals=[s for s in design.signals if s.id != "s_esc"],
        )
        placements = {
            "d1": Placement(Point(0.5, 0.5)),
            "d2": Placement(Point(6.0, 3.0)),
        }
        a = FastHpwlEvaluator(design).hpwl_of_floorplan(
            Floorplan(design, placements)
        )
        b = FastHpwlEvaluator(stripped).hpwl_of_floorplan(
            Floorplan(stripped, placements)
        )
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("position", ["middle", "last"])
    def test_lower_bounds_stay_finite_and_sound(self, position):
        design = make_escape_design(position)
        evaluator = FastHpwlEvaluator(design)
        y = np.array([0.0, 1.5])
        lv = evaluator.lower_bound_vertical(y, y, 0.0, 0.0)
        lh = evaluator.lower_bound_horizontal(y, y + 0.5, -0.1, 0.2)
        assert np.isfinite(lv) and lv >= 0.0
        assert np.isfinite(lh) and lh >= 0.0

    def test_escape_only_signal_is_constructible(self):
        s = Signal("e", (), escape_id="ep")
        assert s.escapes and s.terminal_count == 1

    def test_no_terminals_still_rejected(self):
        with pytest.raises(ValueError, match="no terminals"):
            Signal("empty", ())

    def test_single_buffer_without_escape_still_rejected(self):
        with pytest.raises(ValueError, match="single terminal"):
            Signal("lonely", ("b1",))


class TestHpwlBatch:
    @pytest.mark.parametrize("escape_fraction", [0.0, 0.5])
    def test_bit_identical_to_scalar(self, escape_fraction):
        design = load_tiny(
            die_count=3, signal_count=8, escape_fraction=escape_fraction
        )
        evaluator = FastHpwlEvaluator(design)
        n = evaluator.die_count
        rng = np.random.default_rng(7)
        batch = 37  # deliberately not a power of two
        die_x = rng.uniform(-2.0, 8.0, size=(batch, n))
        die_y = rng.uniform(-2.0, 8.0, size=(batch, n))
        codes = rng.integers(0, 4, size=(batch, n), dtype=np.int64)
        got = evaluator.hpwl_batch(die_x, die_y, codes)
        expected = np.array(
            [
                evaluator.hpwl(die_x[b], die_y[b], codes[b])
                for b in range(batch)
            ]
        )
        assert np.array_equal(got, expected)  # exact, not approx

    @pytest.mark.parametrize("position", ["middle", "last"])
    def test_bit_identical_with_escape_only_signals(self, position):
        design = make_escape_design(position)
        evaluator = FastHpwlEvaluator(design)
        rng = np.random.default_rng(11)
        batch = 16
        die_x = rng.uniform(0.0, 8.0, size=(batch, 2))
        die_y = rng.uniform(0.0, 8.0, size=(batch, 2))
        codes = rng.integers(0, 4, size=(batch, 2), dtype=np.int64)
        got = evaluator.hpwl_batch(die_x, die_y, codes)
        expected = np.array(
            [
                evaluator.hpwl(die_x[b], die_y[b], codes[b])
                for b in range(batch)
            ]
        )
        assert np.array_equal(got, expected)

    def test_empty_batch(self):
        design = load_tiny(die_count=2)
        evaluator = FastHpwlEvaluator(design)
        out = evaluator.hpwl_batch(
            np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2), dtype=np.int64)
        )
        assert out.shape == (0,)


class TestOrientationSweep:
    def _dims_by_code(self, rng, n):
        dims = []
        for _ in range(n):
            w, h = rng.uniform(0.5, 3.0, size=2)
            dims.append([(w, h), (h, w), (w, h), (h, w)])
        return dims

    def test_codes_match_itertools_product(self):
        rng = np.random.default_rng(0)
        sweep = OrientationSweep(self._dims_by_code(rng, 3))
        expected = np.array(
            list(itertools.product(range(4), repeat=3)), dtype=np.int64
        )
        assert np.array_equal(sweep.codes, expected)

    def test_pack_all_bit_identical_to_scalar(self):
        rng = np.random.default_rng(3)
        n = 4
        dims_by_code = self._dims_by_code(rng, n)
        sweep = OrientationSweep(dims_by_code)
        minus = [2, 0, 3, 1]
        rank_plus = [1, 3, 0, 2]
        xs_b, ys_b, w_b, h_b = sweep.pack_all(minus, rank_plus)
        for k, combo in enumerate(itertools.product(range(4), repeat=n)):
            dims = [dims_by_code[i][combo[i]] for i in range(n)]
            xs, ys, width, height = pack_indices(minus, rank_plus, dims)
            assert xs_b[:, k].tolist() == xs  # exact float equality
            assert ys_b[:, k].tolist() == ys
            assert w_b[k] == width
            assert h_b[k] == height

    def test_rejects_oversized_die_count(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="sweep supports"):
            OrientationSweep(self._dims_by_code(rng, MAX_SWEEP_DIES + 1))


class TestBatchedEFAIdentity:
    @pytest.mark.parametrize(
        "cfg_kwargs",
        [
            {},
            {"illegal_cut": True, "inferior_cut": True},
        ],
    )
    def test_same_winner_and_counters(self, monkeypatch, cfg_kwargs):
        design = load_tiny(die_count=3, signal_count=8)
        scalar = run_efa_scalar(monkeypatch, design, EFAConfig(**cfg_kwargs))
        sweep = run_efa(design, EFAConfig(**cfg_kwargs))
        assert_same_search(sweep, scalar)


class _CountdownBudget:
    """A ``TimeBudget`` stand-in that expires at its ``checks + 1``-th
    look, so a test can stop the search at an exact point."""

    def __init__(self, checks):
        self.left = checks

    @property
    def expired(self):
        self.left -= 1
        return self.left < 0


class TestTruncatedPair:
    """A budget that runs out inside a sequence pair still folds the
    candidates that pair scored.  The window holds one pair whose first
    orientation vector is the tiny4 optimum (golden key (7, 0, 0))."""

    WINDOW = dict(plus_range=(7, 8), minus_range=(0, 1))

    def _run(self, monkeypatch, checks):
        import repro.floorplan.efa

        monkeypatch.setattr(
            repro.floorplan.efa,
            "TimeBudget",
            lambda seconds: _CountdownBudget(checks),
        )
        design = load_tiny(die_count=4, signal_count=12)
        result = run_efa(design, EFAConfig(**self.WINDOW))
        assert result.stats.timed_out
        assert result.stats.sequence_pairs_explored == 1
        assert result.est_wl == 12.835204615094574
        assert result.candidate_key == (7, 0, 0)
        return result.stats

    def test_scalar_kernel_checks_budget_inside_a_pair(self, monkeypatch):
        import repro.floorplan.efa

        monkeypatch.setattr(repro.floorplan.efa, "MAX_SWEEP_DIES", 0)
        monkeypatch.setattr(repro.floorplan.efa, "_TICK", 8)
        # One look per pair, then one every 8 candidates: expiring at
        # the second look stops the pair after candidates 0..7.
        stats = self._run(monkeypatch, checks=1)
        scored = stats.floorplans_evaluated + stats.floorplans_rejected_outline
        assert scored == 8

    def test_sweep_kernel_checks_budget_after_each_chunk(self, monkeypatch):
        import repro.floorplan.estimator

        design = load_tiny(die_count=4, signal_count=12)
        row = FastHpwlEvaluator(design).batch_row_bytes()
        monkeypatch.setattr(
            repro.floorplan.estimator, "DEFAULT_BATCH_CHUNK_BYTES", row
        )
        # One-row chunks: expiring after the first chunk leaves exactly
        # one evaluated candidate.
        stats = self._run(monkeypatch, checks=1)
        assert stats.floorplans_evaluated == 1


class TestEnumerationWindows:
    def test_windows_partition_the_search(self):
        design = load_tiny(die_count=3, signal_count=8)
        full = run_efa(design, EFAConfig())
        parts = []
        for lo, hi in [(0, 2), (2, 5), (5, 6)]:
            parts.append(run_efa(design, EFAConfig(plus_range=(lo, hi))))
        assert sum(p.stats.sequence_pairs_explored for p in parts) == 36
        best = min(parts, key=lambda r: (r.est_wl, r.candidate_key))
        assert best.est_wl == full.est_wl
        assert best.candidate_key == full.candidate_key

    def test_minus_window_bounds_total(self):
        design = load_tiny(die_count=3, signal_count=8)
        res = run_efa(
            design, EFAConfig(plus_range=(0, 2), minus_range=(1, 4))
        )
        assert res.stats.sequence_pairs_total == 2 * 3
        assert res.stats.sequence_pairs_explored == 6

    def test_window_keys_are_global_ranks(self):
        design = load_tiny(die_count=3, signal_count=8)
        res = run_efa(design, EFAConfig(plus_range=(2, 4)))
        assert res.candidate_key[0] in (2, 3)

    @pytest.mark.parametrize(
        "window", [(-1, 2), (0, 99), (3, 2)]
    )
    def test_invalid_windows_rejected(self, window):
        design = load_tiny(die_count=3, signal_count=8)
        with pytest.raises(ValueError):
            run_efa(design, EFAConfig(plus_range=window))


class TestChunkBudget:
    """Byte-derived chunking of the batched kernel's scratch."""

    @staticmethod
    def _set_budget(monkeypatch, value):
        import repro.floorplan.estimator

        monkeypatch.setattr(
            repro.floorplan.estimator, "DEFAULT_BATCH_CHUNK_BYTES", value
        )

    def test_default_budget(self):
        from repro.floorplan import DEFAULT_BATCH_CHUNK_BYTES

        evaluator = FastHpwlEvaluator(load_tiny(die_count=3, signal_count=8))
        assert DEFAULT_BATCH_CHUNK_BYTES == 8 << 20
        assert evaluator.batch_chunk_rows() == (
            DEFAULT_BATCH_CHUNK_BYTES // evaluator.batch_row_bytes()
        )

    def test_row_bytes_reflects_actual_widths(self):
        design = load_tiny(die_count=3, signal_count=8)
        evaluator = FastHpwlEvaluator(design)
        signals = evaluator.signal_count
        # Four float64 (B, S) extrema and two gathered (B, S) block rows;
        # the row width is the signal count whatever the die count.
        assert evaluator.batch_row_bytes() == 8 * 6 * signals

    def test_chunk_rows_divide_the_budget(self, monkeypatch):
        design = load_tiny(die_count=3, signal_count=8)
        evaluator = FastHpwlEvaluator(design)
        row = evaluator.batch_row_bytes()
        self._set_budget(monkeypatch, row * 10)
        assert evaluator.batch_chunk_rows() == 10
        # A budget below one row clamps up: progress is never zero rows.
        self._set_budget(monkeypatch, 1)
        assert evaluator.batch_chunk_rows() == 1

    def test_tiny_budget_same_efa_winner(self, monkeypatch):
        """The EFA loop chunks sweeps by ``batch_chunk_rows``; shrinking
        the budget to one row per chunk must not move the winner."""
        design = load_tiny(die_count=3, signal_count=8)
        want = run_efa(design, EFAConfig())
        row = FastHpwlEvaluator(design).batch_row_bytes()
        self._set_budget(monkeypatch, row)
        got = run_efa(design, EFAConfig())
        assert got.est_wl == want.est_wl
        assert got.candidate_key == want.candidate_key
        assert (
            got.stats.floorplans_evaluated
            == want.stats.floorplans_evaluated
        )
