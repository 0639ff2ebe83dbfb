"""One differential oracle: every fast path against its reference.

Each path keeps its reference implementation here, verbatim from before
the fast path replaced it, and asserts ``==`` (never approx) between the
two on a seeded corpus plus hand-built corner cases.

Paths:

* **Batched greedy pre-pass** (``repro.floorplan.greedy_packing``): every
  candidate arrangement the batched packer scores must cost exactly what
  the scalar per-candidate ``_cost`` gives, and a whole packer run must
  pick the same ``F_ref`` (orientations, positions, ``repr`` of the cost)
  after scoring the same number of candidates.
* **Block HPWL kernel** (``repro.floorplan.estimator``): ``hpwl``, every
  ``hpwl_batch`` row, ``signal_extents`` and both Eq. 2 lower bounds must
  equal a reference that locates each terminal through
  ``Orientation.apply``, takes Python ``min``/``max`` per signal and sums
  the ``(S,)`` spans with ``np.sum`` in signal order.  The packer's
  ``[reduceat]`` runs also check every ``signal_extents`` call against a
  segmented ``reduceat`` reduction, an earlier layout of the kernel.
* **Incremental SA evaluation** (``repro.floorplan.incremental``): over
  random walks of one-die moves, rotations, whole re-placements and
  repeated proposals, every ``IncrementalHpwl.propose`` must equal the
  full ``hpwl`` of the same arrays, which is what
  ``REPRO_SA_FULL_EVAL=1`` scores.
"""

import random
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.benchgen import generate_design, tiny_config
from repro.floorplan import (
    BTreeSAConfig,
    FastHpwlEvaluator,
    IncrementalHpwl,
    SAConfig,
    run_btree_sa,
    run_sa,
)
from repro.floorplan.greedy_packing import (
    _ILLEGAL_PENALTY,
    _OPPOSITE,
    SIDES,
    GreedyPacker,
    GreedyPackingResult,
)
from repro.geometry import ALL_ORIENTATIONS, Orientation, Point, Rect, hpwl
from repro.model import (
    Design,
    Die,
    EscapePoint,
    Interposer,
    IOBuffer,
    MicroBump,
    Package,
    Signal,
    SpacingRules,
    TSV,
)


class ReferencePacker(GreedyPacker):
    """The scalar packer: candidates scored one at a time by building each
    signal's ``Point`` list and calling ``geometry.hpwl``, and the two
    stages and the refinement looping over those scalar costs."""

    def __init__(self, design: Design):
        super().__init__(design)
        # Buffer terminals per die: (signal index, per-orientation local pos).
        self._die_terminals: Dict[str, List[Tuple[int, Dict[Orientation, Point]]]] = {}
        self._escape_pos: List[Optional[Point]] = []
        self._signal_degree: List[int] = [
            len(s.buffer_ids) for s in design.signals
        ]
        for idx, signal in enumerate(design.signals):
            self._escape_pos.append(
                design.escape(signal.escape_id).position
                if signal.escape_id is not None
                else None
            )
            for buffer_id in signal.buffer_ids:
                die_id = design.die_of_buffer(buffer_id)
                die = design.die(die_id)
                pos = die.buffer(buffer_id).position
                per_orient = {
                    o: o.apply(pos, die.width, die.height)
                    for o in ALL_ORIENTATIONS
                }
                self._die_terminals.setdefault(die_id, []).append(
                    (idx, per_orient)
                )

    def _cost(self, arrangement: Dict[str, Tuple[Point, Orientation]]) -> float:
        """HPWL over located terminals after centring, plus legality penalty."""
        self._cost_evals += 1
        rects = {
            d: self._rect(d, pos, o) for d, (pos, o) in arrangement.items()
        }
        box = None
        for r in rects.values():
            box = r if box is None else box.union(r)
        target = self.design.interposer.center
        off = Point(target.x - box.center.x, target.y - box.center.y)

        penalty = 0.0
        outline = self.design.interposer.outline
        for r in rects.values():
            clearance = outline.boundary_clearance(r.translated(off.x, off.y))
            if clearance < self._c_b - 1e-9:
                penalty += _ILLEGAL_PENALTY * (1.0 + (self._c_b - clearance))
        # Die-to-die violations (overlap or gap below c_d) are impossible
        # for the attach-generated candidates but can appear during the
        # in-place orientation refinement, so penalize them here too.
        rect_list = list(rects.values())
        for i, a in enumerate(rect_list):
            for b in rect_list[i + 1 :]:
                gap = a.gap_to(b)
                if a.overlaps(b) or gap < self._c_d - 1e-9:
                    penalty += _ILLEGAL_PENALTY * (1.0 + (self._c_d - gap))

        # Gather located terminal positions per signal.  Only signals whose
        # die terminals are *all* inside the packed set contribute ("the
        # total HPWL of all signals in F_pair"): a partially packed signal
        # has no meaningful HPWL yet, and counting its fragment would bias
        # the packer toward escape-point geometry instead of die-to-die
        # connectivity.
        per_signal: Dict[int, List[Point]] = {}
        for die_id, (pos, orient) in arrangement.items():
            base = pos + off
            for signal_idx, per_orient in self._die_terminals.get(die_id, ()):
                per_signal.setdefault(signal_idx, []).append(
                    per_orient[orient] + base
                )
        total = penalty
        for signal_idx, points in per_signal.items():
            if len(points) < self._signal_degree[signal_idx]:
                continue
            escape = self._escape_pos[signal_idx]
            if escape is not None:
                points.append(escape)
            if len(points) >= 2:
                total += hpwl(points)
        return total

    def _run(self) -> GreedyPackingResult:
        die_ids = [d.id for d in self.design.dies]
        if len(die_ids) == 1:
            arrangement = {die_ids[0]: (Point(0.0, 0.0), Orientation.R0)}
            return self._finish(arrangement)

        # Stage 1: best pair (Fig. 5 lines 2-12).
        best_cost = float("inf")
        best_pair: Optional[Dict[str, Tuple[Point, Orientation]]] = None
        for i, d_i in enumerate(die_ids):
            for d_j in die_ids[i + 1 :]:
                for r_i in ALL_ORIENTATIONS:
                    rect_i = self._rect(d_i, Point(0.0, 0.0), r_i)
                    for r_j in ALL_ORIENTATIONS:
                        for side in SIDES:
                            pos_j = self._attach_position(
                                rect_i, d_j, r_j, side
                            )
                            arrangement = {
                                d_i: (Point(0.0, 0.0), r_i),
                                d_j: (pos_j, r_j),
                            }
                            cost = self._cost(arrangement)
                            if cost < best_cost:
                                best_cost = cost
                                best_pair = arrangement
        assert best_pair is not None
        arrangement = dict(best_pair)

        # Stage 2: attach remaining dies one by one (Fig. 5 lines 14-24).
        used_sides: set = set()
        while len(arrangement) < len(die_ids):
            best_cost = float("inf")
            best_step = None
            placed_rects = {
                d: self._rect(d, pos, o)
                for d, (pos, o) in arrangement.items()
            }
            for d in die_ids:
                if d in arrangement:
                    continue
                for orient in ALL_ORIENTATIONS:
                    for anchor, side in self._available_boundaries(
                        arrangement, used_sides
                    ):
                        for align in ("center", "low", "high"):
                            pos = self._attach_position(
                                placed_rects[anchor], d, orient, side, align
                            )
                            rect = self._rect(d, pos, orient)
                            resolved = self._resolve_overlap(
                                rect, list(placed_rects.values())
                            )
                            if resolved is None:
                                continue
                            candidate = dict(arrangement)
                            candidate[d] = (
                                Point(resolved.x, resolved.y),
                                orient,
                            )
                            cost = self._cost(candidate)
                            if cost < best_cost:
                                best_cost = cost
                                best_step = (d, candidate, anchor, side)
            if best_step is None:
                raise RuntimeError(
                    "greedy packing could not attach a die without overlap"
                )
            d, arrangement, anchor, side = best_step
            used_sides.add((anchor, side))
            used_sides.add((d, _OPPOSITE[side]))
        arrangement = self._refine_orientations(arrangement)
        return self._finish(arrangement)

    def _refine_orientations(
        self, arrangement: Dict[str, Tuple[Point, Orientation]]
    ) -> Dict[str, Tuple[Point, Orientation]]:
        """Coordinate-descent polish of the per-die orientations.

        The greedy attach order can lock in early orientation choices that
        look poor once all dies are placed; since the whole point of
        ``F_ref`` is its orientation *vector* (EFA_dop re-derives the
        positions anyway), rotate each die in place about its centre and
        keep any strictly improving orientation, sweeping until stable.
        """
        current = dict(arrangement)
        cost = self._cost(current)
        for _ in range(3):
            improved = False
            for die_id in sorted(current):
                pos, orient = current[die_id]
                rect = self._rect(die_id, pos, orient)
                centre = rect.center
                for candidate in ALL_ORIENTATIONS:
                    if candidate is orient:
                        continue
                    die = self.design.die(die_id)
                    w, h = candidate.rotated_dims(die.width, die.height)
                    new_pos = Point(centre.x - w / 2.0, centre.y - h / 2.0)
                    trial = dict(current)
                    trial[die_id] = (new_pos, candidate)
                    trial_cost = self._cost(trial)
                    if trial_cost < cost - 1e-12:
                        current = trial
                        cost = trial_cost
                        orient = candidate
                        improved = True
            if not improved:
                break
        return current


class CheckedPacker(GreedyPacker):
    """The batched packer, each scored row checked against the reference."""

    def __init__(self, design: Design):
        super().__init__(design)
        self.reference = ReferencePacker(design)
        self.rows_checked = 0

    def _score(self, arrangements):
        costs = super()._score(arrangements)
        for arrangement, cost in zip(arrangements, costs):
            assert cost == self.reference._cost(arrangement), arrangement
        self.rows_checked += len(arrangements)
        return costs


def assert_same_packing(design: Design) -> CheckedPacker:
    """Run both packers on ``design``; every scored row and the whole
    result must agree exactly."""
    reference = ReferencePacker(design)
    expected = reference.run()
    packer = CheckedPacker(design)
    result = packer.run()
    assert result.orientations == expected.orientations
    assert repr(result.cost) == repr(expected.cost)
    assert packer._cost_evals == reference._cost_evals
    for die in design.dies:
        got = result.floorplan.placement(die.id)
        want = expected.floorplan.placement(die.id)
        assert got.position == want.position
        assert got.orientation is want.orientation
    assert packer.rows_checked >= packer._cost_evals
    return packer


# -- batched greedy pre-pass ---------------------------------------------------

# Seeded benchgen designs: (dies, size class, seed, buffer placement).  The
# size classes scale the signal count and chip like the suite's s/m/b.
_SIZES = {"s": (10, 1.2, 1.0), "m": (20, 1.6, 1.3), "b": (36, 2.0, 1.6)}
_CORPUS = [
    (2, "s", 1, "edge"),
    (2, "b", 2, "hotspot"),
    (3, "s", 3, "edge"),
    (3, "m", 4, "hotspot"),
    (4, "m", 5, "edge"),
    (4, "b", 6, "hotspot"),
    (5, "s", 7, "edge"),
    (5, "b", 8, "hotspot"),
    (6, "s", 9, "hotspot"),
    (6, "m", 10, "edge"),
    (7, "s", 11, "hotspot"),
    (8, "b", 12, "edge"),
]


def _corpus_design(dies: int, size: str, seed: int, placement: str) -> Design:
    signals, width, height = _SIZES[size]
    config = replace(
        tiny_config(die_count=dies, signal_count=signals, seed=seed),
        name=f"diff{dies}{size}-{seed}-{placement}",
        chip_width=width,
        chip_height=height,
        buffer_placement=placement,
    )
    return generate_design(config)


class _UncheckedSignal(Signal):
    """A :class:`Signal` without the constructor's shape checks."""

    def __post_init__(self) -> None:
        pass


def _corner_design() -> Design:
    """Three dies on a tight interposer with the signal shapes the cost
    rule treats specially: an escape-only signal, a signal with two
    buffers on one die and a single-terminal signal without an escape.

    The model's validator rejects the last two shapes, so they replace
    valid signals after construction; the cost rule still defines them
    (both same-die terminals count, and a lone terminal scores nothing).
    """

    def die(die_id, width, height, buffers):
        return Die(
            id=die_id,
            width=width,
            height=height,
            buffers=[
                IOBuffer(f"{die_id}{name}", die_id, Point(x, y))
                for name, x, y in buffers
            ],
            bumps=[
                MicroBump(f"{die_id}m{k}", die_id, Point(0.1 * (k + 1), 0.1))
                for k in range(len(buffers))
            ],
        )

    dies = [
        die(
            "a",
            1.0,
            0.6,
            [("x", 0.9, 0.3), ("y", 0.1, 0.5), ("z", 0.5, 0.1), ("w", 0.2, 0.2)],
        ),
        die("b", 0.8, 0.8, [("x", 0.1, 0.4), ("y", 0.7, 0.7), ("w", 0.4, 0.1)]),
        die("c", 0.5, 1.0, [("x", 0.25, 0.9), ("y", 0.4, 0.2), ("w", 0.1, 0.5)]),
    ]
    escapes = {
        "ab": Point(-0.4, 0.2),
        "esc": Point(3.2, 1.9),
        "single": Point(1.5, -0.4),
        "ac": Point(0.1, 2.3),
    }
    design = Design(
        name="greedy-corners",
        dies=dies,
        interposer=Interposer(
            width=2.8,
            height=1.8,
            tsvs=[TSV(f"t{k}", Point(0.5 + 0.5 * k, 0.9)) for k in range(4)],
        ),
        package=Package(
            frame=Rect(-0.5, -0.5, 3.8, 2.8),
            escape_points=[
                EscapePoint(f"e_{sid}", pos, sid)
                for sid, pos in escapes.items()
            ],
        ),
        spacing=SpacingRules(die_to_die=0.1, die_to_boundary=0.05),
        signals=[
            Signal("ab", ("ax", "bx"), "e_ab"),
            Signal("esc", (), "e_esc"),
            Signal("same", ("ay", "bw")),
            Signal("bc", ("by", "cy")),
            Signal("single", ("cw",), "e_single"),
            Signal("ac", ("az", "cx"), "e_ac"),
        ],
    )
    # Past the validator: "same" gets a second buffer on die a, and
    # "single" loses its escape.
    design.signals[2] = _UncheckedSignal("same", ("ay", "aw", "bw"))
    design.signals[4] = _UncheckedSignal("single", ("cw",))
    return design


class ReduceatExtents:
    """An earlier layout of the HPWL kernel: terminals flat in signal
    order, reduced per signal by ``np.minimum.reduceat`` and
    ``np.maximum.reduceat`` over the flattened batch.  An escape-only
    signal is an empty segment, which ``reduceat`` does not reduce to the
    identity, so each row gets a padded column and a sentinel start (every
    index stays in range) and those signals are overwritten with
    ``+inf``/``-inf`` before the escape extrema are applied."""

    def __init__(self, design: Design):
        index = {die.id: i for i, die in enumerate(design.dies)}
        t_die, local_x, local_y, starts, fixed = [], [], [], [], []
        inf = float("inf")
        for signal in design.signals:
            starts.append(len(t_die))
            for buffer_id in signal.buffer_ids:
                die = design.die(design.die_of_buffer(buffer_id))
                pos = die.buffer(buffer_id).position
                t_die.append(index[die.id])
                located = [
                    o.apply(pos, die.width, die.height)
                    for o in ALL_ORIENTATIONS
                ]
                local_x.append([p.x for p in located])
                local_y.append([p.y for p in located])
            if signal.escape_id is not None:
                e = design.escape(signal.escape_id).position
                fixed.append((e.x, e.x, e.y, e.y))
            else:
                fixed.append((inf, -inf, inf, -inf))
        self._t_die = np.asarray(t_die, dtype=np.int64)
        self._terms = np.arange(len(t_die))
        self._local_x = np.asarray(local_x, dtype=np.float64).reshape(-1, 4)
        self._local_y = np.asarray(local_y, dtype=np.float64).reshape(-1, 4)
        self._starts = np.asarray(starts + [len(t_die)], dtype=np.int64)
        self._empty = np.diff(self._starts) == 0
        self._fixed = np.asarray(fixed, dtype=np.float64).T

    def _reduce(self, values: np.ndarray, ufunc, identity: float):
        batch, width = values.shape
        padded = np.concatenate([values, np.zeros((batch, 1))], axis=1)
        starts = self._starts + (width + 1) * np.arange(batch)[:, None]
        reduced = ufunc.reduceat(padded.ravel(), starts.ravel())
        reduced = reduced.reshape(batch, -1)[:, :-1]
        return np.where(self._empty, identity, reduced)

    def __call__(self, die_x, die_y, codes):
        term_codes = np.asarray(codes, dtype=np.int64)[:, self._t_die]
        tx = die_x[:, self._t_die] + self._local_x[self._terms, term_codes]
        ty = die_y[:, self._t_die] + self._local_y[self._terms, term_codes]
        fmin_x, fmax_x, fmin_y, fmax_y = self._fixed
        return (
            np.minimum(self._reduce(tx, np.minimum, np.inf), fmin_x),
            np.maximum(self._reduce(tx, np.maximum, -np.inf), fmax_x),
            np.minimum(self._reduce(ty, np.minimum, np.inf), fmin_y),
            np.maximum(self._reduce(ty, np.maximum, -np.inf), fmax_y),
        )


@pytest.fixture(params=["slots", "reduceat"])
def hpwl_layout(request, monkeypatch):
    """Run on the evaluator's kernel alone (``slots``, named for the layout
    the kernel once had), or with every ``signal_extents`` call also
    checked ``==`` against :class:`ReduceatExtents`."""
    checked = []
    if request.param == "reduceat":
        kernel = FastHpwlEvaluator.signal_extents

        def signal_extents(self, die_x, die_y, orient_codes):
            got = kernel(self, die_x, die_y, orient_codes)
            want = ReduceatExtents(self.design)(
                np.asarray(die_x, dtype=np.float64),
                np.asarray(die_y, dtype=np.float64),
                orient_codes,
            )
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            checked.append(True)
            return got

        monkeypatch.setattr(
            FastHpwlEvaluator, "signal_extents", signal_extents
        )
    yield request.param
    if request.param == "reduceat":
        assert checked, "no signal_extents call was cross-checked"


class TestBatchedGreedy:
    @pytest.mark.parametrize(
        "dies,size,seed,placement",
        _CORPUS,
        ids=[f"{n}{size}-{seed}-{p}" for n, size, seed, p in _CORPUS],
    )
    def test_corpus(self, dies, size, seed, placement):
        assert_same_packing(_corpus_design(dies, size, seed, placement))

    def test_corner_signals(self, hpwl_layout):
        assert_same_packing(_corner_design())

    def test_chunked_batches(self, monkeypatch):
        import repro.floorplan.estimator

        # One row per chunk: chunking must not change any cost.
        monkeypatch.setattr(
            repro.floorplan.estimator, "DEFAULT_BATCH_CHUNK_BYTES", 1
        )
        packer = assert_same_packing(_corpus_design(4, "s", 11, "edge"))
        assert packer._evaluator.batch_chunk_rows() == 1

    def test_penalized_arrangements(self, hpwl_layout):
        """Arrangements that break the boundary clearance, overlap, or sit
        closer than c_d, scored in one batch with legal ones."""
        design = _corner_design()
        packer = CheckedPacker(design)
        c_d = design.spacing.die_to_die
        R0, R90 = Orientation.R0, Orientation.R90
        batch = [
            # Legal: a row with gaps above c_d, centred by the cost.
            {
                "a": (Point(0.0, 0.0), R0),
                "b": (Point(1.0 + 1.5 * c_d, 0.0), R0),
                "c": (Point(1.8 + 3 * c_d, 0.0), R0),
            },
            # Too wide for the interposer: boundary clearance penalty.
            {
                "a": (Point(0.0, 0.0), R0),
                "b": (Point(1.4, 0.0), R0),
                "c": (Point(2.4, 0.0), R90),
            },
            # a and b overlap.
            {
                "a": (Point(0.0, 0.0), R0),
                "b": (Point(0.5, 0.2), R0),
                "c": (Point(1.8, 0.0), R0),
            },
            # b sits half of c_d right of a: gap penalty only.
            {
                "a": (Point(0.0, 0.0), R0),
                "b": (Point(1.0 + c_d / 2, 0.0), R0),
                "c": (Point(1.8 + 3 * c_d, 0.0), R0),
            },
        ]
        costs = packer._score(batch)
        assert packer.rows_checked == len(batch)
        assert costs[0] < _ILLEGAL_PENALTY
        assert all(cost > _ILLEGAL_PENALTY for cost in costs[1:])

    def test_partial_arrangements(self, hpwl_layout):
        """One- and two-die arrangements: partially packed signals and the
        lone terminal score nothing, escapes are always located."""
        design = _corner_design()
        packer = CheckedPacker(design)
        for order in (["c"], ["a"], ["a", "b"], ["c", "a"], ["b", "c"]):
            batch = [
                {
                    d: (Point(1.1 * k, 0.05 * k), orient)
                    for k, d in enumerate(order)
                }
                for orient in ALL_ORIENTATIONS
            ]
            packer._score(batch)
        assert packer.rows_checked == 5 * len(ALL_ORIENTATIONS)


# -- block HPWL kernel --------------------------------------------------------


def _reference_points(design: Design, die_x, die_y, codes):
    """Per signal: its die terminals' global ``(x, y)``, each the die origin
    plus ``Orientation.apply`` of the buffer's local position, and its
    escape point (``None`` without one)."""
    index = {die.id: i for i, die in enumerate(design.dies)}
    located = []
    for signal in design.signals:
        points = []
        for buffer_id in signal.buffer_ids:
            die = design.die(design.die_of_buffer(buffer_id))
            i = index[die.id]
            local = ALL_ORIENTATIONS[int(codes[i])].apply(
                die.buffer(buffer_id).position, die.width, die.height
            )
            points.append((die_x[i] + local.x, die_y[i] + local.y))
        escape = (
            design.escape(signal.escape_id).position
            if signal.escape_id is not None
            else None
        )
        located.append((points, escape))
    return located


def reference_extents(design: Design, die_x, die_y, codes) -> np.ndarray:
    """``(S, 4)`` per-signal ``(min_x, max_x, min_y, max_y)``: Python
    ``min``/``max`` over the die terminals and the escape point."""
    rows = []
    for points, escape in _reference_points(design, die_x, die_y, codes):
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        if escape is not None:
            xs.append(escape.x)
            ys.append(escape.y)
        rows.append((min(xs), max(xs), min(ys), max(ys)))
    return np.array(rows)


def reference_hpwl(design: Design, die_x, die_y, codes) -> float:
    """Total HPWL: the ``(S,)`` x spans, then the y spans, each summed
    with ``np.sum`` in signal order."""
    ext = reference_extents(design, die_x, die_y, codes)
    x_spans = ext[:, 1] - ext[:, 0]
    y_spans = ext[:, 3] - ext[:, 2]
    return float(np.sum(x_spans) + np.sum(y_spans))


def reference_lower_bound(
    design: Design, axis: str, die_min, die_max, off_lo, off_hi
) -> float:
    """One axis of the certified Eq. 2 bound.  Per signal, the ceiling is
    the max of every terminal's lowest potential position (die minimum
    plus the local minimum over all orientations) and the escape's
    ``e - off_hi``; the floor is the min of the highest ones and
    ``e - off_lo``; the signal contributes ``max(ceiling - floor, 0)``."""
    index = {die.id: i for i, die in enumerate(design.dies)}
    spans = []
    for signal in design.signals:
        lows, highs = [], []
        for buffer_id in signal.buffer_ids:
            die = design.die(design.die_of_buffer(buffer_id))
            i = index[die.id]
            pos = die.buffer(buffer_id).position
            local = [
                getattr(o.apply(pos, die.width, die.height), axis)
                for o in ALL_ORIENTATIONS
            ]
            lows.append(die_min[i] + min(local))
            highs.append(die_max[i] + max(local))
        if signal.escape_id is not None:
            e = getattr(design.escape(signal.escape_id).position, axis)
            lows.append(e - off_hi)
            highs.append(e - off_lo)
        spans.append(max(max(lows) - min(highs), 0.0))
    return float(np.sum(np.array(spans)))


def assert_same_hpwl(design: Design, rows: int = 24, seed: int = 0) -> None:
    """Every estimator entry point ``==`` the reference on random rows."""
    evaluator = FastHpwlEvaluator(design)
    n = evaluator.die_count
    rng = np.random.default_rng(seed)
    die_x = rng.uniform(-2.0, 6.0, size=(rows, n))
    die_y = rng.uniform(-2.0, 6.0, size=(rows, n))
    codes = rng.integers(0, 4, size=(rows, n), dtype=np.int64)
    batch = evaluator.hpwl_batch(die_x, die_y, codes)
    extents = np.stack(evaluator.signal_extents(die_x, die_y, codes), axis=2)
    for b in range(rows):
        want = reference_hpwl(design, die_x[b], die_y[b], codes[b])
        assert evaluator.hpwl(die_x[b], die_y[b], codes[b]) == want
        assert batch[b] == want
        assert np.array_equal(
            extents[b],
            reference_extents(design, die_x[b], die_y[b], codes[b]),
        )
        lo = die_x[b] - 2.0
        hi = lo + rng.uniform(0.0, 3.0, size=n)
        off_lo, off_hi = np.sort(rng.uniform(-1.0, 1.0, size=2))
        assert evaluator.lower_bound_horizontal(
            lo, hi, off_lo, off_hi
        ) == reference_lower_bound(design, "x", lo, hi, off_lo, off_hi)
        assert evaluator.lower_bound_vertical(
            lo, hi, off_lo, off_hi
        ) == reference_lower_bound(design, "y", lo, hi, off_lo, off_hi)


def _wide_design(dies: int = 8, singles: int = 12) -> Design:
    """One signal with a buffer on every die; every other signal carries
    one buffer plus an escape, so every block holds the wide signal and
    most of a block's columns are NaN."""
    rng = random.Random(3)
    buffers: Dict[str, List[IOBuffer]] = {f"d{k}": [] for k in range(dies)}

    def buffer(die_id: str, signal_id: str) -> str:
        buffer_id = f"{die_id}b{len(buffers[die_id])}"
        buffers[die_id].append(
            IOBuffer(
                buffer_id,
                die_id,
                Point(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.8)),
                signal_id,
            )
        )
        return buffer_id

    signals = [Signal("wide", tuple(buffer(d, "wide") for d in buffers))]
    escapes = []
    for k in range(singles):
        signal_id = f"s{k}"
        escapes.append(
            EscapePoint(
                f"e{k}",
                Point(rng.uniform(-1.0, 9.0), rng.uniform(-1.0, 9.0)),
                signal_id,
            )
        )
        signals.append(
            Signal(signal_id, (buffer(f"d{k % dies}", signal_id),), f"e{k}")
        )
    return Design(
        name="wide-signal",
        dies=[
            Die(
                id=d,
                width=1.0,
                height=0.8,
                buffers=die_buffers,
                bumps=[
                    MicroBump(f"{d}m{j}", d, Point(0.1 * (j + 1), 0.4))
                    for j in range(len(die_buffers))
                ],
            )
            for d, die_buffers in buffers.items()
        ],
        interposer=Interposer(
            width=8.0,
            height=8.0,
            tsvs=[
                TSV(f"t{k}", Point(0.5 + 0.5 * k, 4.0)) for k in range(singles)
            ],
        ),
        package=Package(
            frame=Rect(-2.0, -2.0, 12.0, 12.0), escape_points=escapes
        ),
        signals=signals,
    )


def _all_escape_design() -> Design:
    """Three dies without buffers; every signal is escape-only, so the
    design has no die terminal at all."""
    escapes = [
        EscapePoint(f"e{k}", Point(1.0 + 2.0 * k, 0.5), f"s{k}")
        for k in range(3)
    ]
    return Design(
        name="all-escape-only",
        dies=[
            Die(id=f"d{k}", width=1.0, height=0.5 + 0.25 * k)
            for k in range(3)
        ],
        interposer=Interposer(
            width=6.0,
            height=4.0,
            tsvs=[TSV(f"t{k}", Point(1.0 + 2.0 * k, 2.0)) for k in range(3)],
        ),
        package=Package(
            frame=Rect(-1.0, -1.0, 8.0, 6.0), escape_points=escapes
        ),
        signals=[Signal(f"s{k}", (), escape_id=f"e{k}") for k in range(3)],
    )


class TestSlottedHpwl:
    @pytest.mark.parametrize(
        "dies,size,seed,placement",
        _CORPUS,
        ids=[f"{n}{size}-{seed}-{p}" for n, size, seed, p in _CORPUS],
    )
    def test_corpus(self, dies, size, seed, placement):
        design = _corpus_design(dies, size, seed, placement)
        assert_same_hpwl(design, seed=seed)

    def test_corner_signals(self):
        assert_same_hpwl(_corner_design())

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_escape_only_signals(self, position):
        from .test_batch_eval import make_escape_design

        assert_same_hpwl(make_escape_design(position))

    def test_wide_signal(self):
        assert_same_hpwl(_wide_design())

    def test_all_escape_design(self):
        """No die terminal at all: no block, so every extent is the
        signal's escape point."""
        assert_same_hpwl(_all_escape_design())

    @pytest.mark.parametrize(
        "runner,config",
        [(run_sa, SAConfig), (run_btree_sa, BTreeSAConfig)],
        ids=["sa", "btree"],
    )
    def test_all_escape_only_design_anneals(
        self, monkeypatch, runner, config
    ):
        """No die terminal at all: the delta evaluator scores every move
        (cross-checked against ``hpwl`` each time) and the spans are
        single points."""
        monkeypatch.delenv("REPRO_SA_FULL_EVAL", raising=False)
        result = runner(
            _all_escape_design(),
            config(
                cooling=0.85, moves_per_temperature=20, cross_check_every=1
            ),
        )
        assert result.found
        assert result.est_wl == 0.0
        assert result.stats.incremental_proposals > 0


# -- incremental SA evaluation -------------------------------------------------


def _random_state(rng: random.Random, n: int):
    """Random die origins in ``[0, 8)`` and orientation codes."""
    return (
        np.array([rng.uniform(0.0, 8.0) for _ in range(n)]),
        np.array([rng.uniform(0.0, 8.0) for _ in range(n)]),
        np.array([rng.randrange(4) for _ in range(n)], dtype=np.int64),
    )


def assert_same_walk(
    design: Design, seeds: Tuple[int, ...] = (0, 7, 23), steps: int = 200
) -> None:
    """Random accepted/rejected move sequences through
    :class:`IncrementalHpwl`: every proposal must equal the full ``hpwl``
    of the same arrays, the score ``REPRO_SA_FULL_EVAL=1`` uses."""
    evaluator = FastHpwlEvaluator(design)
    n = evaluator.die_count
    for seed in seeds:
        rng = random.Random(seed)
        inc = IncrementalHpwl(evaluator, cross_check_every=0)
        x, y, c = _random_state(rng, n)
        for step in range(steps):
            kind = rng.randrange(4)
            if kind == 0:  # move one die -> one-die path
                nx, ny, nc = x.copy(), y, c
                nx[rng.randrange(n)] += rng.uniform(-1.0, 1.0)
            elif kind == 1:  # rotate one die -> one-die path
                nx, ny = x, y
                nc = c.copy()
                nc[rng.randrange(n)] = rng.randrange(4)
            elif kind == 2:  # outline change -> full rescore
                nx, ny, nc = _random_state(rng, n)
            else:  # re-propose the same arrays -> identity path
                nx, ny, nc = x, y, c
            got = inc.propose(nx, ny, nc)
            want = evaluator.hpwl(nx, ny, nc)
            assert got == want, f"seed={seed} step={step}"
            if rng.random() < 0.5:
                inc.accept()
                x, y, c = nx, ny, nc
        assert inc.proposals == steps
        assert 0.0 < inc.dirty_ratio <= 1.0


class TestIncrementalWalk:
    @pytest.mark.parametrize(
        "dies,size,seed,placement",
        _CORPUS,
        ids=[f"{n}{size}-{seed}-{p}" for n, size, seed, p in _CORPUS],
    )
    def test_corpus(self, dies, size, seed, placement):
        assert_same_walk(_corpus_design(dies, size, seed, placement))

    def test_corner_signals(self):
        """Die ``a`` holds two terminals of one signal, so it owns two
        blocks and a one-die move of it rewrites two rows."""
        design = _corner_design()
        assert list(FastHpwlEvaluator(design)._block_die) == [0, 0, 1, 2]
        assert_same_walk(design)

    def test_wide_signal(self):
        assert_same_walk(_wide_design())

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_escape_only_signals(self, position):
        from .test_batch_eval import make_escape_design

        assert_same_walk(make_escape_design(position))

    def test_all_escape_design(self):
        assert_same_walk(_all_escape_design())
