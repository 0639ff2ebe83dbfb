"""Unit tests for the greedy packing algorithm (Fig. 5) internals."""

import pytest

from repro.benchgen import load_case, load_tiny
from repro.floorplan.greedy_packing import (
    GreedyPacker,
    GreedyPackingResult,
    SIDES,
    predetermine_orientations,
)
from repro.geometry import ALL_ORIENTATIONS, Orientation, Point, Rect
from repro.obs import metrics


@pytest.fixture(scope="module")
def packer():
    return GreedyPacker(load_tiny(die_count=3, signal_count=10))


class TestAttachPosition:
    def test_right_center_alignment(self, packer):
        base = Rect(0, 0, 1.0, 1.0)
        die_id = packer.design.dies[0].id
        die = packer.design.die(die_id)
        pos = packer._attach_position(base, die_id, Orientation.R0, "right")
        # Touches at distance c_d, centre-aligned vertically.
        assert pos.x == pytest.approx(1.0 + packer._c_d)
        assert pos.y + die.height / 2.0 == pytest.approx(0.5)

    def test_left_and_bottom(self, packer):
        base = Rect(0, 0, 1.0, 1.0)
        die_id = packer.design.dies[0].id
        die = packer.design.die(die_id)
        left = packer._attach_position(base, die_id, Orientation.R0, "left")
        assert left.x == pytest.approx(-packer._c_d - die.width)
        bottom = packer._attach_position(
            base, die_id, Orientation.R0, "bottom"
        )
        assert bottom.y == pytest.approx(-packer._c_d - die.height)

    def test_low_and_high_alignment(self, packer):
        base = Rect(0, 0, 1.0, 1.0)
        die_id = packer.design.dies[0].id
        die = packer.design.die(die_id)
        low = packer._attach_position(
            base, die_id, Orientation.R0, "right", "low"
        )
        assert low.y == pytest.approx(0.0)
        high = packer._attach_position(
            base, die_id, Orientation.R0, "right", "high"
        )
        assert high.y == pytest.approx(1.0 - die.height)

    def test_orientation_swaps_dims(self, packer):
        base = Rect(0, 0, 1.0, 1.0)
        die_id = packer.design.dies[0].id
        die = packer.design.die(die_id)
        pos = packer._attach_position(base, die_id, Orientation.R90, "top")
        # Under R90 the footprint width is the die height.
        assert pos.x + die.height / 2.0 == pytest.approx(0.5)


class TestResolveOverlap:
    def test_clear_rect_unchanged(self, packer):
        rect = Rect(5.0, 5.0, 0.2, 0.2)
        placed = [Rect(0, 0, 1, 1)]
        assert packer._resolve_overlap(rect, placed) == rect

    def test_overlap_is_resolved(self, packer):
        rect = Rect(0.5, 0.5, 1.0, 1.0)
        placed = [Rect(0, 0, 1, 1)]
        resolved = packer._resolve_overlap(rect, placed)
        assert resolved is not None
        assert not resolved.overlaps(placed[0])
        # Spacing restored to at least c_d.
        assert resolved.gap_to(placed[0]) >= packer._c_d - 1e-9

    def test_minimal_displacement_direction(self, packer):
        # Barely overlapping on the right: pushing further right is the
        # cheapest escape.
        rect = Rect(0.9, 0.0, 1.0, 1.0)
        placed = [Rect(0, 0, 1, 1)]
        resolved = packer._resolve_overlap(rect, placed)
        assert resolved.x > rect.x
        assert resolved.y == pytest.approx(rect.y)


class TestRun:
    def test_result_shape(self):
        design = load_tiny(die_count=4, signal_count=10)
        result = predetermine_orientations(design)
        assert isinstance(result, GreedyPackingResult)
        assert set(result.orientations) == {d.id for d in design.dies}
        assert all(
            o in ALL_ORIENTATIONS for o in result.orientations.values()
        )

    def test_two_die_design(self):
        design = load_tiny(die_count=2, signal_count=6)
        result = predetermine_orientations(design)
        assert len(result.orientations) == 2

    def test_no_overlaps_in_reference(self):
        design = load_tiny(die_count=4, signal_count=10)
        result = predetermine_orientations(design)
        rects = [
            result.floorplan.die_rect(d.id) for d in design.dies
        ]
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                assert not rects[i].overlaps(rects[j])

    def test_reference_centred_on_interposer(self):
        design = load_tiny(die_count=3, signal_count=10)
        result = predetermine_orientations(design)
        box = result.floorplan.bounding_box()
        assert box.center.is_close(design.interposer.center, tol=1e-6)

    def test_deterministic(self):
        design = load_tiny(die_count=3, signal_count=10)
        a = predetermine_orientations(design)
        b = predetermine_orientations(design)
        assert a.orientations == b.orientations
        assert a.cost == b.cost

    def test_suite_cases_produce_legal_reference(self):
        # Regression: centre-only attachment used to make F_ref illegal on
        # tightly utilized interposers (t6s), poisoning EFA_dop.
        for case in ("t4s", "t6s"):
            design = load_case(case)
            result = predetermine_orientations(design)
            assert result.floorplan.is_legal(), case


class TestCostRule:
    def test_partially_packed_signals_excluded(self, packer):
        """A lone die contributes no signal HPWL (every cross-die signal is
        only partially packed), so the cost is pure legality penalty (zero
        for a legal single-die arrangement)."""
        design = packer.design
        die = design.dies[0]
        arrangement = {die.id: (Point(0.1, 0.1), Orientation.R0)}
        cost = packer._cost(arrangement)
        assert cost == pytest.approx(0.0)

    def test_sides_constant(self):
        assert SIDES == ("left", "right", "bottom", "top")


# Per suite case: the F_ref orientation vector (design die order),
# ``repr`` of its cost, and the number of candidate arrangements scored
# (``floorplan.greedy.candidates_evaluated``).  Any change to the packer
# or its cost arithmetic that moves one of these moves EFA_dop's input.
_GREEDY_GOLDEN = {
    "t4s": ("R180 R180 R180 R180", "134.18914532224966", 710),
    "t4m": ("R0 R180 R90 R90", "230.040191832614", 710),
    "t4b": ("R0 R270 R180 R270", "377.7580916723625", 710),
    "t6s": ("R0 R0 R0 R180 R270 R270", "200.9702903632878", 2217),
    "t6m": ("R180 R180 R180 R180 R180 R180", "325.088154415246", 2180),
    "t6b": ("R180 R180 R180 R180 R180 R180", "592.2597499239432", 2180),
    "t8s": (
        "R0 R0 R270 R0 R0 R0 R90 R270", "2510165168.8953195", 4674,
    ),
    "t8m": (
        "R270 R90 R270 R270 R180 R270 R180 R270", "2446492027.1471305", 4699,
    ),
    "t8b": ("R0 R0 R0 R0 R0 R0 R0 R0", "629.4586828342622", 4674),
}


class TestGreedyGolden:
    @pytest.mark.parametrize("case", sorted(_GREEDY_GOLDEN))
    def test_suite_case(self, case):
        vector, cost, count = _GREEDY_GOLDEN[case]
        design = load_case(case)
        counter = metrics.counter("floorplan.greedy.candidates_evaluated")
        before = counter.value
        result = predetermine_orientations(design)
        assert counter.value - before == count
        assert " ".join(
            result.orientations[d.id].name for d in design.dies
        ) == vector
        assert repr(result.cost) == cost
