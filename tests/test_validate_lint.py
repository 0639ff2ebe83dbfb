"""Tests for the design linter (machine-readable input diagnostics).

The linter's contract: every problem in a design dict comes back as a
structured :class:`Diagnostic` — all of them at once, not just the first
constructor error — and a clean design yields no error-severity findings.
"""

import math
import tracemalloc

import pytest

from repro.benchgen import load_tiny
from repro.flow import FlowConfig, run_flow
from repro.io import (
    MAX_GRID_SITES,
    design_from_dict,
    design_to_dict,
    expand_site_grid,
)
from repro.validate import (
    DesignLintError,
    Diagnostic,
    ERROR,
    WARNING,
    check_design,
    lint_design,
)
from tests.helpers import explicit


@pytest.fixture(scope="module")
def design():
    return load_tiny(die_count=3, signal_count=8)


@pytest.fixture()
def data(design):
    # design_to_dict builds fresh nested dicts each call, so every test
    # gets its own mutable copy.
    return design_to_dict(design)


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity == ERROR]


def codes_of(diagnostics):
    return {d.code for d in diagnostics}


class TestDiagnostic:
    def test_to_dict_and_str(self):
        d = Diagnostic("fit.die-oversize", ERROR, "dies[d1]", "too big")
        assert d.to_dict() == {
            "code": "fit.die-oversize",
            "severity": "error",
            "where": "dies[d1]",
            "message": "too big",
        }
        assert str(d) == "[error] fit.die-oversize at dies[d1]: too big"


class TestCleanDesigns:
    def test_clean_dict_has_no_errors(self, data):
        assert errors_of(lint_design(data)) == []

    def test_clean_design_object_has_no_errors(self, design):
        assert errors_of(lint_design(design)) == []

    def test_check_design_builds_the_design(self, data):
        built = check_design(data)
        assert built.name == data["name"]
        assert len(built.dies) == len(data["dies"])

    def test_check_design_passes_through_design(self, design):
        assert check_design(design) is design

    def test_rejects_non_design_argument(self):
        with pytest.raises(TypeError):
            lint_design(["not", "a", "design"])


class TestSchemaChecks:
    def test_wrong_schema_version(self, data):
        data["schema"] = 99
        assert "schema.version" in codes_of(lint_design(data))

    def test_missing_name(self, data):
        data["name"] = ""
        assert "schema.missing" in codes_of(lint_design(data))

    def test_missing_top_level_objects(self):
        diagnostics = lint_design({"schema": 1, "name": "x"})
        wheres = {d.where for d in errors_of(diagnostics)}
        for missing in ("weights", "spacing", "interposer", "package"):
            assert missing in wheres

    def test_non_numeric_field(self, data):
        data["dies"][0]["width"] = "wide"
        diags = errors_of(lint_design(data))
        assert any(
            d.code == "schema.missing" and "width" in d.where for d in diags
        )


class TestGeometryChecks:
    def test_nan_width_is_nonfinite(self, data):
        data["dies"][0]["width"] = math.nan
        assert "geometry.nonfinite" in codes_of(lint_design(data))

    def test_infinite_interposer(self, data):
        data["interposer"]["width"] = math.inf
        assert "geometry.nonfinite" in codes_of(lint_design(data))

    def test_nonpositive_die(self, data):
        data["dies"][0]["height"] = 0.0
        assert "geometry.nonpositive" in codes_of(lint_design(data))

    def test_negative_weight(self, data):
        data["weights"]["alpha"] = -1.0
        assert "geometry.negative" in codes_of(lint_design(data))

    def test_negative_spacing(self, data):
        data["spacing"]["die_to_die"] = -0.5
        assert "geometry.negative" in codes_of(lint_design(data))


class TestFitChecks:
    def test_oversize_die_under_all_orientations(self, data):
        data["dies"][0]["width"] = 10.0 * data["interposer"]["width"]
        assert "fit.die-oversize" in codes_of(lint_design(data))

    def test_rotated_fit_is_accepted(self, data):
        # Tall-and-thin beyond the interposer height fits rotated: only
        # the R90 footprint works, and that must be enough.
        iw = data["interposer"]["width"]
        data["dies"][0]["width"] = 0.9 * iw
        data["dies"][0]["height"] = 0.05
        codes = codes_of(lint_design(data))
        assert "fit.die-oversize" not in codes

    def test_area_overflow(self, data):
        for die in data["dies"]:
            die["width"] = 0.7 * data["interposer"]["width"]
            die["height"] = 0.7 * data["interposer"]["height"]
        assert "fit.area-overflow" in codes_of(lint_design(data))

    def test_area_tight_is_a_warning(self, data):
        # Scale the dies so their total area lands between the tight
        # threshold and overflow.
        iw = data["interposer"]["width"]
        ih = data["interposer"]["height"]
        c_b = data["spacing"]["die_to_boundary"]
        usable = (iw - 2 * c_b) * (ih - 2 * c_b)
        per_die = 0.9 * usable / len(data["dies"])
        for die in data["dies"]:
            die["width"] = per_die / die["height"]
        diags = lint_design(data)
        tight = [d for d in diags if d.code == "fit.area-tight"]
        assert tight and tight[0].severity == WARNING
        assert errors_of(diags) == []

    def test_package_frame_must_enclose_interposer(self, data):
        data["package"]["frame"] = [0.0, 0.0, 0.01, 0.01]
        assert "fit.package-frame" in codes_of(lint_design(data))


class TestReferenceChecks:
    def test_duplicate_die_id(self, data):
        data["dies"][1]["id"] = data["dies"][0]["id"]
        assert "id.duplicate" in codes_of(lint_design(data))

    def test_duplicate_tsv_id(self, data):
        tsvs = explicit(data)["interposer"]["tsvs"]
        tsvs[1]["id"] = tsvs[0]["id"]
        assert "id.duplicate" in codes_of(lint_design(data))

    def test_tsv_outside_interposer(self, data):
        explicit(data)["interposer"]["tsvs"][0]["position"] = {
            "x": -5.0, "y": 0.0,
        }
        assert "tsv.outside-interposer" in codes_of(lint_design(data))

    def test_tsv_grid_outside_interposer(self, data):
        data["interposer"]["tsvs"]["x0"] = -5.0
        assert "tsv.outside-interposer" in codes_of(lint_design(data))

    def test_tsv_grid_past_far_edge(self, data):
        # Only the last column leaves the interposer: the O(1) check
        # must hold the grid by its last site, not just its origin.
        grid = data["interposer"]["tsvs"]
        grid["cols"] += 1
        width = data["interposer"]["width"]
        assert grid["x0"] + (grid["cols"] - 1) * grid["pitch"] > width
        assert "tsv.outside-interposer" in codes_of(lint_design(data))
        assert codes_of(lint_design(data)) == codes_of(
            lint_design(explicit(data))
        )

    def test_buffer_outside_die(self, data):
        data["dies"][0]["buffers"][0]["position"] = {"x": 1e6, "y": 0.0}
        assert "pad.outside-die" in codes_of(lint_design(data))

    def test_unknown_buffer_reference(self, data):
        data["signals"][0]["buffer_ids"] = ["no-such-buffer"]
        assert "ref.unknown" in codes_of(lint_design(data))

    def test_unknown_escape_reference(self, data):
        data["signals"][0]["escape_id"] = "no-such-escape"
        assert "ref.unknown" in codes_of(lint_design(data))

    def test_degenerate_signal(self, data):
        data["signals"][0]["buffer_ids"] = []
        data["signals"][0]["escape_id"] = None
        assert "net.degenerate" in codes_of(lint_design(data))

    def test_repeated_terminal(self, data):
        sig = data["signals"][0]
        sig["buffer_ids"] = list(sig["buffer_ids"]) + [sig["buffer_ids"][0]]
        assert "net.duplicate-terminal" in codes_of(lint_design(data))

    def test_buffer_claimed_by_two_signals(self, data):
        data["signals"][1]["buffer_ids"] = list(
            data["signals"][0]["buffer_ids"]
        )
        assert "ref.conflict" in codes_of(lint_design(data))

    def test_capacity_bumps(self, data):
        die = explicit(data)["dies"][0]
        die["bumps"] = die["bumps"][:0]
        assert "capacity.bumps" in codes_of(lint_design(data))

    def test_capacity_bumps_grid(self, data):
        # Capacity is rows * cols: one site short of the carrying
        # buffers is an error, exactly enough is not.
        die = data["dies"][0]
        carrying = sum(1 for b in die["buffers"] if b.get("signal_id"))
        die["bumps"]["rows"], die["bumps"]["cols"] = 1, carrying - 1
        assert "capacity.bumps" in codes_of(lint_design(data))
        die["bumps"]["cols"] = carrying
        assert "capacity.bumps" not in codes_of(lint_design(data))

    def test_capacity_tsvs(self, data):
        data["interposer"]["tsvs"] = []
        assert "capacity.tsvs" in codes_of(lint_design(data))


class TestLintErrorAndGates:
    def test_check_design_raises_with_all_diagnostics(self, data):
        data["dies"][0]["width"] = -1.0
        data["weights"]["beta"] = -1.0
        with pytest.raises(DesignLintError) as err:
            check_design(data)
        assert len(err.value.diagnostics) >= 2
        assert all(d.severity == ERROR for d in err.value.diagnostics)
        assert "design failed lint" in str(err.value)

    def test_lint_error_is_a_value_error(self):
        assert issubclass(DesignLintError, ValueError)

    def test_run_flow_refuses_linted_rejects(self, data):
        # Constructible (positive dims) but provably infeasible: the
        # flow must refuse before any search starts.
        data["dies"][0]["width"] = 10.0 * data["interposer"]["width"]
        doomed = design_from_dict(data)
        with pytest.raises(DesignLintError):
            run_flow(doomed, FlowConfig())

    def test_collects_many_problems_in_one_pass(self, data):
        data["schema"] = 2
        data["dies"][0]["width"] = math.nan
        data["signals"][0]["buffer_ids"] = ["ghost"]
        tsvs = explicit(data)["interposer"]["tsvs"]
        tsvs[0]["id"] = tsvs[1]["id"]
        codes = codes_of(errors_of(lint_design(data)))
        assert {
            "schema.version",
            "geometry.nonfinite",
            "ref.unknown",
            "id.duplicate",
        } <= codes

    def test_collects_many_problems_in_one_pass_grid(self, data):
        data["schema"] = 2
        data["dies"][1]["bumps"]["x0"] = math.nan
        data["signals"][0]["buffer_ids"] = ["ghost"]
        data["interposer"]["tsvs"]["pitch"] = 0.0
        data["dies"][0]["bumps"]["rows"] = -3
        codes = codes_of(errors_of(lint_design(data)))
        assert {
            "schema.version",
            "geometry.nonfinite",
            "ref.unknown",
            "geometry.nonpositive",
            "geometry.negative",
        } <= codes


class TestSiteGrids:
    """Grid-form sites (``repro.io``'s site grids) lint in O(1) with the
    codes their explicit expansion gets."""

    def test_generated_design_is_grid_form(self, data):
        assert isinstance(data["interposer"]["tsvs"], dict)
        assert all(isinstance(d["bumps"], dict) for d in data["dies"])

    def test_clean_grid_and_expansion_lint_alike(self, data):
        assert lint_design(data) == lint_design(explicit(data))

    def test_nan_origin_lints_like_its_expansion(self, data):
        data["dies"][0]["bumps"]["y0"] = math.nan
        data["interposer"]["tsvs"]["x0"] = math.inf
        codes = codes_of(errors_of(lint_design(data)))
        assert codes == {"geometry.nonfinite"}
        assert codes == codes_of(errors_of(lint_design(explicit(data))))

    @pytest.mark.parametrize(
        "key,value,code",
        [
            ("x0", "left", "schema.missing"),
            ("y0", math.nan, "geometry.nonfinite"),
            ("pitch", 0.0, "geometry.nonpositive"),
            ("pitch", -0.04, "geometry.nonpositive"),
            ("rows", -1, "geometry.negative"),
            ("cols", 2.5, "schema.missing"),
            ("cols", True, "schema.missing"),
            ("rows", None, "schema.missing"),
            ("id_prefix", 7, "schema.missing"),
        ],
    )
    def test_bad_parameter(self, data, key, value, code):
        data["dies"][0]["bumps"][key] = value
        diags = [
            d for d in errors_of(lint_design(data))
            if d.where == f"dies[d1].bumps.{key}"
        ]
        assert [d.code for d in diags] == [code]
        with pytest.raises(ValueError):
            design_from_dict(data)

    def test_every_bad_parameter_is_reported(self, data):
        grid = data["dies"][0]["bumps"]
        grid.update(x0=math.nan, y0="low", pitch=0.0, rows=-1, cols=None)
        grid["id_prefix"] = None
        wheres = {d.where for d in errors_of(lint_design(data))}
        assert {
            f"dies[d1].bumps.{key}"
            for key in ("x0", "y0", "pitch", "rows", "cols", "id_prefix")
        } <= wheres

    def test_missing_parameter(self, data):
        del data["interposer"]["tsvs"]["pitch"]
        assert "schema.missing" in codes_of(lint_design(data))
        with pytest.raises(ValueError):
            design_from_dict(data)

    def test_too_many_sites(self, data):
        grid = data["interposer"]["tsvs"]
        grid["rows"], grid["cols"] = MAX_GRID_SITES, 2
        assert "grid.too-large" in codes_of(lint_design(data))
        with pytest.raises(ValueError, match="limit"):
            design_from_dict(data)

    def test_site_limit_is_per_design(self, data, monkeypatch):
        # Each grid is under the limit; together they are over it, and
        # the reader refuses before it expands anything.
        import repro.io.json_io

        for die in data["dies"]:
            die["bumps"]["rows"] = MAX_GRID_SITES // 2
            die["bumps"]["cols"] = 1
        assert "grid.too-large" in codes_of(lint_design(data))

        def refuse(grid):
            raise AssertionError("expanded a grid past the site limit")

        monkeypatch.setattr(repro.io.json_io, "_grid_sites", refuse)
        with pytest.raises(ValueError, match="limit"):
            design_from_dict(data)

    @pytest.mark.parametrize(
        "rows,cols", [(10**12, 0), (0, 10**12), (1, 10**400)]
    )
    def test_grid_side_past_the_limit(self, rows, cols, monkeypatch):
        # Nothing escapes, so no TSV capacity rule fires: the side alone
        # is refused, by lint and by the reader before it expands
        # anything, even when the grid holds no site at all.
        import repro.io.json_io

        data = design_to_dict(
            load_tiny(die_count=3, signal_count=8, escape_fraction=0.0)
        )
        data["interposer"]["tsvs"].update(rows=rows, cols=cols)
        assert codes_of(errors_of(lint_design(data))) == {"grid.too-large"}

        def refuse(grid):
            raise AssertionError("expanded a grid past the site limit")

        monkeypatch.setattr(repro.io.json_io, "_grid_sites", refuse)
        with pytest.raises(ValueError, match="limit"):
            design_from_dict(data)
        with pytest.raises(ValueError, match="limit"):
            expand_site_grid(data["interposer"]["tsvs"])

    def test_bump_grid_side_past_the_limit(self, data):
        data["dies"][0]["bumps"].update(rows=0, cols=MAX_GRID_SITES + 1)
        assert "grid.too-large" in codes_of(lint_design(data))
        with pytest.raises(ValueError, match="limit"):
            design_from_dict(data)

    def test_empty_grid_expands_to_nothing(self, data):
        # One entry per row of a 2^20 x 0 grid would take tens of MB.
        grid = data["interposer"]["tsvs"]
        grid.update(rows=MAX_GRID_SITES, cols=0)
        tracemalloc.start()
        try:
            assert expand_site_grid(grid) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_lint_never_expands_a_grid(self, data, monkeypatch):
        import repro.io.json_io

        def refuse(grid):
            raise AssertionError("lint expanded a site grid")

        monkeypatch.setattr(repro.io.json_io, "_grid_sites", refuse)
        grid = data["dies"][0]["bumps"]
        grid["rows"] = grid["cols"] = 1000
        assert errors_of(lint_design(data)) == []
