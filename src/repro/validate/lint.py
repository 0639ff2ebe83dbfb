"""Machine-readable design linting — the input side of the trust boundary.

:func:`lint_design` inspects a design (either a constructed
:class:`~repro.model.Design` or its raw :func:`~repro.io.design_to_dict`
form) and returns *every* problem it finds as a structured
:class:`Diagnostic` (``code`` / ``severity`` / ``where`` / ``message``),
instead of the first ``ValueError`` a constructor would throw from deep
inside the model layer.  The service rejects bad submissions at ``POST
/api/v1/jobs`` with the full diagnostic list, ``repro-25d validate``
prints it as JSON, and :func:`repro.flow.run_flow` refuses to start a
search that is provably doomed.

The linter works on the *dict* form so it can diagnose inputs the model
constructors would refuse to even build (duplicate ids, unknown
references, NaN dimensions): a :class:`~repro.model.Design` argument is
first serialized back through :func:`~repro.io.design_to_dict`, giving
one code path for both entry points.

Checks beyond what model construction enforces:

* non-finite or non-positive geometry anywhere (``Die`` accepts a NaN
  width today — ``NaN <= 0`` is false);
* dies that cannot fit the interposer under *any* of the four
  orientations once the boundary clearance ``c_b`` is subtracted;
* total die area exceeding the usable interposer area (both provably
  infeasible before any search runs);
* bump/TSV capacity shortfalls, duplicate/degenerate nets, dangling
  references — everything the model also checks, but reported all at
  once and machine-readably.

Site grids (``repro.io``'s grid form of a bump or TSV list) are checked
in O(1) from their parameters, with the codes their expansion would get.

Lint codes are stable API (the README carries the table); add new codes
rather than renaming existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..io import (
    SCHEMA_VERSION,
    check_site_limit,
    design_from_dict,
    design_to_dict,
    site_grid_bounds,
)
from ..model import Design

# Matches the slack the floorplan legality predicates allow, so the
# linter never rejects a design whose tightest packing is legal.
FIT_EPS = 1e-9

ERROR = "error"
WARNING = "warning"

# Fraction of the usable interposer area above which total die area
# triggers the tight-packing warning.
AREA_TIGHT_FRACTION = 0.85

__all__ = [
    "AREA_TIGHT_FRACTION",
    "Diagnostic",
    "DesignLintError",
    "ERROR",
    "WARNING",
    "check_design",
    "lint_design",
]


@dataclass(frozen=True)
class Diagnostic:
    """One linter/verifier finding, machine-readable.

    ``code`` is a stable dotted identifier (``fit.die-oversize``),
    ``severity`` is ``"error"`` or ``"warning"``, ``where`` locates the
    offending object (``dies[d2].width``, ``signals[s3]``) and
    ``message`` explains it for humans.
    """

    code: str
    severity: str
    where: str
    message: str

    def to_dict(self) -> Dict[str, str]:
        """Plain-dict form for JSON error bodies and reports."""
        return {
            "code": self.code,
            "severity": self.severity,
            "where": self.where,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} at {self.where}: {self.message}"


class DesignLintError(ValueError):
    """A design rejected by the linter, carrying every diagnostic.

    A ``ValueError`` subclass so existing catch sites (the job manager's
    submit path, the HTTP 400 mapping) treat linted rejections exactly
    like constructor-level ones — but with the full structured list on
    :attr:`diagnostics` instead of one message.
    """

    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = list(diagnostics)
        preview = "; ".join(str(d) for d in self.diagnostics[:3])
        more = len(self.diagnostics) - 3
        if more > 0:
            preview += f" (+{more} more)"
        super().__init__(
            f"design failed lint with {len(self.diagnostics)} error(s): "
            f"{preview}"
        )


class _Collector:
    """Accumulates diagnostics; tiny sugar over a list."""

    def __init__(self) -> None:
        self.items: List[Diagnostic] = []

    def error(self, code: str, where: str, message: str) -> None:
        self.items.append(Diagnostic(code, ERROR, where, message))

    def warning(self, code: str, where: str, message: str) -> None:
        self.items.append(Diagnostic(code, WARNING, where, message))


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value: Any) -> bool:
    return _is_num(value) and math.isfinite(float(value))


def _check_number(
    out: _Collector,
    value: Any,
    where: str,
    *,
    positive: bool = False,
    non_negative: bool = False,
) -> Optional[float]:
    """Validate one numeric field; returns its float value when usable."""
    if not _is_num(value):
        out.error(
            "schema.missing", where,
            f"expected a number, got {type(value).__name__}",
        )
        return None
    if not math.isfinite(float(value)):
        out.error(
            "geometry.nonfinite", where,
            f"non-finite value {value!r}",
        )
        return None
    val = float(value)
    if positive and val <= 0.0:
        out.error(
            "geometry.nonpositive", where,
            f"must be positive, got {val!r}",
        )
        return None
    if non_negative and val < 0.0:
        out.error(
            "geometry.negative", where,
            f"must be non-negative, got {val!r}",
        )
        return None
    return val


def _check_point(out: _Collector, value: Any, where: str) -> bool:
    """Validate one ``{"x": .., "y": ..}`` point dict."""
    if not isinstance(value, dict):
        out.error(
            "schema.missing", where,
            f"expected a point object, got {type(value).__name__}",
        )
        return False
    ok = True
    for axis in ("x", "y"):
        if _check_number(out, value.get(axis), f"{where}.{axis}") is None:
            ok = False
    return ok


def _get_list(
    out: _Collector, data: Dict[str, Any], key: str, where: str
) -> List[Any]:
    value = data.get(key)
    if value is None:
        out.error("schema.missing", f"{where}.{key}", "missing required list")
        return []
    if not isinstance(value, list):
        out.error(
            "schema.missing", f"{where}.{key}",
            f"expected a list, got {type(value).__name__}",
        )
        return []
    return value


def _check_count(out: _Collector, value: Any, where: str) -> Optional[int]:
    """Validate one non-negative integer count; returns it when usable."""
    if not isinstance(value, int) or isinstance(value, bool):
        out.error(
            "schema.missing", where,
            f"expected an integer count, got {type(value).__name__}",
        )
        return None
    if value < 0:
        out.error(
            "geometry.negative", where,
            f"must be non-negative, got {value!r}",
        )
        return None
    return value


def _check_site_grid(
    out: _Collector, grid: Dict[str, Any], where: str
) -> Tuple[Tuple[int, int], Optional[Tuple[float, float, float, float]]]:
    """Validate a site-grid object in O(1), with the codes a list gets.

    Returns the grid's ``(rows, cols)`` (``(0, 0)`` when a count is
    unusable) and the bounding box of its sites, or ``None`` when it is
    empty, past the site limit (which ``lint_design`` reports for the
    whole design) or any parameter is unusable.
    """
    origin_ok = all(
        [
            _check_number(out, grid.get(key), f"{where}.{key}") is not None
            for key in ("x0", "y0")
        ]
    )
    pitch = _check_number(
        out, grid.get("pitch"), f"{where}.pitch", positive=True
    )
    rows = _check_count(out, grid.get("rows"), f"{where}.rows")
    cols = _check_count(out, grid.get("cols"), f"{where}.cols")
    prefix_ok = isinstance(grid.get("id_prefix"), str)
    if not prefix_ok:
        out.error(
            "schema.missing", f"{where}.id_prefix",
            "expected a string id prefix",
        )
    if rows is None or cols is None:
        return (0, 0), None
    if not (origin_ok and pitch is not None and prefix_ok and rows * cols):
        return (rows, cols), None
    try:
        return (rows, cols), site_grid_bounds(grid)
    except ValueError:  # past the site limit
        return (rows, cols), None


def _check_tsv_grid(
    out: _Collector,
    grid: Dict[str, Any],
    iw: Optional[float],
    ih: Optional[float],
) -> Tuple[int, int]:
    """Lint the interposer's TSV grid; returns its ``(rows, cols)``."""
    dims, box = _check_site_grid(out, grid, "interposer.tsvs")
    if box is None or iw is None or ih is None:
        return dims
    x_first, y_first, x_last, y_last = box
    if not (
        -FIT_EPS <= x_first
        and x_last <= iw + FIT_EPS
        and -FIT_EPS <= y_first
        and y_last <= ih + FIT_EPS
    ):
        out.error(
            "tsv.outside-interposer", "interposer.tsvs",
            f"TSV grid from ({x_first:g}, {y_first:g}) to "
            f"({x_last:g}, {y_last:g}) leaves the {iw:g}x{ih:g} "
            f"interposer",
        )
    return dims


def _get_sites(
    out: _Collector, data: Dict[str, Any], key: str, where: str
) -> Union[Dict[str, Any], List[Any]]:
    """A site field: its grid object, or its list (see ``repro.io``)."""
    value = data.get(key)
    if isinstance(value, dict):
        return value
    return _get_list(out, data, key, where)


def _dup_check(
    out: _Collector, ids: List[Any], namespace: str
) -> None:
    seen: set = set()
    for item_id in ids:
        if item_id in seen:
            out.error(
                "id.duplicate", f"{namespace}[{item_id}]",
                f"duplicate id {item_id!r} in {namespace}",
            )
        seen.add(item_id)


def lint_design(design: Union[Design, Dict[str, Any]]) -> List[Diagnostic]:
    """Every problem with a design, as structured diagnostics.

    Accepts either a constructed :class:`~repro.model.Design` or the raw
    dict form.  Returns an empty list for a clean design; callers gate
    on ``severity == "error"`` (warnings flag smells like very tight
    area packing that remain legal inputs).
    """
    if isinstance(design, Design):
        data = design_to_dict(design)
    elif isinstance(design, dict):
        data = design
    else:
        raise TypeError(
            f"lint_design wants a Design or dict, got "
            f"{type(design).__name__}"
        )
    out = _Collector()

    if data.get("schema") != SCHEMA_VERSION:
        out.error(
            "schema.version", "schema",
            f"unsupported design schema {data.get('schema')!r}; "
            f"expected {SCHEMA_VERSION}",
        )
    if not isinstance(data.get("name"), str) or not data.get("name"):
        out.error("schema.missing", "name", "missing design name")

    # -- weights and spacing -------------------------------------------------
    weights = data.get("weights")
    if isinstance(weights, dict):
        for key in ("alpha", "beta", "gamma"):
            _check_number(
                out, weights.get(key), f"weights.{key}", non_negative=True
            )
    else:
        out.error("schema.missing", "weights", "missing weights object")
    spacing = data.get("spacing")
    c_b = c_d = 0.0
    if isinstance(spacing, dict):
        c_d = _check_number(
            out, spacing.get("die_to_die"), "spacing.die_to_die",
            non_negative=True,
        ) or 0.0
        c_b = _check_number(
            out, spacing.get("die_to_boundary"), "spacing.die_to_boundary",
            non_negative=True,
        ) or 0.0
    else:
        out.error("schema.missing", "spacing", "missing spacing object")

    # -- interposer ----------------------------------------------------------
    inter = data.get("interposer")
    iw = ih = None
    tsv_count = 0
    grid_dims: List[Tuple[int, int]] = []
    if isinstance(inter, dict):
        iw = _check_number(
            out, inter.get("width"), "interposer.width", positive=True
        )
        ih = _check_number(
            out, inter.get("height"), "interposer.height", positive=True
        )
        _check_number(
            out, inter.get("tsv_pitch"), "interposer.tsv_pitch",
            positive=True,
        )
        tsvs = _get_sites(out, inter, "tsvs", "interposer")
        if isinstance(tsvs, dict):
            rows, cols = _check_tsv_grid(out, tsvs, iw, ih)
            grid_dims.append((rows, cols))
            tsv_count = rows * cols
            tsvs = []
        else:
            tsv_count = len(tsvs)
        _dup_check(
            out,
            [t.get("id") for t in tsvs if isinstance(t, dict)],
            "interposer.tsvs",
        )
        for t in tsvs:
            if not isinstance(t, dict):
                out.error(
                    "schema.missing", "interposer.tsvs",
                    "TSV entries must be objects",
                )
                continue
            where = f"interposer.tsvs[{t.get('id')}]"
            if _check_point(out, t.get("position"), f"{where}.position"):
                if iw is not None and ih is not None:
                    x = float(t["position"]["x"])
                    y = float(t["position"]["y"])
                    if not (
                        -FIT_EPS <= x <= iw + FIT_EPS
                        and -FIT_EPS <= y <= ih + FIT_EPS
                    ):
                        out.error(
                            "tsv.outside-interposer", where,
                            f"TSV at ({x:g}, {y:g}) lies outside the "
                            f"{iw:g}x{ih:g} interposer",
                        )
    else:
        out.error("schema.missing", "interposer", "missing interposer object")

    # -- package -------------------------------------------------------------
    pkg = data.get("package")
    escape_ids: Dict[Any, Any] = {}
    if isinstance(pkg, dict):
        frame = pkg.get("frame")
        frame_vals: Optional[List[float]] = None
        if isinstance(frame, (list, tuple)) and len(frame) == 4:
            parsed = [
                _check_number(out, v, f"package.frame[{i}]")
                for i, v in enumerate(frame)
            ]
            if all(v is not None for v in parsed):
                frame_vals = [float(v) for v in parsed]  # type: ignore
        else:
            out.error(
                "schema.missing", "package.frame",
                "frame must be a [x, y, width, height] list",
            )
        if (
            frame_vals is not None
            and iw is not None
            and ih is not None
        ):
            fx, fy, fw, fh = frame_vals
            if fw <= 0 or fh <= 0:
                out.error(
                    "geometry.nonpositive", "package.frame",
                    f"non-positive frame size {fw:g}x{fh:g}",
                )
            elif not (
                fx <= FIT_EPS
                and fy <= FIT_EPS
                and fx + fw >= iw - FIT_EPS
                and fy + fh >= ih - FIT_EPS
            ):
                out.error(
                    "fit.package-frame", "package.frame",
                    "package frame does not enclose the interposer",
                )
        escapes = _get_list(out, pkg, "escape_points", "package")
        _dup_check(
            out,
            [e.get("id") for e in escapes if isinstance(e, dict)],
            "package.escape_points",
        )
        for e in escapes:
            if not isinstance(e, dict):
                out.error(
                    "schema.missing", "package.escape_points",
                    "escape-point entries must be objects",
                )
                continue
            where = f"package.escape_points[{e.get('id')}]"
            _check_point(out, e.get("position"), f"{where}.position")
            escape_ids[e.get("id")] = e.get("signal_id")
    else:
        out.error("schema.missing", "package", "missing package object")

    # -- dies ----------------------------------------------------------------
    dies = _get_list(out, data, "dies", "design")
    _dup_check(
        out, [d.get("id") for d in dies if isinstance(d, dict)], "dies"
    )
    buffer_owner: Dict[Any, Any] = {}
    die_bumps: Dict[Any, int] = {}
    die_buffers: Dict[Any, List[Any]] = {}
    total_area = 0.0
    for d in dies:
        if not isinstance(d, dict):
            out.error("schema.missing", "dies", "die entries must be objects")
            continue
        die_id = d.get("id")
        where = f"dies[{die_id}]"
        w = _check_number(out, d.get("width"), f"{where}.width", positive=True)
        h = _check_number(
            out, d.get("height"), f"{where}.height", positive=True
        )
        _check_number(
            out, d.get("bump_pitch"), f"{where}.bump_pitch", positive=True
        )
        if w is not None and h is not None:
            total_area += w * h
            if iw is not None and ih is not None:
                # The die (plus c_b clearance on both sides) must fit the
                # interposer in at least one of the two distinct
                # footprints R0/R180 (w x h) and R90/R270 (h x w).
                avail_w = iw - 2.0 * c_b
                avail_h = ih - 2.0 * c_b
                fits_r0 = (
                    w <= avail_w + FIT_EPS and h <= avail_h + FIT_EPS
                )
                fits_r90 = (
                    h <= avail_w + FIT_EPS and w <= avail_h + FIT_EPS
                )
                if not (fits_r0 or fits_r90):
                    out.error(
                        "fit.die-oversize", where,
                        f"die {w:g}x{h:g} cannot fit the {iw:g}x{ih:g} "
                        f"interposer with boundary clearance {c_b:g} "
                        f"under any orientation",
                    )
        bumps = _get_sites(out, d, "bumps", where)
        if isinstance(bumps, dict):
            (rows, cols), _ = _check_site_grid(out, bumps, f"{where}.bumps")
            grid_dims.append((rows, cols))
            die_bumps[die_id] = rows * cols
            bumps = []
        else:
            die_bumps[die_id] = len(bumps)
        buffers = _get_list(out, d, "buffers", where)
        die_buffers[die_id] = []
        _dup_check(
            out,
            [m.get("id") for m in bumps if isinstance(m, dict)],
            f"{where}.bumps",
        )
        for m in bumps:
            if isinstance(m, dict):
                _check_point(
                    out, m.get("position"),
                    f"{where}.bumps[{m.get('id')}].position",
                )
        for b in buffers:
            if not isinstance(b, dict):
                out.error(
                    "schema.missing", f"{where}.buffers",
                    "buffer entries must be objects",
                )
                continue
            bid = b.get("id")
            bwhere = f"{where}.buffers[{bid}]"
            _check_point(out, b.get("position"), f"{bwhere}.position")
            if bid in buffer_owner:
                out.error(
                    "id.duplicate", bwhere,
                    f"I/O buffer id {bid!r} used by dies "
                    f"{buffer_owner[bid]!r} and {die_id!r}",
                )
            else:
                buffer_owner[bid] = die_id
            die_buffers[die_id].append(bid)
            if (
                w is not None
                and h is not None
                and isinstance(b.get("position"), dict)
                and _finite(b["position"].get("x"))
                and _finite(b["position"].get("y"))
            ):
                x = float(b["position"]["x"])
                y = float(b["position"]["y"])
                if not (
                    -FIT_EPS <= x <= w + FIT_EPS
                    and -FIT_EPS <= y <= h + FIT_EPS
                ):
                    out.error(
                        "pad.outside-die", bwhere,
                        f"buffer at ({x:g}, {y:g}) lies outside the "
                        f"{w:g}x{h:g} die",
                    )

    try:
        check_site_limit(grid_dims)
    except ValueError as exc:
        out.error("grid.too-large", "design", str(exc))

    # -- usable-area feasibility --------------------------------------------
    if iw is not None and ih is not None and dies:
        usable = max(0.0, iw - 2.0 * c_b) * max(0.0, ih - 2.0 * c_b)
        if total_area > usable + FIT_EPS:
            out.error(
                "fit.area-overflow", "dies",
                f"total die area {total_area:g} exceeds the usable "
                f"interposer area {usable:g} "
                f"({iw:g}x{ih:g} minus clearance {c_b:g}); no legal "
                f"floorplan can exist",
            )
        elif usable > 0 and total_area > AREA_TIGHT_FRACTION * usable:
            out.warning(
                "fit.area-tight", "dies",
                f"total die area {total_area:g} uses "
                f"{total_area / usable:.0%} of the usable interposer "
                f"area; packing may be infeasible with spacing "
                f"c_d={c_d:g}",
            )

    # -- signals -------------------------------------------------------------
    signals = _get_list(out, data, "signals", "design")
    if not signals and not out.items:
        out.warning(
            "signals.empty", "signals",
            "design has no signals; nothing to optimize",
        )
    _dup_check(
        out, [s.get("id") for s in signals if isinstance(s, dict)], "signals"
    )
    declared_signal_of_buffer = {
        b.get("id"): b.get("signal_id")
        for d in dies
        if isinstance(d, dict)
        for b in d.get("buffers", [])
        if isinstance(b, dict)
    }
    buffer_claimed: Dict[Any, Any] = {}
    escape_claimed: Dict[Any, Any] = {}
    carrying_per_die: Dict[Any, int] = {}
    escaping = 0
    for s in signals:
        if not isinstance(s, dict):
            out.error(
                "schema.missing", "signals", "signal entries must be objects"
            )
            continue
        sid = s.get("id")
        where = f"signals[{sid}]"
        buffer_ids = s.get("buffer_ids")
        if not isinstance(buffer_ids, (list, tuple)):
            out.error(
                "schema.missing", f"{where}.buffer_ids",
                "buffer_ids must be a list",
            )
            buffer_ids = []
        escape_id = s.get("escape_id")
        if len(buffer_ids) == 0 and escape_id is None:
            out.error(
                "net.degenerate", where, "signal has no terminals at all"
            )
        elif len(buffer_ids) == 1 and escape_id is None:
            out.error(
                "net.degenerate", where,
                "signal has a single terminal and no escape point; it "
                "would need no interposer routing",
            )
        if len(set(buffer_ids)) != len(buffer_ids):
            out.error(
                "net.duplicate-terminal", where,
                "signal repeats a buffer terminal",
            )
        touched_dies: Dict[Any, Any] = {}
        for bid in buffer_ids:
            if bid not in buffer_owner:
                out.error(
                    "ref.unknown", where,
                    f"signal references unknown buffer {bid!r}",
                )
                continue
            die_id = buffer_owner[bid]
            if die_id in touched_dies and touched_dies[die_id] != bid:
                out.error(
                    "net.duplicate-terminal", where,
                    f"signal has two terminals in die {die_id!r}",
                )
            touched_dies[die_id] = bid
            if bid in buffer_claimed and buffer_claimed[bid] != sid:
                out.error(
                    "ref.conflict", where,
                    f"buffer {bid!r} carries two signals "
                    f"({buffer_claimed[bid]!r} and {sid!r})",
                )
            buffer_claimed[bid] = sid
            carrying_per_die[die_id] = carrying_per_die.get(die_id, 0) + 1
            declared = declared_signal_of_buffer.get(bid)
            if declared is not None and declared != sid:
                out.error(
                    "ref.conflict", where,
                    f"buffer {bid!r} declares signal {declared!r} but "
                    f"signal {sid!r} claims it",
                )
        if escape_id is not None:
            escaping += 1
            if escape_id not in escape_ids:
                out.error(
                    "ref.unknown", where,
                    f"signal references unknown escape point "
                    f"{escape_id!r}",
                )
            else:
                if (
                    escape_id in escape_claimed
                    and escape_claimed[escape_id] != sid
                ):
                    out.error(
                        "ref.conflict", where,
                        f"escape point {escape_id!r} carries two signals",
                    )
                escape_claimed[escape_id] = sid
                declared = escape_ids[escape_id]
                if declared != sid:
                    out.error(
                        "ref.conflict", where,
                        f"escape point {escape_id!r} declares signal "
                        f"{declared!r}, but signal {sid!r} claims it",
                    )

    # -- capacity ------------------------------------------------------------
    for die_id, carrying in sorted(
        carrying_per_die.items(), key=lambda kv: str(kv[0])
    ):
        available = die_bumps.get(die_id, 0)
        if carrying > available:
            out.error(
                "capacity.bumps", f"dies[{die_id}]",
                f"die has {carrying} signal-carrying buffers but only "
                f"{available} micro-bump sites",
            )
    if escaping > tsv_count:
        out.error(
            "capacity.tsvs", "interposer.tsvs",
            f"{escaping} escaping signals but only {tsv_count} TSV sites",
        )

    return out.items


def check_design(
    design: Union[Design, Dict[str, Any]]
) -> Design:
    """Lint, then construct (or pass through) a :class:`Design`.

    Raises :class:`DesignLintError` carrying every error-severity
    diagnostic when the design is bad; otherwise returns the built
    design.  The model constructors still run (second line of defense):
    anything they reject that the linter missed surfaces as a plain
    ``ValueError``.
    """
    diagnostics = [d for d in lint_design(design) if d.severity == ERROR]
    if diagnostics:
        raise DesignLintError(diagnostics)
    if isinstance(design, Design):
        return design
    return design_from_dict(design)
