"""JSON round-tripping for designs, floorplans and assignments.

Keeps benchmark artifacts inspectable and lets downstream users bring their
own designs without touching Python constructors.  The schema is versioned
so future format changes stay detectable.  Regular site arrays (a die's
micro-bumps, the interposer's TSVs) are written as grid objects; see
"site grids" below.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..geometry import Orientation, Point, Rect
from ..model import (
    Assignment,
    Design,
    Die,
    EscapePoint,
    Floorplan,
    IOBuffer,
    Interposer,
    MicroBump,
    Package,
    Placement,
    Signal,
    SpacingRules,
    TSV,
    Weights,
)

SCHEMA_VERSION = 1

PathLike = Union[str, Path]


def _point(p: Point) -> Dict[str, float]:
    return {"x": p.x, "y": p.y}


def _parse_point(d: Dict[str, float]) -> Point:
    return Point(float(d["x"]), float(d["y"]))


# -- site grids ------------------------------------------------------------------
#
# Candidate sites are regular area arrays in the paper and in every
# generated design (micro-bumps at 0.04 mm, TSVs at 0.2 mm pitch).
# ``design_to_dict`` writes a die's ``bumps`` and the interposer's ``tsvs``
# as one grid object
#
#     {"x0": .., "y0": .., "pitch": .., "rows": R, "cols": C, "id_prefix": P}
#
# when its expansion reproduces every site's id and position bit for bit,
# in order, and as the explicit list otherwise.  The expansion is the
# generators' own formula (``make_bump_grid``, ``make_tsv_grid``):
# row-major, site ``(r, c)`` is ``f"{P}_{r}_{c}"`` at
# ``(x0 + c*pitch, y0 + r*pitch)``.  Readers accept both forms.

GRID_KEYS = ("x0", "y0", "pitch", "rows", "cols", "id_prefix")

# Most sites a design's grid objects may expand to, together, and the
# longest side any one grid may have (see ``check_site_limit``).  A
# list-form body at the service's 32 MiB request limit spells out about
# half as many, so a few bytes of grids cannot ask a reader for
# unbounded memory.
MAX_GRID_SITES = 1 << 20

SiteGrid = Tuple[float, float, float, int, int, str]


def _is_count(value: Any) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


def site_grid_params(grid: Dict[str, Any]) -> SiteGrid:
    """``(x0, y0, pitch, rows, cols, id_prefix)`` of a grid object.

    Raises ``ValueError`` for a non-positive pitch, a count that is not
    a non-negative integer or a non-string prefix.  A non-finite origin
    passes here; the model rejects the sites it places outside their
    die or interposer.  The size limit is :func:`check_site_limit`'s.
    """
    x0, y0, pitch = float(grid["x0"]), float(grid["y0"]), float(grid["pitch"])
    rows, cols, prefix = grid["rows"], grid["cols"], grid["id_prefix"]
    if not (pitch > 0.0 and math.isfinite(pitch)):
        raise ValueError(f"site grid pitch must be positive, got {pitch!r}")
    if not (_is_count(rows) and _is_count(cols)):
        raise ValueError(
            f"site grid rows/cols must be non-negative integers, got "
            f"{rows!r}/{cols!r}"
        )
    if not isinstance(prefix, str):
        raise ValueError(f"site grid id_prefix must be a string: {prefix!r}")
    return x0, y0, pitch, rows, cols, prefix


def check_site_limit(dims: Iterable[Tuple[int, int]]) -> None:
    """Refuse grids of these ``(rows, cols)`` past :data:`MAX_GRID_SITES`.

    No grid may have a side longer than the limit, even an empty one,
    and one design's grids may hold at most that many sites together.
    Raises ``ValueError`` naming the limit; costs O(1) per grid.
    """
    total = 0
    for rows, cols in dims:
        if max(rows, cols) > MAX_GRID_SITES:
            raise ValueError(
                f"site grid of {rows}x{cols} has a side over the "
                f"{MAX_GRID_SITES}-site limit"
            )
        total += rows * cols
    if total > MAX_GRID_SITES:
        raise ValueError(
            f"site grids expand to {total} sites, over the "
            f"{MAX_GRID_SITES}-site limit"
        )


def _grid_sites(grid: SiteGrid) -> Tuple[List[str], List[float], List[float]]:
    """Every site's id, x and y, in row-major order.

    Each column's x, each row's y and each id part is computed once; an
    empty grid builds nothing, so the work is O(sites) whatever a side.
    """
    x0, y0, pitch, rows, cols, prefix = grid
    if not (rows and cols):
        return [], [], []
    xs = [x0 + c * pitch for c in range(cols)]
    ys = [y0 + r * pitch for r in range(rows)]
    row_ids = [f"{prefix}_{r}_" for r in range(rows)]
    col_ids = [str(c) for c in range(cols)]
    ids = [head + tail for head in row_ids for tail in col_ids]
    return ids, xs * rows, [y for y in ys for _ in xs]


def site_grid_bounds(
    grid: Dict[str, Any]
) -> Tuple[float, float, float, float]:
    """``(x_first, y_first, x_last, y_last)`` of a non-empty grid object.

    With a positive pitch every site lies inside this box, so a
    containment check costs O(1) whatever the grid's size.  Raises
    ``ValueError`` for a grid a reader refuses, one past the site limit
    included.
    """
    x0, y0, pitch, rows, cols, _ = site_grid_params(grid)
    check_site_limit([(rows, cols)])
    return x0, y0, x0 + (cols - 1) * pitch, y0 + (rows - 1) * pitch


def expand_site_grid(grid: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The explicit list form (``[{"id", "position"}, ...]``) of a grid."""
    params = site_grid_params(grid)
    check_site_limit([params[3:5]])
    ids, xs, ys = _grid_sites(params)
    return [
        {"id": i, "position": {"x": x, "y": y}} for i, x, y in zip(ids, xs, ys)
    ]


def _signed_zero_differs(actual: List[float], expected: List[float]) -> bool:
    # ``==`` holds between 0.0 and -0.0; the grid form must not turn one
    # into the other.
    return 0.0 in expected and any(
        math.copysign(1.0, a) != math.copysign(1.0, e)
        for a, e in zip(actual, expected)
        if e == 0.0
    )


def _match_site_grid(sites: Sequence[Any], pitch: float) -> Optional[SiteGrid]:
    """The grid (at ``pitch``) that expands to ``sites`` exactly, if any."""
    if not sites or not (pitch > 0.0 and math.isfinite(pitch)):
        return None
    first_id, last_id = sites[0].id, sites[-1].id
    if not (
        isinstance(first_id, str)
        and isinstance(last_id, str)
        and first_id.endswith("_0_0")
    ):
        return None
    prefix = first_id[:-4]
    last_rc = last_id[len(prefix) + 1:].split("_")
    if not (
        last_id.startswith(prefix + "_")
        and len(last_rc) == 2
        and all(part.isdecimal() for part in last_rc)
    ):
        return None
    rows, cols = int(last_rc[0]) + 1, int(last_rc[1]) + 1
    if rows * cols != len(sites):
        return None
    first = sites[0].position
    grid = (float(first.x), float(first.y), float(pitch), rows, cols, prefix)
    ids, expected_x, expected_y = _grid_sites(grid)
    actual_x = [s.position.x for s in sites]
    actual_y = [s.position.y for s in sites]
    if (
        actual_x != expected_x
        or actual_y != expected_y
        or [s.id for s in sites] != ids
        or _signed_zero_differs(actual_x, expected_x)
        or _signed_zero_differs(actual_y, expected_y)
    ):
        return None
    return grid


def _sites_to_json(sites: Sequence[Any], pitch: float) -> Any:
    """A grid object when it reproduces ``sites`` exactly, else the list."""
    grid = _match_site_grid(sites, pitch)
    if grid is not None:
        return dict(zip(GRID_KEYS, grid))
    return [{"id": s.id, "position": _point(s.position)} for s in sites]


def _sites_from_json(value: Any) -> Tuple[List[str], List[Point]]:
    """Site ids and positions from either form, in order."""
    if isinstance(value, dict):
        ids, xs, ys = _grid_sites(site_grid_params(value))
        return ids, list(map(Point, xs, ys))
    return (
        [sd["id"] for sd in value],
        [_parse_point(sd["position"]) for sd in value],
    )


def _check_grid_total(data: Dict[str, Any]) -> None:
    fields = [dd["bumps"] for dd in data["dies"]]
    fields.append(data["interposer"]["tsvs"])
    check_site_limit(
        site_grid_params(value)[3:5]
        for value in fields
        if isinstance(value, dict)
    )


def _parse_bumps(die_id: str, value: Any) -> List[MicroBump]:
    ids, points = _sites_from_json(value)
    return list(map(MicroBump, ids, repeat(die_id), points))


# -- design ----------------------------------------------------------------------


def design_to_dict(design: Design) -> Dict[str, Any]:
    """Serialize a design to plain JSON-ready dicts.

    Bump and TSV sites take the grid form (see "site grids") at the
    die's ``bump_pitch`` and the interposer's ``tsv_pitch`` when it
    reproduces them exactly, and the explicit list form otherwise.
    """
    return {
        "schema": SCHEMA_VERSION,
        "name": design.name,
        "weights": {
            "alpha": design.weights.alpha,
            "beta": design.weights.beta,
            "gamma": design.weights.gamma,
        },
        "spacing": {
            "die_to_die": design.spacing.die_to_die,
            "die_to_boundary": design.spacing.die_to_boundary,
        },
        "interposer": {
            "width": design.interposer.width,
            "height": design.interposer.height,
            "tsv_pitch": design.interposer.tsv_pitch,
            "tsvs": _sites_to_json(
                design.interposer.tsvs, design.interposer.tsv_pitch
            ),
        },
        "package": {
            "frame": list(design.package.frame),
            "escape_points": [
                {
                    "id": e.id,
                    "position": _point(e.position),
                    "signal_id": e.signal_id,
                }
                for e in design.package.escape_points
            ],
        },
        "dies": [
            {
                "id": d.id,
                "width": d.width,
                "height": d.height,
                "bump_pitch": d.bump_pitch,
                "buffers": [
                    {
                        "id": b.id,
                        "position": _point(b.position),
                        "signal_id": b.signal_id,
                    }
                    for b in d.buffers
                ],
                "bumps": _sites_to_json(d.bumps, d.bump_pitch),
            }
            for d in design.dies
        ],
        "signals": [
            {
                "id": s.id,
                "buffer_ids": list(s.buffer_ids),
                "escape_id": s.escape_id,
            }
            for s in design.signals
        ],
    }


def design_from_dict(data: Dict[str, Any]) -> Design:
    """Rebuild a design from :func:`design_to_dict` output.

    Site lists may come in either form: a grid object or the explicit
    list.  Structural problems — missing keys, wrong shapes — surface as
    ``ValueError`` with the offending access named, never as a bare
    ``KeyError``/``TypeError`` from deep inside the parse: callers (the
    service's submit path, the CLI) route ``ValueError`` to the user as
    a bad-input report, and :func:`repro.validate.lint_design` can give
    the full diagnostic list for the same dict.
    """
    try:
        return _design_from_dict(data)
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"malformed design dict ({type(exc).__name__}: {exc}); run "
            f"the design linter for the full diagnostic list"
        ) from exc


def _design_from_dict(data: Dict[str, Any]) -> Design:
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported design schema {data.get('schema')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    _check_grid_total(data)
    dies = []
    for dd in data["dies"]:
        dies.append(
            Die(
                id=dd["id"],
                width=float(dd["width"]),
                height=float(dd["height"]),
                bump_pitch=float(dd["bump_pitch"]),
                buffers=[
                    IOBuffer(
                        id=bd["id"],
                        die_id=dd["id"],
                        position=_parse_point(bd["position"]),
                        signal_id=bd.get("signal_id"),
                    )
                    for bd in dd["buffers"]
                ],
                bumps=_parse_bumps(dd["id"], dd["bumps"]),
            )
        )
    inter = data["interposer"]
    interposer = Interposer(
        width=float(inter["width"]),
        height=float(inter["height"]),
        tsv_pitch=float(inter["tsv_pitch"]),
        tsvs=list(map(TSV, *_sites_from_json(inter["tsvs"]))),
    )
    pkg = data["package"]
    package = Package(
        frame=Rect(*[float(v) for v in pkg["frame"]]),
        escape_points=[
            EscapePoint(
                id=ed["id"],
                position=_parse_point(ed["position"]),
                signal_id=ed["signal_id"],
            )
            for ed in pkg["escape_points"]
        ],
    )
    signals = [
        Signal(
            id=sd["id"],
            buffer_ids=tuple(sd["buffer_ids"]),
            escape_id=sd.get("escape_id"),
        )
        for sd in data["signals"]
    ]
    w = data["weights"]
    s = data["spacing"]
    return Design(
        name=data["name"],
        dies=dies,
        interposer=interposer,
        package=package,
        signals=signals,
        weights=Weights(
            float(w["alpha"]), float(w["beta"]), float(w["gamma"])
        ),
        spacing=SpacingRules(
            float(s["die_to_die"]), float(s["die_to_boundary"])
        ),
    )


# -- floorplan ----------------------------------------------------------------------


def floorplan_to_dict(floorplan: Floorplan) -> Dict[str, Any]:
    """Serialize a floorplan's placements."""
    return {
        "schema": SCHEMA_VERSION,
        "placements": {
            die_id: {
                "position": _point(pl.position),
                "orientation": pl.orientation.value,
            }
            for die_id, pl in floorplan.placements.items()
        },
    }


def floorplan_from_dict(data: Dict[str, Any], design: Design) -> Floorplan:
    """Rebuild a floorplan against its design."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError("unsupported floorplan schema")
    placements = {
        die_id: Placement(
            _parse_point(pd["position"]),
            Orientation(int(pd["orientation"])),
        )
        for die_id, pd in data["placements"].items()
    }
    return Floorplan(design, placements)


# -- assignment ---------------------------------------------------------------------


def assignment_to_dict(assignment: Assignment) -> Dict[str, Any]:
    """Serialize an assignment's two maps."""
    return {
        "schema": SCHEMA_VERSION,
        "buffer_to_bump": dict(assignment.buffer_to_bump),
        "escape_to_tsv": dict(assignment.escape_to_tsv),
    }


def assignment_from_dict(data: Dict[str, Any]) -> Assignment:
    """Rebuild an assignment from its dict form."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError("unsupported assignment schema")
    return Assignment(
        buffer_to_bump=dict(data["buffer_to_bump"]),
        escape_to_tsv=dict(data["escape_to_tsv"]),
    )


# -- canonical encoding and content hashing ----------------------------------------
#
# The service layer (repro.service) keys its result cache and checkpoint
# fingerprints on the *content* of a design/config, so the encoding must
# be a function of the value alone: key order, float spelling, tuple vs
# list, and whatever dict-insertion history produced the object must all
# wash out.  ``canonical_json`` guarantees that by normalizing every
# value before a key-sorted, minimal-separator dump; ``content_hash`` is
# the SHA-256 of the UTF-8 canonical text.

HASH_PREFIX = "sha256:"


def canonicalize(value: Any) -> Any:
    """Normalize a JSON-ready value into its canonical form.

    * dict keys must be strings (anything else is a hard error — silent
      coercion would make two distinct objects collide);
    * tuples become lists;
    * floats are normalized by value, so every textual spelling of the
      same double (``0.1`` vs ``0.10000000000000001``) and the negative
      zero collapse to one representation; integral floats *stay* floats
      (``1.0`` and ``1`` are different canonical values, matching what a
      JSON round-trip preserves);
    * non-finite floats are rejected: they are not JSON and would make
      the hash transport-dependent.
    """
    if value is None or isinstance(value, (bool, str, int)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                f"non-finite float {value!r} has no canonical JSON form"
            )
        # Collapse -0.0 to 0.0: they compare equal but repr differently.
        return value + 0.0 if value == 0.0 else value
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(
                    f"canonical JSON requires string keys, got {key!r}"
                )
            out[key] = canonicalize(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    raise TypeError(
        f"value of type {type(value).__name__} is not canonically "
        f"JSON-serializable: {value!r}"
    )


def canonical_json(data: Any) -> str:
    """Deterministic, key-sorted, compact JSON encoding of ``data``.

    Two structurally equal values produce byte-identical text regardless
    of dict insertion order or how their floats were originally spelled;
    see :func:`canonicalize` for the normalization rules.
    """
    return json.dumps(
        canonicalize(data),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def content_hash(data: Any) -> str:
    """``sha256:<hex>`` content hash of ``data``'s canonical encoding."""
    digest = hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()
    return HASH_PREFIX + digest


def design_hash(design: Design) -> str:
    """Stable content hash of a design (its :func:`design_to_dict` form).

    Invariant under re-serialization, dict reordering, float re-spelling
    and process restarts — the identity the service's result cache and
    the executor's checkpoint fingerprints are keyed on.
    """
    return content_hash(design_to_dict(design))


# -- file helpers ----------------------------------------------------------------------


def save_json(data: Dict[str, Any], path: PathLike) -> None:
    """Write a dict as pretty-printed JSON."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a JSON file into a dict."""
    return json.loads(Path(path).read_text())


def save_design(design: Design, path: PathLike) -> None:
    """Write a design as JSON."""
    save_json(design_to_dict(design), path)


def load_design(path: PathLike) -> Design:
    """Read a design from JSON."""
    return design_from_dict(load_json(path))


def save_floorplan(floorplan: Floorplan, path: PathLike) -> None:
    """Write a floorplan as JSON."""
    save_json(floorplan_to_dict(floorplan), path)


def load_floorplan(path: PathLike, design: Design) -> Floorplan:
    """Read a floorplan from JSON (needs its design)."""
    return floorplan_from_dict(load_json(path), design)


def save_assignment(assignment: Assignment, path: PathLike) -> None:
    """Write an assignment as JSON."""
    save_json(assignment_to_dict(assignment), path)


def load_assignment(path: PathLike) -> Assignment:
    """Read an assignment from JSON."""
    return assignment_from_dict(load_json(path))
