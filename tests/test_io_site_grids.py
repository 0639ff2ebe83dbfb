"""Grid-form bump and TSV sites in the design JSON.

``design_to_dict`` writes a regular site array as one grid object when
its expansion reproduces every site exactly, and the explicit list
otherwise; ``design_from_dict`` reads both.  The properties under test:
the round trip keeps every site's id, die, position (bit for bit) and
order; irregular arrays fall back to the list; and the two forms of one
design are one cache key.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.benchgen import generate_design, load_tiny, suite_config
from repro.flow import FlowConfig
from repro.geometry import Point
from repro.io import (
    canonical_json,
    design_from_dict,
    design_to_dict,
    expand_site_grid,
    site_grid_bounds,
)
from repro.model import TSV, MicroBump
from repro.service import cache_key
from repro.validate import check_design
from tests.helpers import explicit

# The suite case whose chip and signal scale each die count borrows.
_SCALE_OF = {2: 4, 3: 4, 4: 4, 5: 6, 6: 6, 7: 8, 8: 8}
_CLASSES = [(n, size) for n in range(2, 9) for size in "smb"]


def _class_design(dies, size):
    config = suite_config(f"t{_SCALE_OF[dies]}{size}")
    return generate_design(
        replace(config, die_count=dies, name=f"grid{dies}{size}")
    )


def _sites(sites):
    """(id, die, x bits, y bits) of every site, in order."""
    return [
        (
            s.id,
            getattr(s, "die_id", None),
            s.position.x.hex(),
            s.position.y.hex(),
        )
        for s in sites
    ]


def _json_round_trip(design):
    return design_from_dict(json.loads(json.dumps(design_to_dict(design))))


def assert_same_sites(a, b):
    assert [d.id for d in a.dies] == [d.id for d in b.dies]
    for da, db in zip(a.dies, b.dies):
        assert _sites(da.bumps) == _sites(db.bumps)
    assert _sites(a.interposer.tsvs) == _sites(b.interposer.tsvs)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "dies,size", _CLASSES, ids=[f"{n}{s}" for n, s in _CLASSES]
    )
    def test_benchgen_class(self, dies, size):
        design = _class_design(dies, size)
        data = design_to_dict(design)
        assert isinstance(data["interposer"]["tsvs"], dict)
        assert all(isinstance(d["bumps"], dict) for d in data["dies"])
        assert_same_sites(design, _json_round_trip(design))

    @pytest.mark.parametrize("die_count", [2, 3, 4, 5])
    def test_tiny(self, die_count):
        design = load_tiny(die_count=die_count)
        assert isinstance(design_to_dict(design)["interposer"]["tsvs"], dict)
        assert_same_sites(design, _json_round_trip(design))

    def test_grid_and_list_read_alike(self):
        data = design_to_dict(load_tiny(die_count=3))
        from_grid = design_from_dict(data)
        from_list = design_from_dict(explicit(json.loads(json.dumps(data))))
        assert_same_sites(from_grid, from_list)

    def test_bounds_enclose_the_expansion(self):
        grid = design_to_dict(load_tiny(die_count=3))["interposer"]["tsvs"]
        sites = expand_site_grid(grid)
        xs = [s["position"]["x"] for s in sites]
        ys = [s["position"]["y"] for s in sites]
        assert site_grid_bounds(grid) == (xs[0], ys[0], max(xs), max(ys))


def _edit_bumps(design, edit):
    """``design`` with die 0's bump list replaced by ``edit(bumps)``."""
    die = design.dies[0]
    die.bumps = edit(list(die.bumps))
    die.reindex()
    design.validate()
    return design


def _moved(bumps):
    m = bumps[7]
    bumps[7] = MicroBump(
        m.id, m.die_id, Point(math.nextafter(m.position.x, 0.0), m.position.y)
    )
    return bumps


def _renamed(bumps):
    m = bumps[3]
    bumps[3] = MicroBump(m.id + "x", m.die_id, m.position)
    return bumps


def _int_ids(bumps):
    # Ids the model does not type-check: the first and last are ints.
    for k in (0, -1):
        bumps[k] = MicroBump(k, bumps[k].die_id, bumps[k].position)
    return bumps


def _ragged(bumps):
    # The last row keeps only its first half.
    cols = int(bumps[-1].id.rsplit("_", 1)[1]) + 1
    return bumps[: len(bumps) - cols // 2]


class TestListFallback:
    @pytest.mark.parametrize(
        "edit",
        [
            _moved,
            lambda bumps: bumps[:-1],
            _renamed,
            _int_ids,
            _ragged,
        ],
        ids=["moved-site", "missing-last", "renamed-id", "int-ids",
             "ragged-last-row"],
    )
    def test_irregular_bumps(self, edit):
        design = _edit_bumps(load_tiny(die_count=3), edit)
        data = design_to_dict(design)
        assert isinstance(data["dies"][0]["bumps"], list)
        assert all(isinstance(d["bumps"], dict) for d in data["dies"][1:])
        assert_same_sites(design, _json_round_trip(design))

    def test_empty_site_list(self):
        design = load_tiny(die_count=3, escape_fraction=0.0)
        design.interposer.tsvs = []
        design.interposer.reindex()
        design.validate()
        data = design_to_dict(design)
        assert data["interposer"]["tsvs"] == []
        assert _json_round_trip(design).interposer.tsvs == []

    def test_signed_zero_is_kept(self):
        # (0.0, y) expands from a grid at x0 = 0.0; a site stored at
        # (-0.0, y) compares equal but is another double.
        tsvs = [
            TSV(f"t_{r}_{c}", Point(0.0 + c * 0.25, 0.1 + r * 0.25))
            for r in range(2)
            for c in range(3)
        ]
        design = load_tiny(die_count=3, escape_fraction=0.0)
        design.interposer.tsvs = list(tsvs)
        design.interposer.reindex()
        assert isinstance(design_to_dict(design)["interposer"]["tsvs"], dict)
        design.interposer.tsvs[3] = TSV("t_1_0", Point(-0.0, 0.35))
        design.interposer.reindex()
        assert isinstance(design_to_dict(design)["interposer"]["tsvs"], list)
        rebuilt = _json_round_trip(design)
        assert rebuilt.interposer.tsvs[3].position.x.hex() == "-0x0.0p+0"

    def test_other_pitch_falls_back(self):
        design = load_tiny(die_count=3)
        design.dies[0].bump_pitch *= 2.0
        data = design_to_dict(design)
        assert isinstance(data["dies"][0]["bumps"], list)
        assert_same_sites(design, _json_round_trip(design))


class TestOneCacheKey:
    def test_list_and_grid_bodies_share_a_key(self):
        grid_body = design_to_dict(load_tiny(die_count=4, signal_count=16))
        list_body = explicit(json.loads(json.dumps(grid_body)))
        assert canonical_json(grid_body) != canonical_json(list_body)
        cfg = FlowConfig()
        assert cache_key(check_design(grid_body), cfg) == cache_key(
            check_design(list_body), cfg
        )
