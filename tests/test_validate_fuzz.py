"""Seeded fuzz tests for the linter and the canonical content hash.

Two properties, each hammered with a fixed-seed stdlib ``random`` stream
(fully deterministic, no third-party fuzzing dependency):

* every mutation drawn from a catalogue of *guaranteed-invalid* edits
  must produce at least one error-severity lint diagnostic — the linter
  has no blind spots across the catalogue's span — with the sites in
  grid form and as explicit lists, and a grid lints with the codes of
  its expansion; and
* ``content_hash`` is invariant under dict key reordering and
  tuple/list substitution, so cache keys and dedupe handshakes cannot be
  defeated by representation noise.
"""

import json
import math
import random

import pytest

from repro.benchgen import load_tiny
from repro.io import canonical_json, canonicalize, content_hash, design_to_dict
from repro.validate import ERROR, lint_design
from tests.helpers import explicit

SEED = 0x25D1C
ROUNDS = 100


@pytest.fixture(scope="module")
def base():
    return design_to_dict(load_tiny(die_count=3, signal_count=8))


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity == ERROR]


FORMS = ("grid", "list")


def _tiny(form):
    data = design_to_dict(load_tiny(die_count=3, signal_count=8))
    return explicit(data) if form == "list" else data


# --- mutation catalogue ----------------------------------------------------
# Each mutator takes (data, rng), edits in place, and returns a short tag
# describing the injected defect.  Every entry is invalid by construction.


def _mut_nan_die_dim(data, rng):
    die = rng.choice(data["dies"])
    die[rng.choice(["width", "height"])] = math.nan
    return "nan-die-dim"


def _mut_negative_die_dim(data, rng):
    die = rng.choice(data["dies"])
    die[rng.choice(["width", "height"])] = -rng.uniform(0.1, 10.0)
    return "negative-die-dim"


def _mut_zero_interposer(data, rng):
    data["interposer"][rng.choice(["width", "height"])] = 0.0
    return "zero-interposer"


def _mut_infinite_weight(data, rng):
    key = rng.choice(sorted(data["weights"]))
    data["weights"][key] = rng.choice([math.inf, -math.inf, math.nan])
    return "nonfinite-weight"


def _mut_negative_spacing(data, rng):
    key = rng.choice(sorted(data["spacing"]))
    data["spacing"][key] = -rng.uniform(0.01, 5.0)
    return "negative-spacing"


def _mut_bad_schema(data, rng):
    data["schema"] = rng.choice([0, 2, 99, -1, "one"])
    return "bad-schema"


def _mut_drop_section(data, rng):
    del data[rng.choice(["weights", "spacing", "interposer", "package"])]
    return "missing-section"


def _mut_duplicate_die_id(data, rng):
    a, b = rng.sample(range(len(data["dies"])), 2)
    data["dies"][a]["id"] = data["dies"][b]["id"]
    return "duplicate-die-id"


def _mut_huge_die(data, rng):
    die = rng.choice(data["dies"])
    die["width"] = data["interposer"]["width"] * rng.uniform(2.0, 20.0)
    die["height"] = data["interposer"]["height"] * rng.uniform(2.0, 20.0)
    return "huge-die"


def _mut_ghost_buffer_ref(data, rng):
    sig = rng.choice(data["signals"])
    sig["buffer_ids"] = ["ghost-%d" % rng.randrange(1000)]
    return "ghost-buffer-ref"


def _mut_ghost_escape_ref(data, rng):
    sig = rng.choice(data["signals"])
    sig["escape_id"] = "ghost-%d" % rng.randrange(1000)
    return "ghost-escape-ref"


def _mut_buffer_off_die(data, rng):
    die = rng.choice(data["dies"])
    buf = rng.choice(die["buffers"])
    buf["position"] = {
        "x": rng.uniform(1e5, 1e7),
        "y": rng.uniform(1e5, 1e7),
    }
    return "buffer-off-die"


def _mut_tsv_off_interposer(data, rng):
    tsvs = data["interposer"]["tsvs"]
    if isinstance(tsvs, dict):
        tsvs["x0"] = -rng.uniform(1.0, 100.0)
    else:
        tsv = rng.choice(tsvs)
        tsv["position"] = {"x": -rng.uniform(1.0, 100.0), "y": 0.0}
    return "tsv-off-interposer"


def _mut_drop_all_tsvs(data, rng):
    data["interposer"]["tsvs"] = []
    return "no-tsvs"


# Grid mutators: each edits one site grid (a die's bumps or the
# interposer's TSVs) of grid-form data.


def _some_grid(data, rng):
    sites = [die["bumps"] for die in data["dies"]]
    if isinstance(data.get("interposer"), dict):
        sites.append(data["interposer"]["tsvs"])
    return rng.choice([grid for grid in sites if isinstance(grid, dict)])


def _mut_grid_bad_count(data, rng):
    grid = _some_grid(data, rng)
    grid[rng.choice(["rows", "cols"])] = rng.choice(
        [-1, -rng.randrange(2, 1000), 2.5, "3", None, True]
    )
    return "grid-bad-count"


def _mut_grid_zero_pitch(data, rng):
    _some_grid(data, rng)["pitch"] = rng.choice([0.0, -0.04, 0])
    return "grid-zero-pitch"


def _mut_grid_nan_origin(data, rng):
    _some_grid(data, rng)[rng.choice(["x0", "y0"])] = math.nan
    return "grid-nan-origin"


def _mut_tsv_grid_past_edge(data, rng):
    grid = data["interposer"]["tsvs"]
    # Enough extra columns (or rows) that the last site crosses the far
    # edge whatever the interposer's size.
    key, span = rng.choice(
        [("cols", data["interposer"]["width"]),
         ("rows", data["interposer"]["height"])]
    )
    grid[key] += int(span / grid["pitch"]) + rng.randint(1, 5)
    return "tsv-grid-past-edge"


def _mut_non_numeric_field(data, rng):
    die = rng.choice(data["dies"])
    die[rng.choice(["width", "height"])] = rng.choice(
        ["wide", None, [1.0], {"v": 1.0}]
    )
    return "non-numeric-field"


MUTATORS = [
    _mut_nan_die_dim,
    _mut_negative_die_dim,
    _mut_zero_interposer,
    _mut_infinite_weight,
    _mut_negative_spacing,
    _mut_bad_schema,
    _mut_drop_section,
    _mut_duplicate_die_id,
    _mut_huge_die,
    _mut_ghost_buffer_ref,
    _mut_ghost_escape_ref,
    _mut_buffer_off_die,
    _mut_tsv_off_interposer,
    _mut_drop_all_tsvs,
    _mut_non_numeric_field,
]

GRID_MUTATORS = [
    _mut_grid_bad_count,
    _mut_grid_zero_pitch,
    _mut_grid_nan_origin,
    _mut_tsv_grid_past_edge,
]


def _catalogue(form):
    return MUTATORS + GRID_MUTATORS if form == "grid" else MUTATORS


def _mutate(data, rng, catalogue):
    """Apply one mutator drawn from ``catalogue``, returning its tag.

    A mutator whose target an earlier defect already removed (a dropped
    section, an emptied TSV list) fails on its first lookup, before it
    writes anything; another one is drawn then.
    """
    while True:
        try:
            return rng.choice(catalogue)(data, rng)
        except (KeyError, IndexError, TypeError, ZeroDivisionError):
            continue


def _expandable(data):
    """The fully explicit copy of ``data``, or None if a grid is broken
    (a bad count or pitch has no expansion to compare with)."""
    copy = json.loads(json.dumps(data))
    try:
        return explicit(copy)
    except (KeyError, TypeError, ValueError):
        return None


class TestLinterFuzz:
    def test_every_mutation_is_rejected(self):
        rng = random.Random(SEED)
        for form in FORMS:
            assert errors_of(lint_design(_tiny(form))) == []
            for round_no in range(ROUNDS):
                data = _tiny(form)
                # One to three independent defects per round: the linter
                # must flag the design however the defects combine.
                tags = [
                    _mutate(data, rng, _catalogue(form))
                    for _ in range(rng.randint(1, 3))
                ]
                diags = errors_of(lint_design(data))
                assert diags, (
                    f"{form} round {round_no}: mutations {tags} produced "
                    f"no error diagnostics"
                )

    def test_catalogue_is_individually_covered(self):
        # Each mutator on its own must be caught — not just in the
        # aggregate mix above (where another defect could mask a miss).
        rng = random.Random(SEED + 1)
        for form in FORMS:
            for mut in _catalogue(form):
                data = _tiny(form)
                tag = mut(data, rng)
                assert errors_of(lint_design(data)), (
                    f"{form} mutator {tag} produced no error diagnostics"
                )

    def test_grid_lints_like_its_expansion(self):
        # Whenever every grid still expands, the grid form and the
        # explicit form of one mutated design get the same codes.
        rng = random.Random(SEED + 4)
        compared = 0
        for round_no in range(ROUNDS):
            data = _tiny("grid")
            tags = [
                _mutate(data, rng, _catalogue("grid"))
                for _ in range(rng.randint(1, 3))
            ]
            expanded = _expandable(data)
            if expanded is None:
                continue
            compared += 1
            grid_codes = {d.code for d in lint_design(data)}
            list_codes = {d.code for d in lint_design(expanded)}
            assert grid_codes == list_codes, (
                f"round {round_no}: mutations {tags}: grid {grid_codes} "
                f"vs list {list_codes}"
            )
        assert compared >= ROUNDS // 2


# --- canonical hash invariance --------------------------------------------


def _shuffled(value, rng):
    """Deep copy with every dict's key insertion order shuffled and some
    lists converted to tuples."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: _shuffled(value[k], rng) for k in keys}
    if isinstance(value, (list, tuple)):
        items = [_shuffled(v, rng) for v in value]
        return tuple(items) if rng.random() < 0.5 else items
    return value


class TestContentHashFuzz:
    def test_hash_invariant_under_representation_noise(self, base):
        reference = content_hash(base)
        rng = random.Random(SEED + 2)
        for round_no in range(ROUNDS):
            noisy = _shuffled(base, rng)
            assert content_hash(noisy) == reference, (
                f"round {round_no}: reordered representation hashed "
                f"differently"
            )

    def test_canonical_json_is_stable_text(self, base):
        rng = random.Random(SEED + 3)
        reference = canonical_json(base)
        for _ in range(20):
            assert canonical_json(_shuffled(base, rng)) == reference

    def test_canonicalize_normalizes_negative_zero(self):
        assert canonicalize({"x": -0.0}) == {"x": 0.0}
        assert content_hash({"x": -0.0}) == content_hash({"x": 0.0})

    def test_distinct_content_hashes_differently(self, base):
        changed = design_to_dict(load_tiny(die_count=3, signal_count=8))
        changed["dies"][0]["width"] *= 1.0000001
        assert content_hash(changed) != content_hash(base)
