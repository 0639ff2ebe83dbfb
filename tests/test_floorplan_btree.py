"""Tests for the B*-tree representation and the SA floorplanner on it."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import load_tiny
from repro.floorplan import (
    BStarTree,
    BTreeSAConfig,
    EFAConfig,
    pack_btree,
    run_btree_sa,
    run_efa,
)


class TestBStarTree:
    def test_initial_chain(self):
        tree = BStarTree(4)
        assert tree.is_consistent()
        assert tree.nodes_in_preorder()[0] == tree.root

    def test_seeded_shuffle(self):
        a = BStarTree(5, random.Random(1))
        b = BStarTree(5, random.Random(1))
        assert a.nodes_in_preorder() == b.nodes_in_preorder()

    def test_swap_keeps_consistency(self):
        tree = BStarTree(5, random.Random(0))
        tree.swap_dies(0, 3)
        assert tree.is_consistent()

    def test_swap_self_noop(self):
        tree = BStarTree(3)
        before = (list(tree.parent), list(tree.left), list(tree.right))
        tree.swap_dies(1, 1)
        assert (tree.parent, tree.left, tree.right) == before

    def test_remove_insert_round(self):
        tree = BStarTree(6, random.Random(2))
        tree.remove(4)
        # Node 4 must be detached, everything else reachable.
        reachable = tree.nodes_in_preorder()
        assert 4 not in reachable
        assert sorted(reachable + [4]) == list(range(6))
        tree.insert(4, 0, as_left=True)
        assert tree.is_consistent()

    def test_insert_pushes_down_existing_child(self):
        tree = BStarTree(3)  # Chain root -> a -> b.
        root = tree.root
        existing = tree.left[root]
        detached = tree.nodes_in_preorder()[-1]
        tree.remove(detached)
        tree.insert(detached, root, as_left=True)
        assert tree.left[root] == detached
        assert tree.is_consistent()

    def test_insert_attached_node_rejected(self):
        tree = BStarTree(3)
        with pytest.raises(ValueError):
            tree.insert(tree.root, 1, as_left=True)

    @settings(max_examples=40)
    @given(st.integers(min_value=2, max_value=8), st.integers(0, 999))
    def test_random_edit_sequences_stay_consistent(self, n, seed):
        rng = random.Random(seed)
        tree = BStarTree(n, rng)
        for _ in range(12):
            op = rng.randrange(2)
            if op == 0:
                a, b = rng.sample(range(n), 2)
                tree.swap_dies(a, b)
            else:
                node = rng.randrange(n)
                if node == tree.root:
                    node = tree.nodes_in_preorder()[-1]
                if node == tree.root:
                    continue
                tree.remove(node)
                target = rng.choice([x for x in range(n) if x != node])
                tree.insert(node, target, as_left=rng.random() < 0.5)
            assert tree.is_consistent()


class TestPackBtree:
    def test_chain_packs_to_row(self):
        tree = BStarTree(3)  # Left-leaning chain = a row.
        dims = [(1.0, 1.0), (2.0, 1.0), (1.5, 1.0)]
        xs, ys, w, h = pack_btree(tree, dims)
        assert h == pytest.approx(1.0)
        assert w == pytest.approx(4.5)
        assert sorted(ys) == [0.0, 0.0, 0.0]

    def test_right_children_stack(self):
        tree = BStarTree(3)
        # Rebuild: root with right-child chain = a column.
        tree.parent = [-1, 0, 1]
        tree.left = [-1, -1, -1]
        tree.right = [1, 2, -1]
        tree.root = 0
        dims = [(1.0, 1.0)] * 3
        xs, ys, w, h = pack_btree(tree, dims)
        assert w == pytest.approx(1.0)
        assert h == pytest.approx(3.0)
        assert sorted(ys) == [0.0, 1.0, 2.0]

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=7), st.integers(0, 500))
    def test_no_overlaps_ever(self, n, seed):
        rng = random.Random(seed)
        tree = BStarTree(n, rng)
        for _ in range(6):  # Random edits for shape variety.
            if n < 2:
                break
            a, b = rng.sample(range(n), 2)
            tree.swap_dies(a, b)
        dims = [
            (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)) for _ in range(n)
        ]
        xs, ys, w, h = pack_btree(tree, dims)
        for i in range(n):
            assert xs[i] >= -1e-9 and ys[i] >= -1e-9
            assert xs[i] + dims[i][0] <= w + 1e-9
            assert ys[i] + dims[i][1] <= h + 1e-9
            for j in range(i + 1, n):
                x_disjoint = (
                    xs[i] + dims[i][0] <= xs[j] + 1e-9
                    or xs[j] + dims[j][0] <= xs[i] + 1e-9
                )
                y_disjoint = (
                    ys[i] + dims[i][1] <= ys[j] + 1e-9
                    or ys[j] + dims[j][1] <= ys[i] + 1e-9
                )
                assert x_disjoint or y_disjoint


class TestBTreeSA:
    @pytest.fixture(scope="class")
    def design(self):
        return load_tiny(die_count=3, signal_count=10)

    def test_finds_legal_floorplan(self, design):
        result = run_btree_sa(
            design, BTreeSAConfig(seed=1, moves_per_temperature=25)
        )
        assert result.found
        assert result.floorplan.is_legal()
        assert result.algorithm == "B*-SA"

    def test_never_beats_exhaustive(self, design):
        efa = run_efa(design, EFAConfig())
        result = run_btree_sa(
            design, BTreeSAConfig(seed=2, moves_per_temperature=25)
        )
        assert result.est_wl >= efa.est_wl - 1e-6

    def test_deterministic_per_seed(self, design):
        a = run_btree_sa(design, BTreeSAConfig(seed=3, moves_per_temperature=10))
        b = run_btree_sa(design, BTreeSAConfig(seed=3, moves_per_temperature=10))
        assert a.est_wl == pytest.approx(b.est_wl)

    def test_moves_never_mutate_the_input_state(self, design):
        # The shared annealer keeps its best state without copying, so
        # a move must return a new tree (or the same, untouched one).
        from repro.floorplan import BTreeFloorplanner

        planner = BTreeFloorplanner(design, BTreeSAConfig(seed=0))
        rng = random.Random(0)
        tree, codes = planner._initial_state(rng), (0, 0, 0)
        for _ in range(200):
            before = (list(tree.parent), list(tree.left), list(tree.right))
            cand, cand_codes = planner._neighbor(rng, tree, codes)
            assert (tree.parent, tree.left, tree.right) == before
            assert cand.is_consistent()
            assert len(cand_codes) == 3
            tree, codes = cand, cand_codes

    def test_spacing_respected(self, design):
        result = run_btree_sa(
            design, BTreeSAConfig(seed=4, moves_per_temperature=25)
        )
        fp = result.floorplan
        c_d = design.spacing.die_to_die
        rects = [fp.die_rect(d.id) for d in design.dies]
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                assert not rects[i].overlaps(rects[j])
                assert rects[i].gap_to(rects[j]) >= c_d - 1e-9
