"""B*-tree floorplan representation and an SA floorplanner on top of it.

The sequence pair is the paper's representation; the B*-tree (Chang et
al., DAC 2000) is the other classic compacted-floorplan representation
used throughout the floorplanning literature.  Having both lets the
benchmarks check that EFA's advantage over annealing is a property of
exhaustive enumeration, not of the chosen SA neighborhood.

Packing semantics (standard B*-tree):

* the root die sits at x = 0;
* a node's **left child** is placed immediately to its right
  (``x = parent.x + parent.width``);
* a node's **right child** is placed at the same x, above the parent;
* every y coordinate is the lowest position admitted by the *contour* —
  the skyline of everything packed so far.

The annealing engine is :class:`repro.floorplan.annealing.Annealer`;
this module supplies only the B*-tree state, its moves, its pack-cache
key and the contour packer.  Die-to-die spacing and centring come from
the same :class:`repro.floorplan.base.PackingFrame` EFA packs in.
"""

from __future__ import annotations

import random
from typing import Hashable, List, Optional, Tuple

from ..model import Design
from ..obs import get_logger
from .annealing import (
    _EPS,
    Annealer,
    SAConfig,
    _distinct_pair,
    _rand_index,
    _rotate_one,
)
from .base import FloorplanResult

logger = get_logger("floorplan.btree")


class BStarTree:
    """A mutable B*-tree over die indices 0..n-1.

    Stored as parent/left/right arrays; the structure is always a valid
    binary tree with exactly the ``n`` dies as nodes.
    """

    def __init__(self, n: int, rng: Optional[random.Random] = None):
        if n < 1:
            raise ValueError("B*-tree needs at least one die")
        self.n = n
        self.parent: List[int] = [-1] * n
        self.left: List[int] = [-1] * n
        self.right: List[int] = [-1] * n
        order = list(range(n))
        if rng is not None:
            rng.shuffle(order)
        self.root = order[0]
        # Start from a left-leaning chain (a row of dies).
        for prev, node in zip(order, order[1:]):
            self.left[prev] = node
            self.parent[node] = prev

    # -- structural edits --------------------------------------------------------

    def swap_dies(self, a: int, b: int) -> None:
        """Exchange the tree positions of two dies (indices stay nodes;
        the per-node die payload is implicit, so swap the nodes' links)."""
        if a == b:
            return
        # Swapping payloads == relabelling nodes: rebuild link arrays with
        # a and b exchanged everywhere.
        def rl(x: int) -> int:
            if x == a:
                return b
            if x == b:
                return a
            return x

        parent = [0] * self.n
        left = [0] * self.n
        right = [0] * self.n
        for node in range(self.n):
            parent[rl(node)] = rl(self.parent[node]) if self.parent[node] != -1 else -1
            left[rl(node)] = rl(self.left[node]) if self.left[node] != -1 else -1
            right[rl(node)] = rl(self.right[node]) if self.right[node] != -1 else -1
        self.parent, self.left, self.right = parent, left, right
        self.root = rl(self.root)

    def remove(self, node: int) -> None:
        """Detach ``node``, promoting children until it becomes a leaf."""
        while self.left[node] != -1 or self.right[node] != -1:
            child = self.left[node] if self.left[node] != -1 else self.right[node]
            self.swap_dies(node, child)
        p = self.parent[node]
        if p != -1:
            if self.left[p] == node:
                self.left[p] = -1
            else:
                self.right[p] = -1
        self.parent[node] = -1

    def insert(self, node: int, target: int, as_left: bool) -> None:
        """Attach a detached ``node`` as a child of ``target``; an existing
        child in that slot is pushed down as ``node``'s same-side child."""
        if self.parent[node] != -1 or node == self.root:
            raise ValueError("insert() needs a detached node")
        if as_left:
            displaced = self.left[target]
            self.left[target] = node
            self.left[node] = displaced
        else:
            displaced = self.right[target]
            self.right[target] = node
            self.right[node] = displaced
        if displaced != -1:
            self.parent[displaced] = node
        self.parent[node] = target

    def nodes_in_preorder(self) -> List[int]:
        """Die indices in preorder (root first)."""
        out: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node == -1:
                continue
            out.append(node)
            stack.append(self.right[node])
            stack.append(self.left[node])
        return out

    def is_consistent(self) -> bool:
        """All n nodes reachable, parent pointers coherent."""
        seen = self.nodes_in_preorder()
        if sorted(seen) != list(range(self.n)):
            return False
        for node in range(self.n):
            for child in (self.left[node], self.right[node]):
                if child != -1 and self.parent[child] != node:
                    return False
        return self.parent[self.root] == -1

    def clone(self) -> "BStarTree":
        """An independent copy of this tree."""
        other = BStarTree.__new__(BStarTree)
        other.n = self.n
        other.parent = list(self.parent)
        other.left = list(self.left)
        other.right = list(self.right)
        other.root = self.root
        return other


def pack_btree(
    tree: BStarTree, dims: List[Tuple[float, float]]
) -> Tuple[List[float], List[float], float, float]:
    """Contour packing; returns per-die x/y plus bounding width/height."""
    n = tree.n
    xs = [0.0] * n
    ys = [0.0] * n
    # Contour as a list of (x_start, x_end, height), kept sorted/disjoint.
    contour: List[Tuple[float, float, float]] = []

    def place(node: int, x: float) -> None:
        w, h = dims[node]
        x2 = x + w
        # y = max contour height over [x, x2).
        y = 0.0
        for cx1, cx2, ch in contour:
            if cx1 < x2 - _EPS and x < cx2 - _EPS:
                y = max(y, ch)
        xs[node] = x
        ys[node] = y
        top = y + h
        # Update the contour with the new plateau.
        updated: List[Tuple[float, float, float]] = []
        for cx1, cx2, ch in contour:
            if cx2 <= x + _EPS or cx1 >= x2 - _EPS:
                updated.append((cx1, cx2, ch))
                continue
            if cx1 < x:
                updated.append((cx1, x, ch))
            if cx2 > x2:
                updated.append((x2, cx2, ch))
        updated.append((x, x2, top))
        updated.sort()
        contour[:] = updated

    # Pack in DFS order; left child at parent's right edge, right child at
    # parent's x.
    frontier = [(tree.root, 0.0)]
    while frontier:
        node, x = frontier.pop()
        place(node, x)
        if tree.right[node] != -1:
            frontier.append((tree.right[node], x))
        if tree.left[node] != -1:
            frontier.append((tree.left[node], xs[node] + dims[node][0]))

    width = max(xs[i] + dims[i][0] for i in range(n))
    height = max(ys[i] + dims[i][1] for i in range(n))
    return xs, ys, width, height


class BTreeSAConfig(SAConfig):
    """Annealing schedule for the B*-tree floorplanner (the
    :class:`SAConfig` fields; errors name this class)."""


class BTreeFloorplanner(Annealer):
    """Simulated annealing over (B*-tree, orientation codes) states."""

    algorithm = "B*-SA"
    span_name = "floorplan.btree_sa"
    log = logger
    config_type = BTreeSAConfig

    def _initial_state(self, rng: random.Random) -> BStarTree:
        return BStarTree(len(self._die_ids), rng)

    def _neighbor(
        self, rng: random.Random, tree: BStarTree, codes: Tuple[int, ...]
    ) -> Tuple[BStarTree, Tuple[int, ...]]:
        n = tree.n
        move = _rand_index(rng, 3) if n > 1 else 2
        if move == 2:
            # Rotate one die: the tree is untouched, so reuse the object.
            return tree, _rotate_one(rng, codes)
        # Structural moves edit a clone: committed trees never change.
        new_tree = tree.clone()
        if move == 0:
            new_tree.swap_dies(*_distinct_pair(rng, n))
        else:
            node = rng.randrange(n)
            if node != new_tree.root or (
                new_tree.left[node] != -1 or new_tree.right[node] != -1
            ):
                # Never remove a childless root (it would orphan the tree).
                if node == new_tree.root:
                    node = new_tree.nodes_in_preorder()[-1]
                new_tree.remove(node)
                candidates = [x for x in range(n) if x != node]
                target = rng.choice(candidates)
                new_tree.insert(node, target, as_left=rng.random() < 0.5)
        return new_tree, codes

    def _pack_key(
        self, tree: BStarTree, shape_key: Tuple[int, ...]
    ) -> Hashable:
        return (
            tuple(tree.parent),
            tuple(tree.left),
            tuple(tree.right),
            tree.root,
            shape_key,
        )

    _pack = staticmethod(pack_btree)


def run_btree_sa(
    design: Design, config: Optional[BTreeSAConfig] = None
) -> FloorplanResult:
    """One-call convenience wrapper around :class:`BTreeFloorplanner`."""
    return BTreeFloorplanner(design, config).run()
