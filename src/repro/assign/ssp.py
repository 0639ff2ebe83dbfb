"""Exact successive-shortest-path kernel for one sub-SAP (Section 4.1).

A sub-SAP is a unit-capacity min-cost flow s -> rows -> columns -> t.  The
rows are one die's signal-carrying I/O buffers (or the escape points), the
columns are the sites some row may take (micro-bumps, or TSVs), and each
row -> column arc carries its Eq. 3 cost.  The generic
:func:`repro.netflow.min_cost_max_flow` solves that network on a
:class:`~repro.netflow.FlowNetwork`; this kernel runs the same
successive-shortest-path rounds on the implicit network, so its matching,
cost, augmentation count and settled-node count equal the generic
solver's bit for bit.  The generic solver stays as the reference the
differential tests hold this one to.

The Eq. 3 cost surface is tie-flat (many matchings share the optimal cost),
so the tie-breaks are part of the answer and the kernel copies the generic
solver's choices exactly:

* node ids are s = 0, t = 1, then the distinct candidate sites in
  increasing order, then the rows in input order;
* Dijkstra settles nodes in ``(dist, id)`` order and runs to exhaustion,
  because the next round's potentials need every node's distance;
* a reduced cost is ``(cost + pot[u]) - pot[v]`` with every negative value
  clamped to 0, and an arc relaxes only when ``nd < dist[v] - COST_EPS``;
* after a round ``pot += dist`` on every reached node, and the path cost
  is accumulated arc by arc from the sink back to the source.

The speed comes from the network's shape, not from another algorithm.  The
reduced costs of all row arcs are one numpy expression per round, and a
settled row relaxes all its candidates in one vector step.  A column has
at most one residual out-arc (to the sink while free, back to its row once
matched), so settling it is one scalar step.  The arcs the generic solver
scans and skips are never visited: zero-capacity arcs, and the row -> s
reverse arcs, which cannot relax because ``dist[s] = 0`` is final.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..netflow import COST_EPS

_INF = float("inf")


@dataclass(frozen=True)
class SspResult:
    """Outcome of one kernel run.

    ``match[r]`` is the site row ``r`` took, or -1.  ``flow``, ``cost``,
    ``augmentations`` and ``settled`` mean what they mean on
    :class:`repro.netflow.MCMFResult`.
    """

    match: np.ndarray
    flow: float
    cost: float
    augmentations: int
    settled: int


def min_cost_max_flow(
    cols: np.ndarray,
    costs: np.ndarray,
    offsets: np.ndarray,
    flow_limit: Optional[int] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> SspResult:
    """Match rows to candidate sites at minimum total cost.

    Row ``r``'s candidates are the distinct site indices
    ``cols[offsets[r]:offsets[r + 1]]``, with the non-negative arc costs
    ``costs`` at the same positions.  At most ``flow_limit`` rows are
    matched (default: as many as possible).  ``should_abort`` is polled
    before each augmentation; on abort the partial matching found so far
    is returned.
    """
    cols = np.asarray(cols, dtype=np.int64)
    costs = np.asarray(costs, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_rows = len(offsets) - 1

    used = np.zeros(int(cols.max()) + 1 if cols.size else 0, dtype=bool)
    used[cols] = True
    first_row = 2 + int(used.sum())
    n_nodes = first_row + n_rows
    arc_head = (np.cumsum(used) + 1)[cols]  # column node of each arc
    arc_tail = np.repeat(np.arange(first_row, n_nodes), np.diff(offsets))
    off = offsets.tolist()
    arc_ids = np.arange(len(cols))
    row_heads = [arc_head[off[r]:off[r + 1]] for r in range(n_rows)]
    row_arcs = [arc_ids[off[r]:off[r + 1]] for r in range(n_rows)]
    cost_of = costs.tolist()

    potential = np.zeros(n_nodes)
    row_arc = [-1] * n_rows  # arc carrying row r's flow, -1 while unmatched
    col_row = [-1] * n_nodes  # row a column node is matched to, -1 if free
    col_taken = np.zeros(n_nodes, dtype=bool)  # column nodes t reaches back
    # Unsettled tentative distances (inf once settled), for the pop order.
    key = np.empty(n_nodes)
    # dist - COST_EPS per column node: a relaxation must land below it.
    bar = np.empty(n_nodes)
    via_arc = np.zeros(n_nodes, dtype=np.int64)  # arc last relaxing a column
    parent = [0] * n_nodes  # node last relaxing a row, or t
    # Array-scalar ufuncs take a 0-d array about 0.5 us faster than a
    # Python float; the arithmetic is the same.
    d_arr = np.zeros(())
    eps_arr = np.array(COST_EPS)
    total_flow = 0.0
    total_cost = 0.0
    augmentations = 0
    settled = 0
    limit = _INF if flow_limit is None else flow_limit

    while total_flow < limit:
        if should_abort is not None and should_abort():
            break
        reduced = (costs + potential[arc_tail]) - potential[arc_head]
        np.maximum(reduced, 0.0, out=reduced)
        reduced[[k for k in row_arc if k >= 0]] = _INF  # saturated arcs
        pot = potential.tolist()
        key.fill(_INF)
        bar.fill(_INF)
        dist = [_INF] * n_nodes  # rows and t; columns keep theirs in key

        # Settle s: its residual arcs reach exactly the unmatched rows.
        free_rows = [first_row + r for r in range(n_rows) if row_arc[r] < 0]
        for v in free_rows:
            rc = (0.0 + pot[0]) - pot[v]
            dist[v] = 0.0 + (rc if rc > 0.0 else 0.0)
            parent[v] = 0
        key[free_rows] = [dist[v] for v in free_rows]
        order = [0]
        order_dist = [0.0]

        while True:
            u = int(key.argmin())  # first minimum: (dist, id) order
            d = key.item(u)
            if d == _INF:
                break
            key[u] = _INF
            order.append(u)
            order_dist.append(d)
            if u >= first_row:
                # A row relaxes every candidate column at once.  Settled
                # columns cannot pass: their nd >= d >= dist >= bar.
                r = u - first_row
                d_arr[()] = d
                nd = reduced[off[r]:off[r + 1]] + d_arr
                heads = row_heads[r]
                better = (nd < bar[heads]).nonzero()[0]
                if len(better):
                    won = heads[better]
                    won_dist = nd[better]
                    key[won] = won_dist
                    bar[won] = won_dist - eps_arr
                    via_arc[won] = row_arcs[r][better]
            elif u >= 2:
                # A column's one residual out-arc: t, or its matched row.
                r = col_row[u]
                if r < 0:
                    v = 1
                    rc = (0.0 + pot[u]) - pot[1]
                else:
                    v = first_row + r
                    rc = (-cost_of[row_arc[r]] + pot[u]) - pot[v]
                nd = d + (rc if rc > 0.0 else 0.0)
                if nd < dist[v] - COST_EPS:
                    dist[v] = nd
                    key[v] = nd
                    parent[v] = u
            else:
                # t reaches every matched column back over its sink arc.
                taken = col_taken.nonzero()[0]
                nd = np.maximum((-0.0 + pot[1]) - potential[taken], 0.0) + d
                better = (nd < bar[taken]).nonzero()[0]
                won = taken[better]
                key[won] = nd[better]
                bar[won] = nd[better] - COST_EPS
        settled += len(order)
        if dist[1] == _INF:
            break  # Sink unreachable: max flow reached.
        potential[order] += order_dist

        # Augment along the path, adding arc costs from the sink back.
        u = parent[1]
        while True:
            k = int(via_arc[u])
            v = int(arc_tail[k])
            r = v - first_row
            total_cost += cost_of[k]
            old = row_arc[r]
            row_arc[r] = k
            col_row[u] = r
            col_taken[u] = True
            u = parent[v]
            if u == 0:
                break
            total_cost += -cost_of[old]
        total_flow += 1.0
        augmentations += 1

    match = np.array(
        [cols[k] if k >= 0 else -1 for k in row_arc], dtype=np.int64
    )
    return SspResult(match, total_flow, total_cost, augmentations, settled)
