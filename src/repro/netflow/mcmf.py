"""Min-cost max-flow by successive shortest paths with potentials.

This replaces the LEDA MCMF solver the paper used.  The algorithm is the
textbook successive-shortest-path method with Johnson node potentials: all
arc costs in our networks are non-negative (they are Manhattan distances),
so every augmentation can use Dijkstra on reduced costs.  Flow values are
integral because all capacities are integral (they are all 1 in the SAP
networks), so the algorithm terminates after exactly ``max_flow`` rounds.

Floating-point costs are handled with a small tolerance when clamping
reduced costs; the complementary-slackness checker in
:mod:`repro.netflow.validate` verifies optimality up to that tolerance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional

from .graph import FlowNetwork

# Reduced costs should be >= 0 exactly; accumulated float error can push
# them epsilon-negative.  Every negative reduced cost is clamped to 0, which
# keeps the search admissible; COST_EPS is the margin a relaxation must beat.
COST_EPS = 1e-9

_INF = float("inf")


@dataclass(frozen=True)
class MCMFResult:
    """Outcome of one min-cost max-flow run.

    ``settled`` counts nodes settled (popped with their final distance)
    across all Dijkstra rounds — the per-run work measure the solver
    counters expose, playing the role relabel counts do in push-relabel
    implementations.
    """

    flow: float
    cost: float
    augmentations: int
    settled: int = 0


def min_cost_max_flow(
    network: FlowNetwork,
    source: int,
    sink: int,
    flow_limit: Optional[float] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> MCMFResult:
    """Route the maximum (or ``flow_limit``-capped) flow at minimum cost.

    Mutates ``network`` in place: afterwards, :meth:`FlowNetwork.flow_on`
    reports per-arc flows.  ``should_abort`` is polled once per
    augmentation and allows callers to impose wall-clock budgets (the
    paper's 12-hour cut-offs, scaled down); on abort the partial flow found
    so far is returned.
    """
    n = network.node_count
    if not (0 <= source < n and 0 <= sink < n):
        raise ValueError("source/sink out of range")
    if source == sink:
        raise ValueError("source and sink must differ")

    arc_to = network.arc_to
    arc_cap = network.arc_cap
    arc_cost = network.arc_cost

    potential = [0.0] * n
    total_flow = 0.0
    total_cost = 0.0
    augmentations = 0
    settled = 0
    limit = _INF if flow_limit is None else flow_limit

    dist = [_INF] * n
    parent_arc = [-1] * n

    while total_flow < limit:
        if should_abort is not None and should_abort():
            break
        # Dijkstra on reduced costs.
        for i in range(n):
            dist[i] = _INF
            parent_arc[i] = -1
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            settled += 1
            pot_u = potential[u]
            for arc in network.arcs_from(u):
                if arc_cap[arc] <= 0:
                    continue
                v = arc_to[arc]
                reduced = arc_cost[arc] + pot_u - potential[v]
                if reduced < -COST_EPS:
                    # Should not happen with admissible potentials; clamp so
                    # a tiny numeric wobble cannot break Dijkstra.
                    reduced = 0.0
                elif reduced < 0.0:
                    reduced = 0.0
                nd = d + reduced
                if nd < dist[v] - COST_EPS:
                    dist[v] = nd
                    parent_arc[v] = arc
                    heapq.heappush(heap, (nd, v))
        if dist[sink] == _INF:
            break  # Sink unreachable: max flow reached.

        for i in range(n):
            if dist[i] < _INF:
                potential[i] += dist[i]

        # Find the bottleneck along the augmenting path.
        push = limit - total_flow
        v = sink
        while v != source:
            arc = parent_arc[v]
            push = min(push, arc_cap[arc])
            v = arc_to[arc ^ 1]
        # Apply it.
        v = sink
        while v != source:
            arc = parent_arc[v]
            arc_cap[arc] -= push
            arc_cap[arc ^ 1] += push
            total_cost += push * arc_cost[arc]
            v = arc_to[arc ^ 1]
        total_flow += push
        augmentations += 1

    return MCMFResult(total_flow, total_cost, augmentations, settled)
