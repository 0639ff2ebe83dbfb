"""Network-flow-based signal assignment (Section 4): the sub-SAP pipeline.

The SAP is decomposed into sub-problems: one per die (assigning each
signal-carrying I/O buffer to a micro-bump of that die), solved in
decreasing |B_i| order, then one for the interposer (assigning each
escaping point to a TSV).  Each sub-SAP becomes a unit-capacity min-cost
max-flow instance: source -> buffers -> candidate bumps -> sink, with the
buffer->bump arcs costed by Eq. 3 against the signal's *current* MST
topology; solved sub-SAPs immediately rehome their signals' terminals onto
the chosen bumps (edge splitting), so later sub-SAPs optimize against real
bump positions.

Two variants match the paper's Table 3:

* ``MCMF_ori`` (``window_matching=False``) — arcs from every buffer to
  every bump; optimal per sub-SAP but large (the paper's version crashed on
  t4m and timed out on the three biggest cases).
* ``MCMF_fast`` (``window_matching=True``) — arcs only to the bumps inside
  each buffer's window (Section 4.2); ~9x faster in the paper at +0.1% TWL.

:class:`MCMFAssigner` is the one pipeline every assigner runs: the stages
(each die, then the interposer), the Eq. 3 cost rows, the window-retry
flow loop, the budget clock, locked pairs and the result.  The baselines
subclass it and change one step each: the greedy baseline
(:mod:`repro.assign.greedy_assign`) swaps the matcher, and [5]
(:mod:`repro.assign.bipartite`) keeps every far terminal at the signal's
other buffer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..geometry import Point
from ..model import (
    Assignment,
    Design,
    Floorplan,
    Terminal,
    TerminalKind,
    Weights,
)
from ..mst import SignalTopology, build_topologies
from ..obs import Progress, get_logger, metrics, span
from .base import (
    AssignmentError,
    AssignmentRunResult,
    SubSapStats,
    die_processing_order,
)
from .cost import far_terminal_weight
from .ssp import min_cost_max_flow
from .window import window_candidates

logger = get_logger("assign.mcmf")


@dataclass
class MCMFAssignerConfig:
    """Variant switches for the network-flow assigner."""

    window_matching: bool = True
    window_slack: int = 0  # The paper's lambda (0 by default).
    die_order: str = "decreasing"
    order_seed: int = 0
    time_budget_s: Optional[float] = None
    max_window_retries: int = 4
    # Guard reproducing the paper's LEDA out-of-memory crash on t4m: when a
    # sub-SAP would need more arcs than this, raise instead of thrashing.
    max_edges_per_sub_sap: Optional[int] = None

    @property
    def name(self) -> str:
        """Display name (MCMF_fast or MCMF_ori)."""
        return "MCMF_fast" if self.window_matching else "MCMF_ori"


class _BudgetClock:
    """Shared deadline passed into every sub-SAP's MCMF run."""

    def __init__(self, seconds: Optional[float]):
        self._deadline = (
            None if seconds is None else time.monotonic() + seconds
        )

    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline


@dataclass
class _Stage:
    """One sub-SAP: give each source (buffer or escape) its own site."""

    scope: str  # die id, or "interposer"
    source_kind: str
    site_kind: str
    source_ids: List[str]
    source_pos: List[Point]
    source_signals: List[str]
    site_ids: List[str]
    site_pos: List[Point]
    leg_weight: float  # alpha (buffer -> bump) or gamma (escape -> TSV)
    pitch: float
    out: Dict[str, str]  # the assignment map this stage fills
    sx: np.ndarray = field(init=False)  # site coordinates as arrays
    sy: np.ndarray = field(init=False)

    def __post_init__(self):
        self.sx = np.asarray([p.x for p in self.site_pos])
        self.sy = np.asarray([p.y for p in self.site_pos])

    def stats(self, edges: int, flow_cost: float, **work: int) -> SubSapStats:
        """The stage's statistics row (runtime filled in by the caller)."""
        return SubSapStats(
            self.scope,
            len(self.source_ids),
            len(self.site_ids),
            edges,
            flow_cost,
            **work,
        )


class MCMFAssigner:
    """The paper's network-flow-based signal assignment algorithm."""

    def __init__(self, config: Optional[MCMFAssignerConfig] = None):
        self.config = config or MCMFAssignerConfig()

    # -- public API ---------------------------------------------------------

    def assign(self, design: Design, floorplan: Floorplan) -> Assignment:
        """Solve the SAP; raises :class:`AssignmentError` on failure."""
        result = self.assign_with_stats(design, floorplan)
        if not result.complete:
            raise AssignmentError(result.note or "incomplete assignment")
        return result.assignment

    def assign_with_stats(
        self,
        design: Design,
        floorplan: Floorplan,
        locked: Optional[Assignment] = None,
    ) -> AssignmentRunResult:
        """Solve the SAP; ``locked`` pins pre-decided buffer->bump and
        escape->TSV pairs (pre-routed interfaces, power/ground bumps) —
        they are honored verbatim, their sites withdrawn from the pools,
        and the MST topologies rehomed before any sub-SAP runs.  Locking
        every buffer leaves only the TSV sub-SAP to solve.

        A sub-SAP that fails (budget, edge guard, too few sites) ends
        the run with ``complete=False`` and a note; the stages solved
        before it stay in the result."""
        name = self.config.name
        clock = _BudgetClock(self._budget_s())
        start = time.monotonic()
        assignment = Assignment()
        sub_stats: List[SubSapStats] = []
        topologies = build_topologies(design, floorplan)
        order = die_processing_order(
            design, self.config.die_order, self.config.order_seed
        )
        # One heartbeat per sub-SAP: the dies, then the interposer.
        progress = Progress(
            name, total=len(order) + 1, unit="sub-SAPs", logger=logger
        )
        complete, note = True, ""
        try:
            if locked is not None:
                self._apply_locks(
                    design, floorplan, locked, assignment, topologies
                )
            for done, stage in enumerate(
                self._stages(design, floorplan, order, assignment), 1
            ):
                if stage.source_ids:
                    sub_start = time.monotonic()
                    with span("assign.subsap") as sub_span:
                        stats = self._match(
                            stage, design.weights, topologies, clock
                        )
                        sub_span.annotate(scope=stage.scope)
                    stats.runtime_s = time.monotonic() - sub_start
                    sub_stats.append(stats)
                    logger.debug(
                        "sub-SAP %s: %d sources over %d sites, %d arcs, "
                        "%d augmenting paths, cost %.4f in %.3fs",
                        stats.scope,
                        stats.demand,
                        stats.candidate_sites,
                        stats.edges,
                        stats.augmentations,
                        stats.flow_cost,
                        stats.runtime_s,
                    )
                progress.update(
                    done=done,
                    scope=stage.scope,
                    arcs=sum(s.edges for s in sub_stats),
                    augmentations=sum(s.augmentations for s in sub_stats),
                )
            progress.finish()
        except AssignmentError as exc:
            logger.warning("%s: assignment failed: %s", name, exc)
            complete, note = False, str(exc)
        result = AssignmentRunResult(
            assignment,
            name,
            runtime_s=time.monotonic() - start,
            sub_saps=sub_stats,
            complete=complete,
            note=note,
        )
        if complete:
            logger.info(
                "%s: %d sub-SAPs, %d arcs, %d augmenting paths in %.3fs",
                name,
                len(sub_stats),
                result.total_edges,
                result.total_augmentations,
                result.runtime_s,
            )
        return result

    # -- what a variant may change --------------------------------------------

    def _budget_s(self) -> Optional[float]:
        return self.config.time_budget_s

    def _edge_limit(self) -> Optional[int]:
        return self.config.max_edges_per_sub_sap

    def _far_weight(self, kind: str, weights: Weights) -> float:
        """Eq. 4's weight for a leg from a site to a far terminal."""
        return far_terminal_weight(kind, weights)

    def _rehome(self, topology: SignalTopology, key, terminal: Terminal):
        """Split the signal's MST edges at ``key`` onto ``terminal``."""
        topology.rehome(key, terminal)

    # -- the pipeline ---------------------------------------------------------

    def _apply_locks(
        self,
        design: Design,
        floorplan: Floorplan,
        locked: Assignment,
        assignment: Assignment,
        topologies: Dict[str, SignalTopology],
    ) -> None:
        """Validate and bake a partial assignment into the run state."""
        bumps, tsvs = set(), set()
        for buffer_id, bump_id in locked.buffer_to_bump.items():
            signal_id = design.signal_of_buffer(buffer_id)
            if signal_id is None:
                raise AssignmentError(
                    f"locked buffer {buffer_id!r} carries no signal"
                )
            try:
                bump_die = design.die_of_bump(bump_id)
            except KeyError:
                raise AssignmentError(
                    f"locked pair {buffer_id!r} -> unknown bump {bump_id!r}"
                ) from None
            if design.die_of_buffer(buffer_id) != bump_die:
                raise AssignmentError(
                    f"locked pair {buffer_id!r} -> {bump_id!r} crosses dies"
                )
            if bump_id in bumps:
                raise AssignmentError(f"bump {bump_id!r} locked twice")
            bumps.add(bump_id)
            assignment.buffer_to_bump[buffer_id] = bump_id
            self._rehome(
                topologies[signal_id],
                (TerminalKind.BUFFER, buffer_id),
                Terminal(
                    TerminalKind.BUMP,
                    bump_id,
                    floorplan.bump_position(bump_id),
                ),
            )
        for escape_id, tsv_id in locked.escape_to_tsv.items():
            if not design.package.has_escape(escape_id):
                raise AssignmentError(f"unknown locked escape {escape_id!r}")
            if not design.interposer.has_tsv(tsv_id):
                raise AssignmentError(f"unknown locked TSV {tsv_id!r}")
            if tsv_id in tsvs:
                raise AssignmentError(f"TSV {tsv_id!r} locked twice")
            tsvs.add(tsv_id)
            assignment.escape_to_tsv[escape_id] = tsv_id
            self._rehome(
                topologies[design.package.escape(escape_id).signal_id],
                (TerminalKind.ESCAPE, escape_id),
                Terminal(
                    TerminalKind.TSV, tsv_id, design.tsv(tsv_id).position
                ),
            )

    def _stages(
        self,
        design: Design,
        floorplan: Floorplan,
        order: Sequence[str],
        assignment: Assignment,
    ) -> Iterator[_Stage]:
        """Each die in ``order``, then the interposer, each built when the
        run reaches it.  Sources and sites already in ``assignment``
        (locked, or taken by an earlier stage) are left out, and a stage
        with no sources lists no sites."""
        taken = set(assignment.buffer_to_bump.values())
        for die_id in order:
            die = design.die(die_id)
            buffers = [
                b.id
                for b in design.carrying_buffers(die_id)
                if b.id not in assignment.buffer_to_bump
            ]
            bumps = (
                [m.id for m in die.bumps if m.id not in taken]
                if buffers
                else []
            )
            yield _Stage(
                scope=die_id,
                source_kind=TerminalKind.BUFFER,
                site_kind=TerminalKind.BUMP,
                source_ids=buffers,
                source_pos=[floorplan.buffer_position(b) for b in buffers],
                source_signals=[design.signal_of_buffer(b) for b in buffers],
                site_ids=bumps,
                site_pos=[floorplan.bump_position(m) for m in bumps],
                leg_weight=design.weights.alpha,
                pitch=die.bump_pitch,
                out=assignment.buffer_to_bump,
            )
        taken = set(assignment.escape_to_tsv.values())
        escaping = [
            s
            for s in design.escaping_signals()
            if s.escape_id not in assignment.escape_to_tsv
        ]
        tsvs = (
            [t for t in design.interposer.tsvs if t.id not in taken]
            if escaping
            else []
        )
        yield _Stage(
            scope="interposer",
            source_kind=TerminalKind.ESCAPE,
            site_kind=TerminalKind.TSV,
            source_ids=[s.escape_id for s in escaping],
            source_pos=[design.escape(s.escape_id).position for s in escaping],
            source_signals=[s.id for s in escaping],
            site_ids=[t.id for t in tsvs],
            site_pos=[t.position for t in tsvs],
            leg_weight=design.weights.gamma,
            pitch=design.interposer.tsv_pitch,
            out=assignment.escape_to_tsv,
        )

    def _cost_row(
        self,
        stage: _Stage,
        i: int,
        sites: Union[np.ndarray, slice],
        weights: Weights,
        topologies: Dict[str, SignalTopology],
    ) -> np.ndarray:
        """Eq. 3 for source ``i`` over the ``sites`` it may take."""
        sx, sy = stage.sx[sites], stage.sy[sites]
        pos = stage.source_pos[i]
        cost = stage.leg_weight * (np.abs(sx - pos.x) + np.abs(sy - pos.y))
        key = (stage.source_kind, stage.source_ids[i])
        for far in topologies[stage.source_signals[i]].neighbors(key):
            cost = cost + self._far_weight(far.kind, weights) * (
                np.abs(sx - far.position.x) + np.abs(sy - far.position.y)
            )
        return cost

    def _commit(
        self,
        stage: _Stage,
        i: int,
        j: int,
        topologies: Dict[str, SignalTopology],
    ) -> None:
        """Give source ``i`` site ``j`` and move its terminal there."""
        stage.out[stage.source_ids[i]] = stage.site_ids[j]
        self._rehome(
            topologies[stage.source_signals[i]],
            (stage.source_kind, stage.source_ids[i]),
            Terminal(stage.site_kind, stage.site_ids[j], stage.site_pos[j]),
        )

    def _match(
        self,
        stage: _Stage,
        weights: Weights,
        topologies: Dict[str, SignalTopology],
        clock: _BudgetClock,
    ) -> SubSapStats:
        """Min-cost flow over the stage, retried with wider windows while
        some source goes unserved; commits the matching."""
        cfg = self.config
        scope, n_sources = stage.scope, len(stage.source_ids)
        if not stage.site_ids:
            raise AssignmentError(f"sub-SAP {scope!r} has no free site")
        edge_limit = self._edge_limit()
        retries = augmentations = nodes_settled = 0
        while True:
            if clock.expired():
                raise AssignmentError(
                    f"time budget exceeded before sub-SAP {scope!r}"
                )
            metrics.counter("assign.window.iterations").inc()
            if cfg.window_matching:
                candidates, _ = window_candidates(
                    stage.source_pos,
                    stage.site_pos,
                    stage.pitch,
                    slack=cfg.window_slack,
                    extra_growth=retries,
                )
            else:
                candidates = [np.arange(len(stage.site_ids))] * n_sources
            edges = sum(len(c) for c in candidates)
            if edge_limit is not None and edges > edge_limit:
                raise AssignmentError(
                    f"sub-SAP {scope!r} needs {edges} arcs (matching edges), "
                    f"above the configured limit {edge_limit} (the paper's "
                    "MCMF_ori and [5] ran out of memory the same way)"
                )
            costs = [
                self._cost_row(stage, i, c, weights, topologies)
                for i, c in enumerate(candidates)
            ]
            offsets = np.zeros(n_sources + 1, dtype=np.int64)
            np.cumsum([len(c) for c in candidates], out=offsets[1:])
            with span("assign.mcmf"):
                result = min_cost_max_flow(
                    np.concatenate(candidates),
                    np.concatenate(costs),
                    offsets,
                    flow_limit=n_sources,
                    should_abort=clock.expired,
                )
            augmentations += result.augmentations
            nodes_settled += result.settled
            metrics.counter("assign.mcmf.runs").inc()
            metrics.counter("assign.mcmf.augmenting_paths").inc(
                result.augmentations
            )
            metrics.counter("assign.mcmf.nodes_settled").inc(result.settled)
            if result.flow == n_sources:
                for i, j in enumerate(result.match):
                    self._commit(stage, i, int(j), topologies)
                return stage.stats(
                    edges,
                    result.cost,
                    window_retries=retries,
                    augmentations=augmentations,
                    nodes_settled=nodes_settled,
                )
            if clock.expired():
                raise AssignmentError(
                    f"time budget exceeded inside sub-SAP {scope!r}"
                )
            if not cfg.window_matching:
                raise AssignmentError(
                    f"sub-SAP {scope!r} infeasible: only {result.flow} "
                    f"of {n_sources} sources served"
                )
            retries += 1
            metrics.counter("assign.window.retries").inc()
            if retries > cfg.max_window_retries:
                raise AssignmentError(
                    f"sub-SAP {scope!r} still infeasible after "
                    f"{cfg.max_window_retries} window expansions"
                )
            logger.warning(
                "sub-SAP %s: only %d of %d sources served; expanding "
                "windows (retry %d/%d)",
                scope,
                int(result.flow),
                n_sources,
                retries,
                cfg.max_window_retries,
            )
