"""Integration-grade tests for the three signal assignment algorithms."""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.assign import (
    AssignmentError,
    BipartiteAssigner,
    BipartiteAssignerConfig,
    GreedyAssigner,
    MCMFAssigner,
    MCMFAssignerConfig,
)
from repro.benchgen import load_case, load_tiny, tiny_config, generate_design
from repro.eval import total_wirelength
from repro.floorplan import EFAConfig, run_efa, run_efa_mix


@pytest.fixture(scope="module")
def case():
    design = load_tiny(die_count=3, signal_count=12)
    fp = run_efa(
        design, EFAConfig(illegal_cut=True, inferior_cut=True)
    ).floorplan
    return design, fp


@pytest.fixture(scope="module")
def primed_case():
    config = tiny_config(die_count=3, signal_count=12).primed()
    design = generate_design(config)
    fp = run_efa(
        design, EFAConfig(illegal_cut=True, inferior_cut=True)
    ).floorplan
    return design, fp


class TestMCMFAssigner:
    def test_fast_produces_complete_valid_assignment(self, case):
        design, fp = case
        result = MCMFAssigner().assign_with_stats(design, fp)
        assert result.complete
        assert result.assignment.violations(design) == []

    def test_ori_produces_complete_valid_assignment(self, case):
        design, fp = case
        result = MCMFAssigner(
            MCMFAssignerConfig(window_matching=False)
        ).assign_with_stats(design, fp)
        assert result.complete
        assert result.assignment.violations(design) == []

    def test_ori_first_sub_sap_cost_not_above_fast(self, case):
        """Per sub-SAP, the complete bipartite MCMF is optimal, so on the
        *first* die (identical topology state) ori's flow cost can never
        exceed fast's."""
        design, fp = case
        fast = MCMFAssigner().assign_with_stats(design, fp)
        ori = MCMFAssigner(
            MCMFAssignerConfig(window_matching=False)
        ).assign_with_stats(design, fp)
        assert ori.sub_saps[0].scope == fast.sub_saps[0].scope
        assert (
            ori.sub_saps[0].flow_cost
            <= fast.sub_saps[0].flow_cost + 1e-6
        )

    def test_fast_builds_fewer_edges(self, case):
        design, fp = case
        fast = MCMFAssigner().assign_with_stats(design, fp)
        ori = MCMFAssigner(
            MCMFAssignerConfig(window_matching=False)
        ).assign_with_stats(design, fp)
        assert fast.total_edges < ori.total_edges

    def test_sub_sap_demands_are_served(self, case):
        design, fp = case
        result = MCMFAssigner().assign_with_stats(design, fp)
        for stats in result.sub_saps:
            assert stats.demand >= 1
        die_scopes = [s.scope for s in result.sub_saps if s.scope != "interposer"]
        # Decreasing |B_i| order.
        counts = [len(design.carrying_buffers(d)) for d in die_scopes]
        assert counts == sorted(counts, reverse=True)

    def test_tsv_stage_present_iff_escaping_signals(self, case):
        design, fp = case
        result = MCMFAssigner().assign_with_stats(design, fp)
        scopes = {s.scope for s in result.sub_saps}
        if design.escaping_signals():
            assert "interposer" in scopes
        else:
            assert "interposer" not in scopes

    def test_edge_guard_reproduces_memory_crash(self, case):
        design, fp = case
        cfg = MCMFAssignerConfig(
            window_matching=False, max_edges_per_sub_sap=10
        )
        result = MCMFAssigner(cfg).assign_with_stats(design, fp)
        assert not result.complete
        assert "arcs" in result.note

    def test_zero_budget_reports_incomplete(self, case):
        design, fp = case
        cfg = MCMFAssignerConfig(time_budget_s=0.0)
        result = MCMFAssigner(cfg).assign_with_stats(design, fp)
        assert not result.complete
        assert "budget" in result.note

    def test_assign_raises_on_failure(self, case):
        design, fp = case
        cfg = MCMFAssignerConfig(time_budget_s=0.0)
        with pytest.raises(AssignmentError):
            MCMFAssigner(cfg).assign(design, fp)

    def test_deterministic(self, case):
        design, fp = case
        a = MCMFAssigner().assign(design, fp)
        b = MCMFAssigner().assign(design, fp)
        assert a.buffer_to_bump == b.buffer_to_bump
        assert a.escape_to_tsv == b.escape_to_tsv


class TestGreedyAssigner:
    def test_complete_valid_assignment(self, case):
        design, fp = case
        result = GreedyAssigner().assign_with_stats(design, fp)
        assert result.complete
        assert result.assignment.violations(design) == []

    def test_greedy_first_sub_sap_cost_not_below_mcmf(self, case):
        """MCMF solves the first sub-SAP optimally; greedy cannot beat it
        under the same (initial) topology."""
        design, fp = case
        greedy = GreedyAssigner().assign_with_stats(design, fp)
        ori = MCMFAssigner(
            MCMFAssignerConfig(window_matching=False)
        ).assign_with_stats(design, fp)
        assert (
            greedy.sub_saps[0].flow_cost
            >= ori.sub_saps[0].flow_cost - 1e-6
        )

    def test_greedy_is_fastest(self, case):
        # Best of 3 runs per assigner: one preempted run on a loaded
        # host must not decide the race.
        design, fp = case
        greedy = min(
            GreedyAssigner().assign_with_stats(design, fp).runtime_s
            for _ in range(3)
        )
        ori = min(
            MCMFAssigner(MCMFAssignerConfig(window_matching=False))
            .assign_with_stats(design, fp)
            .runtime_s
            for _ in range(3)
        )
        assert greedy <= ori


class TestBipartiteBaseline:
    def test_rejects_escaping_signals(self, case):
        design, fp = case
        if not design.escaping_signals():
            pytest.skip("tiny case drew no escaping signal")
        # Whichever unsupported feature is hit first (escape or
        # multi-terminal), [5] must refuse the unprimed case.
        with pytest.raises(AssignmentError):
            BipartiteAssigner().assign(design, fp)

    def test_solves_primed_case(self, primed_case):
        design, fp = primed_case
        result = BipartiteAssigner().assign_with_stats(design, fp)
        assert result.complete
        assert result.assignment.violations(design) == []

    def test_window_variant_matches_shape(self, primed_case):
        design, fp = primed_case
        plain = BipartiteAssigner().assign_with_stats(design, fp)
        windowed = BipartiteAssigner(
            BipartiteAssignerConfig(window_matching=True)
        ).assign_with_stats(design, fp)
        assert windowed.complete
        assert windowed.total_edges <= plain.total_edges

    def test_mcmf_not_worse_than_bipartite_on_primed(self, primed_case):
        """Table 4's headline: the MST-updating MCMF assigner achieves
        shorter TWL than [5].  Compared full-graph vs full-graph so window
        effects (benchmarked separately) do not blur the comparison on
        these coarse tiny cases."""
        design, fp = primed_case
        ours = MCMFAssigner(
            MCMFAssignerConfig(window_matching=False)
        ).assign(design, fp)
        theirs = BipartiteAssigner().assign(design, fp)
        twl_ours = total_wirelength(design, fp, ours).total
        twl_theirs = total_wirelength(design, fp, theirs).total
        assert twl_ours <= twl_theirs * 1.02  # Allow 2% noise on tiny cases.

    def test_multi_terminal_rejected(self):
        config = tiny_config(die_count=3, signal_count=10)
        design = generate_design(config)
        if not any(s.is_multi_terminal for s in design.signals):
            pytest.skip("tiny case drew no multi-terminal signal")
        fp = run_efa(design, EFAConfig(illegal_cut=True)).floorplan
        with pytest.raises(AssignmentError):
            BipartiteAssigner().assign(design, fp)


class TestEndToEndWirelength:
    def test_twl_positive_and_decomposed(self, case):
        design, fp = case
        assignment = MCMFAssigner().assign(design, fp)
        wl = total_wirelength(design, fp, assignment)
        assert wl.total > 0
        assert wl.total == pytest.approx(
            wl.alpha * wl.wl_intra_die
            + wl.beta * wl.wl_internal
            + wl.gamma * wl.wl_external
        )

    def test_external_wl_zero_without_escapes(self, primed_case):
        design, fp = primed_case
        assignment = MCMFAssigner().assign(design, fp)
        wl = total_wirelength(design, fp, assignment)
        assert wl.wl_external == 0.0


_GOLDEN_DESIGNS = {
    "tiny3": lambda: load_tiny(3, signal_count=10),
    "tiny4": lambda: load_tiny(4, signal_count=12),
    "t4s": lambda: load_case("t4s"),
    "t4m": lambda: load_case("t4m"),
    "t4s'": lambda: load_case("t4s'"),
}

_GOLDEN_ASSIGNERS = {
    "MCMF_fast": MCMFAssigner,
    "MCMF_ori": lambda: MCMFAssigner(
        MCMFAssignerConfig(window_matching=False)
    ),
    "[5]": BipartiteAssigner,
    "[5]+window": lambda: BipartiteAssigner(
        BipartiteAssignerConfig(window_matching=True)
    ),
}

# SubSapStats fields pinned per sub-SAP, in order (all but runtime_s).
# The [5] rows stop before the two flow-work counters.
_GOLDEN_FIELDS = (
    "scope", "demand", "candidate_sites", "edges", "flow_cost",
    "window_retries", "augmentations", "nodes_settled",
)

# (twl, sha256 of the sorted pairs, sub-SAP rows) per (design, assigner).
_GOLDEN = {
    ("tiny3", "MCMF_fast"): (
        6.894425211917938,
        "ce76943e92ae73b3aebb28e9325f3d0ee40a6081b116f3992af0092e2fa21819",
        [
            ("d1", 8, 44, 58, 4.348720981450551, 0, 8, 240),
            ("d2", 7, 45, 46, 2.6474747699336514, 0, 7, 140),
            ("d3", 7, 54, 43, 2.73149835577322, 0, 7, 140),
            ("interposer", 1, 30, 2, 1.5280536520288819, 0, 1, 5),
        ],
    ),
    ("tiny4", "MCMF_fast"): (
        17.753118618612625,
        "51943a8aec4fc41de1fef9b74d1abab0fc181018f6801e6f710a146df7fdfea4",
        [
            ("d4", 9, 35, 44, 5.719244640872814, 0, 9, 234),
            ("d3", 8, 42, 48, 5.124114246881232, 0, 8, 192),
            ("d2", 7, 36, 56, 6.204064835592995, 0, 7, 140),
            ("d1", 5, 30, 18, 4.67984960983751, 0, 5, 60),
            ("interposer", 7, 30, 24, 9.925636172719082, 0, 7, 189),
        ],
    ),
    ("t4s", "MCMF_fast"): (
        141.40401063845118,
        "5d2d822e1d5854d7191a3afb1bf60ea948046f4dbe7be3abc45982efc51f33b4",
        [
            ("d4", 42, 650, 785, 43.27470656614702, 0, 42, 5082),
            ("d1", 38, 504, 852, 46.82280863792726, 0, 38, 4256),
            ("d2", 37, 576, 586, 41.24484249590346, 0, 37, 4292),
            ("d3", 33, 520, 613, 38.57996248344452, 0, 33, 3333),
            ("interposer", 45, 132, 388, 95.33343233144221, 0, 45, 5760),
        ],
    ),
    ("t4m", "MCMF_fast"): (
        259.2426716909272,
        "e7a5873698095e4d9ba2bf4298e77d3ed9d0baa1bb3c081fbe53a367207f0a52",
        [
            ("d3", 101, 891, 4513, 93.33466548167758, 0, 101, 27876),
            ("d2", 94, 1190, 3402, 87.62906851472256, 0, 94, 25662),
            ("d1", 91, 875, 3934, 87.02533400584895, 0, 91, 21931),
            ("d4", 90, 1023, 3048, 81.55254684906623, 0, 90, 22680),
            ("interposer", 40, 238, 296, 103.93196132683262, 0, 40, 4960),
        ],
    ),
    ("t4s", "MCMF_ori"): (
        139.67824270125112,
        "3aba6656346c806d5de65cab5df2256ec0fd4da4979668470a4b8f1fbbefb928",
        [
            ("d4", 42, 650, 27300, 42.5707725363273, 0, 42, 29148),
            ("d1", 38, 504, 19152, 46.35676967971712, 0, 38, 20672),
            ("d2", 37, 576, 21312, 40.54175806899167, 0, 37, 22755),
            ("d3", 33, 520, 17160, 38.02937412941809, 0, 33, 18315),
            ("interposer", 45, 132, 5940, 94.45343233144223, 0, 45, 8055),
        ],
    ),
    ("t4s'", "[5]"): (
        24.405244060174777,
        "03d262f547e416d11f45fb5b0532b7e3ec70045c0a9ec7243a3a9f832e78250d",
        [
            ("d1", 31, 504, 15624, 11.174306176686919, 0),
            ("d2", 31, 576, 17856, 10.739873054796385, 0),
            ("d4", 31, 650, 20150, 10.820128917636715, 0),
            ("d3", 27, 520, 14040, 10.269208829443153, 0),
        ],
    ),
    ("t4s'", "[5]+window"): (
        24.539004401148485,
        "c9c7150d041febf81986f3cad644f1c10ba1dc88869da4dc430d34cd87f4b1a6",
        [
            ("d1", 31, 504, 192, 11.213849961953862, 0),
            ("d2", 31, 576, 185, 10.876776245722509, 0),
            ("d4", 31, 650, 200, 10.909537723176513, 0),
            ("d3", 27, 520, 141, 10.413225250009406, 0),
        ],
    ),
}


@pytest.fixture(scope="module")
def golden_case():
    """(design, EFA_mix floorplan) by name, built once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            design = _GOLDEN_DESIGNS[name]()
            cache[name] = design, run_efa_mix(design).floorplan
        return cache[name]

    return get


def _assignment_digest(assignment):
    pairs = [
        sorted(assignment.buffer_to_bump.items()),
        sorted(assignment.escape_to_tsv.items()),
    ]
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


class TestAssignGolden:
    """Exact assignment identities on the default EFA_mix floorplans.

    Literals, not cross-run comparisons: a change to the sub-SAP solver
    cannot move one matching, one Eq. 3 cost (compared with ``==``) or
    one augmenting-path count without failing here.  The [5] rows pin
    the matching and its cost only.
    """

    @pytest.mark.parametrize(
        "design_name,assigner",
        [pytest.param(*key, id="-".join(key)) for key in sorted(_GOLDEN)],
    )
    def test_identity(self, golden_case, design_name, assigner):
        design, fp = golden_case(design_name)
        result = _GOLDEN_ASSIGNERS[assigner]().assign_with_stats(design, fp)
        twl, digest, rows = _GOLDEN[design_name, assigner]
        assert result.complete
        assert total_wirelength(design, fp, result.assignment).total == twl
        assert _assignment_digest(result.assignment) == digest
        fields = _GOLDEN_FIELDS[: len(rows[0])]
        assert [
            tuple(asdict(s)[f] for f in fields) for s in result.sub_saps
        ] == rows

    @pytest.mark.parametrize(
        "assigner,settled",
        [
            ("[5]", [16647, 18879, 21173, 14823]),
            ("[5]+window", [2914, 3038, 3007, 2133]),
        ],
    )
    def test_bipartite_reports_flow_work(self, golden_case, assigner, settled):
        """[5] is a flow assigner: its sub-SAPs report the augmenting
        paths (one per buffer here) and settled nodes of its solves."""
        design, fp = golden_case("t4s'")
        result = _GOLDEN_ASSIGNERS[assigner]().assign_with_stats(design, fp)
        assert [s.augmentations for s in result.sub_saps] == [
            s.demand for s in result.sub_saps
        ]
        assert [s.nodes_settled for s in result.sub_saps] == settled
