"""Tests for incremental MIS repair: invariants, locality, accounting."""

import pytest

from repro import graphs
from repro.analysis import verify_mis
from repro.congest import EnergyLedger
from repro.dynamic import (
    EDGE_ADD,
    EDGE_REMOVE,
    NODE_ADD,
    NODE_REMOVE,
    GraphEvent,
    MISMaintainer,
)


def assert_valid(maintainer):
    report = verify_mis(maintainer.graph, maintainer.mis)
    assert report.independent and report.maximal


class TestConstruction:
    def test_initial_election_is_valid(self):
        maintainer = MISMaintainer(graphs.random_geometric(50, seed=3), "luby")
        assert_valid(maintainer)
        assert maintainer.initial.epoch == 0
        assert maintainer.initial.recomputed
        assert maintainer.initial.energy > 0

    def test_empty_graph_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError):
            MISMaintainer(nx.Graph(), "luby")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            MISMaintainer(graphs.path(4), "luby", strategy="lazy")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            MISMaintainer(graphs.path(4), "quantum_mis")

    def test_callable_algorithm_accepted(self):
        from repro.baselines import luby_mis

        maintainer = MISMaintainer(graphs.path(6), luby_mis)
        assert maintainer.algorithm_name == "luby_mis"
        assert_valid(maintainer)


class TestEdgeEvents:
    def test_conflict_edge_repaired(self):
        """Wiring two MIS nodes together must drop/re-decide locally."""
        maintainer = MISMaintainer(graphs.empty_graph(2), "luby")
        assert maintainer.mis == {0, 1}  # isolated nodes all join
        report = maintainer.apply_epoch([GraphEvent(EDGE_ADD, 0, 1)])
        assert_valid(maintainer)
        assert len(maintainer.mis) == 1
        assert report.repair_region >= 1
        assert report.mis_churn >= 1

    def test_edge_between_decided_nodes_is_free(self):
        """An edge from an MIS node to a dominated node needs no repair."""
        maintainer = MISMaintainer(graphs.path(2), "luby")
        dominated = next(v for v in (0, 1) if v not in maintainer.mis)
        maintainer.apply_epoch([GraphEvent(NODE_ADD, 2)])
        assert 2 in maintainer.mis  # isolated newcomer elects itself
        report = maintainer.apply_epoch([GraphEvent(EDGE_ADD, dominated, 2)])
        assert report.repair_region == 0
        assert report.mis_churn == 0
        assert_valid(maintainer)

    def test_edge_removal_uncovers(self):
        """Cutting a dominated node from its only dominator re-elects it."""
        maintainer = MISMaintainer(graphs.path(2), "luby")
        report = maintainer.apply_epoch([GraphEvent(EDGE_REMOVE, 0, 1)])
        assert_valid(maintainer)
        assert maintainer.mis == {0, 1}  # both endpoints now isolated
        assert report.repair_region == 1


class TestNodeEvents:
    def test_isolated_join_enters_mis(self):
        maintainer = MISMaintainer(graphs.path(4), "luby")
        report = maintainer.apply_epoch([GraphEvent(NODE_ADD, 99)])
        assert 99 in maintainer.mis
        assert report.repair_region == 1
        assert_valid(maintainer)

    def test_join_with_attachment_is_dominated(self):
        maintainer = MISMaintainer(graphs.star(5), "luby")
        member = min(maintainer.mis)
        report = maintainer.apply_epoch(
            [GraphEvent(NODE_ADD, 99), GraphEvent(EDGE_ADD, member, 99)]
        )
        assert 99 not in maintainer.mis  # its MIS neighbor covers it
        assert report.repair_region == 0
        assert_valid(maintainer)

    def test_mis_node_removal_repairs_neighborhood(self):
        maintainer = MISMaintainer(graphs.clique(5), "luby")
        (member,) = maintainer.mis  # a clique's MIS is one node
        report = maintainer.apply_epoch([GraphEvent(NODE_REMOVE, member)])
        assert_valid(maintainer)
        assert len(maintainer.mis) == 1  # the 4-clique re-elects one node
        assert report.repair_region == 4

    def test_non_mis_node_removal_is_free(self):
        maintainer = MISMaintainer(graphs.star(6), "luby")
        before = set(maintainer.mis)
        victim = min(set(maintainer.graph.nodes) - before)
        report = maintainer.apply_epoch([GraphEvent(NODE_REMOVE, victim)])
        assert maintainer.mis == before
        assert report.repair_region == 0
        assert_valid(maintainer)


class TestLocality:
    def test_repair_stays_near_update(self):
        """A single leaf cut on a long path repairs O(1) nodes, not O(n)."""
        maintainer = MISMaintainer(graphs.path(200), "luby", seed=0)
        report = maintainer.apply_epoch([GraphEvent(EDGE_REMOVE, 0, 1)])
        assert_valid(maintainer)
        assert report.probed <= 6
        assert report.repair_region <= 3

    def test_empty_epoch_is_free(self):
        maintainer = MISMaintainer(graphs.path(10), "luby")
        before = set(maintainer.mis)
        report = maintainer.apply_epoch([])
        assert report.energy == 0 and report.rounds == 0
        assert maintainer.mis == before


class TestStrategiesAndLedger:
    def test_full_recompute_matches_invariant(self):
        maintainer = MISMaintainer(
            graphs.random_geometric(40, seed=5), "luby",
            strategy="full_recompute",
        )
        maintainer.apply_epoch([GraphEvent(NODE_REMOVE, 0)])
        assert_valid(maintainer)

    def test_shared_ledger_accumulates(self):
        graph = graphs.random_geometric(30, seed=2)
        ledger = EnergyLedger(graph.nodes)
        maintainer = MISMaintainer(graph, "luby", ledger=ledger)
        after_init = ledger.total_energy()
        assert after_init > 0
        maintainer.apply_epoch([GraphEvent(NODE_REMOVE, 0)])
        assert ledger.total_energy() >= after_init

    def test_departed_nodes_keep_their_energy(self):
        maintainer = MISMaintainer(graphs.path(5), "luby")
        spent = maintainer.ledger.awake_rounds(2)
        maintainer.apply_epoch([GraphEvent(NODE_REMOVE, 2)])
        assert maintainer.ledger.awake_rounds(2) == spent

    def test_joined_nodes_are_tracked(self):
        maintainer = MISMaintainer(graphs.path(5), "luby")
        maintainer.apply_epoch([GraphEvent(NODE_ADD, 50)])
        assert maintainer.ledger.awake_rounds(50) > 0  # probed + elected

    def test_deterministic_across_runs(self):
        def run():
            maintainer = MISMaintainer(
                graphs.random_geometric(30, seed=4), "algorithm1", seed=9
            )
            maintainer.apply_epoch([GraphEvent(NODE_REMOVE, 3)])
            maintainer.apply_epoch([GraphEvent(NODE_ADD, 77)])
            return (
                sorted(maintainer.mis),
                maintainer.total_rounds,
                maintainer.ledger.snapshot(),
            )

        assert run() == run()

    def test_repairs_bill_at_deployment_scale(self):
        """Every registered algorithm must accept ``size_bound`` so repair
        sub-runs scale their schedules with the deployment size, not the
        (tiny) repair region — and the explicit bound must be a no-op when
        it equals the graph's own size."""
        from repro.core import algorithm1
        from repro.harness import ALGORITHMS

        graph = graphs.random_geometric(24, seed=6)
        for name in ALGORITHMS:
            maintainer = MISMaintainer(graph, name)
            assert maintainer._accepts_size_bound, name
        default = algorithm1(graph, seed=0)
        explicit = algorithm1(
            graph, seed=0, size_bound=graph.number_of_nodes()
        )
        assert default.mis == explicit.mis
        assert default.rounds == explicit.rounds

    def test_algorithm_kwargs_forwarded(self):
        from repro.core import AlgorithmConfig

        config = AlgorithmConfig()
        maintainer = MISMaintainer(
            graphs.path(6), "algorithm1",
            algorithm_kwargs={"config": config},
        )
        assert_valid(maintainer)


class TestEpochSeedDerivation:
    """The per-epoch sub-seed must be explicit and platform-stable.

    ``_epoch_seed`` hashes the (seed, epoch) pair through SHA-256 over a
    fixed ascii encoding: no salted ``hash()``, no word-size-dependent
    arithmetic, so a master seed reproduces the same repair sequence on
    every platform/python/process. The pins below are the contract — if
    they ever change, existing recorded timelines stop being replayable.
    """

    def test_pinned_values(self):
        from repro.dynamic.maintainer import _epoch_seed

        assert _epoch_seed(0, 0) == 1141317373
        assert _epoch_seed(0, 1) == 637424418
        assert _epoch_seed(7, 0) == 952853752
        assert _epoch_seed(7, 12) == 814646644

    def test_in_range_and_spread(self):
        from repro.dynamic.maintainer import _epoch_seed

        seen = {
            _epoch_seed(seed, epoch)
            for seed in range(8)
            for epoch in range(32)
        }
        assert len(seen) == 8 * 32  # no collisions in a realistic window
        assert all(0 <= value < 2**31 - 1 for value in seen)

    def test_run_timeline_reproduces_identical_reports(self):
        from repro.dynamic import make_workload, run_dynamic

        outcomes = []
        for _ in range(2):
            graph, timeline = make_workload(
                "link_flap", n=60, epochs=6, seed=13
            )
            result = run_dynamic(graph, timeline, "luby", seed=13)
            outcomes.append(result)
        first, second = outcomes
        assert first.epochs == second.epochs  # full per-epoch rows
        assert first.cumulative_energy == second.cumulative_energy
        assert first.summary() == second.summary()

    def test_maintainer_timeline_reports_identical(self):
        graph = graphs.random_geometric(40, seed=5)
        events = [
            [GraphEvent(EDGE_REMOVE, 0, 1)],
            [GraphEvent(NODE_REMOVE, 2)],
            [GraphEvent(NODE_ADD, 99), GraphEvent(EDGE_ADD, 99, 3)],
        ]

        def reports():
            maintainer = MISMaintainer(graph, "luby", seed=21)
            return [maintainer.initial] + list(
                maintainer.run_timeline(events)
            )

        assert reports() == reports()
