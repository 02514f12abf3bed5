"""Contracts of the stage composition shared by the paper's pipelines.

* Every stage's message counters balance (sent = delivered + dropped),
  and a phase built from several networks (Phase III, Algorithm 2's
  Phase I) reports their messages.
* CSR (:class:`GraphArrays`) input runs every pipeline, converted once at
  entry, with exactly the result of the equivalent networkx input.
"""

import networkx as nx
import pytest

from test_pipeline_golden import GRAPHS, PHASE_NAMES

from repro.analysis import verify_mis
from repro.congest.vectorized import GraphArrays
from repro.graphs import gnp
from repro.harness import run_algorithm

PIPELINES = tuple(PHASE_NAMES)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm", PIPELINES)
def test_every_stage_balances_its_messages(algorithm, graph_name):
    result = run_algorithm(algorithm, GRAPHS[graph_name](), seed=0)
    for name, phase in result.metrics.phases.items():
        assert phase.messages_sent == (
            phase.messages_delivered + phase.messages_dropped
        ), name
        if phase.messages_sent:
            assert phase.total_message_bits > 0, name
            assert phase.max_message_bits > 0, name


#: Phases that sum the counters of several networks: Phase III (one
#: network per component block; each case's Phase II leaves a component
#: with an edge) and Algorithm 2's Phase I (one per Lemma 3.1 iteration;
#: the dense graph runs at least one).
COMPOSITE_CASES = [
    ("algorithm1", "gnp_log_degree", 0, "phase3"),
    ("algorithm2", "gnp_log_degree", 0, "phase3"),
    ("algorithm1_avg", "geometric", 1, "phase3"),
    ("algorithm2_avg", "geometric", 1, "phase3"),
    ("algorithm2", "dense_gnp", 0, "phase1"),
]


@pytest.mark.parametrize("algorithm,graph_name,seed,phase", COMPOSITE_CASES)
def test_composite_phases_report_their_networks_messages(
    algorithm, graph_name, seed, phase
):
    result = run_algorithm(algorithm, GRAPHS[graph_name](), seed=seed)
    metrics = result.metrics.phases[phase]
    assert metrics.rounds > 0, f"{phase} ran no rounds"
    assert metrics.messages_sent > 0


def test_graph_arrays_to_networkx_round_trips():
    graph = nx.convert_node_labels_to_integers(nx.petersen_graph())
    back = GraphArrays.from_graph(graph).to_networkx()
    assert list(back.nodes) == sorted(graph.nodes)
    assert set(map(frozenset, back.edges)) == set(map(frozenset, graph.edges))

    labelled = nx.grid_2d_graph(3, 4)  # tuple labels: a non-identity rank map
    back = GraphArrays.from_graph(labelled).to_networkx()
    assert list(back.nodes) == sorted(labelled.nodes)
    assert set(map(frozenset, back.edges)) == set(
        map(frozenset, labelled.edges)
    )


@pytest.mark.parametrize("algorithm", PIPELINES)
def test_csr_input_matches_networkx_input(algorithm):
    graph = gnp(200, 0.5, seed=1)
    arrays = GraphArrays.from_graph(graph)
    expected = run_algorithm(algorithm, graph, seed=2)
    result = run_algorithm(algorithm, arrays, seed=2)
    assert verify_mis(arrays, result.mis).valid
    assert result.mis == expected.mis
    assert result.metrics == expected.metrics
    assert result.details == expected.details
