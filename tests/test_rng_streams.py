"""The RNG contract: node ``v``'s ``k``-th uniform is ``u(seed, rank, k)``.

Scalar hooks draw through ``ctx.rng`` (:class:`repro.congest.rng.NodeRandom`)
and vector kernels through ``network.streams.take(ranks)``; both advance one
shared per-rank counter and evaluate the same keyed function. These tests
state the seed → stream mapping once (golden values) and check that the two
call paths interleave into exactly the pure scalar sequence.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import Network, NodeProgram
from repro.congest.rng import NodeRandom, NodeStreams


class Idle(NodeProgram):
    def on_round(self, ctx):
        ctx.halt()


def make_network(n: int, seed: int = 0) -> Network:
    graph = nx.path_graph(n)
    return Network(graph, {v: Idle() for v in graph.nodes}, seed=seed)


#: First three uniforms of ranks 0, 1, 2 at seed 0 (exact float64 values).
GOLDEN_SEED0 = [
    [0.7195904778696673, 0.5090990013842475, 0.8860528667960966],
    [0.669724319662199, 0.9864593928027007, 0.7487377057393872],
    [0.6148608090911387, 0.12109173519754601, 0.9092085779548853],
]


class TestGoldenStreams:
    def test_scalar_draws_match_golden_values(self):
        network = make_network(3, seed=0)
        for rank, expected in enumerate(GOLDEN_SEED0):
            rng = network.contexts[rank].rng
            assert [rng.random() for _ in expected] == expected

    def test_vector_draws_match_golden_values(self):
        streams = NodeStreams(0, 3)
        columns = [streams.take(np.arange(3)) for _ in range(3)]
        assert np.array(columns).T.tolist() == GOLDEN_SEED0

    def test_stream_depends_on_rank_not_network_size(self):
        small, large = NodeStreams(0, 3), NodeStreams(0, 1000)
        idx = np.arange(3)
        assert small.take(idx).tolist() == large.take(idx).tolist()

    def test_ranks_follow_sorted_labels(self):
        graph = nx.Graph([("b", "a"), ("a", "c")])
        network = Network(graph, {v: Idle() for v in graph.nodes}, seed=0)
        draws = [network.contexts[v].rng.random() for v in "abc"]
        assert draws == [row[0] for row in GOLDEN_SEED0]

    def test_seeds_give_different_streams(self):
        idx = np.arange(4)
        first, second = NodeStreams(0, 4), NodeStreams(1, 4)
        assert (first.take(idx) != second.take(idx)).all()


@settings(max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("scalar"), st.integers(0, 7)),
            st.tuples(st.just("vector"), st.lists(st.booleans(), max_size=8)),
        ),
        max_size=25,
    ),
)
def test_vector_and_scalar_draws_interleave_into_the_scalar_sequence(
    n, seed, ops
):
    mixed = make_network(n, seed)
    drawn = [[] for _ in range(n)]
    for kind, arg in ops:
        if kind == "scalar":
            rank = arg % n
            drawn[rank].append(mixed.contexts[rank].rng.random())
        else:
            idx = np.nonzero((arg + [False] * n)[:n])[0]
            for rank, value in zip(idx.tolist(), mixed.streams.take(idx)):
                drawn[rank].append(float(value))
    scalar = make_network(n, seed)
    for rank in range(n):
        rng = scalar.contexts[rank].rng
        assert drawn[rank] == [rng.random() for _ in drawn[rank]]
        assert mixed.streams.counter[rank] == len(drawn[rank])


class TestScalarMethods:
    #: Draws per mean estimate; the tolerance is five standard errors of
    #: the sample mean, sqrt(1 - p) / (p * sqrt(SAMPLES)).
    SAMPLES = 20_000

    @pytest.mark.parametrize("p", [1.0, 0.5, 0.1, 0.01])
    def test_geometric_mean_is_inverse_p(self, p):
        rng = NodeRandom(NodeStreams(0, 1), 0)
        values = [rng.geometric(p) for _ in range(self.SAMPLES)]
        assert min(values) >= 1
        tolerance = 5 * math.sqrt(1 - p) / (p * math.sqrt(self.SAMPLES))
        assert abs(np.mean(values) - 1 / p) <= tolerance
        if p == 1.0:
            assert set(values) == {1}

    @pytest.mark.parametrize(
        "low,high", [(0, 2), (-3, 4), (0, 2**30), (5, None)]
    )
    def test_integers_stay_in_range(self, low, high):
        rng = NodeRandom(NodeStreams(0, 1), 0)
        lo, hi = (0, low) if high is None else (low, high)
        values = [rng.integers(low, high) for _ in range(2000)]
        assert all(lo <= v < hi for v in values)
        if hi - lo <= 8:
            assert set(values) == set(range(lo, hi))

    def test_every_method_consumes_one_step(self):
        streams = NodeStreams(3, 1)
        rng = NodeRandom(streams, 0)
        rng.random()
        rng.geometric(0.3)
        rng.geometric(1.0)
        rng.integers(10)
        assert streams.counter[0] == 4
        fresh = NodeStreams(3, 1)
        fifth = [fresh.take(np.array([0]))[0] for _ in range(5)][-1]
        assert rng.random() == fifth


def test_negative_seed_raises():
    with pytest.raises(ValueError):
        NodeStreams(-1, 3)
    with pytest.raises(ValueError):
        make_network(3, seed=-1)
