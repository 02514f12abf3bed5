"""Shared result container for the individual phases, and the helpers
every phase uses to derive seeds and finish a network run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Set

import numpy as np

from ..congest.metrics import RunMetrics

#: The additive message counters of a :class:`~repro.congest.Network`
#: (and of :class:`RunMetrics`); ``max_message_bits`` combines by max.
_SUMMED_COUNTERS = (
    "messages_sent", "messages_delivered", "messages_dropped",
    "total_message_bits",
)


def derive_seed(*parts: int) -> int:
    """The sub-seed of a stage, component or block: a pure function of
    the parent seed and the tag ``parts``."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def message_counters(sources: Iterable[Any]) -> Dict[str, int]:
    """The five message counters of networks or metrics, combined: four
    summed, ``max_message_bits`` the maximum."""
    sources = list(sources)
    counters = {
        name: sum(getattr(source, name) for source in sources)
        for name in _SUMMED_COUNTERS
    }
    counters["max_message_bits"] = max(
        (source.max_message_bits for source in sources), default=0
    )
    return counters


@dataclass
class PhaseResult:
    """Output of one phase of a multi-phase MIS algorithm.

    Attributes
    ----------
    joined:
        Nodes this phase added to the independent set.
    dominated:
        Nodes removed because a neighbor joined (in this phase).
    remaining:
        Nodes still undecided after the phase (the next phase's input).
    metrics:
        Time/energy accounting for this phase alone.
    details:
        Phase-specific extras (residual degree, component stats, ...).
    """

    joined: Set[int]
    dominated: Set[int]
    remaining: Set[int]
    metrics: RunMetrics
    details: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def idle(cls, details: Dict[str, Any], remaining: Iterable[int] = ()):
        """The result of a phase that ran no rounds (on no nodes, by
        default): nothing decided, no energy spent."""
        metrics = RunMetrics(rounds=0, max_energy=0, average_energy=0.0,
                             total_energy=0)
        return cls(set(), set(), set(remaining), metrics, details)

    @classmethod
    def from_network(cls, graph, network, rounds, before, ledger, details):
        """The checked partition a network run on ``graph`` leaves.

        Joined nodes are those whose ``joined`` output is set; their
        neighbors are dominated; the rest remain. Energy is the ledger's
        growth since the snapshot ``before``, and all five message
        counters are read from ``network``.
        """
        joined = {v for v, flag in network.outputs("joined").items() if flag}
        dominated: Set[int] = set()
        for node in joined:
            dominated.update(graph.neighbors(node))
        dominated -= joined
        remaining = set(graph.nodes) - joined - dominated
        metrics = RunMetrics.from_snapshots(
            rounds, before, ledger.snapshot(), graph.nodes,
            **message_counters([network]),
        )
        result = cls(joined, dominated, remaining, metrics, details)
        result.check_partition(set(graph.nodes))
        return result

    def check_partition(self, nodes: Set[int]) -> None:
        """Sanity: joined/dominated/remaining partition the phase's input."""
        union = self.joined | self.dominated | self.remaining
        if union != set(nodes):
            raise ValueError("phase outputs do not cover the input nodes")
        if self.joined & self.dominated or self.joined & self.remaining:
            raise ValueError("joined overlaps dominated/remaining")
        if self.dominated & self.remaining:
            raise ValueError("dominated overlaps remaining")
