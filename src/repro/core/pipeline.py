"""The one composition of stages behind the paper's four pipelines.

Both theorems run Phase I, then Phase II on the residual graph, then
Phase III on the shattered components (Sections 2.4 and 3.3); only Phase I
and the Phase III variant differ. Section 4 inserts Lemma 4.2 and the
sparsifier between Phase I and Phase II. A :class:`Pipeline` holds what
every composition shares: networkx input (CSR input is converted once
here), one :class:`EnergyLedger` threaded through every stage, the
instrument events and profiler section around each stage, and the
:class:`MISResult` assembly — the union of the stages' ``joined`` sets and
their metrics combined in stage order.

Stage runners are passed in at call time, never captured at import, so a
runner rebound on its module (as a tracer does) is the one that runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..congest import EnergyLedger, channel_scope
from ..congest.metrics import RunMetrics
from ..congest.vectorized import GraphArrays
from ..graphs.properties import in_copy_order, induced_subgraph
from ..obs import current_instrument, section_scope
from ..result import MISResult
from .config import AlgorithmConfig
from .phase2 import run_phase2
from .phase3 import run_phase3
from .phase_result import PhaseResult, derive_seed


class Pipeline:
    """One run of a paper pipeline: its input, ledger and stages so far."""

    def __init__(self, name: str, graph, seed: int, config: AlgorithmConfig,
                 ledger: Optional[EnergyLedger], size_bound: Optional[int]):
        if isinstance(graph, GraphArrays):
            graph = graph.to_networkx()
        if graph.number_of_nodes() == 0:
            raise ValueError(f"{name} needs a non-empty graph")
        self.name = name
        self.graph = graph
        self.seed = seed
        self.config = config
        self.n = size_bound if size_bound is not None else len(graph)
        self.ledger = ledger if ledger is not None else EnergyLedger(graph.nodes)
        self.stages: Dict[str, PhaseResult] = {}
        self.instrument = current_instrument()

    def stage(self, name: str, runner, graph, tag: int, **kwargs):
        """Run ``runner`` on ``graph`` as the observed stage ``name``, seeded
        by ``tag``. The stage name keys the instrument events, the profiler
        section and ``metrics.phases`` alike."""
        instrument = self.instrument
        instrument.on_phase_start(name)
        with section_scope(instrument.profiler, name):
            result = runner(
                graph, seed=derive_seed(self.seed, tag), config=self.config,
                ledger=self.ledger, size_bound=self.n, **kwargs,
            )
        instrument.on_phase_end(name, result.metrics)
        self.stages[name] = result
        return result

    def result(self, details: dict) -> MISResult:
        stages = self.stages.values()
        return MISResult(
            mis=set().union(*(stage.joined for stage in stages)),
            metrics=RunMetrics.combine_sequential(
                {name: stage.metrics for name, stage in self.stages.items()},
                ledger=self.ledger,
            ),
            algorithm=self.name,
            details=details,
        )


def residual(graph, nodes):
    """The residual graph on the node set ``nodes``: ``graph`` itself when
    ``nodes`` covers it and its copy would iterate identically, else
    :func:`induced_subgraph`. No stage mutates its input graph, so handing
    the same graph to the next stage is safe."""
    if nodes.issuperset(graph) and in_copy_order(graph):
        return graph
    return induced_subgraph(graph, nodes)


def run_pipeline(name: str, stages, graph, seed: int, *,
                 config: AlgorithmConfig, ledger: Optional[EnergyLedger],
                 size_bound: Optional[int], channel, **kwargs) -> MISResult:
    """Run ``stages(pipeline, **kwargs)`` under ``channel``; the details it
    returns go into the assembled :class:`MISResult`."""
    pipeline = Pipeline(name, graph, seed, config, ledger, size_bound)
    with channel_scope(channel):
        details = stages(pipeline, **kwargs)
    return pipeline.result(details)


def three_phases(pipeline: Pipeline, phase1_runner, tags, variant: str):
    """Phases I, II and III of Theorems 1.1/1.2, seeded by ``tags``."""
    phase1 = pipeline.stage("phase1", phase1_runner, pipeline.graph, tags[0])
    phase2 = pipeline.stage(
        "phase2", run_phase2, residual(pipeline.graph, phase1.remaining),
        tags[1],
    )
    phase3 = pipeline.stage(
        "phase3", run_phase3, phase2.components, tags[2], variant=variant
    )
    return {
        "phase1": phase1.details,
        "phase2": phase2.details,
        "phase3": phase3.details,
        "undecided": sorted(phase3.remaining),
    }
