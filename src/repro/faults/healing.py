"""Self-healing MIS maintenance under crash/recover fault timelines.

Two altitudes of healing:

* :func:`heal_mis` — one-shot repair of a *damaged* MIS candidate on a
  static graph (e.g. the output of a jammed radio run): drop every
  conflicted member, find the uncovered region, and re-elect on the
  induced subgraph with a fresh seed — the same conflict-drop / probe /
  re-elect rule the dynamic :class:`~repro.dynamic.maintainer
  .MISMaintainer` applies per epoch, exposed for single repairs.
* :func:`run_self_healing` — drive a :class:`~repro.faults.plan.FaultPlan`
  of ``crash``/``recover`` events through the maintainer: a crash becomes
  a ``NODE_REMOVE`` epoch, a recovery rejoins the node (program state
  reset — it re-enters with no memory) via ``NODE_ADD`` plus ``EDGE_ADD``
  events restoring its original edges to currently-alive neighbors.  Every
  epoch is checked with :func:`~repro.analysis.verify_mis`, and the result
  records how many repair rounds the final fault epoch needed — the
  self-stabilization cost: once faults cease, a valid MIS is restored
  within that (bounded) number of rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

import networkx as nx

from ..analysis.verify import verify_mis
from ..congest.metrics import EnergyLedger
from ..dynamic.events import EDGE_ADD, NODE_ADD, NODE_REMOVE, GraphEvent
from ..dynamic.maintainer import (
    INCREMENTAL,
    STRATEGIES,
    MISMaintainer,
    RepairReport,
    _accepts_kwarg,
    _resolve_algorithm,
)
from ..graphs.properties import induced_subgraph
from .plan import CRASH, RECOVER, STRAGGLE, FaultPlan

__all__ = [
    "HealReport",
    "HealingEpoch",
    "SelfHealingResult",
    "heal_mis",
    "run_self_healing",
]


@dataclass(frozen=True)
class HealReport:
    """Accounting for one :func:`heal_mis` repair."""

    dropped: int          # conflicted MIS members evicted
    uncovered: int        # nodes re-electing in the repair region
    rounds: int           # rounds of the repair election (0 if none needed)
    energy: float         # ledger energy spent healing
    changed: bool         # did the candidate set change at all


def heal_mis(
    graph: nx.Graph,
    mis,
    algorithm: Any = "luby",
    *,
    seed: int = 0,
    ledger: Optional[EnergyLedger] = None,
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
) -> Tuple[Set, HealReport]:
    """Repair a damaged MIS candidate on ``graph``.

    Conflicted members (adjacent pairs inside the candidate) are dropped,
    then the uncovered region re-elects with ``algorithm`` under a shared
    ``ledger``.  Returns ``(healed_set, HealReport)``; the healed set is
    a maximal independent set whenever the algorithm's own output on the
    repair region is one.
    """
    candidate = set(mis) & set(graph.nodes)
    conflicted = {
        node
        for node in candidate
        if any(neighbor in candidate for neighbor in graph.neighbors(node))
    }
    kept = candidate - conflicted
    uncovered = {
        node
        for node in graph.nodes
        if node not in kept
        and not any(neighbor in kept for neighbor in graph.neighbors(node))
    }
    if ledger is None:
        ledger = EnergyLedger(graph.nodes)
    else:
        ledger.ensure_nodes(graph.nodes)
    before = ledger.total_energy()
    rounds = 0
    healed = set(kept)
    if uncovered:
        _, run = _resolve_algorithm(algorithm)
        kwargs: Dict[str, Any] = dict(algorithm_kwargs or {})
        kwargs.setdefault("ledger", ledger)
        if _accepts_kwarg(run, "size_bound"):
            kwargs.setdefault("size_bound", graph.number_of_nodes())
        region = induced_subgraph(graph, uncovered)
        result = run(region, seed=seed, **kwargs)
        healed |= set(result.mis)
        rounds = result.rounds
    report = HealReport(
        dropped=len(conflicted),
        uncovered=len(uncovered),
        rounds=rounds,
        energy=ledger.total_energy() - before,
        changed=healed != set(mis),
    )
    return healed, report


@dataclass(frozen=True)
class HealingEpoch:
    """One fault epoch: what struck, what the repair cost, and validity."""

    time: int
    crashed: Tuple[Any, ...]
    recovered: Tuple[Any, ...]
    report: RepairReport
    valid: bool
    mis_size: int


@dataclass
class SelfHealingResult:
    """Outcome of :func:`run_self_healing` over a full fault timeline."""

    epochs: List[HealingEpoch] = field(default_factory=list)
    final_mis: Set = field(default_factory=set)
    all_valid: bool = True          # every epoch ended with a valid MIS
    stabilized: bool = False        # valid MIS after the last fault epoch
    stabilization_rounds: int = 0   # repair rounds of the final fault epoch
    total_rounds: int = 0
    total_energy: float = 0.0

    @property
    def crash_count(self) -> int:
        return sum(len(epoch.crashed) for epoch in self.epochs)

    @property
    def recover_count(self) -> int:
        return sum(len(epoch.recovered) for epoch in self.epochs)


def run_self_healing(
    graph: nx.Graph,
    plan: FaultPlan,
    algorithm: Any = "luby",
    *,
    strategy: str = INCREMENTAL,
    seed: int = 0,
    algorithm_kwargs: Optional[Dict[str, Any]] = None,
) -> SelfHealingResult:
    """Run a crash/recover :class:`FaultPlan` through the MIS maintainer.

    Each distinct fault time becomes one maintainer epoch: crashes remove
    their node, recoveries re-add it (fresh state) and restore its
    original edges to neighbors that are currently alive.  ``straggle``
    events are a *round*-level fault with no epoch meaning and are
    rejected here (inject them via ``Network(faults=...)`` instead).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; have {list(STRATEGIES)}")
    if any(event.kind == STRAGGLE for event in plan.events):
        raise ValueError(
            "straggler faults act on rounds, not epochs; inject them with "
            "Network(faults=plan) / run_algorithm(faults=plan)"
        )
    maintainer = MISMaintainer(
        graph,
        algorithm,
        strategy=strategy,
        seed=seed,
        algorithm_kwargs=algorithm_kwargs,
    )
    result = SelfHealingResult()
    before_energy = maintainer.ledger.total_energy()
    by_time = plan.by_time()
    absent: Set = set()
    for time in sorted(by_time):
        events: List[GraphEvent] = []
        crashed: List[Any] = []
        recovered: List[Any] = []
        present = set(maintainer.graph.nodes)
        for fault in by_time[time]:
            if fault.kind == CRASH:
                if fault.node not in present:
                    continue
                events.append(GraphEvent(NODE_REMOVE, fault.node))
                present.discard(fault.node)
                absent.add(fault.node)
                crashed.append(fault.node)
            elif fault.kind == RECOVER:
                if fault.node not in absent or fault.node in present:
                    continue
                events.append(GraphEvent(NODE_ADD, fault.node))
                present.add(fault.node)
                for neighbor in graph.neighbors(fault.node):
                    if neighbor in present and neighbor != fault.node:
                        events.append(GraphEvent(EDGE_ADD, fault.node, neighbor))
                absent.discard(fault.node)
                recovered.append(fault.node)
        report = maintainer.apply_epoch(events)
        check = verify_mis(maintainer.graph, maintainer.mis)
        epoch = HealingEpoch(
            time=time,
            crashed=tuple(crashed),
            recovered=tuple(recovered),
            report=report,
            valid=check.maximal,
            mis_size=len(maintainer.mis),
        )
        result.epochs.append(epoch)
        result.all_valid = result.all_valid and epoch.valid
    result.final_mis = set(maintainer.mis)
    if result.epochs:
        last = result.epochs[-1]
        result.stabilized = last.valid
        result.stabilization_rounds = last.report.rounds
    else:
        result.stabilized = verify_mis(maintainer.graph, maintainer.mis).maximal
    result.total_rounds = maintainer.total_rounds
    result.total_energy = maintainer.ledger.total_energy() - before_energy
    return result
