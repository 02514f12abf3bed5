"""In-memory span tracer that wraps ``repro``'s public entry points.

Nothing under ``src/`` is edited: :func:`install` replaces each traced
function or method with a wrapper, in every place a caller looks it up.
A function imported with ``from x import f`` is bound once per importing
module, and the harness keeps the algorithms in the ``ALGORITHMS`` dict,
so a function is swapped in every loaded ``repro`` module namespace and in
every module-level dict that holds it. Methods are swapped on the class
that defines them.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for none) and ``op`` is the id of the benchmark
operation the span belongs to (``None`` during set-up). Spans stay in
memory until :meth:`Tracer.write` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Span name of the benchmark's own root span around each timed operation.
OP_SPAN = "bench.op"

#: Layer metric that takes the self time of each span name. Every span
#: that can occur inside a timed operation must appear here: the traced
#: run checks that these self times add up to the traced ``run_s``.
SELF_TIME_METRIC = {
    OP_SPAN: "trace.unattributed_s",
    "network.init": "network.init_s",
    "network.start": "network.start_s",
    "network.step": "network.step_s",
    "network.run": "network.run_self_s",
    "vectorized.csr": "vectorized.csr_s",
    "vectorized.kernel_init": "vectorized.kernel_init_s",
    "vectorized.step": "vectorized.step_s",
    "vectorized.flush": "vectorized.flush_s",
    "channels.deliver": "channels.deliver_s",
    "algo.entry": "algo.self_s",
    "core.phase1": "core.phase1_s",
    "core.phase2": "core.phase2_s",
    "core.phase3": "core.phase3_s",
    "surgery.copy": "surgery.copy_s",
    "surgery.subgraph": "surgery.copy_s",
    "cluster.merge": "cluster.merge_s",
    "verify.verify_mis": "verify.verify_s",
    "dynamic.apply_epoch": "dynamic.epoch_self_s",
    "dynamic.apply_event": "dynamic.events_s",
}

#: Graph surgery is counted only when ``core`` or ``dynamic`` calls
#: networkx; other callers keep the time in their own span.
SURGERY_CALLERS = ("repro.core", "repro.dynamic")


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder plus the counters gathered at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.active = True
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._op_seq = 0

    # -- spans -----------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        enter: Optional[Callable[..., Any]] = None,
        exit: Optional[Callable[..., None]] = None,
        callers: Optional[tuple] = None,
        setup: bool = False,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``enter(args)`` runs before the call and its return value is
        handed to ``exit(counts, args, result, state)`` after it, so
        counters are read where the work happens; inside operations only,
        unless ``setup`` (the layer works during set-up). With
        ``callers``, only calls from a module whose name starts with one
        of them are traced.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if callers is not None and not sys._getframe(1).f_globals.get(
                "__name__", ""
            ).startswith(callers):
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            state = enter(args) if enter is not None else None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if exit is not None and (setup or span[4] is not None):
                exit(tracer.counts, args, result, state)
            return result

        return traced

    def begin_op(self) -> None:
        """Open the root span of one timed benchmark operation."""
        self._op = self._op_seq
        self._op_seq += 1
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, perf_counter(), 0.0, -1, self._op])

    def end_op(self) -> None:
        index = self._stack.pop()
        self.spans[index][2] = perf_counter()
        self._op = None

    # -- aggregation -------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its children."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def write(self, path) -> None:
        """Save every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------
def _replace_everywhere(original: Callable, wrapper: Callable) -> int:
    """Swap ``original`` for ``wrapper`` in every loaded ``repro`` module
    namespace and module-level dict; returns the number of bindings."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper
                replaced += 1
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        replaced += 1
    return replaced


def _patch_function(tracer, module_name, attr, span, **hooks) -> None:
    # import_module returns the module even where the package re-exports a
    # function of the same name (``repro.core.algorithm1``).
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    if _replace_everywhere(original, tracer.wrap(span, original, **hooks)) == 0:
        raise RuntimeError(f"{module_name}.{attr} is bound nowhere")


def _patch_method(tracer, cls, attr, span, **hooks) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, **hooks)))
    else:
        setattr(cls, attr, tracer.wrap(span, raw, **hooks))


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _patch_defined(tracer, base, attr, span, **hooks) -> None:
    """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
    for cls in _subclasses(base):
        if attr in cls.__dict__:
            _patch_method(tracer, cls, attr, span, **hooks)


# -- counters read at the span boundaries -------------------------------------
def _count(key):
    def exit(counts, args, result, state):
        counts[key] += 1
    return exit


def _init_enter(args):
    return peak_rss_mib()


def _init_exit(counts, args, result, state):
    counts["network.init_calls"] += 1
    counts["network.init_nodes"] += args[0].graph.number_of_nodes()
    counts["network.init_rss_mib"] += peak_rss_mib() - state


def _run_enter(args):
    return args[0].messages_sent


def _run_exit(counts, args, result, state):
    counts["network.messages"] += args[0].messages_sent - state


def _phase1_exit(counts, args, result, state):
    counts["core.residual_nodes"] += len(result.remaining)


def _phase2_exit(counts, args, result, state):
    counts["core.components"] += len(result.components)


def _phase3_exit(counts, args, result, state):
    counts["core.phase3_failures"] += result.details.get("failures", 0)


def _copy_exit(counts, args, result, state):
    counts["surgery.copy_calls"] += 1
    counts["surgery.nodes_copied"] += result.number_of_nodes()


def _epoch_exit(counts, args, result, state):
    counts["dynamic.repair_nodes"] += result.repair_region
    counts["dynamic.probed_nodes"] += result.probed


def _graphs_exit(counts, args, result, state):
    graph = result[0] if isinstance(result, tuple) else result
    counts["graphs.edges"] += graph.number_of_edges()


#: Algorithm entry points whose own code is ``algo.self_s``.
ENTRY_FUNCTIONS = (
    ("repro.baselines.luby", "luby_mis"),
    ("repro.baselines.regularized_luby", "regularized_luby_mis"),
    ("repro.baselines.ghaffari", "ghaffari_mis"),
    ("repro.core.algorithm1", "algorithm1"),
    ("repro.core.algorithm2", "algorithm2"),
    ("repro.core.average_energy", "algorithm1_constant_average_energy"),
    ("repro.core.average_energy", "algorithm2_constant_average_energy"),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of ``repro``; once per process."""
    import networkx as nx

    import repro.harness  # noqa: F401  (loads every layer and ALGORITHMS)
    from repro.congest import Channel, Network, NodeProgram, VectorRound
    from repro.dynamic import MISMaintainer

    _patch_function(tracer, "repro.graphs.generators", "make_family",
                    "graphs.build", exit=_graphs_exit, setup=True)
    _patch_function(tracer, "repro.dynamic.workloads", "make_workload",
                    "graphs.build", exit=_graphs_exit, setup=True)

    _patch_method(tracer, Network, "__init__", "network.init",
                  enter=_init_enter, exit=_init_exit)
    _patch_method(tracer, Network, "start", "network.start")
    _patch_method(tracer, Network, "step", "network.step",
                  exit=_count("network.step_calls"))
    for attr in ("run", "run_rounds"):
        _patch_method(tracer, Network, attr, "network.run",
                      enter=_run_enter, exit=_run_exit)

    _patch_function(tracer, "repro.congest.vectorized", "graph_arrays",
                    "vectorized.csr", exit=_count("vectorized.csr_calls"))
    _patch_defined(tracer, NodeProgram, "vector_round",
                   "vectorized.kernel_init")
    _patch_defined(tracer, VectorRound, "load", "vectorized.kernel_init")
    _patch_defined(tracer, VectorRound, "step", "vectorized.step",
                   exit=_count("vectorized.rounds"))
    _patch_defined(tracer, VectorRound, "flush", "vectorized.flush")
    _patch_defined(tracer, Channel, "deliver", "channels.deliver",
                   exit=_count("channels.deliver_calls"))

    for module_name, attr in ENTRY_FUNCTIONS:
        _patch_function(tracer, module_name, attr, "algo.entry")
    for module_name, attr in (
        ("repro.core.phase1_alg1", "run_phase1_alg1"),
        ("repro.core.phase1_alg2", "run_phase1_alg2"),
    ):
        _patch_function(tracer, module_name, attr, "core.phase1",
                        exit=_phase1_exit)
    _patch_function(tracer, "repro.core.phase2", "run_phase2",
                    "core.phase2", exit=_phase2_exit)
    _patch_function(tracer, "repro.core.phase3", "run_phase3",
                    "core.phase3", exit=_phase3_exit)
    _patch_function(tracer, "repro.cluster.merge", "merge_component_clusters",
                    "cluster.merge", exit=_count("cluster.merge_calls"))

    _patch_method(tracer, nx.Graph, "copy", "surgery.copy",
                  exit=_copy_exit, callers=SURGERY_CALLERS)
    _patch_method(tracer, nx.Graph, "subgraph", "surgery.subgraph",
                  callers=SURGERY_CALLERS)

    _patch_function(tracer, "repro.analysis.verify", "verify_mis",
                    "verify.verify_mis", exit=_count("verify.calls"))
    _patch_method(tracer, MISMaintainer, "apply_epoch", "dynamic.apply_epoch",
                  exit=_epoch_exit)
    _patch_function(tracer, "repro.dynamic.events", "apply_event",
                    "dynamic.apply_event", exit=_count("dynamic.events"))
