"""The benchmark's workloads: inputs made from a seed, and the timed operations.

Each workload builds fresh inputs with :meth:`Workload.build` (set-up,
untimed for ``run_s``) and hands them to :meth:`Workload.run`, which
performs the timed operations through an :class:`Ops` recorder. Every
operation includes its output check, so ``run_s`` pays for ``verify_mis``
exactly as a user reproducing the paper's claims does.

``repro`` is imported inside the functions, after the worker has started
its clocks and, in a traced run, after the tracer has wrapped the entry
points; names are looked up on their modules at call time so that the
wrapped versions are the ones called.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List

LUBY_N = 50_000
PAPER_N = 5_000
CHURN_N = 1_000
CHURN_EPOCHS = 100


def _epoch_clock():
    """A ``repro.obs`` instrument that stamps the end of every churn epoch.

    ``run_dynamic`` emits ``on_epoch`` after each epoch's verify, so the
    gap between two stamps is one epoch's ``apply_epoch`` plus its verify.
    """
    from repro.obs import Instrument

    class EpochClock(Instrument):
        def __init__(self) -> None:
            self.stamps: List[float] = []

        def on_epoch(self, epoch) -> None:
            self.stamps.append(perf_counter())

    return EpochClock()


class Ops:
    """Times operations; a raising operation is recorded as failed.

    ``tracer`` (a :class:`tracing.Tracer`) gets a root span around every
    operation when the run is traced.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.records: List[Dict[str, Any]] = []

    def run(self, name: str, fn: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
        record: Dict[str, Any] = {"name": name}
        if self.tracer is not None:
            self.tracer.begin_op()
        start = perf_counter()
        try:
            record.update(fn())
        except Exception as exc:  # an operation that raises counts as failed
            record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        finally:
            record["seconds"] = perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_op()
        self.records.append(record)
        return record


def _static_call(algorithm: str, graph, seed: int) -> Callable[[], Dict[str, Any]]:
    """One ``run_algorithm`` call plus ``verify_mis`` on its output."""

    def call() -> Dict[str, Any]:
        import repro.analysis as analysis
        import repro.harness.runner as runner

        result = runner.run_algorithm(algorithm, graph, seed=seed)
        report = analysis.verify_mis(graph, result.mis)
        return {
            "ok": report.independent and report.maximal,
            "rounds": result.rounds,
            "max_energy": result.max_energy,
            "avg_energy": result.average_energy,
            "mis_size": len(result.mis),
        }

    return call


# -- luby-csr-5e4 ------------------------------------------------------------
def _luby_build(seed: int):
    import repro.graphs as graphs

    return graphs.make_family("gnp_log_degree", LUBY_N, seed=seed, as_arrays=True)


def _luby_run(graph, seed: int, ops: Ops) -> None:
    record = ops.run("luby", _static_call("luby", graph, seed))
    record["steps"] = [record["seconds"]]


# -- paper-nx-5e3 ------------------------------------------------------------
def _paper_build(seed: int):
    import repro.graphs as graphs

    # One untouched graph per call: the second call must not find the
    # first call's CSR in the graph's cache.
    return [graphs.make_family("gnp_log_degree", PAPER_N, seed=seed)
            for _ in range(2)]


def _paper_run(inputs, seed: int, ops: Ops) -> None:
    for algorithm, graph in zip(("algorithm1", "algorithm2"), inputs):
        record = ops.run(algorithm, _static_call(algorithm, graph, seed))
        record["steps"] = [record["seconds"]]


# -- churn-linkflap-1e3 ------------------------------------------------------
def _churn_build(seed: int):
    import repro.dynamic as dynamic

    return dynamic.make_workload(
        "link_flap", n=CHURN_N, epochs=CHURN_EPOCHS, seed=seed
    )


def _churn_run(inputs, seed: int, ops: Ops) -> None:
    graph, timeline = inputs
    clock = _epoch_clock()

    def call() -> Dict[str, Any]:
        import repro.dynamic as dynamic
        import repro.obs as obs

        with obs.instrument_scope(clock):
            result = dynamic.run_dynamic(
                graph, timeline, "algorithm1", strategy="incremental",
                seed=seed, check_invariant=False,
            )
        if len(result.epochs) != len(timeline) + 1:
            raise RuntimeError(
                f"{len(result.epochs)} epoch rows for {len(timeline)} epochs"
            )
        return {
            "ok": result.all_valid,
            "invalid_epochs": sum(not row.valid for row in result.epochs),
            "rounds": result.total_rounds,
            "max_energy": result.max_energy,
            "avg_energy": result.average_energy,
            "mis_size": result.epochs[-1].mis_size,
        }

    record = ops.run("run_dynamic", call)
    stamps = clock.stamps
    if len(stamps) == len(timeline) + 1:
        # stamps[0] closes the initial election; the epochs follow.
        record["steps"] = [b - a for a, b in zip(stamps, stamps[1:])]
    else:
        record["steps"] = []
        if record.get("ok", False):
            record.update(ok=False, error=(
                f"epoch clock saw {len(stamps)} epochs, "
                f"expected {len(timeline) + 1}"
            ))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], Any]
    run: Callable[[Any, int, Ops], None]
    #: Seed on which later claims are re-checked; never used for tuning.
    held_out_seed: int
    #: Span names that ``selfcheck.py`` requires to fire at its seed.
    expected_spans: tuple
    #: Per-step seconds that ``epoch_s_p50``/``epoch_s_p90`` describe.
    step_meaning: str = "one algorithm call plus its verify"


# Spans each workload must fire: the layers it was chosen to exercise
# (see README.md, "Per-layer metrics").
_COMMON_SPANS = (
    "graphs.build", "network.init", "network.start", "network.run",
    "algo.entry", "verify.verify_mis",
)
_VECTOR_SPANS = (
    "vectorized.csr", "vectorized.kernel_init", "vectorized.step",
    "vectorized.flush",
)
_SCALAR_SPANS = ("network.step", "channels.deliver")
_CORE_SPANS = (
    "core.phase1", "core.phase2", "core.phase3", "surgery.copy",
    "surgery.subgraph",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="luby-csr-5e4",
            why=(
                "Luby at n=5e4 on CSR input: network setup and vectorized "
                "rounds dominate; no graph surgery, core, cluster or dynamic"
            ),
            build=_luby_build,
            run=_luby_run,
            held_out_seed=7919,
            expected_spans=_COMMON_SPANS + _VECTOR_SPANS,
        ),
        Workload(
            name="paper-nx-5e3",
            why=(
                "algorithm1 then algorithm2 at n=5e3: the paper's phases, "
                "cluster merging, graph surgery and per-network fixed cost"
            ),
            build=_paper_build,
            run=_paper_run,
            held_out_seed=7919,
            expected_spans=_COMMON_SPANS + _VECTOR_SPANS + _SCALAR_SPANS
            + _CORE_SPANS + ("cluster.merge",),
        ),
        Workload(
            name="churn-linkflap-1e3",
            why=(
                "link_flap churn, n=1e3, 100 epochs, incremental algorithm1: "
                "many small writes and small networks, per-epoch verify"
            ),
            build=_churn_build,
            run=_churn_run,
            held_out_seed=7919,
            expected_spans=_COMMON_SPANS + _SCALAR_SPANS + _CORE_SPANS + (
                "dynamic.apply_epoch", "dynamic.apply_event",
            ),
            step_meaning="one epoch: apply_epoch plus its verify",
        ),
    )
}
