"""One benchmark process: set up, run one workload, report its metrics.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and single-threaded numeric libraries. Prints one JSON object as
the last line of its standard output.

Modes
-----
``timed``
    Untraced. Repeats (calibrate, build inputs, run the workload's
    operations) until ``--seconds`` would be exceeded by one more
    repetition, with at least ``INSTANCES`` repetitions: the end-to-end
    metrics, as medians over repetitions (percentiles over all steps) in
    reference-speed seconds (see ``CAL_REF_S``).
``traced``
    Wraps ``repro``'s entry points (see ``tracing.py``), builds the inputs
    and runs the operations once, then probes the paper's pipelines on a
    CSR input outside any timing: the per-layer metrics. Traced
    repetitions follow until ``--seconds``, for the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS, Ops

ROOT = Path(__file__).resolve().parents[1]

#: Input instances of one run: repetition ``r`` builds its inputs from
#: instance seed ``seed * INSTANCES + r % INSTANCES``. Graphs of one size
#: differ in work by a tenth or more from seed to seed; cycling through
#: several instances averages that out of the run's medians. A timed run
#: completes at least one cycle, and ``avg_energy`` is the mean over the
#: first cycle, so it is exact at a fixed seed.
INSTANCES = 4


def instance_seed(seed: int, rep: int) -> int:
    return seed * INSTANCES + rep % INSTANCES

#: Reference time of :func:`_calibration_kernel`, about its best time on
#: the box the bounds were set on (Intel Xeon, 2 vCPUs). Co-tenants make
#: that box drift by a fifth or more in speed over tens of seconds, which
#: moves the program and the kernel alike, so each repetition's wall
#: seconds are scaled by ``CAL_REF_S / c``, with ``c`` the mean of the
#: kernel times just before and after it: seconds at the reference speed.
#: Raw wall seconds and every kernel time are kept in the run record.
CAL_REF_S = 0.0172
CAL_SAMPLES = 3

#: Nodes of the CSR input the defect probe runs the paper's pipelines on.
PROBE_N = 256
PROBE_ALGORITHMS = ("algorithm1", "algorithm2", "algorithm1_avg", "algorithm2_avg")


def _tail_quantile(values, q: float) -> float:
    """``q``-quantile (linear interpolation), lowered until at least ten
    samples lie beyond it; with fewer than 20 samples, the median."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    q = min(q, max(0.5, 1.0 - 10.0 / len(ordered)))
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class _Cell:
    __slots__ = ("id", "links")

    def __init__(self, ident: int) -> None:
        self.id = ident
        self.links: list = []


def _calibration_kernel() -> None:
    """Fixed work in the simulator's mix that does not use ``repro``:
    object allocation, dict and set traffic, greedy MIS rounds in pure
    Python, and a few numpy reductions."""
    import random

    import numpy as np

    rng = random.Random(11)
    cells = [_Cell(i) for i in range(3000)]
    for _ in range(12000):
        a, b = rng.randrange(3000), rng.randrange(3000)
        if a != b:
            cells[a].links.append(b)
            cells[b].links.append(a)
    adjacency = {cell.id: set(cell.links) for cell in cells}
    alive = set(adjacency)
    while alive:
        chosen = {u for u in alive
                  if all(v not in alive or v > u for v in adjacency[u])}
        removed = set(chosen)
        for u in chosen:
            removed |= adjacency[u]
        alive -= removed
    values = np.arange(200_000) % 977
    np.bincount(values)
    np.sort(values)


def _calibrate() -> float:
    """Best of ``CAL_SAMPLES`` timings of the calibration kernel."""
    best = float("inf")
    for _ in range(CAL_SAMPLES):
        start = perf_counter()
        _calibration_kernel()
        best = min(best, perf_counter() - start)
    return best


def _check_import_location(repro) -> None:
    expected = (ROOT / "src" / "repro").resolve()
    found = Path(repro.__file__).resolve().parent
    if found != expected:
        raise SystemExit(f"imported repro from {found}, expected {expected}")


def _run_record(workload, seed: int) -> dict:
    import networkx
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info
                 if line.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the benchmark checkout need not be a git repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "held_out_seed": workload.held_out_seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def _summarise_ops(records) -> dict:
    """Failure counts and the paper's model metrics over operations."""
    failed = sum(not r.get("ok", False) for r in records)
    with_model = [r for r in records if "rounds" in r]

    def mean(key):
        values = [float(r[key]) for r in with_model]
        return statistics.fmean(values) if values else 0.0

    return {
        "attempted": len(records),
        "failed": failed,
        "rounds": mean("rounds"),
        "max_energy": mean("max_energy"),
        "avg_energy": mean("avg_energy"),
    }


# ---------------------------------------------------------------------------
# timed mode
# ---------------------------------------------------------------------------
def run_timed(workload, seed: int, seconds: float) -> dict:
    started = perf_counter()
    import repro  # noqa: F401  (set-up pays for the import)
    import repro.harness  # noqa: F401

    import_s = perf_counter() - started
    _check_import_location(repro)

    reps = []
    calibrations = []
    longest = 0.0
    while True:
        gc.collect()
        calibrations.append(_calibrate())
        rep_start = perf_counter()
        instance = instance_seed(seed, len(reps))
        inputs = workload.build(instance)
        build_s = perf_counter() - rep_start
        ops = Ops()
        workload.run(inputs, instance, ops)
        del inputs
        reps.append({"build_s": build_s, "ops": ops.records})
        longest = max(longest, perf_counter() - rep_start)
        if len(reps) >= INSTANCES and (
            perf_counter() - started + longest > seconds
        ):
            break

    records = [r for rep in reps for r in rep["ops"]]
    summary = _summarise_ops(records)
    model = _summarise_ops(
        [r for rep in reps[:INSTANCES] for r in rep["ops"]])
    calibrations.append(_calibrate())
    # Each repetition is scaled to the reference speed by the mean of the
    # calibrations taken just before and just after it.
    speeds = [2 * CAL_REF_S / (before + after)
              for before, after in zip(calibrations, calibrations[1:])]
    rep_seconds = [sum(r["seconds"] for r in rep["ops"]) for rep in reps]
    run_s = statistics.median(t * f for t, f in zip(rep_seconds, speeds))
    steps = [step * f for rep, f in zip(reps, speeds)
             for r in rep["ops"] for step in r.get("steps", ())]
    setup_s = import_s * speeds[0] + statistics.median(
        rep["build_s"] * f for rep, f in zip(reps, speeds))
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (tracing.peak_rss_mib(), "MiB"),
        "epoch_s_p50": (_tail_quantile(steps, 0.5), "s"),
        "epoch_s_p90": (_tail_quantile(steps, 0.9), "s"),
        "avg_energy": (model["avg_energy"], "rounds"),
        "ok_rate": (
            (summary["attempted"] - summary["failed"]) / summary["attempted"],
            "ratio",
        ),
    }
    record = _run_record(workload, seed)
    record.update(
        mode="timed",
        wall_run_s=min(rep_seconds),
        calibration_s=calibrations,
        speeds=speeds,
        import_s=import_s,
        reps=reps,
        step_meaning=workload.step_meaning,
        fail_rate=summary["failed"] / summary["attempted"],
        rounds=model["rounds"],
        max_energy=model["max_energy"],
    )
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }


# ---------------------------------------------------------------------------
# traced mode
# ---------------------------------------------------------------------------
def probe_csr_inputs(seed: int) -> dict:
    """Run the paper's pipelines once each on a small CSR input.

    Returns ``{algorithm: error text}`` for every pipeline that raises or
    returns something other than an MIS.
    """
    import repro.analysis as analysis
    import repro.graphs as graphs
    import repro.harness.runner as runner

    failures = {}
    for name in PROBE_ALGORITHMS:
        graph = graphs.make_family(
            "gnp_log_degree", PROBE_N, seed=seed, as_arrays=True
        )
        try:
            result = runner.run_algorithm(name, graph, seed=seed)
            if not analysis.verify_mis(graph, result.mis).valid:
                failures[name] = "output is not a maximal independent set"
        except Exception as exc:  # the probe records crashes, never raises
            failures[name] = f"{type(exc).__name__}: {exc}"
    return failures


def layer_metrics(tracer, workload, model) -> tuple:
    """Per-layer metrics from the spans and counters, plus problems found."""
    spans = tracer.spans
    selfs = tracer.self_times()
    counts = tracer.counts
    times = defaultdict(float)
    fired = Counter()
    unmapped = set()
    build_s = 0.0
    run_s = 0.0
    for (name, start, end, _, op), self_s in zip(spans, selfs):
        if op is None:
            # Set-up counts only for the graphs layer: building a churn
            # timeline also applies events and copies graphs.
            if name == "graphs.build":
                fired[name] += 1
                build_s += self_s
            continue
        fired[name] += 1
        if name == tracing.OP_SPAN:
            run_s += end - start
        metric = tracing.SELF_TIME_METRIC.get(name)
        if metric is None:
            unmapped.add(name)
        else:
            times[metric] += self_s

    def ratio(num, den):
        return num / den if den else 0.0

    step_calls = counts["network.step_calls"]
    vector_rounds = counts["vectorized.rounds"]
    metrics = {
        "graphs.build_s": (build_s, "s"),
        "graphs.edges": (counts["graphs.edges"], "count"),
        "network.init_s": (times["network.init_s"], "s"),
        "network.init_calls": (counts["network.init_calls"], "count"),
        "network.init_us_per_node": (
            1e6 * ratio(times["network.init_s"], counts["network.init_nodes"]),
            "us"),
        "network.init_rss_mib": (counts["network.init_rss_mib"], "MiB"),
        "network.start_s": (times["network.start_s"], "s"),
        "network.step_s": (times["network.step_s"], "s"),
        "network.step_calls": (step_calls, "count"),
        "network.run_self_s": (times["network.run_self_s"], "s"),
        "network.messages": (counts["network.messages"], "count"),
        "vectorized.csr_s": (times["vectorized.csr_s"], "s"),
        "vectorized.csr_calls": (counts["vectorized.csr_calls"], "count"),
        "vectorized.kernel_init_s": (times["vectorized.kernel_init_s"], "s"),
        "vectorized.step_s": (times["vectorized.step_s"], "s"),
        "vectorized.rounds": (vector_rounds, "count"),
        "vectorized.flush_s": (times["vectorized.flush_s"], "s"),
        "vectorized.round_share": (
            ratio(vector_rounds, vector_rounds + step_calls), "ratio"),
        "channels.deliver_s": (times["channels.deliver_s"], "s"),
        "channels.deliver_calls": (counts["channels.deliver_calls"], "count"),
        "algo.self_s": (times["algo.self_s"], "s"),
        "core.phase1_s": (times["core.phase1_s"], "s"),
        "core.phase2_s": (times["core.phase2_s"], "s"),
        "core.phase3_s": (times["core.phase3_s"], "s"),
        "core.residual_nodes": (counts["core.residual_nodes"], "count"),
        "core.components": (counts["core.components"], "count"),
        "core.phase3_failures": (counts["core.phase3_failures"], "count"),
        "surgery.copy_s": (times["surgery.copy_s"], "s"),
        "surgery.copy_calls": (counts["surgery.copy_calls"], "count"),
        "surgery.nodes_copied": (counts["surgery.nodes_copied"], "count"),
        "cluster.merge_s": (times["cluster.merge_s"], "s"),
        "cluster.merge_calls": (counts["cluster.merge_calls"], "count"),
        "verify.verify_s": (times["verify.verify_s"], "s"),
        "verify.calls": (counts["verify.calls"], "count"),
        "dynamic.epoch_self_s": (times["dynamic.epoch_self_s"], "s"),
        "dynamic.events_s": (times["dynamic.events_s"], "s"),
        "dynamic.events": (counts["dynamic.events"], "count"),
        "dynamic.repair_nodes": (counts["dynamic.repair_nodes"], "count"),
        "dynamic.repair_share": (
            ratio(counts["dynamic.repair_nodes"], counts["dynamic.probed_nodes"]),
            "ratio"),
        "model.rounds": (model["rounds"], "rounds"),
        "model.max_energy": (model["max_energy"], "rounds"),
        "trace.unattributed_s": (times["trace.unattributed_s"], "s"),
        "trace.run_s": (run_s, "s"),
        "trace.spans": (len(spans), "count"),
    }

    problems = []
    if unmapped:
        problems.append(f"spans without a layer metric: {sorted(unmapped)}")
    attributed = sum(times.values())
    if abs(attributed - run_s) > 1e-6 * max(1.0, run_s):
        problems.append(
            f"self times sum to {attributed!r} s, traced run_s is {run_s!r} s"
        )
    return metrics, fired, problems


def run_traced(workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Per-layer metrics from the first traced repetition; further traced
    repetitions, until ``--seconds``, only time the traced operations so
    that the overhead compares fastest repetitions on both sides."""
    started = perf_counter()
    import repro

    _check_import_location(repro)
    tracer = tracing.Tracer()
    tracing.install(tracer)

    gc.collect()
    instance = instance_seed(seed, 0)
    inputs = workload.build(instance)
    ops = Ops(tracer)
    workload.run(inputs, instance, ops)
    del inputs
    tracer.active = False
    summary = _summarise_ops(ops.records)
    metrics, fired, problems = layer_metrics(tracer, workload, summary)
    spans_path = out_dir / f"{workload.name}-seed{seed}-spans.jsonl"
    tracer.write(spans_path)
    counters = dict(tracer.counts)
    probe = probe_csr_inputs(instance)
    metrics["core.csr_input_failures"] = (len(probe), "count")

    rep_seconds = [sum(r["seconds"] for r in ops.records)]
    longest = perf_counter() - started
    while perf_counter() - started + longest <= seconds:
        rep_start = perf_counter()
        del tracer.spans[:]
        gc.collect()
        instance = instance_seed(seed, len(rep_seconds))
        inputs = workload.build(instance)
        extra = Ops(tracer)
        tracer.active = True
        workload.run(inputs, instance, extra)
        tracer.active = False
        del inputs
        rep_seconds.append(sum(r["seconds"] for r in extra.records))
        longest = max(longest, perf_counter() - rep_start)

    record = _run_record(workload, seed)
    record.update(
        mode="traced",
        ops=[{k: v for k, v in r.items() if k != "steps"} for r in ops.records],
        traced_rep_seconds=rep_seconds,
        wall_run_s=min(rep_seconds),
        span_counts=dict(fired),
        # Whether a layer fires can depend on the seed (cluster merges
        # need a shattered component of several clusters), so this is
        # checked by selfcheck.py at its seed, not here.
        missing_spans=[n for n in workload.expected_spans if not fired[n]],
        counters=counters,
        csr_input_failures=probe,
        problems=problems,
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return {
        "correct": summary["failed"] == 0 and not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    if args.mode == "timed":
        result = run_timed(workload, args.seed, args.seconds)
    else:
        result = run_traced(workload, args.seed, args.seconds, args.out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
