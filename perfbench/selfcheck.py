"""The benchmark's own tests.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py [--seed N]

Checks, exiting 1 if any fails:

* ``BENCHMARK.json`` names the workloads, reasons and metrics the code
  produces, with the same units.
* Each workload's traced run is correct, and at the given seed every
  span the workload is meant to exercise fired at least once (a wrapper
  patched onto a name that callers no longer look up would otherwise
  read a silent 0 s). No span inside an operation lacks a layer metric,
  and the per-layer self times plus ``trace.unattributed_s`` add up to
  the traced ``run_s``.
* Two traced runs at one seed give the same work counts
  (``EXACT_COUNTS``). Every other non-time metric is listed with whether
  it repeated: a claim may rest only on a count that repeats.
* In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits with a non-zero code and prints no result.

Not named ``test_*.py`` on purpose: the repository's pytest run collects
those, and each traced run here takes tens of seconds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Short runs: the checks here need correctness and counts, not timings.
SECONDS = 10

#: Units of metrics that are times, which never repeat exactly.
TIME_UNITS = ("s", "us")

#: Work counts that must repeat exactly at a fixed seed; every other
#: non-time metric is printed with whether it repeated.
EXACT_COUNTS = (
    "network.init_calls", "network.step_calls", "network.messages",
    "vectorized.rounds", "surgery.copy_calls", "surgery.nodes_copied",
    "dynamic.events", "dynamic.repair_nodes", "model.rounds",
    "model.max_energy", "core.csr_input_failures",
)


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace),
         "--seconds", str(SECONDS)],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def check_benchmark_json(spec: dict, failures: list) -> None:
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    actual = {name: w.why for name, w in WORKLOADS.items()}
    if declared != actual:
        failures.append(f"BENCHMARK.json workloads {declared} != code {actual}")
    self_time = set(tracing.SELF_TIME_METRIC.values())
    per_layer = {m["name"] for m in spec["per_layer"]}
    missing = self_time - per_layer
    if missing:
        failures.append(f"self-time metrics not in per_layer: {sorted(missing)}")


def check_units(kind: str, declared: list, metrics: dict, failures: list):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        failures.append(f"{kind}: BENCHMARK.json {want} != printed {got}")


def check_identity(workload: str, metrics: dict, failures: list) -> None:
    total = sum(metrics[name]["value"]
                for name in set(tracing.SELF_TIME_METRIC.values()))
    run_s = metrics["trace.run_s"]["value"]
    if abs(total - run_s) > 1e-6 * max(1.0, run_s):
        failures.append(
            f"{workload}: self times sum to {total!r}, trace.run_s {run_s!r}")


def check_bare_directory(failures: list) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, _ = _run(next(iter(WORKLOADS)), 1, 0, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        failures.append(f"bare directory: exit code {code}, result {result}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list = []
    check_benchmark_json(spec, failures)
    check_bare_directory(failures)

    for name in WORKLOADS:
        runs = []
        for _ in range(2):
            code, result, stderr = _run(name, args.seed, 1)
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{name}: traced run failed: {stderr.strip()}")
                break
            check_units("per_layer", spec["per_layer"], result["metrics"],
                        failures)
            record = json.loads(
                (HERE / "out" / f"{name}-seed{args.seed}-trace1.json").read_text())
            if record["missing_spans"]:
                failures.append(
                    f"{name}: spans that never fired: {record['missing_spans']}")
            check_identity(name, result["metrics"], failures)
            runs.append(result["metrics"])
        if len(runs) < 2:
            continue
        print(f"{name}: non-time metrics of two traced runs at seed {args.seed}")
        for metric, first in runs[0].items():
            if first["unit"] in TIME_UNITS:
                continue
            first, second = first["value"], runs[1][metric]["value"]
            verdict = "repeats" if first == second else "differs"
            print(f"  {metric:28s} {first:>14} {second:>14}  {verdict}")
            if first != second and metric in EXACT_COUNTS:
                failures.append(f"{name}: {metric} differs: {first} vs {second}")

    name = next(iter(WORKLOADS))
    code, result, stderr = _run(name, args.seed, 0)
    if code != 0 or result is None or not result["correct"]:
        failures.append(f"{name}: timed run failed: {stderr.strip()}")
    else:
        check_units("end_to_end", spec["end_to_end"], result["metrics"],
                    failures)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
