"""Benchmark of the MIS simulator: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload luby-csr-5e4 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, as a table

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of a traced run. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The run record (commit, machine,
versions, seed, every operation) is written to ``perfbench/out/``.

Each measurement runs in its own single-threaded worker process
(``worker.py``) so that ``setup_s`` includes importing ``repro`` and
``peak_rss_mib`` belongs to the workload alone. The program is the
checkout's ``src/repro``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


#: Wall-clock limit of one invocation, all worker processes included.
TIME_LIMIT_S = 175.0

#: Numeric libraries stay single-threaded: the box measured has 2 cores
#: and the simulator itself is single-threaded.
SINGLE_THREAD = {
    var: "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class BenchmarkError(RuntimeError):
    pass


def _worker(args, mode: str, deadline: float, *extra: str) -> dict:
    """Run one worker process and return the JSON object it printed last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--mode", mode, "--out", str(OUT), *extra,
    ]
    try:
        # On timeout subprocess.run kills the worker and waits for it.
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded the time limit") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def run_one(args) -> dict:
    """Measure one workload; returns the result with its run record."""
    deadline = monotonic() + TIME_LIMIT_S
    if not args.trace:
        return _worker(args, "timed", deadline, "--seconds", str(args.seconds))
    # Tracing overhead: fastest traced repetition minus fastest untraced
    # one, each side in a fresh process of its own, in wall seconds.
    side = str(args.seconds / 2)
    untraced = _worker(args, "timed", deadline, "--seconds", side)
    traced = _worker(args, "traced", deadline, "--seconds", side)
    wall_run_s = untraced["record"]["wall_run_s"]
    overhead = traced["record"]["wall_run_s"] - wall_run_s
    traced["metrics"]["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    traced["record"]["untraced_wall_run_s"] = wall_run_s
    traced["correct"] = traced["correct"] and untraced["correct"]
    return traced


def _report(result: dict, args) -> None:
    record = result.pop("record")
    path = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(dict(record, result=result), indent=1) + "\n")
    for problem in record.get("problems", ()):
        print(f"problem: {problem}", file=sys.stderr)
    for name, error in record.get("csr_input_failures", {}).items():
        print(f"csr input failure: {name}: {error}")
    print(f"{args.workload} seed={args.seed} trace={int(args.trace)} "
          f"record={path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:>16.6f} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        try:
            result = run_one(one)
        except BenchmarkError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        _report(result, one)
        results.append(result)
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
