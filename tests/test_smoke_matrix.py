"""Cross-product smoke test: every algorithm × every graph family.

Two guarantees the rest of the suite only covers piecemeal:

* every registered algorithm produces a verified MIS on every registered
  workload family (small n, fixed seed), on networkx and on CSR
  (``as_arrays=True``) input alike;
* a fixed seed reproduces the identical :class:`MISResult` — set, rounds,
  and energy — run-to-run (the determinism contract the dynamic subsystem
  and the sweep harness both build on).
"""

import pytest

from repro.analysis import verify_mis
from repro.graphs import FAMILIES, make_family
from repro.harness import ALGORITHMS, run_algorithm

N = 24
SEED = 5

MATRIX = [
    (algorithm, family)
    for algorithm in sorted(ALGORITHMS)
    for family in sorted(FAMILIES)
]


@pytest.mark.parametrize("as_arrays", [False, True], ids=["nx", "csr"])
@pytest.mark.parametrize("algorithm,family", MATRIX)
def test_every_algorithm_on_every_family(algorithm, family, as_arrays):
    graph = make_family(family, N, seed=SEED, as_arrays=as_arrays)
    result = run_algorithm(algorithm, graph, seed=SEED)
    report = verify_mis(graph, result.mis)
    assert report.independent, (
        f"{algorithm} on {family}: conflicts {report.conflicting_edges}"
    )
    assert report.maximal, (
        f"{algorithm} on {family}: uncovered {report.uncovered_nodes}"
    )


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fixed_seed_reproduces_identical_results(algorithm):
    graph = make_family("geometric", N, seed=SEED)
    first = run_algorithm(algorithm, graph, seed=SEED)
    second = run_algorithm(algorithm, graph, seed=SEED)
    assert first.mis == second.mis
    assert first.rounds == second.rounds
    assert first.max_energy == second.max_energy
    assert first.average_energy == second.average_energy
