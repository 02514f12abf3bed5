"""The naive run loop: one ``Network.step`` per round, idle rounds included.

The engine's fast path fast-forwards idle stretches and the vectorized
path replaces whole rounds with numpy kernels; both must stay
bit-identical to stepping every round one at a time, which is all this
loop does. It never builds a vector runner, so program state stays in
the scalar hooks for the whole run.

Use :func:`naive_run` / :func:`naive_run_rounds` on a network you hold,
or :func:`naive_engine` to route every ``Network.run`` / ``run_rounds``
call inside a ``with`` block through them (for multi-network drivers
such as ``run_algorithm``). :func:`engine_scope` picks between this loop
(``"naive"``) and the production engine modes by name, for matrices.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.congest import Network, SimulationLimitError, engine_mode

__all__ = ["engine_scope", "naive_engine", "naive_run", "naive_run_rounds"]


def _finish(network):
    metrics = network.metrics()
    if network._observed:
        network.instrument.on_run_end(network, metrics)
    return metrics


def naive_run(network, max_rounds: int = 1_000_000):
    """Step ``network`` until no node will ever wake (or ``max_rounds``)."""
    if not network._started:
        network.start()
    while network.has_pending_work():
        if network.round_index + 1 >= max_rounds:
            raise SimulationLimitError(
                f"simulation exceeded {max_rounds} rounds"
            )
        network.step()
    return _finish(network)


def naive_run_rounds(network, rounds: int):
    """Step ``network`` exactly ``rounds`` rounds."""
    if not network._started:
        network.start()
    end = network.round_index + rounds
    while network.round_index < end:
        network.step()
    return _finish(network)


@contextmanager
def naive_engine():
    """Run every ``Network.run``/``run_rounds`` inside on the naive loop.

    The ``engine=`` argument of the patched methods is accepted and
    ignored: inside the block there is only one loop.
    """
    run, run_rounds = Network.run, Network.run_rounds

    def patched_run(self, max_rounds=1_000_000, *, engine=None):
        return naive_run(self, max_rounds)

    def patched_run_rounds(self, rounds, *, engine=None):
        return naive_run_rounds(self, rounds)

    Network.run, Network.run_rounds = patched_run, patched_run_rounds
    try:
        yield
    finally:
        Network.run, Network.run_rounds = run, run_rounds


def engine_scope(mode: str):
    """``naive_engine()`` for ``"naive"``, else ``engine_mode(mode)``."""
    return naive_engine() if mode == "naive" else engine_mode(mode)
