"""Per-node random streams: one keyed counter function for every engine path.

Node ``v``'s ``k``-th uniform is ``u(seed, rank(v), k)``: output ``k`` of a
SplitMix64 stream whose start is keyed by the network seed and ``v``'s rank
in sorted-label order. The draw counters are one column owned by the
network, so scalar hooks (:class:`NodeRandom`, ``ctx.rng``) and vector
kernels (:meth:`NodeStreams.take`) evaluate the same pure function and
interleave bit-identically with nothing buffered in between.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_SCALE = 2.0 ** -53


def _mix(z):
    """SplitMix64 finalizer over Python ints or ``uint64`` arrays alike."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class NodeStreams:
    """Keyed per-rank stream starts plus per-rank draw counters."""

    __slots__ = ("base", "counter")

    def __init__(self, seed, n: int):
        key = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
        self.base = _mix(np.arange(1, n + 1, dtype=np.uint64) * _GAMMA + key)
        self.counter = np.zeros(n, dtype=np.uint64)

    def take(self, idx: np.ndarray) -> np.ndarray:
        """One uniform in [0, 1) per (distinct) rank in ``idx``, in order."""
        step = self.counter[idx] + 1
        self.counter[idx] = step
        return (_mix(self.base[idx] + step * _GAMMA) >> 11) * _SCALE


class NodeRandom:
    """One node's view of its stream (``ctx.rng``); one step per call."""

    __slots__ = ("_streams", "_rank")

    def __init__(self, streams: NodeStreams, rank: int):
        self._streams, self._rank = streams, rank

    def random(self) -> float:
        streams, rank = self._streams, self._rank
        step = streams.counter.item(rank) + 1
        streams.counter[rank] = step
        z = (streams.base.item(rank) + step * _GAMMA) & _MASK
        return (_mix(z) >> 11) * _SCALE

    def geometric(self, p: float) -> int:
        """Trials up to the first success (1, 2, ...), by inverse CDF."""
        u = self.random()
        return 1 if p >= 1 else int(math.log1p(-u) / math.log1p(-p)) + 1

    def integers(self, low: int, high=None) -> int:
        """Uniform int in ``[low, high)`` (``[0, low)`` without ``high``)."""
        if high is None:
            low, high = 0, low
        return low + int(self.random() * (high - low))
