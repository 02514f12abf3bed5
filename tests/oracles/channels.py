"""Reference delivery loops, kept verbatim from the pre-slot-buffer engine.

Each class is a drop-in :class:`~repro.congest.channels.Channel`: pass the
class itself as a zero-argument factory (``Network(channel=...)``,
``channel_scope(...)``, ``run_algorithm(channel=...)``). Being subclasses,
they never engage the vectorized dense-round path, whose eligibility
check accepts only the exact production CONGEST/LOCAL classes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.congest import (
    COLLISION_MESSAGE,
    BroadcastChannel,
    CongestChannel,
    Message,
    payload_bits_cached,
)
from repro.congest.program import NO_BROADCAST

__all__ = ["PerMessageCongestChannel", "ScalarScanBroadcastChannel"]


class PerMessageCongestChannel(CongestChannel):
    """CONGEST delivery allocating one ``Message`` per delivered payload."""

    def deliver(self, ordered, awake) -> Dict[int, List[Message]]:
        """The seed engine's delivery loop, verbatim (reference semantics)."""
        network = self._network
        contexts = network.contexts
        inboxes: Dict[int, List[Message]] = {}
        max_bits = network.max_message_bits
        for node in ordered:
            outbox, bcast = contexts[node]._drain()
            if bcast is not NO_BROADCAST:
                outbox = [(r, bcast) for r in contexts[node].neighbors]
            if not outbox:
                continue
            for receiver, payload in outbox:
                network.messages_sent += 1
                bits = payload_bits_cached(payload)
                network.total_message_bits += bits
                if bits > max_bits:
                    max_bits = bits
                if receiver in awake and not contexts[receiver]._halted:
                    inbox = inboxes.get(receiver)
                    if inbox is None:
                        inboxes[receiver] = [Message(node, payload)]
                    else:
                        inbox.append(Message(node, payload))
                    network.messages_delivered += 1
                else:
                    network.messages_dropped += 1
        network.max_message_bits = max_bits
        return inboxes

    def finish_round(self) -> None:
        """Plain lists own their messages: nothing to recycle."""


class ScalarScanBroadcastChannel(BroadcastChannel):
    """Radio medium whose listeners each scan their whole neighborhood."""

    def _scan_listeners(self, ordered, awake, transmitters, inboxes):
        """Reference listener scan: O(deg) membership test per listener."""
        network = self._network
        contexts = network.contexts
        ledger = network.ledger
        for node in ordered:
            if node in transmitters:
                continue  # half-duplex: transmitters cannot listen
            ctx = contexts[node]
            if ctx._halted:
                continue
            heard = [u for u in ctx.neighbors if u in transmitters]
            if not heard:
                continue
            if len(heard) == 1:
                sender = heard[0]
                inboxes[node] = [Message(sender, transmitters[sender])]
                network.messages_delivered += 1
            else:
                network.messages_dropped += len(heard)
                network.collisions += 1
                if self.collision_cost:
                    ledger.charge(node, self.collision_cost)
                if self.collision_detection:
                    inboxes[node] = [COLLISION_MESSAGE]
        return inboxes
