"""p-persistent slotted CSMA MAC backend (``csma_slotted``).

Time is divided into contention slots of ``preamble + collision_detect``
cycles. At each slot boundary every ready contender independently
transmits with probability ``WirelessConfig.csma_persistence`` (drawn
from one dedicated labelled RNG split, in queue order, so the draws are
reproducible). Zero transmitters waste the slot; exactly one
seizes the medium for the full frame; two or more collide and fall back
to the same per-node exponential :class:`~repro.wireless.mac.BackoffPolicy`
the BRS MAC uses (``uses_backoff=True`` — the fuzz backoff scrambler and
obs hooks see the familiar per-node policies).

The slot-alignment invariant — transmissions only ever *start* at
``now % slot == 0`` — is enforced structurally: arbitration at any other
phase defers to the next boundary before drawing anything, which is what
the property tests pin.
"""

from __future__ import annotations

from typing import Dict, List

from repro.wireless.mac import BackoffPolicy, MacBackend, MacState, register_mac


class CsmaSlottedMacState(MacState):
    """Per-channel persistence RNG plus per-node collision backoff."""

    def __init__(self, channel) -> None:
        super().__init__(channel)
        config = channel.config
        self._slot = config.preamble_cycles + config.collision_detect_cycles
        #: Fault-injection hook (verify.mutations ``csma_always_defer``):
        #: forcing this below 0 makes every persistence draw fail, so no
        #: node ever transmits and the fuzz liveness oracle must fire.
        self._persistence = config.csma_persistence
        self._rng = channel.rng.split("csma-persist")
        self.backoff_policies = tuple(
            BackoffPolicy(
                config.backoff_base_cycles,
                config.backoff_max_exponent,
                channel.rng.split(f"csma-backoff-{node}"),
                node=node,
            )
            for node in range(channel.num_nodes)
        )
        self._deferrals = channel.stats.counter("wnoc.slot_deferrals")

    def arbitrate(self, now: int, contenders: List) -> None:
        channel = self.channel
        slot = self._slot
        phase = now % slot
        if phase:
            # Mid-slot wake-up (frame lengths need not be slot multiples):
            # defer to the boundary before any persistence draw.
            channel._schedule_arbitration(now + slot - phase)
            return
        config = channel.config
        header = slot
        persistence = self._persistence
        rng = self._rng
        transmitters = [r for r in contenders if rng.random() < persistence]
        if not transmitters:
            self._deferrals.add(len(contenders))
            channel._schedule_arbitration(now + slot)
            return
        channel._attempts.add(len(transmitters))
        if len(transmitters) > 1:
            channel._collisions.add(len(transmitters))
            channel._busy_until = now + header
            channel._busy_cycles.add(header)
            obs = channel.obs
            for request in transmitters:
                if obs is not None:
                    obs.frame_phase(request, "collision")
                self.nack(request, now, header)
            channel._schedule_arbitration(channel._busy_until)
            return
        request = transmitters[0]
        if channel._nacked(request):
            channel._busy_until = now + header
            channel._busy_cycles.add(header)
            self.nack(request, now, header)
            channel._schedule_arbitration(channel._busy_until)
            return
        channel.grant(request, now, 0, config.frame_cycles)

    def nack(self, request, now: int, header: int) -> None:
        request.failures += 1
        channel = self.channel
        policy = self.backoff_policies[request.frame.src % channel.num_nodes]
        delay = policy.delay_for_attempt(request.failures)
        obs = channel.obs
        if obs is not None:
            obs.frame_phase(request, "backoff")
        request.ready_time = now + header + delay

    def snapshot(self) -> Dict:
        return {"persist_rng": self._rng._state}

    def restore(self, payload: Dict) -> None:
        self._rng._state = int(payload["persist_rng"])


register_mac(
    MacBackend(
        name="csma_slotted",
        description=(
            "p-persistent slotted CSMA: contention slots of header length, "
            "persistence draws per slot, BRS-style backoff on collision."
        ),
        collision_free=False,
        uses_backoff=True,
        multi_channel=False,
        state_factory=CsmaSlottedMacState,
    )
)
