"""Seeded protocol mutations for validating the verification subsystem.

A mutation re-introduces a *known-wrong* behaviour into a freshly built
:class:`~repro.system.Manycore` by monkeypatching instance attributes —
the source is never touched, and an unmutated machine is bit-identical to
production. The test suite (and ``repro verify run --mutate``) uses these to
prove the campaigns detect real bugs: a bounded campaign that passes under
every mutation would be a campaign that cannot catch anything.

All patches are deterministic (no RNG, no wall clock), so a mutated
campaign is exactly as reproducible as a clean one.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Tuple

from repro.system import Manycore


def _no_jam_nack(machine: Manycore) -> None:
    """Disable selective jamming: the channel never NACKs a jammed line.

    This removes the paper's Section III-C1 protection — WirUpd frames for
    lines whose directory entry is mid-transition sail through, so sharers
    merge updates against stale snapshots. Detected by the value-agreement
    invariant (online or final) or the load-provenance oracle.
    """
    if machine.wireless is None:
        raise ValueError("no_jam_nack needs a WiDir machine")
    machine.wireless.is_jammed = lambda line: False  # type: ignore[method-assign]


def _lost_tone_drop(machine: Manycore) -> None:
    """Silently lose every third ToneAck drop.

    The initiating directory keeps hearing a tone that was in fact
    dropped, so the S->W / W->S transition never completes and the entry
    stays busy forever. Detected as a livelock: events keep running until
    the event budget is exceeded.
    """
    if machine.tone is None:
        raise ValueError("lost_tone_drop needs a WiDir machine")
    tone = machine.tone
    original_drop = tone.drop
    state = {"count": 0}

    def lossy_drop(key: int, node: int, _retry: bool = False) -> None:
        state["count"] += 1
        if state["count"] % 3 == 0:
            return  # the drop vanishes into the ether
        original_drop(key, node, _retry=_retry)

    tone.drop = lossy_drop  # type: ignore[method-assign]


def _no_home_wirupd_merge(machine: Manycore) -> None:
    """The home directory stops merging WirUpd frames into the LLC copy.

    The LLC image of a W line goes stale, so later joins/downgrades hand
    out old data. Detected by value agreement (LLC vs sharers) or load
    provenance after a W->S fallback.
    """
    if machine.wireless is None:
        raise ValueError("no_home_wirupd_merge needs a WiDir machine")
    for directory in machine.directories:
        directory.handle_frame = lambda frame: None  # type: ignore[method-assign]


def _upd_skips_holder(machine: Manycore) -> None:
    """Every third WirUpd delivery skips one sharer.

    The lowest-numbered holder other than the sender is dropped from the
    delivery mask, so its W copy keeps the old word while the other
    copies and the LLC take the new one. The holder index itself stays
    correct. Detected by value agreement (online "divergent shared
    copies") or load provenance.
    """
    if machine.wireless is None:
        raise ValueError("upd_skips_holder needs a WiDir machine")
    original = machine._upd_holders
    state = {"count": 0}

    def skipping(frame) -> int:
        holders = original(frame)
        state["count"] += 1
        if state["count"] % 3 == 0:
            others = holders & ~(1 << frame.src)
            holders ^= others & -others  # the lowest set bit, if any
        return holders

    machine._upd_holders = skipping  # type: ignore[method-assign]


def _pp_drop_deferred(machine: Manycore) -> None:
    """Phase-priority service leaks every third deferred message.

    The priority selector returns one message but a second one silently
    falls off the queue, so the dropped requester's MSHR never completes.
    Detected as a deadlock: the queue drains with programs unfinished.
    """
    from repro.coherence.phase_priority import PhasePriorityDirectoryController

    if not isinstance(machine.directories[0], PhasePriorityDirectoryController):
        raise ValueError("pp_drop_deferred needs a phase_priority machine")
    state = {"count": 0}
    for directory in machine.directories:
        original = directory._pop_deferred

        def leaky(entry, _original=original):
            message = _original(entry)
            state["count"] += 1
            if state["count"] % 3 == 0 and entry.deferred:
                entry.deferred.popleft()  # a queued message vanishes
            return message

        directory._pop_deferred = leaky  # type: ignore[method-assign]


def _hyb_lost_upd_ack(machine: Manycore) -> None:
    """Every third HybUpd delivery is swallowed whole: no apply, no ack.

    The home's locked-write transaction waits for an HybUpdAck that never
    arrives, so the entry stays busy forever. Detected as a deadlock: the
    queue drains with programs unfinished.
    """
    from repro.coherence.hybrid_update import HYB_UPD_ID, HybridCacheController

    if not isinstance(machine.caches[0], HybridCacheController):
        raise ValueError("hyb_lost_upd_ack needs a hybrid_update machine")
    state = {"count": 0}
    for cache in machine.caches:
        # Wired handling dispatches through the class-level kind table, so
        # the patch intercepts handle_message (resolved per delivery).
        original = cache.handle_message

        def lossy(msg, _original=original):
            if msg.kind_id == HYB_UPD_ID:
                state["count"] += 1
                if state["count"] % 3 == 0:
                    return  # the update (and its ack) vanish into the ether
            _original(msg)

        cache.handle_message = lossy  # type: ignore[method-assign]


def _hyb_stale_update(machine: Manycore) -> None:
    """Sharers apply a skewed value for every HybUpd (but still ack).

    The home's LLC merge keeps the true value while every locked sharer
    installs value+1, so sharer copies diverge from the LLC (and from the
    writer's completion value). Detected by the value-agreement invariant
    or the load-provenance oracle.
    """
    from repro.coherence.hybrid_update import HYB_UPD_ID, HybridCacheController

    if not isinstance(machine.caches[0], HybridCacheController):
        raise ValueError("hyb_stale_update needs a hybrid_update machine")
    for cache in machine.caches:
        original = cache.handle_message

        def skewed(msg, _original=original):
            if (
                msg.kind_id == HYB_UPD_ID
                and msg.payload
                and "value" in msg.payload
            ):
                msg.payload = dict(msg.payload, value=msg.payload["value"] + 1)
            _original(msg)

        cache.handle_message = skewed  # type: ignore[method-assign]


def _token_lost(machine: Manycore) -> None:
    """The token MAC loses its token: nobody is ever polled again.

    Contention slots tick forever without a grant, so every wireless store
    stalls at the channel. Detected as a livelock on the event budget.
    """
    from repro.wireless.mac_token import TokenMacState

    if machine.wireless is None or not isinstance(
        machine.wireless._mac, TokenMacState
    ):
        raise ValueError("token_lost needs a WiDir machine on the token MAC")
    machine.wireless._mac._lost = True


def _csma_always_defer(machine: Manycore) -> None:
    """The CSMA persistence gate jams shut: every slot draw fails.

    No node ever transmits, so the channel idles from slot to slot while
    wireless stores queue forever. Detected as a livelock on the event
    budget.
    """
    from repro.wireless.mac_csma import CsmaSlottedMacState

    if machine.wireless is None or not isinstance(
        machine.wireless._mac, CsmaSlottedMacState
    ):
        raise ValueError(
            "csma_always_defer needs a WiDir machine on the csma_slotted MAC"
        )
    machine.wireless._mac._persistence = -1.0


class Mutation(NamedTuple):
    """One seeded bug: its patch and the trials a campaign applies it to."""

    patch: Callable[[Manycore], None]
    #: Backends the bug is meaningful for; other trials stay clean references.
    protocols: Tuple[str, ...]
    #: MAC backends a MAC bug targets; empty means any MAC.
    macs: Tuple[str, ...] = ()

    def applies_to(self, protocol: str, mac: str) -> bool:
        """Whether a campaign mutates a trial on this backend and MAC."""
        return protocol in self.protocols and (not self.macs or mac in self.macs)


#: name -> mutation. Names are part of the CLI surface (``--mutate``).
MUTATIONS: Dict[str, Mutation] = {
    "no_jam_nack": Mutation(_no_jam_nack, ("widir",)),
    "lost_tone_drop": Mutation(_lost_tone_drop, ("widir",)),
    "no_home_wirupd_merge": Mutation(_no_home_wirupd_merge, ("widir",)),
    "upd_skips_holder": Mutation(_upd_skips_holder, ("widir",)),
    "pp_drop_deferred": Mutation(_pp_drop_deferred, ("phase_priority",)),
    "hyb_lost_upd_ack": Mutation(_hyb_lost_upd_ack, ("hybrid_update",)),
    "hyb_stale_update": Mutation(_hyb_stale_update, ("hybrid_update",)),
    "token_lost": Mutation(_token_lost, ("widir",), ("token",)),
    "csma_always_defer": Mutation(_csma_always_defer, ("widir",), ("csma_slotted",)),
}


def get_mutation(name: str) -> Mutation:
    """The named mutation (KeyError listing the names when unknown)."""
    try:
        return MUTATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown mutation {name!r}; available: {sorted(MUTATIONS)}"
        ) from None


def apply_mutation(machine: Manycore, name: str) -> None:
    """Apply the named mutation to ``machine`` (raises KeyError if unknown)."""
    get_mutation(name).patch(machine)
