"""Pluggable wireless MAC backend registry.

A *MAC backend* owns the medium-access discipline of the shared wireless
data channel: who may transmit when several nodes contend, what happens
after a collision or a NACK (jam / corrupted frame), and what per-channel
state that policy needs.  :class:`~repro.wireless.channel.WirelessDataChannel`
keeps everything MAC-independent — the pending queue, selective jamming,
the serialization-point commit, broadcast delivery — and delegates every
contention decision to the :class:`MacState` built from whatever backend
``config.mac`` names, so every harness (litmus, fuzz, figures, campaigns,
trace replay) is generic over MACs exactly as it is over
coherence protocols (:mod:`repro.coherence.backend`, whose registry shape
this module mirrors via :class:`repro.config.registry.Registry`).

Registering a MAC is one call::

    register_mac(MacBackend(
        name="my_mac",
        description="...",
        collision_free=True,
        uses_backoff=False,
        multi_channel=False,
        state_factory=MyMacState,
    ))

Contract highlights (docs/MAC.md has the full version):

* ``state_factory(channel)`` builds one :class:`MacState` per channel.
  All RNG streams must come from labelled splits of ``channel.rng``
  (splitting never advances the parent stream, so adding a MAC cannot
  perturb any other backend's draws).
* :meth:`MacState.arbitrate` receives the ready, non-cancelled
  contenders in queue order and must either grant via
  ``channel.grant(...)`` or defer (bump ``ready_time`` /
  ``channel._busy_until``) and reschedule arbitration — never both for
  the same request, and never an unbounded defer while requests are
  pending (the fuzz liveness oracle audits exactly this).
* ``uses_backoff`` backends expose per-node :class:`BackoffPolicy`
  objects as ``state.backoff_policies`` — the observability installer,
  the fuzz backoff scrambler, and machine snapshots all iterate that
  (possibly empty) tuple.
* Extra MAC state beyond the backoff RNG streams must round-trip
  through :meth:`MacState.snapshot` / :meth:`MacState.restore` so trace
  replay snapshot/resume stays byte-identical.
* New counters must be registered lazily inside the state (only for the
  MACs that use them): the golden digests hash the *full* counter map,
  so an unconditionally registered zero counter would shift every
  baseline digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config.registry import Registry
from repro.engine.rng import DeterministicRng


class BackoffPolicy:
    """Per-node deterministic exponential backoff state (BRS MAC).

    After a collision (or a NACK, which a transmitter cannot distinguish
    from a collision), a node waits a uniformly random number of cycles
    drawn from a window that doubles with each consecutive failure, up
    to a cap.
    """

    __slots__ = ("base", "max_exponent", "node", "obs", "_rng")

    def __init__(
        self,
        base: int,
        max_exponent: int,
        rng: DeterministicRng,
        node: int = -1,
    ) -> None:
        self.base = base
        self.max_exponent = max_exponent
        #: The node whose transceiver this policy models (diagnostics only).
        self.node = node
        #: Observability hook (set by Observability.install(); None — the
        #: default — costs one attribute test per drawn delay and nothing
        #: else; see repro.obs.hooks). The hook observes the drawn delay
        #: *after* the RNG draw, so tracing never perturbs the stream.
        self.obs = None
        self._rng = rng

    def delay_for_attempt(self, failures: int) -> int:
        """Backoff delay after the ``failures``-th consecutive failure (>=1).

        The delay is uniform in ``[1, base * 2**(exponent-1)]`` where the
        exponent grows with the failure count up to ``max_exponent``, so the
        result is always bounded by ``base * 2**max_exponent`` and fully
        determined by the policy's RNG stream. ``max_exponent == 0`` (legal
        per :class:`~repro.config.system.WirelessConfig`) degenerates to a
        fixed window of ``base`` cycles instead of shifting by -1.
        """
        exponent = min(max(failures, 1), max(self.max_exponent, 1))
        window = self.base << (exponent - 1)
        delay = 1 + self._rng.randint(0, window - 1)
        obs = self.obs
        if obs is not None:
            obs.brs_backoff(self.node, failures, delay)
        return delay


# ------------------------------------------------------------- the backend


@dataclass(frozen=True)
class MacBackend:
    """Everything the channel needs to instantiate one MAC discipline."""

    name: str
    description: str
    #: True when the discipline can never produce simultaneous preambles
    #: (``wnoc.collisions`` provably stays 0 — the differential harness
    #: asserts it).
    collision_free: bool
    #: True when the state exposes per-node :class:`BackoffPolicy` objects
    #: (obs hooks, the fuzz backoff scrambler, and snapshots consume them).
    uses_backoff: bool
    #: True when the medium is statically partitioned into sub-channels
    #: that can carry frames concurrently (FDMA-style).
    multi_channel: bool
    #: ``(channel) -> MacState``; receives the fully initialised
    #: :class:`~repro.wireless.channel.WirelessDataChannel`.
    state_factory: Callable = field(repr=False, default=None)


def _load_builtins() -> None:
    """Import the plugin modules that self-register the stock MACs."""
    # Imported for their registration side effects; the classic BRS MAC
    # is declared below in this module.
    from repro.wireless import mac_csma  # noqa: F401
    from repro.wireless import mac_fdma  # noqa: F401
    from repro.wireless import mac_token  # noqa: F401


_REGISTRY: Registry = Registry("MAC backend", _load_builtins)

#: The MAC every config defaults to — the paper's BRS discipline. Sweep
#: labels and campaign manifests only mention a MAC when it differs from
#: this, which is what keeps every pre-MAC-zoo label and digest stable.
DEFAULT_MAC = "brs"


def register_mac(backend: MacBackend) -> MacBackend:
    """Add ``backend`` to the registry (idempotent for identical re-adds)."""
    return _REGISTRY.register(backend.name, backend)


def get_mac(name: str) -> MacBackend:
    """Look up a MAC backend; raises ``ValueError`` naming the known set."""
    return _REGISTRY.get(name)


def mac_names() -> Tuple[str, ...]:
    """Registered MAC names, sorted for stable CLI/docs output."""
    return _REGISTRY.names()


def registered_macs() -> Tuple[MacBackend, ...]:
    """All registered MAC backends, sorted by name."""
    return _REGISTRY.values()


# --------------------------------------------------------------- the state


class MacState:
    """Base class for per-channel MAC discipline state.

    The default hook implementations reproduce the single-medium gating
    the channel historically hardcoded; subclasses override
    :meth:`arbitrate` (mandatory) and, for multi-channel media, the two
    busy-gating hooks.
    """

    #: Per-node :class:`BackoffPolicy` objects, or ``()`` for MACs
    #: without one (token, FDMA). Obs install, the fuzz scrambler, and
    #: snapshots iterate this.
    backoff_policies: Tuple[BackoffPolicy, ...] = ()

    def __init__(self, channel) -> None:
        self.channel = channel

    # -- busy gating ----------------------------------------------------

    def busy_defer(self, now: int) -> Optional[int]:
        """Cycle to defer arbitration to, or None to arbitrate now."""
        busy_until = self.channel._busy_until
        return busy_until if now < busy_until else None

    def clamp_arbitration(self, at: int) -> int:
        """Earliest useful arbitration cycle for a request ready at ``at``."""
        return max(at, self.channel._busy_until)

    # -- the discipline -------------------------------------------------

    def max_airtime(self) -> int:
        """Worst-case cycles from a grant to the frame's delivery.

        The coherence protocol sizes its jam-settle windows from this (a
        frame past its collision-detect slot still delivers up to this many
        cycles later even though new frames are already being NACKed), and
        the consistency validator uses it as the write-visibility lag —
        a MAC that stretches airtime (FDMA's 1/k sub-channels) or delays
        transmission start after the grant (token rotation) MUST override
        it or new sharers can snapshot a line while a committed update is
        still in the air.
        """
        return self.channel.config.frame_cycles

    def arbitrate(self, now: int, contenders: List) -> None:
        """Resolve one contention round (``contenders`` is non-empty)."""
        raise NotImplementedError

    def nack(self, request, now: int, header: int) -> None:
        """Retry policy after a NACK (jam or corrupted frame).

        Default: retry one cycle after the NACK slot — MACs whose
        fairness comes from the grant order itself (token rotation, FDMA
        FIFO) need no randomised backoff.
        """
        request.failures += 1
        request.ready_time = now + header + 1

    # -- snapshot / replay ----------------------------------------------

    def snapshot(self) -> Dict:
        """Extra MAC state beyond the backoff RNG streams (JSON-safe)."""
        return {}

    def restore(self, payload: Dict) -> None:
        """Inverse of :meth:`snapshot`."""


class BrsMacState(MacState):
    """The paper's BRS MAC: collide in the preamble, back off exponentially.

    Behaviour (event schedule, RNG draw order, counter updates, obs event
    order) is bit-identical to the pre-refactor hardcoded channel — the
    golden digests pin this.
    """

    def __init__(self, channel) -> None:
        super().__init__(channel)
        config = channel.config
        self.backoff_policies = tuple(
            BackoffPolicy(
                config.backoff_base_cycles,
                config.backoff_max_exponent,
                channel.rng.split(f"backoff-{node}"),
                node=node,
            )
            for node in range(channel.num_nodes)
        )

    def arbitrate(self, now: int, contenders: List) -> None:
        channel = self.channel
        obs = channel.obs
        config = channel.config
        header = config.preamble_cycles + config.collision_detect_cycles
        channel._attempts.add(len(contenders))

        if len(contenders) > 1:
            # Simultaneous preambles: all discover the collision, back off.
            channel._collisions.add(len(contenders))
            channel._busy_until = now + header
            channel._busy_cycles.add(header)
            self._back_off_cohort(contenders, header, obs)
            channel._schedule_arbitration(channel._busy_until)
            return

        request = contenders[0]
        if channel._nacked(request):
            # Jam or corrupted preamble: NACKed in the collision-detect
            # slot; the sender cannot tell this from a real collision.
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

    def _back_off_cohort(self, requests, header: int, obs) -> None:
        """Back off a whole collision cohort with batched bookkeeping.

        Per-request behaviour (failure bump, per-node RNG draw, obs events
        in collision→backoff order) is identical to calling :meth:`nack`
        on each request; the header constant, backoff table, and clock are
        fetched once for the cohort instead of per loser.
        """
        channel = self.channel
        now = channel.sim.now
        backoff = self.backoff_policies
        num_nodes = channel.num_nodes
        for request in requests:
            if obs is not None:
                obs.frame_phase(request, "collision")
            request.failures += 1
            policy = backoff[request.frame.src % num_nodes]
            delay = policy.delay_for_attempt(request.failures)
            if obs is not None:
                obs.frame_phase(request, "backoff")
            request.ready_time = now + header + delay


register_mac(
    MacBackend(
        name="brs",
        description=(
            "BRS: collision detection in the preamble slot plus per-node "
            "exponential backoff (the source paper's MAC)."
        ),
        collision_free=False,
        uses_backoff=True,
        multi_channel=False,
        state_factory=BrsMacState,
    )
)
