"""Fault-injecting coherence fuzzing.

A *trial* is a fully explicit, serializable description of one adversarial
run — machine config, per-core random programs, and every perturbation
knob with its seed (:class:`TrialSpec`). The campaign driver generates
trials from a root seed, executes each on a fresh
:class:`~repro.system.Manycore`, and applies four oracles:

* **liveness** — every program finishes and leaves nothing open: a
  queue that drains with programs unfinished is a deadlock, one that
  drains with the online monitor still carrying lines a transaction left
  open, a run past the event budget a livelock
  (:func:`~repro.verify.litmus.run_programs`);
* **load provenance** — a load only ever observes 0 or a value some core
  actually stored to that variable (the RMW counter is bounded instead);
* **RMW atomicity** — the counter's final value equals the total number of
  fetch-and-increments, with no duplicate old values;
* **coherence** — the online invariant monitor during the run (cycle-level
  blame) plus the quiescent :meth:`~repro.system.Manycore.check_coherence`
  at the end.

Perturbation knobs (all deterministic, all liveness-preserving for a
*correct* machine):

* **jam storms** — balanced ``jam``/``unjam`` pairs on the test lines,
  stressing the selective-jamming NACK path and backoff recovery;
* **tone-hold jitter** — ToneAck drops are delayed (never lost, never
  early), stretching the silence-detection window;
* **mesh jitter** — every wired message picks up a bounded extra delay,
  perturbing race resolution without reordering same-pair FIFO traffic
  (the mesh's ``_pair_order`` clamp still applies);
* **backoff scramble** — the per-node BRS backoff RNG streams are
  re-seeded, exploring different collision-resolution interleavings.

Failures are shrunk and archived by :mod:`repro.verify.artifacts`; seeded
protocol *mutations* (:mod:`repro.verify.mutations`) let the test suite
prove the campaign actually catches bugs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.config.system import SystemConfig
from repro.engine.errors import ProtocolError, SimulationError
from repro.engine.rng import DeterministicRng
from repro.system import Manycore
from repro.verify.litmus import (
    LitmusOp,
    read_finals,
    run_programs,
    variable_addresses,
)

#: Shared race variables the generator draws from (plus the RMW counter).
_RACE_VARS = ("v0", "v1", "v2", "v3")
_COUNTER_VAR = "c"


# --------------------------------------------------------------- trial spec


@dataclass
class TrialSpec:
    """One fully reproducible fuzz trial (the unit of replay/shrinking)."""

    config: Dict  #: SystemConfig.to_dict() payload.
    programs: List[List[LitmusOp]]
    machine_seed: int
    jitter_seed: int
    jitter_window: int = 30
    #: (start_cycle, variable_index, hold_cycles) balanced jam/unjam pairs.
    jam_storm: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Max extra cycles a ToneAck drop is held (0 = injector off).
    tone_jitter: int = 0
    tone_jitter_seed: int = 0
    #: Max extra cycles added to each wired message (0 = injector off).
    mesh_jitter: int = 0
    mesh_jitter_seed: int = 0
    #: Re-seed the per-node BRS backoff streams (None = leave machine's).
    backoff_seed: Optional[int] = None
    max_events: int = 4_000_000
    #: Seeded protocol mutation applied before the run (mutation testing).
    mutation: Optional[str] = None

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "config": self.config,
            "programs": [[op.to_dict() for op in p] for p in self.programs],
            "machine_seed": self.machine_seed,
            "jitter_seed": self.jitter_seed,
            "jitter_window": self.jitter_window,
            "jam_storm": [list(entry) for entry in self.jam_storm],
            "tone_jitter": self.tone_jitter,
            "tone_jitter_seed": self.tone_jitter_seed,
            "mesh_jitter": self.mesh_jitter,
            "mesh_jitter_seed": self.mesh_jitter_seed,
            "backoff_seed": self.backoff_seed,
            "max_events": self.max_events,
            "mutation": self.mutation,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "TrialSpec":
        return cls(
            config=payload["config"],
            programs=[
                [LitmusOp.from_dict(op) for op in program]
                for program in payload["programs"]
            ],
            machine_seed=payload["machine_seed"],
            jitter_seed=payload["jitter_seed"],
            jitter_window=payload.get("jitter_window", 30),
            jam_storm=[tuple(e) for e in payload.get("jam_storm", [])],
            tone_jitter=payload.get("tone_jitter", 0),
            tone_jitter_seed=payload.get("tone_jitter_seed", 0),
            mesh_jitter=payload.get("mesh_jitter", 0),
            mesh_jitter_seed=payload.get("mesh_jitter_seed", 0),
            backoff_seed=payload.get("backoff_seed"),
            max_events=payload.get("max_events", 4_000_000),
            mutation=payload.get("mutation"),
        )

    @property
    def variables(self) -> List[str]:
        names: Set[str] = set()
        for program in self.programs:
            for op in program:
                if op.var is not None:
                    names.add(op.var)
        return sorted(names)

    @property
    def total_ops(self) -> int:
        return sum(len(p) for p in self.programs)


# ---------------------------------------------------------------- injectors


def _install_jam_storm(
    machine: Manycore, spec: TrialSpec, lines: List[int]
) -> None:
    """Schedule balanced jam/unjam pairs (the channel refcounts jams, so an
    injected jam overlapping the directory's own transition jam can never
    lift the protocol's jam early)."""
    wireless = machine.wireless
    if wireless is None or not lines:
        return
    for start, var_index, hold in spec.jam_storm:
        line = lines[var_index % len(lines)]
        machine.sim.schedule_at(start, lambda l=line: wireless.jam(l))
        machine.sim.schedule_at(start + hold, lambda l=line: wireless.unjam(l))


def _install_tone_jitter(machine: Manycore, spec: TrialSpec) -> None:
    """Delay every ToneAck drop by a bounded random hold (never early,
    never lost — a correct protocol must tolerate slow local tasks)."""
    tone = machine.tone
    if tone is None or spec.tone_jitter <= 0:
        return
    rng = DeterministicRng(spec.tone_jitter_seed).split("tone-jitter")
    original_drop = tone.drop
    sim = machine.sim

    def jittered_drop(key: int, node: int, _retry: bool = False) -> None:
        # ``_retry`` marks the channel-error model's re-delivery; forward
        # it so a jittered retry is not mistaken for a fresh drop.
        hold = rng.randint(0, spec.tone_jitter)
        if hold == 0:
            original_drop(key, node, _retry=_retry)
        else:
            sim.schedule(hold, lambda: original_drop(key, node, _retry=_retry))

    tone.drop = jittered_drop  # type: ignore[method-assign]


def _install_mesh_jitter(machine: Manycore, spec: TrialSpec) -> None:
    """Add bounded extra latency to every wired message. Same-pair FIFO is
    preserved by the mesh's ``_pair_order`` clamp, so protocol-required
    ordering survives; only cross-pair races move."""
    if spec.mesh_jitter <= 0:
        return
    rng = DeterministicRng(spec.mesh_jitter_seed).split("mesh-jitter")
    mesh = machine.mesh
    original_send = mesh.send

    def jittered_send(message, extra_delay: int = 0) -> None:
        original_send(
            message, extra_delay=extra_delay + rng.randint(0, spec.mesh_jitter)
        )

    mesh.send = jittered_send  # type: ignore[method-assign]


def _install_backoff_scramble(machine: Manycore, spec: TrialSpec) -> None:
    """Re-seed every node's BRS backoff stream from the trial's seed."""
    if spec.backoff_seed is None or machine.wireless is None:
        return
    root = DeterministicRng(spec.backoff_seed).split("backoff-scramble")
    for node, policy in enumerate(machine.wireless._backoff):
        policy._rng = root.split(f"node-{node}")


def install_injectors(machine: Manycore, spec: TrialSpec, lines: List[int]) -> None:
    """Apply every enabled perturbation knob of ``spec`` to ``machine``."""
    _install_jam_storm(machine, spec, lines)
    _install_tone_jitter(machine, spec)
    _install_mesh_jitter(machine, spec)
    _install_backoff_scramble(machine, spec)


# ---------------------------------------------------------------- generator


def generate_trial(
    seed: int,
    index: int,
    num_cores: int = 8,
    ops_per_core: int = 40,
    protocol: str = "widir",
    check_interval: int = 150,
    max_wired_sharers: Optional[int] = None,
    mac: str = "brs",
    channel_errors: bool = False,
) -> TrialSpec:
    """Derive trial ``index`` of a campaign rooted at ``seed``.

    The program mix is store/load-heavy on a handful of shared variables
    (maximum contention) with a sprinkle of RMWs on a dedicated counter and
    think-time delays. Stores write globally unique values so the
    provenance oracle can attribute every observed load.

    ``mac`` selects the wireless MAC backend (ignored on wired machines);
    ``channel_errors`` turns on seeded frame-corruption and missed-tone
    injection, exercising the retransmit paths under every oracle. Both
    knobs are config-only — they draw nothing from the trial RNG, so the
    default trials are bit-identical to the pre-MAC-zoo campaigns.
    """
    from repro.coherence.backend import get_backend

    backend = get_backend(protocol)
    rng = DeterministicRng(seed).split(f"trial-{index}")
    config = SystemConfig(
        num_cores=num_cores,
        protocol=protocol,
        seed=rng.randint(0, 2**31 - 1),
        check_interval=check_interval,
        mac=mac if backend.uses_wireless else "brs",
    )
    if channel_errors and backend.uses_wireless:
        from dataclasses import replace as _replace

        from repro.config.system import ChannelErrorConfig

        config = _replace(
            config,
            channel_errors=ChannelErrorConfig(
                frame_corruption_prob=0.05, missed_tone_prob=0.05
            ),
        )
    if max_wired_sharers is not None:
        from dataclasses import replace

        pointers = max(1, max_wired_sharers)
        if backend.uses_sharer_threshold and not backend.uses_wireless:
            # Wired threshold protocols (hybrid_update) gate mode entry on
            # a *precise* sharer vector: with too few pointers the entry
            # goes imprecise and the threshold never fires. Give the
            # directory full pointers so the knob under test decides.
            pointers = max(num_cores, max_wired_sharers)
        config = replace(
            config,
            directory=replace(
                config.directory,
                num_pointers=pointers,
                max_wired_sharers=max_wired_sharers,
            ),
        )

    programs: List[List[LitmusOp]] = []
    for core in range(num_cores):
        ops: List[LitmusOp] = []
        for op_index in range(ops_per_core):
            roll = rng.randint(0, 99)
            var = _RACE_VARS[rng.randint(0, len(_RACE_VARS) - 1)]
            if roll < 40:
                ops.append(LitmusOp("load", var))
            elif roll < 75:
                value = core * 4096 + op_index + 1  # globally unique
                ops.append(LitmusOp("store", var, value))
            elif roll < 85:
                ops.append(LitmusOp("rmw", _COUNTER_VAR))
            elif roll < 95:
                ops.append(LitmusOp("delay", cycles=rng.randint(1, 25)))
            else:
                ops.append(LitmusOp("load", _COUNTER_VAR))
        programs.append(ops)

    wireless = backend.uses_wireless
    storm: List[Tuple[int, int, int]] = []
    if wireless and rng.randint(0, 3) != 0:
        for _ in range(rng.randint(2, 8)):
            storm.append(
                (
                    rng.randint(10, 2500),
                    rng.randint(0, len(_RACE_VARS) - 1),
                    rng.randint(5, 120),
                )
            )

    return TrialSpec(
        config=config.to_dict(),
        programs=programs,
        machine_seed=config.seed,
        jitter_seed=rng.randint(0, 2**31 - 1),
        jitter_window=rng.randint(5, 40),
        jam_storm=storm,
        tone_jitter=rng.randint(0, 6) if wireless else 0,
        tone_jitter_seed=rng.randint(0, 2**31 - 1),
        mesh_jitter=rng.randint(0, 4),
        mesh_jitter_seed=rng.randint(0, 2**31 - 1),
        backoff_seed=rng.randint(0, 2**31 - 1) if wireless else None,
        max_events=max(1_000_000, 4_000 * ops_per_core * num_cores),
    )


# ---------------------------------------------------------------- execution


#: Recorder events kept in a failing trial's trace window (the "what was
#: the machine doing just before it failed" tail).
TRACE_TAIL = 64


@dataclass
class TrialResult:
    """Outcome of one executed trial."""

    ok: bool
    failure: Optional[str]
    cycles: int
    events: int
    digest: str  #: sha256 over observations + finals (determinism witness).
    #: Flight-recorder window (``FlightRecorder.to_payload``-shaped, schema-
    #: versioned) captured when the trial failed; None on success or when
    #: tracing was off. Excluded from the determinism digest.
    trace: Optional[Dict] = None


def execute_trial(
    spec: TrialSpec,
    mutation: Optional[str] = None,
    capture_trace: bool = True,
) -> TrialResult:
    """Build the machine, apply injectors (and mutation), run, judge, and
    release the machine (:meth:`Manycore.release`) once the verdict,
    failure text included, is formed.

    ``capture_trace`` installs the observability layer on the trial machine
    so a failing trial carries its flight-recorder window (the last
    ``TRACE_TAIL`` protocol events) in :attr:`TrialResult.trace`. Tracing
    is digest-neutral — the hooks read simulation state but never draw
    RNG, schedule events, or touch stats — so trial digests and campaign
    digests are identical with it on or off.
    """
    machine = Manycore(SystemConfig.from_dict(spec.config))
    try:
        return _run_trial(machine, spec, mutation or spec.mutation, capture_trace)
    finally:
        machine.release()


def _run_trial(
    machine: Manycore,
    spec: TrialSpec,
    mutation_name: Optional[str],
    capture_trace: bool,
) -> TrialResult:
    config = machine.config
    obs = None
    if capture_trace:
        from repro.config.system import ObsConfig
        from repro.obs.hooks import Observability

        obs = Observability(machine, ObsConfig(enabled=True))
        obs.install()
        machine.obs = obs
    if mutation_name:
        from repro.verify.mutations import apply_mutation

        apply_mutation(machine, mutation_name)

    variables = spec.variables
    addresses = variable_addresses(variables, config.l1.line_bytes)
    race_lines = [
        addresses[v] // config.l1.line_bytes for v in variables if v != _COUNTER_VAR
    ]
    install_injectors(machine, spec, race_lines)

    def fail(reason: str) -> TrialResult:
        return TrialResult(
            ok=False,
            failure=reason,
            cycles=machine.sim.now,
            events=machine.sim.events_executed,
            digest="",
            trace=(
                obs.recorder.to_payload(last=TRACE_TAIL)
                if obs is not None
                else None
            ),
        )

    drivers, failure = run_programs(
        machine,
        spec.programs,
        addresses,
        DeterministicRng(spec.jitter_seed).split("schedule"),
        spec.jitter_window,
        spec.max_events,
    )
    if failure is not None:
        return fail(failure)

    # ---- oracles on the observations -----------------------------------
    written: Dict[str, Set[int]] = {v: set() for v in variables}
    total_rmws = 0
    for program in spec.programs:
        for op in program:
            if op.kind == "store":
                written[op.var].add(op.value)
            elif op.kind == "rmw":
                total_rmws += 1

    for driver in drivers:
        values = iter(driver.observations)
        for op in driver.ops:
            if op.kind == "load":
                value = next(values)
                if op.var == _COUNTER_VAR:
                    if not 0 <= value <= total_rmws:
                        return fail(
                            f"core {driver.node} read counter {value} "
                            f"outside [0, {total_rmws}]"
                        )
                elif value != 0 and value not in written[op.var]:
                    return fail(
                        f"core {driver.node} loaded {value} from {op.var}, "
                        f"a value no core ever stored"
                    )
            elif op.kind == "rmw":
                next(values)

    rmw_olds = [v for d in drivers for v in d.rmw_observations]
    if len(rmw_olds) != len(set(rmw_olds)):
        return fail(f"duplicate RMW old values: {sorted(rmw_olds)}")

    finals: Dict[str, int] = {}
    if total_rmws:
        finals, failure = read_finals(
            machine, {_COUNTER_VAR: addresses[_COUNTER_VAR]}, spec.max_events
        )
        if failure is not None:
            return fail(failure)
        if finals[_COUNTER_VAR] != total_rmws:
            return fail(
                f"RMW counter ended at {finals[_COUNTER_VAR]}, "
                f"expected {total_rmws}"
            )

    try:
        machine.check_coherence()
    except (SimulationError, ProtocolError) as exc:
        return fail(f"final coherence check: {type(exc).__name__}: {exc}")

    witness = {
        "observations": [list(d.observations) for d in drivers],
        "finals": finals,
        "cycles": machine.sim.now,
    }
    digest = hashlib.sha256(
        json.dumps(witness, sort_keys=True).encode()
    ).hexdigest()[:16]
    return TrialResult(
        ok=True,
        failure=None,
        cycles=machine.sim.now,
        events=machine.sim.events_executed,
        digest=digest,
    )


# ----------------------------------------------------------------- campaign


@dataclass(frozen=True)
class FuzzCampaign:
    """A named, bounded fuzz configuration."""

    name: str
    trials: int
    num_cores: int
    ops_per_core: int
    #: Machine mix cycled across trials. Entries are
    #: ``(protocol, max_wired_sharers or None[, mac[, channel_errors]])``;
    #: the first six rows predate the MAC zoo and keep their positions so
    #: low trial counts reproduce the historical mix.
    machines: Tuple[Tuple, ...] = (
        ("widir", None),
        ("widir", 1),
        ("baseline", None),
        ("phase_priority", None),
        ("hybrid_update", None),
        ("hybrid_update", 1),
        ("widir", None, "token"),
        ("widir", 1, "csma_slotted"),
        ("widir", None, "fdma"),
        ("widir", 1, "token", True),
        ("widir", None, "csma_slotted", True),
        ("widir", None, "brs", True),
    )
    check_interval: int = 150


CAMPAIGNS: Dict[str, FuzzCampaign] = {
    "smoke": FuzzCampaign("smoke", trials=12, num_cores=8, ops_per_core=30),
    "deep": FuzzCampaign("deep", trials=60, num_cores=16, ops_per_core=90),
}


@dataclass
class CampaignResult:
    """Aggregate outcome of a campaign run."""

    campaign: str
    seed: int
    trials: List[TrialResult] = field(default_factory=list)
    failures: List[Tuple[int, str]] = field(default_factory=list)  # (index, why)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def digest(self) -> str:
        """Order-sensitive digest over every trial — two runs of the same
        (campaign, seed) must produce the identical value."""
        payload = "|".join(
            f"{r.digest}:{r.cycles}:{r.failure or ''}" for r in self.trials
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_campaign(
    campaign: str = "smoke",
    seed: int = 0,
    trials: Optional[int] = None,
    mutation: Optional[str] = None,
    on_trial=None,
) -> CampaignResult:
    """Run a named campaign; returns per-trial results and failures.

    ``mutation`` applies a seeded protocol bug to the machine of every
    trial whose protocol and MAC its
    :data:`~repro.verify.mutations.MUTATIONS` entry names (mutation smoke
    testing). ``on_trial(index, spec, result)`` is invoked after each
    trial (progress reporting / artifact capture).
    """
    from repro.verify.mutations import get_mutation

    scope = get_mutation(mutation) if mutation else None
    plan = CAMPAIGNS[campaign]
    count = trials if trials is not None else plan.trials
    result = CampaignResult(campaign=campaign, seed=seed)
    machines = plan.machines
    for index in range(count):
        entry = machines[index % len(machines)]
        protocol, mws = entry[0], entry[1]
        mac = entry[2] if len(entry) > 2 else "brs"
        channel_errors = bool(entry[3]) if len(entry) > 3 else False
        spec = generate_trial(
            seed,
            index,
            num_cores=plan.num_cores,
            ops_per_core=plan.ops_per_core,
            protocol=protocol,
            check_interval=plan.check_interval,
            max_wired_sharers=mws,
            mac=mac,
            channel_errors=channel_errors,
        )
        if scope is not None and scope.applies_to(protocol, mac):
            # Record the mutation on the spec so any captured artifact
            # replays it. (Each mutation targets one backend's machinery;
            # other protocols' trials stay unmutated so they remain
            # meaningful clean references.)
            spec.mutation = mutation
        trial = execute_trial(spec)
        result.trials.append(trial)
        if not trial.ok:
            result.failures.append((index, trial.failure or "unknown"))
        if on_trial is not None:
            on_trial(index, spec, trial)
    return result
