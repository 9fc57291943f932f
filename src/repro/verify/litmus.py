"""Declarative litmus-test runner for the coherence protocols.

A litmus test is a tiny multi-core program — a few loads, stores, fences,
and RMWs per core on a couple of shared variables — together with the set
of outcomes the memory model forbids. Cores here issue their operations
*sequentially* (each op waits for the previous one to complete), so the
machine must be sequentially consistent for these programs: every classic
forbidden outcome (SB, MP, CoRR, IRIW, 2+2W) is genuinely forbidden, and
any observation of one is a protocol bug, not a relaxed-memory-model
artifact.

Interleaving variety comes from three deterministic sources:

* a per-op issue jitter drawn from a schedule RNG (different schedules
  explore different racings of the same program),
* the machine seed (backoff draws, trace-independent timing),
* *threshold variants*: extra observer cores repeatedly load the test
  variables so the sharer count crosses ``MaxWiredSharers`` mid-test and
  the racing stores ride the S->W transition / wireless-update path
  (paper Sections III-B/III-C).

Everything is pure simulation — no wall-clock, no global state — so a
(test, config, seed) triple always reproduces the same outcome histogram.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.config.system import SystemConfig
from repro.engine.errors import ProtocolError, SimulationError
from repro.engine.rng import DeterministicRng
from repro.obs.recorder import open_items
from repro.system import Manycore

#: First line index used for litmus variables; the stride is odd so the
#: variables spread across homes and mesh quadrants.
_BASE_LINE = 0x3000
_LINE_STRIDE = 17


# --------------------------------------------------------------------- ops


@dataclass(frozen=True)
class LitmusOp:
    """One operation of a per-core litmus program."""

    kind: str  #: "load" | "store" | "rmw" | "fence" | "delay"
    var: Optional[str] = None
    value: int = 0
    cycles: int = 0

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "var": self.var,
            "value": self.value,
            "cycles": self.cycles,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LitmusOp":
        return cls(
            kind=payload["kind"],
            var=payload.get("var"),
            value=payload.get("value", 0),
            cycles=payload.get("cycles", 0),
        )


def ld(var: str) -> LitmusOp:
    """Load ``var``; the value becomes the next observation register."""
    return LitmusOp("load", var)


def st(var: str, value: int) -> LitmusOp:
    """Store ``value`` to ``var``."""
    return LitmusOp("store", var, value)


def rmw(var: str) -> LitmusOp:
    """Atomic fetch-and-increment; the old value becomes an observation."""
    return LitmusOp("rmw", var)


def fence() -> LitmusOp:
    """Ordering fence. Sequential issuance already orders each core's ops,
    so this is a structural no-op kept for program readability and for
    future relaxed-issue drivers."""
    return LitmusOp("fence")


def delay(cycles: int) -> LitmusOp:
    """Stall the issuing core for ``cycles`` before the next op."""
    return LitmusOp("delay", cycles=cycles)


# -------------------------------------------------------------------- test


@dataclass
class LitmusTest:
    """A named multi-core program with its forbidden/expected outcomes.

    Attributes
    ----------
    programs:
        One op list per participating core (core ``i`` runs
        ``programs[i]``).
    forbidden:
        Patterns over the flattened observation vector (loads and RMW old
        values in (core, program-order) sequence): each pattern maps
        register index -> value, and matches when every indexed register
        holds that value. Any match is a violation.
    allowed:
        Optional whitelist of *full* observation vectors; when set, any
        observation outside it is a violation (used by shapes whose SC
        outcome set is small enough to enumerate).
    final_forbidden:
        Patterns over the final memory values of the variables (sorted by
        name); matching any pattern is a violation (2+2W-style shapes).
    final:
        Exact required final values per variable (atomicity shapes).
    rmw_distinct:
        When True, all RMW observations across all cores must be distinct
        (fetch-and-increment must never hand out the same old value twice).
    """

    name: str
    programs: List[List[LitmusOp]]
    forbidden: List[Dict[int, int]] = field(default_factory=list)
    allowed: Optional[Set[Tuple[int, ...]]] = None
    final_forbidden: List[Dict[str, int]] = field(default_factory=list)
    final: Dict[str, int] = field(default_factory=dict)
    rmw_distinct: bool = False
    description: str = ""

    @property
    def variables(self) -> List[str]:
        names: Set[str] = set()
        for program in self.programs:
            for op in program:
                if op.var is not None:
                    names.add(op.var)
        return sorted(names)

    @property
    def num_cores(self) -> int:
        return len(self.programs)


def variable_addresses(variables: Sequence[str], line_bytes: int) -> Dict[str, int]:
    """Map variable names to byte addresses on distinct, home-spread lines."""
    return {
        name: (_BASE_LINE + index * _LINE_STRIDE) * line_bytes
        for index, name in enumerate(variables)
    }


# ------------------------------------------------------------------ driver


class _ProgramDriver:
    """Issues one core's litmus program sequentially with issue jitter."""

    def __init__(
        self,
        machine: Manycore,
        node: int,
        ops: List[LitmusOp],
        addresses: Dict[str, int],
        jitter_rng: DeterministicRng,
        jitter_window: int,
    ) -> None:
        self.machine = machine
        self.node = node
        self.cache = machine.caches[node]
        self.ops = ops
        self.addresses = addresses
        self.jitter_rng = jitter_rng
        self.jitter_window = jitter_window
        self.observations: List[int] = []
        self.rmw_observations: List[int] = []
        self.finished = False
        self._index = 0

    def start(self) -> None:
        self._issue_next()

    def _issue_next(self) -> None:
        if self._index >= len(self.ops):
            self.finished = True
            return
        op = self.ops[self._index]
        self._index += 1
        gap = 0
        if self.jitter_window > 0:
            gap = self.jitter_rng.randint(0, self.jitter_window)
        if op.kind == "delay":
            gap += op.cycles
            self.machine.sim.schedule(max(1, gap), self._issue_next)
            return
        if op.kind == "fence":
            # Sequential issuance already drains the core's previous op.
            self.machine.sim.schedule(max(1, gap), self._issue_next)
            return
        self.machine.sim.schedule(max(1, gap), lambda: self._dispatch(op))

    def _dispatch(self, op: LitmusOp) -> None:
        address = self.addresses[op.var]
        if op.kind == "load":
            self.cache.load(address, self._on_value)
        elif op.kind == "store":
            self.cache.store(address, op.value, self._issue_next)
        elif op.kind == "rmw":
            self.cache.rmw(address, self._on_rmw)
        else:  # pragma: no cover - constructors prevent unknown kinds
            raise ValueError(f"unknown litmus op kind {op.kind!r}")

    def _on_value(self, value: int) -> None:
        self.observations.append(value)
        self._issue_next()

    def _on_rmw(self, old: int) -> None:
        self.observations.append(old)
        self.rmw_observations.append(old)
        self._issue_next()


# ------------------------------------------------------------------- run


def _drain(
    machine: Manycore, max_events: int, unfinished: Callable[[], List[int]]
) -> Optional[str]:
    """Run ``machine`` until its queue drains; return why it failed, or None.

    An online ``ProtocolError`` or an exhausted budget is the failure,
    ``"<error type>: <message>"``. So is a drained queue while
    ``unfinished()`` still lists nodes (a deadlock), or while the online
    monitor still carries lines it found not quiet (a transaction left
    open after the programs finished). Either is named with the first
    items the machine holds open.
    """
    try:
        machine.run(max_events=max_events)
    except (SimulationError, ProtocolError) as exc:
        return f"{type(exc).__name__}: {exc}"
    stuck = unfinished()
    carried = machine.monitor.open_lines() if machine.monitor else []
    if stuck:
        head = f"deadlock: cores {stuck} unfinished"
    elif carried:
        lines = ", ".join(f"0x{line:x}" for line in carried)
        head = f"open after drain: lines [{lines}] not quiet"
    else:
        return None
    return "\n".join(
        [f"{head} at cycle {machine.sim.now}; open items:", *open_items(machine)]
    )


def run_programs(
    machine: Manycore,
    programs: Sequence[List[LitmusOp]],
    addresses: Dict[str, int],
    jitter_root: DeterministicRng,
    jitter_window: int,
    max_events: int,
) -> Tuple[List[_ProgramDriver], Optional[str]]:
    """Run core ``i``'s program ``programs[i]`` until the queue drains.

    Returns the drivers, whose observations the caller judges, and the
    run's failure (see :func:`_drain`) or None.
    """
    drivers = [
        _ProgramDriver(
            machine,
            node,
            ops,
            addresses,
            jitter_root.split(f"core-{node}"),
            jitter_window,
        )
        for node, ops in enumerate(programs)
    ]
    for driver in drivers:
        driver.start()
    failure = _drain(
        machine, max_events, lambda: [d.node for d in drivers if not d.finished]
    )
    return drivers, failure


def read_finals(
    machine: Manycore, addresses: Dict[str, int], max_events: int
) -> Tuple[Dict[str, int], Optional[str]]:
    """Read every variable's final value *through the protocol* (core 0).

    Running real loads after the programs drain doubles as a liveness probe
    for the post-run machine and avoids a parallel inspection code path
    that could disagree with what a core would actually observe. Returns
    the values and the read's failure, if any.
    """
    values: Dict[str, int] = {}
    for name in sorted(addresses):
        machine.caches[0].load(addresses[name], partial(values.__setitem__, name))
    failure = _drain(
        machine, max_events, lambda: [0] if len(values) < len(addresses) else []
    )
    return values, None if failure is None else f"final read: {failure}"


# ------------------------------------------------------------------ result


@dataclass
class LitmusResult:
    """Outcome histogram and violations of one (test, config) pair."""

    test: str
    config_label: str
    schedules: int
    outcomes: Dict[Tuple[int, ...], int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: Total S->W transitions across all schedules (threshold variants
    #: assert this is non-zero, i.e. the W path really was exercised).
    s_to_w_transitions: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.violations)})"
        distinct = len(self.outcomes)
        return (
            f"{self.test:<24} {self.config_label:<20} "
            f"{self.schedules:>3} schedules  {distinct:>3} outcomes  {status}"
        )


def run_litmus(
    test: LitmusTest,
    config: SystemConfig,
    schedules: int = 16,
    seed: int = 0,
    jitter_window: int = 40,
    config_label: Optional[str] = None,
    max_events_per_schedule: int = 2_000_000,
) -> LitmusResult:
    """Run ``test`` on fresh machines across ``schedules`` issue schedules.

    Every schedule builds a brand-new :class:`Manycore` (same ``config``
    but a distinct machine seed derived from ``seed``) and a distinct
    jitter stream, runs the programs to completion, applies the test's
    outcome predicates, and — cheap but strong — the end-of-run quiescent
    coherence check. A run that fails (:func:`run_programs`) is the
    schedule's one violation. Each machine is released
    (:meth:`Manycore.release`) once its schedule is judged.
    """
    if test.num_cores > config.num_cores:
        raise ValueError(
            f"litmus test {test.name} needs {test.num_cores} cores, "
            f"config has {config.num_cores}"
        )
    label = config_label or config.protocol
    result = LitmusResult(test=test.name, config_label=label, schedules=schedules)
    root = DeterministicRng(seed).split(f"litmus-{test.name}-{label}")
    addresses = variable_addresses(test.variables, config.l1.line_bytes)

    for schedule in range(schedules):
        machine_seed = root.split(f"machine-{schedule}").randint(0, 2**31 - 1)
        machine = Manycore(replace(config, seed=machine_seed))
        try:
            drivers, failure = run_programs(
                machine,
                test.programs,
                addresses,
                root.split(f"jitter-{schedule}"),
                jitter_window,
                max_events_per_schedule,
            )
            if failure is not None:
                result.violations.append(f"schedule {schedule}: {failure}")
                continue

            observation = tuple(
                value for driver in drivers for value in driver.observations
            )
            result.outcomes[observation] = result.outcomes.get(observation, 0) + 1

            for pattern in test.forbidden:
                if all(observation[reg] == want for reg, want in pattern.items()):
                    result.violations.append(
                        f"schedule {schedule}: forbidden outcome {observation} "
                        f"matches {pattern}"
                    )
            if test.allowed is not None and observation not in test.allowed:
                result.violations.append(
                    f"schedule {schedule}: outcome {observation} not in the "
                    f"allowed set"
                )
            if test.rmw_distinct:
                olds = [v for d in drivers for v in d.rmw_observations]
                if len(olds) != len(set(olds)):
                    result.violations.append(
                        f"schedule {schedule}: duplicate RMW old values {sorted(olds)}"
                    )

            if test.final or test.final_forbidden:
                finals, failure = read_finals(
                    machine, addresses, max_events_per_schedule
                )
                if failure is not None:
                    result.violations.append(f"schedule {schedule}: {failure}")
                    continue
                for name, want in test.final.items():
                    if finals.get(name) != want:
                        result.violations.append(
                            f"schedule {schedule}: final {name}={finals.get(name)} "
                            f"!= required {want}"
                        )
                for pattern in test.final_forbidden:
                    if all(finals.get(n) == v for n, v in pattern.items()):
                        result.violations.append(
                            f"schedule {schedule}: forbidden final state {finals} "
                            f"matches {pattern}"
                        )

            try:
                machine.check_coherence()
            except Exception as exc:
                result.violations.append(f"schedule {schedule}: {exc}")
            result.s_to_w_transitions += machine.stats.get_counter("dir.total.s_to_w")
        finally:
            machine.release()
    return result


# ----------------------------------------------------------------- library


def _with_observers(
    base: LitmusTest, name: str, observers: int, reads_per_observer: int = 6
) -> LitmusTest:
    """Append cores that repeatedly load every variable of ``base``.

    With enough observers the sharer count crosses ``MaxWiredSharers``
    mid-test, so the racing stores exercise the S->W transition, wireless
    updates, and the W->S fallback — the paper's hard windows. Observer
    loads join the observation vector *after* the base cores', so the base
    test's forbidden patterns (indexed from 0) are untouched.
    """
    variables = base.variables
    program: List[LitmusOp] = []
    for repeat in range(reads_per_observer):
        for var in variables:
            program.append(ld(var))
        program.append(delay(3 + repeat))
    programs = [list(p) for p in base.programs] + [
        list(program) for _ in range(observers)
    ]
    return LitmusTest(
        name=name,
        programs=programs,
        forbidden=[dict(p) for p in base.forbidden],
        allowed=None,  # observer loads make the full vector unbounded
        final_forbidden=[dict(p) for p in base.final_forbidden],
        final=dict(base.final),
        rmw_distinct=base.rmw_distinct,
        description=(
            f"{base.description} + {observers} observer cores crossing the "
            f"MaxWiredSharers threshold mid-test"
        ),
    )


def litmus_suite(threshold_variants: bool = True) -> List[LitmusTest]:
    """The library of litmus shapes (classic + WiDir threshold variants)."""
    sb = LitmusTest(
        name="SB",
        programs=[[st("x", 1), ld("y")], [st("y", 1), ld("x")]],
        forbidden=[{0: 0, 1: 0}],
        allowed={(0, 1), (1, 0), (1, 1)},
        description="store buffering: both loads reading 0 is non-SC",
    )
    mp = LitmusTest(
        name="MP",
        programs=[[st("x", 1), st("y", 1)], [ld("y"), ld("x")]],
        forbidden=[{0: 1, 1: 0}],
        allowed={(0, 0), (0, 1), (1, 1)},
        description="message passing: seeing the flag but stale data is non-SC",
    )
    corr = LitmusTest(
        name="CoRR",
        programs=[[st("x", 1)], [ld("x"), ld("x")]],
        forbidden=[{0: 1, 1: 0}],
        allowed={(0, 0), (0, 1), (1, 1)},
        description="coherent read-read: a load may never travel back in time",
    )
    iriw = LitmusTest(
        name="IRIW",
        programs=[
            [st("x", 1)],
            [st("y", 1)],
            [ld("x"), ld("y")],
            [ld("y"), ld("x")],
        ],
        forbidden=[{0: 1, 1: 0, 2: 1, 3: 0}],
        description="independent reads of independent writes must agree on "
        "the store order",
    )
    w22 = LitmusTest(
        name="2+2W",
        programs=[[st("x", 1), st("y", 2)], [st("y", 1), st("x", 2)]],
        final_forbidden=[{"x": 1, "y": 1}],
        description="2+2W: both first stores winning requires a cycle",
    )
    atom = LitmusTest(
        name="ATOM",
        programs=[[rmw("x") for _ in range(8)] for _ in range(4)],
        final={"x": 32},
        rmw_distinct=True,
        description="4 cores x 8 fetch-and-increments: final value exactly "
        "32, no duplicate old values",
    )
    suite = [sb, mp, corr, iriw, w22, atom]
    if threshold_variants:
        suite.extend(
            [
                _with_observers(sb, "SB+threshold", observers=4),
                _with_observers(mp, "MP+threshold", observers=4),
                _with_observers(corr, "CoRR+threshold", observers=4),
            ]
        )
    return suite


def suite_configs(num_cores: int = 8) -> List[Tuple[str, SystemConfig]]:
    """The (label, config) matrix litmus campaigns run against.

    Every registered protocol backend appears at least once; threshold
    protocols get an extra tight-threshold variant that forces their
    many-sharer mode on the handful of cores a litmus test touches.
    """
    baseline = SystemConfig(num_cores=num_cores, protocol="baseline")
    widir = SystemConfig(num_cores=num_cores, protocol="widir")
    tight = replace(
        widir, directory=replace(widir.directory, num_pointers=1, max_wired_sharers=1)
    )
    phase = SystemConfig(num_cores=num_cores, protocol="phase_priority")
    hybrid = SystemConfig(num_cores=num_cores, protocol="hybrid_update")
    # Hybrid mode entry needs a *precise* sharer vector (imprecise entries
    # fall back to invalidation), so the tight variant widens the pointer
    # array to the core count while dropping the threshold to 1.
    hybrid_tight = replace(
        hybrid,
        directory=replace(
            hybrid.directory, num_pointers=num_cores, max_wired_sharers=1
        ),
    )
    from repro.wireless.mac import DEFAULT_MAC, mac_names

    matrix = [
        ("baseline", baseline),
        ("widir", widir),
        ("widir-mws1", tight),
        ("phase_priority", phase),
        ("hybrid_update", hybrid),
        ("hybrid_update-mws1", hybrid_tight),
    ]
    # Every non-default MAC gets a row on the wireless protocol, both with
    # the stock threshold and the tight one that maximizes wireless traffic.
    for mac in mac_names():
        if mac == DEFAULT_MAC:
            continue
        matrix.append((f"widir-{mac}", replace(widir, mac=mac)))
        matrix.append((f"widir-mws1-{mac}", replace(tight, mac=mac)))
    # Channel errors exercise the retransmit paths under every litmus shape.
    errors = replace(
        widir,
        channel_errors=replace(
            widir.channel_errors,
            frame_corruption_prob=0.1,
            missed_tone_prob=0.1,
        ),
    )
    matrix.append(("widir-chanerr", errors))
    return matrix


def run_suite(
    num_cores: int = 8,
    schedules: int = 12,
    seed: int = 0,
    online_interval: int = 0,
) -> List[LitmusResult]:
    """Run the full litmus library against the config matrix."""
    results: List[LitmusResult] = []
    for label, config in suite_configs(num_cores):
        if online_interval:
            config = replace(config, check_interval=online_interval)
        for test in litmus_suite():
            results.append(
                run_litmus(
                    test,
                    config,
                    schedules=schedules,
                    seed=seed,
                    config_label=label,
                )
            )
    return results
