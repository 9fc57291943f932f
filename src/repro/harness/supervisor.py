"""Supervision policy for campaign workers: retries, faults, heartbeats.

The campaign engine (the :class:`~repro.harness.distributed.Coordinator`
and its worker agents) tells a *crashed* worker (process or connection
died), a *timed-out* run (per-run budget exceeded while still beating),
and a *hung* worker (alive but silent) apart. This module holds the
policy pieces it shares with its agents:

* :class:`RetryPolicy` — failed runs are **retried** with seeded
  exponential backoff. The backoff engine is literally the protocol's own
  :class:`~repro.wireless.mac.BackoffPolicy` — the BRS MAC discipline the
  paper applies to wireless collisions, applied here to harness faults —
  driven by a :class:`~repro.engine.rng.DeterministicRng` split per run
  key, so retry schedules are reproducible. After ``max_attempts`` the run
  is reported as *failed* rather than raising, letting the campaign
  degrade gracefully;
* fault injection (:class:`ScriptedFaults`, :class:`SeededFaults`) — the
  coordinator evaluates the schedule when it grants a lease and the agent
  acts it out, so the kill/resume tests and the ``campaign-smoke`` CI job
  can drive crash/hang/stall/error schedules and assert the retry ladder
  heals them;
* :func:`start_heartbeat_thread` and :func:`replay_sys_paths`, the agent
  side of liveness and of running uninstalled from ``PYTHONPATH=src``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.rng import DeterministicRng
from repro.wireless.mac import BackoffPolicy

#: Fault kinds a worker can be told to exhibit (tests / smoke campaigns).
FAULT_KINDS = ("crash", "hang", "stall", "error")

#: Exit code of an intentionally crashed worker (diagnostics only).
CRASH_EXIT_CODE = 173


# ------------------------------------------------------------- retry policy


class RetryPolicy:
    """Seeded exponential-backoff retry schedule, one stream per run key.

    The delay after the ``n``-th consecutive failure of a run is drawn by a
    :class:`~repro.wireless.mac.BackoffPolicy` (uniform in a window that
    doubles up to ``base * 2**max_exponent`` *backoff units*), from an RNG
    stream split off ``seed`` by the run key — identical inputs always
    yield the identical retry schedule, and no run's draws perturb
    another's.

    ``unit`` converts abstract backoff cycles into seconds; tests set it to
    ``0`` for instant retries.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base: int = 2,
        max_exponent: int = 5,
        unit: float = 0.05,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base = base
        self.max_exponent = max_exponent
        self.unit = unit
        self.seed = seed
        self._root = DeterministicRng(seed)
        self._policies: Dict[str, BackoffPolicy] = {}

    def _policy_for(self, key: str) -> BackoffPolicy:
        policy = self._policies.get(key)
        if policy is None:
            policy = BackoffPolicy(
                self.base, self.max_exponent, self._root.split(key)
            )
            self._policies[key] = policy
        return policy

    def delay_seconds(self, key: str, failures: int) -> float:
        """Backoff before retry number ``failures`` of run ``key``."""
        return self._policy_for(key).delay_for_attempt(failures) * self.unit

    def describe(self) -> Dict:
        return {
            "max_attempts": self.max_attempts,
            "base": self.base,
            "max_exponent": self.max_exponent,
            "unit": self.unit,
            "seed": self.seed,
        }


# ---------------------------------------------------------- fault injection


class ScriptedFaults:
    """Exact fault schedule: ``{(key_prefix, attempt): kind}``.

    Key prefixes let tests script faults without computing full run keys.
    """

    def __init__(self, script: Dict[Tuple[str, int], str]) -> None:
        for (_, _), kind in script.items():
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.script = dict(script)

    def __call__(self, key: str, attempt: int) -> Optional[str]:
        for (prefix, when), kind in self.script.items():
            if attempt == when and key.startswith(prefix):
                return kind
        return None


class SeededFaults:
    """Deterministic random faults, for smoke campaigns and CLI demos.

    Each ``(key, attempt)`` pair draws once from a split RNG stream, so the
    fault pattern is a pure function of ``seed`` — rerunning a campaign
    with the same injection seed reproduces the same crashes. Faults are
    only injected on attempts ``<= max_faulty_attempts`` so the retry
    ladder always heals eventually.
    """

    def __init__(
        self,
        rates: Dict[str, float],
        seed: int = 0,
        max_faulty_attempts: int = 1,
    ) -> None:
        for kind in rates:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.rates = {k: float(v) for k, v in rates.items() if v > 0}
        self.seed = seed
        self.max_faulty_attempts = max_faulty_attempts
        self._root = DeterministicRng(seed)

    def __call__(self, key: str, attempt: int) -> Optional[str]:
        if attempt > self.max_faulty_attempts or not self.rates:
            return None
        draw = self._root.split(f"{key}#{attempt}").random()
        threshold = 0.0
        for kind in FAULT_KINDS:  # fixed order => stable partition
            rate = self.rates.get(kind, 0.0)
            if rate <= 0:
                continue
            threshold += rate
            if draw < threshold:
                return kind
        return None

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "SeededFaults":
        """Parse a CLI spec like ``"crash=0.2,hang=0.1"``."""
        rates: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, value = part.partition("=")
            rates[kind.strip()] = float(value) if value else 1.0
        return cls(rates, seed=seed)


# -------------------------------------------------------------- worker side


def replay_sys_paths(paths: List[str]) -> None:
    """Replay the parent's ``sys.path`` into a child process.

    Fork inherits the path, spawn does not; replaying makes both work when
    the repo runs uninstalled via ``PYTHONPATH=src``.
    """
    import sys

    for entry in reversed(paths):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def start_heartbeat_thread(
    beat: Callable[[], None],
    interval: float,
) -> Callable[[], None]:
    """Run ``beat`` every ``interval`` seconds on a daemon thread.

    Returns a stopper. ``beat`` raising stops the loop silently — a dead
    transport (dropped socket) means the listener already treats this
    process as gone, so there is nobody left to tell. Worker agents beat
    over a dedicated RPC connection.
    """
    import threading

    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(interval):
            try:
                beat()
            except Exception:  # noqa: BLE001 - transport gone: listener too
                return

    if interval > 0:
        threading.Thread(target=loop, daemon=True).start()
    return stop.set
