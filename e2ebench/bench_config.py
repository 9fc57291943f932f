"""Scale constants of the end-to-end benchmark, in one place.

Every number that decides how much simulated work a workload does lives
here, so two commits measured with the same copy of this file do
identical simulated work for the same ``--seed``. Stdlib only: both
``run.py`` and the workload process import it before ``repro``.
"""

from dataclasses import dataclass
from typing import Tuple

#: Host seconds of timed repetitions per run (``--seconds`` default).
RUN_SECONDS = 10

#: Root seed of every simulated machine; ``--seed`` drives the traces.
MACHINE_SEED = 42

#: The six-app figure subset of ``benchmarks/conftest.py``: two big WiDir
#: winners, the contention-heavy ocean-nc, two mid apps, and two PARSEC
#: apps with no sharing.
SUITE_APPS = (
    "radiosity",
    "ocean-nc",
    "barnes",
    "water-spa",
    "blackscholes",
    "ferret",
)


@dataclass(frozen=True)
class Scales:
    """How big each workload is; ``FULL`` is measured, ``SMOKE`` checked."""

    cores: int
    sharing_memops: int
    private_memops: int
    replay_cores: int
    #: Traces recorded for trace-replay (seeds ``seed`` ...), each with
    #: ``replay_memops`` per core. The replay work of one radiosity trace
    #: varied 6% between seeds; a rep replays them all to average it out.
    replay_traces: int
    replay_memops: int
    suite_memops: int
    suite_apps: Tuple[str, ...]
    #: Repetitions every run makes however fast it is; ``widir_speedup``
    #: is taken over exactly these, so it never depends on host speed.
    min_reps: int
    #: Untimed load before the first timed rep.
    warmup_seconds: float
    #: Warm live ``run_app`` repetitions for ``traces.replay_vs_live``.
    live_reps: int
    #: Fresh processes whose set-up is timed (median reported).
    setup_samples: int
    replay_setup_samples: int


FULL = Scales(
    cores=64,
    sharing_memops=800,
    private_memops=1600,
    replay_cores=16,
    replay_traces=4,
    replay_memops=5000,
    suite_memops=800,
    suite_apps=SUITE_APPS,
    min_reps=3,
    warmup_seconds=4.0,
    live_reps=3,
    setup_samples=5,
    replay_setup_samples=3,
)

SMOKE = Scales(
    cores=16,
    sharing_memops=100,
    private_memops=100,
    replay_cores=16,
    replay_traces=2,
    replay_memops=100,
    suite_memops=100,
    suite_apps=SUITE_APPS,
    min_reps=1,
    warmup_seconds=0.0,
    live_reps=1,
    setup_samples=1,
    replay_setup_samples=1,
)

#: Most pool workers the figure-suite workload starts (never above nproc).
SUITE_MAX_WORKERS = 2

#: Most timed reps in one run. The traced rep takes this index, which no
#: timed rep reaches, so its traces are fresh and its simulated counts do
#: not depend on how many reps fitted in ``--seconds``.
MAX_REPS = 1000

#: Index of the untimed warm-up reps.
WARMUP_INDEX = MAX_REPS + 1
