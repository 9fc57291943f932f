"""Per-application workload profiles.

One :class:`AppProfile` per paper application (Table IV lists the 20 apps and
their Baseline L1 MPKI). The knobs are calibrated so the *synthetic* app
reproduces the paper's characterization of the real one:

* ``paper_mpki`` (Table IV) is approached through the miss-producing knobs:
  ``cold_fraction`` (capacity misses from streaming) and the sharing knobs
  (coherence misses from invalidations);
* the Figure 5 sharer histogram is shaped by ``sharing_mix`` — how shared
  references spread over sharing-group sizes (at 64 cores, group sizes
  4/8/16/32/64 land in the paper's ≤5 / 6–10 / 11–25 / 26–49 / 50+ bins)
  plus lock/barrier traffic, which is always machine-wide;
* the Figure 8 behaviour (who speeds up) follows from how much of an app's
  miss traffic is *coherence* misses on widely shared lines (helped by
  WiDir) versus capacity misses (not helped).

The qualitative assignments follow the paper's narrative: *radiosity* is
dominated by machine-wide shared task queues (>90% of wireless writes update
50+ sharers); *ocean-nc*, *barnes*, *fmm*, *water-spa* have large sharer
counts; *blackscholes*, *bodytrack*, *dedup*, *ferret*, *freqmine* are
data-parallel with little fine-grain sharing and gain nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: (group_size, weight) pairs; weights need not sum to 1 (normalized on use).
SharingMix = Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class AppProfile:
    """Statistical description of one application's memory behaviour."""

    name: str
    suite: str                      # "splash3" | "parsec"
    paper_mpki: float               # Table IV, Baseline L1 MPKI
    mem_ratio: float = 0.30         # memory references per instruction
    hot_words: int = 64             # private hot working set (words)
    cold_fraction: float = 0.01     # private refs that stream (always miss)
    cold_region_lines: int = 8192   # streaming region length (lines)
    shared_fraction: float = 0.10   # refs to shared data
    shared_words: int = 64          # words per sharing-group region
    shared_write_fraction: float = 0.25
    #: Consecutive accesses to the same shared word per visit: real shared
    #: data is read repeatedly between remote writes (temporal locality),
    #: which is what makes most shared references L1 hits in the paper's
    #: Table IV MPKI numbers.
    shared_burst: int = 3
    sharing_mix: SharingMix = ((8, 1.0),)
    migratory_fraction: float = 0.0  # shared refs that are migratory RMW-ish
    locks: int = 4                  # distinct global lock lines
    lock_interval: int = 0          # memops between lock sections (0 = none)
    lock_spin_reads: int = 3
    lock_critical_ops: int = 4
    phases: int = 4                 # barrier-separated program phases
    barrier_spin_reads: int = 3
    load_block_fraction: float = 0.7  # loads with a nearby dependent use
    write_fraction: float = 0.30    # private refs that are writes

    def sharing_weights(self) -> Dict[int, float]:
        total = sum(w for _, w in self.sharing_mix)
        if total <= 0:
            return {}
        return {size: w / total for size, w in self.sharing_mix}


def _app(name: str, suite: str, mpki: float, **kwargs) -> AppProfile:
    return AppProfile(name=name, suite=suite, paper_mpki=mpki, **kwargs)


#: The paper's 20 applications (Table IV), calibrated qualitatively.
APP_PROFILES: Dict[str, AppProfile] = {
    # ----------------------------------------------------------- SPLASH-3
    "water-spa": _app(
        "water-spa", "splash3", 0.49,
        mem_ratio=0.20, cold_fraction=0.0005, shared_fraction=0.10,
        shared_words=24, shared_write_fraction=0.20, shared_burst=3,
        sharing_mix=((64, 0.6), (16, 0.4)),
        locks=8, lock_interval=450, phases=6,
    ),
    "water-nsq": _app(
        "water-nsq", "splash3", 2.86,
        mem_ratio=0.22, cold_fraction=0.006, shared_fraction=0.08,
        shared_words=48, shared_write_fraction=0.08, shared_burst=3,
        sharing_mix=((16, 0.6), (8, 0.4)),
        locks=8, lock_interval=800, phases=6,
    ),
    "ocean-nc": _app(
        "ocean-nc", "splash3", 16.05,
        mem_ratio=0.28, cold_fraction=0.035, cold_region_lines=16384,
        shared_fraction=0.22, shared_words=24, shared_write_fraction=0.10,
        shared_burst=3, sharing_mix=((64, 0.55), (32, 0.30), (16, 0.15)),
        locks=4, lock_interval=600, phases=8,
    ),
    "volrend": _app(
        "volrend", "splash3", 2.44,
        mem_ratio=0.23, cold_fraction=0.005, shared_fraction=0.09,
        shared_words=48, shared_write_fraction=0.14, shared_burst=3,
        sharing_mix=((16, 0.5), (4, 0.5)),
        locks=12, lock_interval=700, phases=4,
    ),
    "radiosity": _app(
        "radiosity", "splash3", 5.28,
        mem_ratio=0.24, cold_fraction=0.004, shared_fraction=0.28,
        shared_words=16, shared_write_fraction=0.25, shared_burst=3,
        sharing_mix=((64, 0.92), (8, 0.08)),  # >90% of updates reach 50+
        locks=16, lock_interval=240, lock_spin_reads=4, phases=4,
    ),
    "raytrace": _app(
        "raytrace", "splash3", 10.05,
        mem_ratio=0.26, cold_fraction=0.020, shared_fraction=0.18,
        shared_words=24, shared_write_fraction=0.14, shared_burst=3,
        sharing_mix=((64, 0.6), (16, 0.3), (4, 0.1)),
        locks=16, lock_interval=280, phases=4,
    ),
    "cholesky": _app(
        "cholesky", "splash3", 5.92,
        mem_ratio=0.25, cold_fraction=0.013, shared_fraction=0.12,
        shared_words=64, shared_write_fraction=0.12, shared_burst=3,
        sharing_mix=((16, 0.4), (8, 0.4), (32, 0.2)),
        locks=8, lock_interval=420, phases=5,
    ),
    "fft": _app(
        "fft", "splash3", 5.05,
        mem_ratio=0.27, cold_fraction=0.012, cold_region_lines=16384,
        shared_fraction=0.13, shared_words=32, shared_write_fraction=0.11,
        shared_burst=3, sharing_mix=((32, 0.4), (64, 0.4), (16, 0.2)),
        phases=6, lock_interval=0,
    ),
    "lu-nc": _app(
        "lu-nc", "splash3", 21.52,
        mem_ratio=0.30, cold_fraction=0.050, cold_region_lines=32768,
        shared_fraction=0.11, shared_words=64, shared_write_fraction=0.14,
        shared_burst=3, sharing_mix=((8, 0.6), (32, 0.4)),
        phases=8, lock_interval=0, load_block_fraction=0.8,
    ),
    "lu-c": _app(
        "lu-c", "splash3", 1.90,
        mem_ratio=0.24, cold_fraction=0.003, shared_fraction=0.10,
        shared_words=64, shared_write_fraction=0.14, shared_burst=3,
        sharing_mix=((32, 0.5), (8, 0.5)),
        phases=8, lock_interval=0,
    ),
    "radix": _app(
        "radix", "splash3", 9.41,
        mem_ratio=0.28, cold_fraction=0.022, cold_region_lines=16384,
        shared_fraction=0.09, shared_words=48, shared_write_fraction=0.20,
        shared_burst=3, sharing_mix=((16, 0.5), (64, 0.25), (4, 0.25)),
        phases=6, lock_interval=0,
    ),
    "barnes": _app(
        "barnes", "splash3", 9.53,
        mem_ratio=0.26, cold_fraction=0.016, shared_fraction=0.26,
        shared_words=24, shared_write_fraction=0.13, shared_burst=3,
        sharing_mix=((64, 0.65), (16, 0.35)),
        locks=16, lock_interval=300, phases=5,
    ),
    "fmm": _app(
        "fmm", "splash3", 1.88,
        mem_ratio=0.22, cold_fraction=0.002, shared_fraction=0.15,
        shared_words=32, shared_write_fraction=0.12, shared_burst=3,
        sharing_mix=((64, 0.5), (32, 0.3), (8, 0.2)),
        locks=12, lock_interval=380, phases=5,
    ),
    # ------------------------------------------------------------- PARSEC
    "blackscholes": _app(
        "blackscholes", "parsec", 0.13,
        mem_ratio=0.18, cold_fraction=0.0002, shared_fraction=0.005,
        shared_words=64, shared_write_fraction=0.05, shared_burst=3,
        sharing_mix=((4, 1.0),),
        phases=2, lock_interval=0, load_block_fraction=0.5,
    ),
    "bodytrack": _app(
        "bodytrack", "parsec", 7.51,
        mem_ratio=0.26, cold_fraction=0.021, cold_region_lines=16384,
        shared_fraction=0.03, shared_words=96, shared_write_fraction=0.10,
        shared_burst=3, sharing_mix=((4, 0.7), (8, 0.3)),
        locks=6, lock_interval=800, phases=4, load_block_fraction=0.6,
    ),
    "canneal": _app(
        "canneal", "parsec", 23.21,
        mem_ratio=0.30, cold_fraction=0.058, cold_region_lines=65536,
        shared_fraction=0.09, shared_words=384, shared_write_fraction=0.12,
        shared_burst=2, sharing_mix=((8, 0.5), (2, 0.3), (32, 0.2)),
        migratory_fraction=0.3, phases=3, lock_interval=0,
        load_block_fraction=0.85,
    ),
    "dedup": _app(
        "dedup", "parsec", 4.10,
        mem_ratio=0.25, cold_fraction=0.011, shared_fraction=0.025,
        shared_words=96, shared_write_fraction=0.12, shared_burst=3,
        sharing_mix=((2, 0.6), (4, 0.4)),
        locks=8, lock_interval=700, phases=3, load_block_fraction=0.6,
    ),
    "fluidanimate": _app(
        "fluidanimate", "parsec", 1.27,
        mem_ratio=0.23, cold_fraction=0.002, shared_fraction=0.06,
        shared_words=128, shared_write_fraction=0.12, shared_burst=3,
        sharing_mix=((4, 0.6), (8, 0.4)),
        locks=24, lock_interval=450, phases=5,
    ),
    "ferret": _app(
        "ferret", "parsec", 6.34,
        mem_ratio=0.26, cold_fraction=0.017, shared_fraction=0.025,
        shared_words=96, shared_write_fraction=0.10, shared_burst=3,
        sharing_mix=((2, 0.5), (4, 0.5)),
        locks=8, lock_interval=800, phases=3, load_block_fraction=0.6,
    ),
    "freqmine": _app(
        "freqmine", "parsec", 8.84,
        mem_ratio=0.28, cold_fraction=0.024, cold_region_lines=32768,
        shared_fraction=0.02, shared_words=96, shared_write_fraction=0.10,
        shared_burst=3, sharing_mix=((4, 0.7), (8, 0.3)),
        phases=3, lock_interval=0, load_block_fraction=0.65,
    ),
}

#: Stable presentation order (paper tables list SPLASH-3 first).
ALL_APPS: Tuple[str, ...] = tuple(APP_PROFILES)


def resolve_profile(app) -> AppProfile:
    """The profile for ``app``: a profile itself, or a name to look up."""
    if isinstance(app, AppProfile):
        return app
    try:
        return APP_PROFILES[app]
    except KeyError:
        raise KeyError(
            f"unknown application {app!r}; known apps: {sorted(APP_PROFILES)}"
        ) from None
