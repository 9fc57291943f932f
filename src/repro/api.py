"""``repro.api`` — the stable, supported public API.

Four PRs of organic growth scattered entry points across
``repro.harness.runner``, ``repro.harness.executor``, ``repro.verify`` and
the CLI. This module is the one import users should reach for::

    from repro import api

    result = api.simulate("radiosity", cores=16)
    diff   = api.compare("radiosity", cores=16)
    grid   = api.sweep("protocols", apps=("radiosity", "fmm"), cores=16)
    report = api.campaign("nightly", apps=("radiosity",), out="campaigns/n1")
    checks = api.verify(campaign="smoke")
    traced = api.trace("radiosity", cores=8)
    info   = api.record_trace("radix", out="radix.wtr", cores=8)
    again  = api.replay("radix.wtr")

Stability contract (see docs/API.md):

* every name in ``__all__`` keeps its signature and result type across
  minor releases; additions are keyword-only with defaults;
* replaced entry points keep working for one release behind
  ``DeprecationWarning`` shims, then go (the 1.1 shims went in 1.2, the
  result-store keywords of ``distributed_campaign`` deprecated in 1.3
  went in 1.4; its ``shards=``, a no-op in 1.5, went in 1.6);
* importing this module stays cheap: nothing beyond what
  ``repro.harness`` already loads — verification, observability export,
  and campaign machinery are imported lazily inside the functions that
  need them.

Every function returns a *typed* result object (never a bare tuple or
dict): :class:`~repro.harness.runner.SimulationResult`,
:class:`ComparisonResult`, :class:`SweepResult`,
:class:`~repro.harness.campaign.CampaignReport`, :class:`VerifyReport`,
or :class:`TraceResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.coherence.backend import backend_names
from repro.config.presets import protocol_config
from repro.config.system import SystemConfig
from repro.harness.executor import Executor
from repro.harness.runner import SimulationResult
from repro.wireless.mac import registered_macs

__all__ = [
    "ComparisonResult",
    "MacInfo",
    "SweepResult",
    "TraceFileInfo",
    "TraceResult",
    "VerifyReport",
    "campaign",
    "compare",
    "convert_trace",
    "distributed_campaign",
    "macs",
    "protocols",
    "record_trace",
    "replay",
    "simulate",
    "sweep",
    "trace",
    "trace_info",
    "validate_trace",
    "verify",
]

_SWEEP_KINDS = ("protocols", "cores", "thresholds")


def protocols() -> Tuple[str, ...]:
    """Names of every registered coherence-protocol backend, sorted."""
    return backend_names()


@dataclass(frozen=True)
class MacInfo:
    """Capability card of one registered wireless MAC backend
    (:func:`macs`)."""

    name: str
    description: str
    collision_free: bool
    uses_backoff: bool
    multi_channel: bool


def macs() -> Tuple[MacInfo, ...]:
    """Every registered wireless MAC backend, sorted by name.

    Returns :class:`MacInfo` cards rather than bare names so callers can
    filter on capabilities (``[m.name for m in api.macs() if
    m.collision_free]``); pass a name to ``simulate(mac=...)`` /
    ``sweep(macs=...)`` / ``campaign(macs=...)``.
    """
    return tuple(
        MacInfo(
            name=backend.name,
            description=backend.description,
            collision_free=backend.collision_free,
            uses_backoff=backend.uses_backoff,
            multi_channel=backend.multi_channel,
        )
        for backend in registered_macs()
    )


def _executor(workers: Optional[int], cache: bool) -> Executor:
    return Executor(workers=workers, use_cache=None if cache else False)


# ------------------------------------------------------------ result types


@dataclass(frozen=True)
class ComparisonResult:
    """Baseline vs WiDir on identical traces (:func:`compare`)."""

    app: str
    baseline: SimulationResult
    widir: SimulationResult

    @property
    def speedup(self) -> float:
        """Baseline cycles / WiDir cycles (> 1.0: WiDir is faster)."""
        return self.baseline.cycles / max(1, self.widir.cycles)

    @property
    def energy_ratio(self) -> float:
        """WiDir energy / Baseline energy."""
        return self.widir.energy.total / max(1e-12, self.baseline.energy.total)

    @property
    def mpki_ratio(self) -> float:
        return self.widir.mpki / self.baseline.mpki if self.baseline.mpki else 1.0


@dataclass(frozen=True)
class SweepResult:
    """A labelled grid of results (:func:`sweep`).

    ``missing`` is non-empty only when sweeping against a degraded
    campaign's results (see :func:`campaign`): the sweep then renders from
    what completed instead of aborting.
    """

    kind: str
    results: Dict[str, SimulationResult]
    missing: Tuple[str, ...] = ()

    @property
    def partial(self) -> bool:
        return bool(self.missing)

    def __getitem__(self, label: str) -> SimulationResult:
        return self.results[label]

    def __iter__(self):
        return iter(self.results.items())

    def __len__(self) -> int:
        return len(self.results)

    def speedups(self) -> Dict[str, float]:
        """app -> WiDir speedup, for sweeps that ran both protocols."""
        from repro.harness.sweeps import speedup_table

        return speedup_table(self.results)


@dataclass(frozen=True)
class VerifyReport:
    """Protocol verification outcome (:func:`verify`)."""

    campaign: str
    seed: int
    litmus_violations: Tuple[str, ...]
    fuzz_failures: Tuple[str, ...]
    digest: str
    artifacts: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.litmus_violations and not self.fuzz_failures


@dataclass(frozen=True)
class TraceFileInfo:
    """Summary of a canonical trace file (:func:`record_trace`,
    :func:`convert_trace`, :func:`trace_info`, :func:`validate_trace`).

    ``trace_id`` is the content digest the replay/caching layers key on;
    ``details`` carries the full :func:`repro.traces.trace_info` payload
    (per-core record/barrier counts, metadata, compression ratio).
    """

    path: str
    app: str
    num_cores: int
    chunks: int
    records: int
    trace_id: str
    codec: str = ""
    file_bytes: int = 0
    compression_ratio: float = 0.0
    details: Dict = None  # type: ignore[assignment]

    @classmethod
    def _from_payload(cls, payload: Dict) -> "TraceFileInfo":
        return cls(
            path=payload["path"],
            app=payload.get("app", ""),
            num_cores=payload.get("num_cores", 0),
            chunks=payload.get("chunks", 0),
            records=payload.get("records", 0),
            trace_id=payload.get("trace_id", ""),
            codec=payload.get("codec", ""),
            file_bytes=payload.get("file_bytes", 0),
            compression_ratio=payload.get("compression_ratio", 0.0),
            details=dict(payload),
        )


@dataclass(frozen=True)
class TraceResult:
    """A simulation plus its observability capture (:func:`trace`)."""

    result: SimulationResult
    capture: Dict

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        """Export the capture as Chrome/Perfetto ``trace.json``."""
        from repro.obs import write_chrome_trace

        path = Path(path)
        write_chrome_trace(self.capture, path)
        return path

    def timeline(self, limit: int = 40) -> str:
        from repro.obs import render_text_timeline

        return render_text_timeline(self.capture, limit=limit)


# -------------------------------------------------------------- functions


def simulate(
    app: str,
    *,
    protocol: str = "widir",
    cores: int = 16,
    memops: Optional[int] = None,
    seed: int = 42,
    trace_seed: int = 0,
    max_wired_sharers: int = 3,
    config: Optional[SystemConfig] = None,
    workers: Optional[int] = None,
    cache: bool = True,
    mac: str = "brs",
) -> SimulationResult:
    """Run one application on one machine; the stable ``run_app``.

    Executes through the deduplicating/memoizing
    :class:`~repro.harness.executor.Executor`, so repeated calls with
    identical arguments are cache hits. ``mac`` selects the wireless MAC
    backend for wireless protocols (see :func:`macs`; ignored by wired
    ones). Pass ``config=`` to override the preset entirely
    (``protocol``/``cores``/``seed``/``mac`` are then ignored).
    """
    if config is None:
        config = protocol_config(
            protocol, cores, max_wired_sharers=max_wired_sharers, seed=seed,
            mac=mac,
        )
    return _executor(workers, cache).run(app, config, memops, trace_seed)


def compare(
    app: str,
    *,
    cores: int = 16,
    memops: Optional[int] = None,
    seed: int = 42,
    trace_seed: int = 0,
    max_wired_sharers: int = 3,
    workers: Optional[int] = None,
    cache: bool = True,
) -> ComparisonResult:
    """Baseline vs WiDir on the same traces; the stable ``run_pair``."""
    base, widir = _executor(workers, cache).run_pair(
        app,
        num_cores=cores,
        memops_per_core=memops,
        trace_seed=trace_seed,
        max_wired_sharers=max_wired_sharers,
        seed=seed,
    )
    return ComparisonResult(app=app, baseline=base, widir=widir)


def sweep(
    kind: str = "protocols",
    *,
    apps: Sequence[str] = (),
    app: Optional[str] = None,
    cores: Union[int, Sequence[int]] = 16,
    thresholds: Sequence[int] = (2, 3, 4, 5),
    memops: Optional[int] = None,
    seed: int = 42,
    workers: Optional[int] = None,
    cache: bool = True,
    executor: Optional[Executor] = None,
    protocols: Sequence[str] = ("baseline", "widir"),
    macs: Sequence[str] = ("brs",),
) -> SweepResult:
    """Run a labelled grid: ``"protocols"``, ``"cores"``, or ``"thresholds"``.

    * ``protocols`` — every app on every backend in ``protocols`` at
      the first of ``cores`` (default: Baseline and WiDir; any
      registered backend name is accepted, see :func:`repro.api.protocols`);
    * ``cores`` — one ``app`` across ``cores`` (a sequence), every
      backend in ``protocols``;
    * ``thresholds`` — one ``app`` on WiDir across MaxWiredSharers
      ``thresholds``, at the first of ``cores``.

    ``macs`` crosses every wireless protocol in the grid with the named
    MAC backends (wired protocols run once regardless; see :func:`macs`) —
    combined with ``kind="thresholds"`` this is the full MAC x protocol x
    threshold matrix. The points are :func:`repro.harness.sweeps.grid`'s,
    the same a campaign of that kind declares. Pass ``executor=`` to
    render from an existing campaign (``Campaign.result_source()``);
    missing runs then degrade into ``SweepResult.missing`` instead of
    raising.
    """
    from repro.harness.sweeps import grid, run_grid

    if kind not in _SWEEP_KINDS:
        raise ValueError(
            f"unknown sweep kind {kind!r}; expected one of {_SWEEP_KINDS}"
        )
    counts = (cores,) if isinstance(cores, int) else tuple(cores)
    if kind == "protocols":
        if not apps:
            raise ValueError("sweep('protocols') needs apps=(...)")
        targets = tuple(apps)
    else:
        target = app if app is not None else (apps[0] if apps else None)
        if target is None:
            raise ValueError(f"sweep({kind!r}) needs app=...")
        targets = (target,)
    if kind != "cores":
        counts = counts[:1]  # one machine size; "cores" crosses them all
    points = grid(
        "thresholds" if kind == "thresholds" else "protocols", targets,
        counts, tuple(thresholds), tuple(protocols), tuple(macs), seed,
    )
    exe = executor if executor is not None else _executor(workers, cache)
    results = run_grid(points, exe, memops)
    missing = tuple(label for label, _, _ in points if label not in results)
    return SweepResult(kind=kind, results=results, missing=missing)


def _campaign_spec(
    name: str,
    kind: str,
    apps: Sequence[str],
    cores: Union[int, Sequence[int]],
    thresholds: Sequence[int],
    memops: Optional[int],
    seed: int,
    trace_seed: int,
    protocols: Sequence[str],
    trace_path: Optional[Union[str, Path]],
    trace_shards: int,
    macs: Sequence[str] = ("brs",),
):
    from repro.harness.campaign import CampaignSpec

    if trace_path is not None:
        kind = "trace"
    elif kind == "cores":
        kind = "protocols"  # the protocols grid already crosses ``cores``
    return CampaignSpec(
        name=name,
        kind=kind,
        apps=tuple(apps),
        cores=(cores,) if isinstance(cores, int) else tuple(cores),
        memops=memops,
        seed=seed,
        thresholds=tuple(thresholds),
        trace_seed=trace_seed,
        protocols=tuple(protocols),
        macs=tuple(macs),
        trace_path=str(trace_path) if trace_path is not None else "",
        trace_shards=trace_shards,
    )


def campaign(
    name: str,
    *,
    apps: Sequence[str] = (),
    out: Union[str, Path],
    kind: str = "protocols",
    cores: Union[int, Sequence[int]] = 16,
    thresholds: Sequence[int] = (2, 3, 4, 5),
    memops: Optional[int] = None,
    seed: int = 42,
    trace_seed: int = 0,
    workers: Optional[int] = None,
    cache: bool = True,
    timeout: Optional[float] = None,
    retries: int = 3,
    backoff_seed: int = 0,
    resume: bool = True,
    protocols: Sequence[str] = ("baseline", "widir"),
    trace_path: Optional[Union[str, Path]] = None,
    trace_shards: int = 0,
    macs: Sequence[str] = ("brs",),
):
    """Run (or resume) a fault-tolerant campaign; returns a
    :class:`~repro.harness.campaign.CampaignReport`.

    The campaign journals completed runs to a crash-safe checkpoint under
    ``out``; rerunning after any interruption resumes exactly where it
    died, and the aggregate ``results.json``/``digest.txt`` are
    byte-identical to an uninterrupted execution. ``workers`` local agents
    execute the runs, each within ``timeout`` seconds (``None``: no
    limit). Failed runs are retried ``retries`` times with seeded
    exponential backoff, then surfaced in the provenance manifest while
    the rest of the sweep completes.

    ``kind`` takes the :func:`sweep` kinds, crossed over every app and
    every core count: ``"protocols"`` (``"cores"`` is the same grid) or
    ``"thresholds"`` (per app and core count, Baseline, then WiDir at each
    of ``thresholds``). Any other kind raises ``ValueError`` before
    anything is written. Pass ``trace_path=`` (optionally with
    ``trace_shards=``) to fan a recorded trace file across barrier-safe
    shard windows instead of synthesizing workloads; ``apps`` is then
    ignored (the app name comes from the trace header).
    """
    from repro.harness.campaign import run_campaign
    from repro.harness.supervisor import RetryPolicy

    spec = _campaign_spec(
        name, kind, apps, cores, thresholds, memops, seed, trace_seed,
        protocols, trace_path, trace_shards, macs,
    )
    executor = _executor(workers, cache)
    return run_campaign(
        Path(out),
        spec,
        resume=resume,
        workers=executor.workers,  # at least one local agent
        executor=executor,
        retry=RetryPolicy(max_attempts=retries, seed=backoff_seed),
        lease_timeout=timeout,
    )


def distributed_campaign(
    name: str,
    *,
    apps: Sequence[str] = (),
    out: Union[str, Path],
    kind: str = "protocols",
    cores: Union[int, Sequence[int]] = 16,
    thresholds: Sequence[int] = (2, 3, 4, 5),
    memops: Optional[int] = None,
    seed: int = 42,
    trace_seed: int = 0,
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    cache: bool = True,
    retries: int = 3,
    backoff_seed: int = 0,
    lease_timeout: float = 120.0,
    timeout: Optional[float] = None,
    protocols: Sequence[str] = ("baseline", "widir"),
    trace_path: Optional[Union[str, Path]] = None,
    trace_shards: int = 0,
    macs: Sequence[str] = ("brs",),
):
    """Run (or resume) a campaign across ``workers`` distributed agents;
    returns a :class:`~repro.harness.campaign.CampaignReport`.

    The same engine as :func:`campaign`, serving remote agents too: an
    asyncio coordinator queues the run matrix in plan order, worker
    agents lease/execute/report over the RPC protocol, and completions
    land in the crash-safe journal. The ``results.json`` sha256 is
    byte-identical to :func:`campaign` on the same plan — the
    resume-identity contract extends across worker counts and kills.
    ``workers=0`` serves remote agents only (pair with
    ``repro campaign worker --connect``). ``lease_timeout`` is the per-run
    budget, ``timeout`` the whole campaign's.
    ``trace_path=``/``trace_shards=`` fan a recorded trace's barrier-safe
    shard windows across the workers (trace-sharded campaigns; each
    window replays cold on whichever worker leases it). With
    ``cache=True``, a run already in the executor's result cache
    (``REPRO_CACHE_DIR``) completes without reaching a worker.
    """
    from repro.harness.campaign import run_campaign
    from repro.harness.supervisor import RetryPolicy

    spec = _campaign_spec(
        name, kind, apps, cores, thresholds, memops, seed, trace_seed,
        protocols, trace_path, trace_shards, macs,
    )
    return run_campaign(
        Path(out),
        spec,
        workers=workers,
        host=host,
        port=port,
        executor=_executor(1, cache),
        retry=RetryPolicy(max_attempts=retries, seed=backoff_seed),
        lease_timeout=lease_timeout,
        timeout=timeout,
    )


def verify(
    *,
    campaign: str = "smoke",
    seed: int = 0,
    trials: Optional[int] = None,
    litmus: bool = True,
    litmus_schedules: int = 6,
    mutation: Optional[str] = None,
) -> VerifyReport:
    """Run a protocol-verification campaign (litmus suite + fuzzing)."""
    from repro.verify.fuzz import CAMPAIGNS, run_campaign as run_fuzz
    from repro.verify.litmus import run_suite

    if campaign not in CAMPAIGNS:
        raise ValueError(
            f"unknown verify campaign {campaign!r}; "
            f"available: {sorted(CAMPAIGNS)}"
        )
    violations: List[str] = []
    if litmus:
        for outcome in run_suite(
            num_cores=8,
            schedules=litmus_schedules,
            seed=seed,
            online_interval=150,
        ):
            violations.extend(str(v) for v in outcome.violations)
    fuzz = run_fuzz(campaign, seed=seed, trials=trials, mutation=mutation)
    return VerifyReport(
        campaign=campaign,
        seed=seed,
        litmus_violations=tuple(violations),
        fuzz_failures=tuple(str(f) for f in fuzz.failures),
        digest=fuzz.digest,
    )


def trace(
    app: str,
    *,
    protocol: str = "widir",
    cores: int = 16,
    memops: Optional[int] = None,
    seed: int = 42,
    trace_seed: int = 0,
    max_wired_sharers: int = 3,
    sample_interval: Optional[int] = None,
    flight_recorder_depth: Optional[int] = None,
    mac: str = "brs",
) -> TraceResult:
    """Run one app with the observability layer enabled.

    Tracing is digest-neutral: ``TraceResult.result`` is bit-identical to
    the same :func:`simulate` call (the trace-smoke CI job enforces it).
    Runs in-process (no executor/cache) because the capture must be read
    from the live machine.
    """
    from dataclasses import replace

    from repro.config.system import ObsConfig
    from repro.harness.runner import run_app

    defaults = ObsConfig()
    config = replace(
        protocol_config(
            protocol, cores, max_wired_sharers=max_wired_sharers, seed=seed,
            mac=mac,
        ),
        obs=ObsConfig(
            enabled=True,
            flight_recorder_depth=(
                flight_recorder_depth
                if flight_recorder_depth is not None
                else defaults.flight_recorder_depth
            ),
            sample_interval=(
                sample_interval
                if sample_interval is not None
                else defaults.sample_interval
            ),
        ),
    )
    sink: List = []
    result = run_app(
        app, config, memops, trace_seed=trace_seed, machine_sink=sink
    )
    machine, run_cores = sink
    capture = machine.obs.capture(app=app)
    machine.release(run_cores)
    return TraceResult(result=result, capture=capture)


# ------------------------------------------------- recorded-trace functions


def record_trace(
    app: str,
    *,
    out: Union[str, Path],
    cores: int = 16,
    memops: int = 800,
    trace_seed: int = 0,
    chunk_records: Optional[int] = None,
    codec: Optional[str] = None,
) -> TraceFileInfo:
    """Record ``app``'s synthetic reference stream into the canonical
    chunked/compressed trace format at ``out``.

    Cores are synthesized and written one at a time, so peak memory is
    one core's synthesized trace, O(trace ÷ cores), plus a chunk buffer
    per core. The returned
    :class:`TraceFileInfo` carries the content ``trace_id`` the replay
    and caching layers verify against.
    """
    from repro.traces import DEFAULT_CHUNK_RECORDS, record_app_trace

    payload = record_app_trace(
        out,
        app,
        cores,
        memops,
        trace_seed=trace_seed,
        chunk_records=(
            chunk_records if chunk_records is not None else DEFAULT_CHUNK_RECORDS
        ),
        codec=codec,
    )
    return TraceFileInfo._from_payload(payload)


def convert_trace(
    src: Union[str, Path],
    *,
    out: Union[str, Path],
    cores: Optional[int] = None,
    app: str = "imported",
    chunk_records: Optional[int] = None,
    codec: Optional[str] = None,
) -> TraceFileInfo:
    """Convert an external CSV/text op listing into the canonical format.

    Both passes stream line-by-line (``cores`` defaults to ``max(core)+1``
    discovered in the first pass), so arbitrarily large inputs convert in
    bounded memory.
    """
    from repro.traces import DEFAULT_CHUNK_RECORDS, convert_csv

    payload = convert_csv(
        src,
        out,
        num_cores=cores,
        app=app,
        chunk_records=(
            chunk_records if chunk_records is not None else DEFAULT_CHUNK_RECORDS
        ),
        codec=codec,
    )
    return TraceFileInfo._from_payload(payload)


def trace_info(path: Union[str, Path]) -> TraceFileInfo:
    """Header + footer-index summary of a trace file (no payload reads)."""
    from repro.traces import trace_info as _info

    return TraceFileInfo._from_payload(_info(path))


def validate_trace(path: Union[str, Path]) -> TraceFileInfo:
    """Full-scan integrity check (decompress + CRC every chunk).

    Raises :class:`repro.traces.TraceCorruptionError` /
    :class:`repro.traces.TraceFormatError` on the first problem.
    """
    from repro.traces import validate_trace as _validate

    return TraceFileInfo._from_payload(_validate(path))


def replay(
    path: Union[str, Path],
    *,
    protocol: str = "widir",
    seed: int = 42,
    max_wired_sharers: int = 3,
    config: Optional[SystemConfig] = None,
    snapshot_every: int = 0,
    mac: str = "brs",
    snapshot_path: Optional[Union[str, Path]] = None,
    expect_trace_id: str = "",
) -> SimulationResult:
    """Replay a recorded trace through the full machine.

    A continuous replay (``snapshot_every=0``) is event-for-event
    identical to the live run that recorded the trace — same result
    digest. ``snapshot_every > 0`` selects segmented execution with
    periodic machine snapshots; give ``snapshot_path`` to make them
    durable so a killed replay resumes mid-trace with a byte-identical
    final digest. The core count comes from the trace header.
    """
    from repro.traces import replay_trace
    from repro.traces import trace_info as _info

    if config is None:
        config = protocol_config(
            protocol, _info(path)["num_cores"],
            max_wired_sharers=max_wired_sharers, seed=seed, mac=mac,
        )
    return replay_trace(
        path,
        config,
        snapshot_every=snapshot_every,
        snapshot_path=snapshot_path,
        expect_trace_id=expect_trace_id,
    )
