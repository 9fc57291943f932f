"""The four workloads and the measurement loop that runs one of them.

The loop is closed, with one client: one repetition (rep) at a time, each
starting when the previous one has finished. Rep ``i`` synthesizes its
traces from seed ``seed + i``, so every rep pays trace synthesis as a
real figure point does, and two runs with the same seed do identical
simulated work. The cyclic garbage collector runs before each timed rep
and is disabled during it. After an untimed warm-up, reps repeat until
``seconds`` have passed and at least ``min_reps`` have run. Times are
reference seconds (``speed.py``).

When traced, one more rep runs under cProfile; its results must be
digest-identical to an untraced run of the same seed, and it supplies the
per-layer numbers (``layers.py``).

Importing this module imports the simulator, so the caller imports it
inside the timed set-up.
"""

import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import bench_config
from layers import (
    LAYERS,
    LayerMap,
    boundary_times,
    self_time_by_layer,
    simulated_counts,
)

import repro
from repro.config.presets import baseline_config, widir_config
from repro.engine.simulator import Simulator
from repro.harness.executor import Executor, ExperimentPlan
from repro.harness.runner import run_app, run_pair
from repro.traces import available_codec, record_app_trace, replay_trace, result_digest

MACHINE_SEED = bench_config.MACHINE_SEED
#: Probe samples taken right after set-up to calibrate it.
SETUP_BURST = 40


class Tally:
    """Simulation runs attempted and failed, and why each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, runs: int, why: str) -> None:
        self.failed += runs
        self.errors.append(why)
        print(f"FAILED: {why}", file=sys.stderr)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.fail(1, why)


class Timer:
    """Times calls with the cyclic collector isolated."""

    def __init__(self, speed, children: bool = False) -> None:
        self.speed = speed
        #: Whether the timed work runs in forked children (the pool).
        self.children = children

    def __call__(self, fn):
        """Returns (reference seconds, host seconds, ``fn()``)."""
        gc.collect()
        gc.disable()
        try:
            start = time.monotonic()
            value = fn()
            end = time.monotonic()
        finally:
            gc.enable()
        host = end - start
        return host * self.speed.factor(start, end, self.children), host, value


class Rep:
    """The outcome of one repetition."""

    def __init__(self, results, pairs, sim_s=0.0, pool_wall=0.0):
        self.results = results
        #: (Baseline, WiDir) results driven by the same traces.
        self.pairs = pairs
        #: Reference and host seconds of the whole rep.
        self.wall = 0.0
        self.host_wall = 0.0
        #: Host seconds the executor's simulations took, summed, and its
        #: ``map_runs`` wall (figure-suite-cold only).
        self.sim_s = sim_s
        self.pool_wall = pool_wall

    @property
    def instructions(self) -> int:
        return sum(result.instructions for result in self.results)

    @property
    def sim_reference_s(self) -> float:
        return self.sim_s * self.wall / self.host_wall


class Workload:
    """Defaults shared by the workloads below."""

    runs_per_rep = 1
    #: Trace records one rep decodes from a ``.wtr`` file.
    records = 0
    #: Whether the simulations run in forked children (the pool).
    has_children = False

    def setup(self, timer) -> float:
        """Work done before the first timed rep; returns its recording
        time in reference seconds."""
        return 0.0

    def rep(self, index: int, traced: bool = False) -> Rep:
        raise NotImplementedError

    def check_rep(self, index, rep, tally, traced=False) -> None:
        """Checks that need more than the rep's results (untimed)."""

    def reference(self, index, reps, tally) -> list:
        """Untraced results of rep ``index``, for the traced rep to match."""
        tally.attempted += self.runs_per_rep
        rep = self.rep(index)
        self.check_rep(index, rep, tally)
        return rep.results

    def finish(self, reps, tally, trace, timer) -> dict:
        """Checks and metrics that run once, after the timed reps."""
        return {}

    def serial_seconds(self, reps) -> float:
        """Reference seconds of one rep's simulations, run serially."""
        return statistics.median(rep.wall for rep in reps)


class PairWorkload(Workload):
    """One app on the Baseline and the WiDir machine, on the same traces."""

    runs_per_rep = 2

    def __init__(self, app, memops, scales, seed):
        self.app = app
        self.memops = memops
        self.cores = scales.cores
        self.seed = seed

    def rep(self, index, traced=False) -> Rep:
        base, widir = run_pair(
            self.app,
            num_cores=self.cores,
            memops_per_core=self.memops,
            trace_seed=self.seed + index,
            seed=MACHINE_SEED,
        )
        return Rep([base, widir], [(base, widir)])


class SuiteWorkload(Workload):
    """The figure 6-9 path: six apps x {Baseline, WiDir} through the
    executor's fork pool, with a fresh private result cache per rep."""

    has_children = True

    def __init__(self, scales, seed, workdir):
        self.apps = scales.suite_apps
        self.cores = scales.cores
        self.memops = scales.suite_memops
        self.seed = seed
        self.workdir = workdir
        self.workers = min(bench_config.SUITE_MAX_WORKERS, os.cpu_count() or 1)
        self.runs_per_rep = 2 * len(self.apps)
        # Pool children fork from a process whose collector the timer has
        # just disabled. They collect as in a figure run; with it off, each
        # would keep every machine it built.
        os.register_at_fork(after_in_child=gc.enable)

    def _plan(self, index) -> ExperimentPlan:
        plan = ExperimentPlan()
        for app in self.apps:
            plan.add_pair(
                app,
                num_cores=self.cores,
                memops=self.memops,
                trace_seed=self.seed + index,
                seed=MACHINE_SEED,
            )
        return plan

    def _cache_dir(self, index, traced) -> Path:
        return self.workdir / f"cache-{index}{'-traced' if traced else ''}"

    def rep(self, index, traced=False) -> Rep:
        # The traced rep runs in-process so the profiler sees every layer;
        # the pool's own cost shows in harness.pool_efficiency instead.
        executor = Executor(
            workers=1 if traced else self.workers,
            cache_dir=self._cache_dir(index, traced),
            use_cache=True,
        )
        results = executor.map_runs(self._plan(index))
        return Rep(
            results,
            list(zip(results[0::2], results[1::2])),
            sim_s=executor.stats.sim_seconds,
            pool_wall=executor.stats.wall_seconds,
        )

    def check_rep(self, index, rep, tally, traced=False) -> None:
        """Read the rep back from its cache: every run must be a hit whose
        payload equals the fresh result."""
        cache_dir = self._cache_dir(index, traced)
        reader = Executor(workers=1, cache_dir=cache_dir, use_cache=True)
        cached = reader.map_runs(self._plan(index))
        tally.check(
            reader.stats.executed == 0,
            f"rep {index}: {reader.stats.executed} runs missed the result cache",
        )
        for fresh, again in zip(rep.results, cached):
            tally.check(
                result_digest(fresh) == result_digest(again),
                f"rep {index}: {fresh.app} cached result differs from the fresh one",
            )
        shutil.rmtree(cache_dir, ignore_errors=True)

    def finish(self, reps, tally, trace, timer) -> dict:
        return {
            "harness.sim_s": self.serial_seconds(reps),
            "harness.pool_efficiency": statistics.median(
                rep.sim_s / (self.workers * rep.pool_wall) for rep in reps
            ),
        }

    def serial_seconds(self, reps) -> float:
        return statistics.median(rep.sim_reference_s for rep in reps)


class ReplayWorkload(Workload):
    """Record traces in set-up, then replay them on the WiDir machine."""

    app = "radiosity"

    def __init__(self, scales, seed, workdir):
        self.cores = scales.replay_cores
        self.memops = scales.replay_memops
        self.live_reps = scales.live_reps
        self.seeds = [seed + k for k in range(scales.replay_traces)]
        self.paths = [workdir / f"replay-{k}.wtr" for k in range(scales.replay_traces)]
        self.runs_per_rep = scales.replay_traces

    def _config(self, factory):
        return factory(num_cores=self.cores, seed=MACHINE_SEED)

    def _replay(self, factory) -> list:
        return [replay_trace(path, self._config(factory)) for path in self.paths]

    def _live(self) -> list:
        config = self._config(widir_config)
        return [run_app(self.app, config, self.memops, seed) for seed in self.seeds]

    def setup(self, timer) -> float:
        def record():
            return sum(
                record_app_trace(
                    path, self.app, self.cores, self.memops, trace_seed=seed
                )["records"]
                for path, seed in zip(self.paths, self.seeds)
            )

        seconds, _, self.records = timer(record)
        return seconds

    def rep(self, index, traced=False) -> Rep:
        return Rep(self._replay(widir_config), [])

    def reference(self, index, reps, tally) -> list:
        # Every rep replays the same files; finish() checks they all agree.
        return reps[0].results

    def finish(self, reps, tally, trace, timer) -> dict:
        """Check replay against live and Baseline; time warm live runs."""
        widir = reps[0].results
        replayed = [result_digest(result) for result in widir]
        for index, rep in enumerate(reps):
            tally.check(
                [result_digest(result) for result in rep.results] == replayed,
                f"replay rep {index} differs from replay rep 0",
            )
        tally.attempted += 2 * len(self.paths)
        tally.check(
            [result_digest(result) for result in self._live()] == replayed,
            "replay and live run_app digests differ",
        )
        pairs = list(zip(self._replay(baseline_config), widir))
        for base, wireless in pairs:
            tally.check(
                base.instructions == wireless.instructions,
                "Baseline and WiDir replays retired different instruction counts",
            )
        extra = {"pairs": pairs}
        if trace:
            # The live runs above synthesized and memoized the traces, so
            # these are warm: the ratio leaves trace synthesis out.
            tally.attempted += self.live_reps * len(self.paths)
            live = [timer(self._live)[0] for _ in range(self.live_reps)]
            extra["traces.replay_vs_live"] = statistics.median(
                rep.wall for rep in reps
            ) / statistics.median(live)
        return extra


def make_workload(name, scales, seed, workdir) -> Workload:
    if name == "sharing-pair":
        return PairWorkload("radiosity", scales.sharing_memops, scales, seed)
    if name == "private-pair":
        return PairWorkload("blackscholes", scales.private_memops, scales, seed)
    if name == "trace-replay":
        return ReplayWorkload(scales, seed, workdir)
    if name == "figure-suite-cold":
        return SuiteWorkload(scales, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _peak_rss_mb() -> float:
    """Peak resident memory of this process. The suite's pool children
    are left out: which runs the pool hands each child varies, and their
    largest child's peak varied 5% between runs with it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _indices(seconds: float, at_least: int):
    """Rep indices 0, 1, ... until ``seconds`` have passed and at least
    ``at_least`` were taken, never ``MAX_REPS`` or more."""
    start = time.monotonic()
    index = 0
    while index < at_least or (
        time.monotonic() - start < seconds and index < bench_config.MAX_REPS
    ):
        yield index
        index += 1


def run_rep(workload, index, tally, timer):
    """One timed rep and its checks, or None if it raised."""
    tally.attempted += workload.runs_per_rep
    try:
        wall, host_wall, rep = timer(lambda: workload.rep(index))
    except Exception:  # a failed rep is reported and the loop goes on
        traceback.print_exc()
        tally.fail(workload.runs_per_rep, f"rep {index} raised")
        return None
    rep.wall, rep.host_wall = wall, host_wall
    for base, widir in rep.pairs:
        tally.check(
            base.instructions == widir.instructions,
            f"rep {index}: {base.app} Baseline and WiDir retired different "
            "instruction counts on the same traces",
        )
    workload.check_rep(index, rep, tally)
    return rep


def traced_rep(workload, index, reps, tally, speed):
    """Rep ``index`` under cProfile; returns (per-layer metrics, seconds).

    No timed rep used ``index``, so the traced rep synthesizes its traces
    like every timed rep; an untraced run of the same index then gives the
    reference it must be digest-identical to.
    """
    import cProfile
    import pstats

    events = [0]
    plain_run = Simulator.run

    def counting_run(self, *args, **kwargs):
        before = self.events_executed
        try:
            return plain_run(self, *args, **kwargs)
        finally:
            events[0] += self.events_executed - before

    profiler = cProfile.Profile()

    def profiled():
        profiler.enable()
        try:
            return workload.rep(index, traced=True)
        finally:
            profiler.disable()

    tally.attempted += workload.runs_per_rep
    Simulator.run = counting_run
    try:
        # The traced rep runs in this process even on the suite.
        wall, _, rep = Timer(speed)(profiled)
    finally:
        Simulator.run = plain_run
    workload.check_rep(index, rep, tally, traced=True)
    reference = workload.reference(index, reps, tally)
    for untraced, traced in zip(reference, rep.results):
        tally.check(
            result_digest(untraced) == result_digest(traced),
            f"traced {traced.app} result differs from the untraced run",
        )

    stats = pstats.Stats(profiler).stats
    self_s = self_time_by_layer(stats, LayerMap(Path(repro.__file__).resolve().parent))
    total = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / total if total else 0.0
    metrics.update(boundary_times(stats))
    metrics.update(simulated_counts(rep.results, events[0], workload.records))
    return metrics, wall


def provenance(workload, scales, seed) -> dict:
    import numpy

    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel": "batched" if Simulator(0).batched else "heap",
        "trace_codec": available_codec(),
        "seed": seed,
        "scales": asdict(scales),
    }
    if isinstance(workload, SuiteWorkload):
        info["pool_workers"] = workload.workers
    return info


def measure(args, speed, started: float) -> dict:
    """Set up and measure ``args.workload``; returns the worker's report.

    ``started`` is the parent's ``time.monotonic()`` just before it
    started this process.
    """
    scales = bench_config.SMOKE if args.smoke else bench_config.FULL
    workload = make_workload(args.workload, scales, args.seed, args.workdir)
    timer = Timer(speed, children=workload.has_children)
    record_s = workload.setup(Timer(speed))
    ready = time.monotonic()
    # A ~0.1 s set-up gets only a few timer samples, the first ones cold.
    speed.burst(SETUP_BURST)
    setup_s = (ready - started) * speed.factor(started, time.monotonic())
    if args.setup_only:
        return {"setup_s": setup_s, "record_s": record_s}

    tally = Tally()
    # Untimed warm-up. On a shared host the first seconds of load ran
    # slower even after calibration; repeating one index keeps the
    # warm-up's memory use independent of how many reps it fits.
    for _ in _indices(scales.warmup_seconds, 1):
        run_rep(workload, bench_config.WARMUP_INDEX, tally, timer)
    reps = []
    for index in _indices(args.seconds, scales.min_reps):
        rep = run_rep(workload, index, tally, timer)
        if rep is not None:
            reps.append(rep)
        if index + 1 == scales.min_reps:
            # Read after a fixed amount of work, so the peak does not grow
            # with the number of reps the host fits in --seconds.
            peak_rss_mb = _peak_rss_mb()
    if not reps:
        raise RuntimeError("every timed rep failed")

    extra = workload.finish(reps, tally, args.trace, Timer(speed))
    # widir_speedup covers a fixed set of runs, so it never depends on
    # how many reps the host fitted in --seconds.
    pairs = extra.pop("pairs", None) or [
        pair for rep in reps[: scales.min_reps] for pair in rep.pairs
    ]
    end_to_end = {
        "wall_s": statistics.median(rep.wall for rep in reps),
        "sim_instr_per_s": statistics.median(rep.instructions / rep.wall for rep in reps),
        "peak_rss_mb": peak_rss_mb,
        "widir_speedup": _geomean([base.cycles / widir.cycles for base, widir in pairs]),
    }

    per_layer = None
    if args.trace:
        per_layer, traced_wall = traced_rep(
            workload, bench_config.MAX_REPS, reps, tally, speed
        )
        serial = workload.serial_seconds(reps)
        per_layer.update(
            {
                "bench.trace_overhead": traced_wall / serial,
                "engine.events_per_s": per_layer["engine.events"] / serial,
                "harness.sim_s": 0.0,
                "harness.pool_efficiency": 0.0,
                "traces.replay_vs_live": 0.0,
            }
        )
        per_layer.update(extra)

    return {
        "setup_s": setup_s,
        "record_s": record_s,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "reps": len(reps),
        "samples": {
            "wall_s": [rep.wall for rep in reps],
            "host_wall_s": [rep.host_wall for rep in reps],
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "provenance": provenance(workload, scales, args.seed),
    }
