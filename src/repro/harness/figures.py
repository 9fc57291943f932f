"""Per-figure / per-table experiment functions.

Each function regenerates one artifact of the paper's evaluation section and
returns a structured result plus a rendered text table (``.text``) printing
the same rows/series the paper plots. The benchmark suite under
``benchmarks/`` calls exactly these functions, and :data:`ARTIFACTS` names
them for ``repro figure render`` and ``repro campaign render``
(:func:`render`).

Execution model: every artifact *declares* its runs as
:func:`repro.harness.sweeps.grid` points — the grid a campaign of the same
apps, cores, seed, trace seed and thresholds journals — and turns them into
one :class:`~repro.harness.executor.ExperimentPlan` with
:func:`~repro.harness.sweeps.add_points`, which an
:class:`~repro.harness.executor.Executor` deduplicates by run key, serves
from the on-disk memo cache where it can, and fans out over worker
processes. Row values are computed from the executor's canonicalized
results, so an artifact renders byte-identically whether its runs were
simulated serially, in parallel, recalled from cache, or served by a
campaign. Pass ``executor=`` to control workers and caching explicitly;
the default is the process-wide executor (``REPRO_WORKERS`` /
``REPRO_CACHE_DIR`` aware).
"""

from __future__ import annotations

import inspect
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.harness.executor import Executor, ExperimentPlan, default_executor
from repro.harness.motivation import section2c_sharing_probe
from repro.harness.runner import SimulationResult
from repro.harness.sweeps import GridPoint, add_points, grid, run_grid
from repro.stats.report import format_table
from repro.workloads.profiles import ALL_APPS

#: Modest default app subset for quick runs; pass apps=ALL_APPS for the
#: full paper set.
DEFAULT_APPS: Tuple[str, ...] = ALL_APPS


class FigureResult:
    """A computed figure: structured rows plus a rendered table.

    ``missing`` lists, by grid label (the labels a campaign's provenance
    manifest lists), the points whose runs were unavailable (a degraded
    campaign serving partial results through a
    :class:`~repro.harness.campaign.CampaignResultSource`); a plain
    :class:`Executor` always simulates, so it is empty in direct use. When
    non-empty the rendered table carries an explicit partial-output note
    and ``partial`` is True — figures degrade, they never abort.
    """

    def __init__(
        self,
        name: str,
        headers: Sequence[str],
        rows: List[Sequence],
        text: str,
        missing: Optional[Sequence[str]] = None,
    ):
        self.name = name
        self.headers = list(headers)
        self.rows = rows
        self.missing = list(missing or [])
        self.text = _with_partial_note(text, self.missing)

    @property
    def partial(self) -> bool:
        return bool(self.missing)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


def _with_partial_note(text: str, missing: Sequence[str]) -> str:
    if not missing:
        return text
    return (
        f"{text}\n(PARTIAL: {len(missing)} grid point(s) missing — "
        f"{', '.join(missing)}; see the campaign provenance manifest)"
    )


def _apps_or_default(apps: Optional[Iterable[str]]) -> Tuple[str, ...]:
    return tuple(apps) if apps is not None else DEFAULT_APPS


def _geomean(values: List[float]) -> float:
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    product = 1.0
    for value in positives:
        product *= value
    return product ** (1.0 / len(positives))


def _missing(
    points: Sequence[GridPoint], served: Dict[str, SimulationResult]
) -> List[str]:
    """Labels of the points ``served`` lacks, in grid order, each once."""
    return list(
        dict.fromkeys(label for label, _, _ in points if label not in served)
    )


def _paired(
    points: Sequence[GridPoint], served: Dict[str, SimulationResult]
) -> Iterator[Tuple[str, int, SimulationResult, SimulationResult]]:
    """``(app, cores, baseline, widir)`` for each served pair of a default
    ``"protocols"`` grid, whose points alternate Baseline and WiDir."""
    for (base, app, config), (widir, _, _) in zip(points[::2], points[1::2]):
        if base in served and widir in served:
            yield app, config.num_cores, served[base], served[widir]


# --------------------------------------------------------------- Table IV

def table4_mpki_characterization(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> FigureResult:
    """Table IV: per-application Baseline L1 MPKI."""
    points = grid(
        "protocols", _apps_or_default(apps), (num_cores,),
        protocols=("baseline",), seed=seed,
    )
    served = run_grid(points, executor, memops, trace_seed)
    rows = [
        [app, served[label].mpki]
        for label, app, _ in points
        if label in served
    ]
    text = format_table(
        ["app", "baseline MPKI"], rows, title="Table IV: L1 MPKI in Baseline"
    )
    return FigureResult(
        "table4", ["app", "mpki"], rows, text, missing=_missing(points, served)
    )


# --------------------------------------------------------------- Figure 5

def figure5_sharer_histogram(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> FigureResult:
    """Figure 5: sharers updated per wireless write, binned."""
    bins = ["0-5", "6-10", "11-25", "26-49", "50+"]
    points = grid(
        "protocols", _apps_or_default(apps), (num_cores,),
        protocols=("widir",), seed=seed,
    )
    served = run_grid(points, executor, memops, trace_seed)
    rows = []
    for label, app, _ in points:
        if label not in served:
            continue
        histogram = served[label].sharer_histogram
        total = sum(histogram.values())
        fractions = [
            (histogram.get(b, 0) / total if total else 0.0) for b in bins
        ]
        rows.append([app] + fractions)
    text = format_table(
        ["app"] + [f"{b} sharers" for b in bins],
        rows,
        title="Figure 5: sharers updated per wireless write (fraction of writes)",
    )
    return FigureResult(
        "fig5", ["app"] + bins, rows, text, missing=_missing(points, served)
    )


# --------------------------------------------------------------- Figure 6

def figure6_mpki(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> FigureResult:
    """Figure 6: MPKI of WiDir vs Baseline, read/write split, normalized."""
    rows = []
    ratios = []
    points = grid("protocols", _apps_or_default(apps), (num_cores,), seed=seed)
    served = run_grid(points, executor, memops, trace_seed)
    for app, _, base, widir in _paired(points, served):
        reference = base.mpki or 1.0
        ratio = widir.mpki / reference if base.mpki else 1.0
        ratios.append(ratio)
        rows.append(
            [
                app,
                base.read_mpki / reference,
                base.write_mpki / reference,
                widir.read_mpki / reference,
                widir.write_mpki / reference,
                ratio,
            ]
        )
    rows.append(["geomean", "", "", "", "", _geomean(ratios)])
    text = format_table(
        ["app", "base rd", "base wr", "widir rd", "widir wr", "widir/base"],
        rows,
        title="Figure 6: L1 MPKI normalized to Baseline",
    )
    return FigureResult(
        "fig6", ["app", "ratio"], rows, text, missing=_missing(points, served)
    )


# --------------------------------------------------------------- Figure 7

def figure7_memory_latency(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> FigureResult:
    """Figure 7: total memory-operation latency, load/store split, normalized."""
    rows = []
    ratios = []
    points = grid("protocols", _apps_or_default(apps), (num_cores,), seed=seed)
    served = run_grid(points, executor, memops, trace_seed)
    for app, _, base, widir in _paired(points, served):
        reference = base.total_memory_latency or 1
        ratio = widir.total_memory_latency / reference
        ratios.append(ratio)
        rows.append(
            [
                app,
                base.load_latency_total / reference,
                base.store_latency_total / reference,
                widir.load_latency_total / reference,
                widir.store_latency_total / reference,
                ratio,
            ]
        )
    rows.append(["geomean", "", "", "", "", _geomean(ratios)])
    text = format_table(
        ["app", "base ld", "base st", "widir ld", "widir st", "widir/base"],
        rows,
        title="Figure 7: memory latency normalized to Baseline",
    )
    return FigureResult(
        "fig7", ["app", "ratio"], rows, text, missing=_missing(points, served)
    )


# ---------------------------------------------------------------- Table V

def table5_hop_distribution(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> FigureResult:
    """Table V: wired hops per coherence leg in the Baseline."""
    bins = ["0-2", "3-5", "6-8", "9-11", "12+"]
    points = grid(
        "protocols", _apps_or_default(apps), (num_cores,),
        protocols=("baseline",), seed=seed,
    )
    served = run_grid(points, executor, memops, trace_seed)
    totals = {b: 0 for b in bins}
    for label, _, _ in points:
        if label not in served:
            continue
        for b in bins:
            totals[b] += served[label].hop_histogram.get(b, 0)
    grand = sum(totals.values()) or 1
    rows = [[b, totals[b] / grand] for b in bins]
    text = format_table(
        ["hops per leg", "fraction of messages"],
        rows,
        title=(
            "Table V: wired-mesh hop distribution "
            f"(Baseline, {num_cores} cores)"
        ),
    )
    return FigureResult(
        "table5", ["bin", "fraction"], rows, text,
        missing=_missing(points, served),
    )


# --------------------------------------------------------------- Figure 8

def figure8_execution_time(
    apps: Optional[Iterable[str]] = None,
    core_counts: Sequence[int] = (64, 32, 16),
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> Dict[int, FigureResult]:
    """Figure 8: normalized execution time with stall/rest breakdown."""
    # One plan spanning every machine size: repeats against fig6/fig7 (and
    # between panels) collapse in the executor instead of re-simulating.
    points = grid("protocols", _apps_or_default(apps), core_counts, seed=seed)
    served = run_grid(points, executor, memops, trace_seed)
    pairs = list(_paired(points, served))
    results: Dict[int, FigureResult] = {}
    for cores in core_counts:
        rows = []
        ratios = []
        for app, _, base, widir in (p for p in pairs if p[1] == cores):
            reference = base.cycles or 1
            ratio = widir.cycles / reference
            ratios.append(ratio)
            base_total = max(1, base.cycles * cores)
            widir_total = max(1, widir.cycles * cores)
            # Paper-style stacked bars, normalized to the Baseline bar:
            # each protocol's bar = (memory-stall portion, rest portion).
            base_stall = base.total_stall_cycles / base_total
            widir_stall = ratio * (widir.total_stall_cycles / widir_total)
            rows.append(
                [
                    app,
                    base_stall,
                    1.0 - base_stall,
                    widir_stall,
                    max(0.0, ratio - widir_stall),
                    ratio,
                ]
            )
        rows.append(["geomean", "", "", "", "", _geomean(ratios)])
        text = format_table(
            [
                "app",
                "base stall",
                "base rest",
                "widir stall",
                "widir rest",
                "widir/base",
            ],
            rows,
            title=f"Figure 8 ({cores} cores): execution time normalized to Baseline",
        )
        panel = [point for point in points if point[2].num_cores == cores]
        results[cores] = FigureResult(
            f"fig8_{cores}", ["app", "ratio"], rows, text,
            missing=_missing(panel, served),
        )
    return results


# --------------------------------------------------------------- Figure 9

def figure9_energy(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> FigureResult:
    """Figure 9: energy by component, normalized to Baseline."""
    rows = []
    ratios = []
    wnoc_shares = []
    points = grid("protocols", _apps_or_default(apps), (num_cores,), seed=seed)
    served = run_grid(points, executor, memops, trace_seed)
    for app, _, base, widir in _paired(points, served):
        reference = base.energy.total or 1.0
        ratio = widir.energy.total / reference
        ratios.append(ratio)
        wnoc_shares.append(
            widir.energy.wnoc / widir.energy.total if widir.energy.total else 0.0
        )
        widir_shares = {
            k: v / reference for k, v in widir.energy.as_dict().items()
        }
        base_shares = base.energy.shares()
        rows.append(
            [
                app,
                base_shares["core"],
                base_shares["l1"],
                base_shares["l2_dir"],
                base_shares["noc"],
                ratio,
                widir_shares["wnoc"],
            ]
        )
    rows.append(["geomean", "", "", "", "", _geomean(ratios), ""])
    text = format_table(
        ["app", "b.core", "b.l1", "b.l2+dir", "b.noc", "widir/base", "widir wnoc"],
        rows,
        title="Figure 9: energy normalized to Baseline",
    )
    result = FigureResult(
        "fig9", ["app", "ratio"], rows, text, missing=_missing(points, served)
    )
    result.mean_wnoc_share = (
        sum(wnoc_shares) / len(wnoc_shares) if wnoc_shares else 0.0
    )
    return result


# -------------------------------------------------------------- Figure 10

def figure10_scalability(
    apps: Optional[Iterable[str]] = None,
    core_counts: Sequence[int] = (4, 8, 16, 32, 64),
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> FigureResult:
    """Figure 10: speedup vs the smallest Baseline for both protocols.

    Strong scaling, as in the paper: the *total* problem size is fixed, so
    a machine with 2x the cores runs half the references per core.
    """
    from repro.harness.runner import DEFAULT_MEMOPS

    apps = _apps_or_default(apps)
    base_memops = memops if memops is not None else DEFAULT_MEMOPS
    largest = max(core_counts)

    def per_core_work(cores: int) -> int:
        # Fixed total work: the largest machine runs ``base_memops`` per
        # core; smaller machines run proportionally more per core.
        return max(150, base_memops * largest // cores)

    smallest = core_counts[0]
    # The per-app reference machine is the smallest Baseline; it coincides
    # with the smallest sweep point, so the executor runs it exactly once.
    reference_points = grid(
        "protocols", apps, (smallest,), protocols=("baseline",), seed=seed
    )
    panels = {
        cores: grid("protocols", apps, (cores,), seed=seed)
        for cores in core_counts
    }
    plan = ExperimentPlan()
    add_points(plan, reference_points, per_core_work(smallest), trace_seed)
    for cores, points in panels.items():
        add_points(plan, points, per_core_work(cores), trace_seed)
    every_point = reference_points + [
        point for points in panels.values() for point in points
    ]
    exe = executor if executor is not None else default_executor()
    served = {
        label: result
        for (label, _, _), result in zip(every_point, exe.map_runs(plan))
        if result is not None
    }

    reference = {
        app: served[label].cycles
        for label, app, _ in reference_points
        if label in served
    }
    rows = []
    for cores in core_counts:
        base_times = []
        widir_times = []
        for app, _, base, widir in _paired(panels[cores], served):
            if app in reference:
                base_times.append(reference[app] / max(1, base.cycles))
                widir_times.append(reference[app] / max(1, widir.cycles))
        rows.append([cores, _geomean(base_times), _geomean(widir_times)])
    text = format_table(
        ["cores", "Baseline speedup", "WiDir speedup"],
        rows,
        title=f"Figure 10: average speedup over {smallest}-core Baseline",
    )
    return FigureResult(
        "fig10", ["cores", "base", "widir"], rows, text,
        missing=_missing(every_point, served),
    )


# ---------------------------------------------------------------- Table VI

def table6_sensitivity(
    apps: Optional[Iterable[str]] = None,
    thresholds: Sequence[int] = (2, 3, 4, 5),
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    trace_seed: int = 0,
) -> FigureResult:
    """Table VI: MaxWiredSharers sweep — speedup and collision probability.

    The runs of a ``kind="thresholds"`` campaign: each app's Baseline, and
    WiDir at every threshold.
    """
    apps = _apps_or_default(apps)
    base_points = grid(
        "protocols", apps, (num_cores,), protocols=("baseline",), seed=seed
    )
    threshold_points = grid(
        "thresholds", apps, (num_cores,), thresholds, seed=seed
    )
    points = base_points + threshold_points
    served = run_grid(points, executor, memops, trace_seed)
    base_cycles = {
        app: served[label].cycles
        for label, app, _ in base_points
        if label in served
    }
    label_of = {
        (app, config.directory.max_wired_sharers): label
        for label, app, config in threshold_points
    }
    rows = []
    for threshold in thresholds:
        speedups = []
        collisions = []
        for app in apps:
            widir = served.get(label_of[(app, threshold)])
            if widir is None or app not in base_cycles:
                continue
            speedups.append(base_cycles[app] / max(1, widir.cycles))
            collisions.append(widir.collision_probability)
        rows.append(
            [
                threshold,
                _geomean(speedups),
                sum(collisions) / len(collisions) if collisions else 0.0,
            ]
        )
    text = format_table(
        ["MaxWiredSharers", "speedup vs Baseline", "collision prob."],
        rows,
        title=f"Table VI: MaxWiredSharers sensitivity ({num_cores} cores)",
    )
    return FigureResult(
        "table6", ["threshold", "speedup", "collisions"], rows, text,
        missing=_missing(points, served),
    )


# ------------------------------------------------- protocol comparison

def figure_protocol_comparison(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 16,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    protocols: Optional[Sequence[str]] = None,
    trace_seed: int = 0,
) -> FigureResult:
    """Cross-protocol comparison: every registered backend on one grid.

    One column per backend (default: all of
    :func:`repro.coherence.backend.backend_names`), cycles normalized to
    the first protocol in the list, plus a geomean row. Renders from a
    ``kind="protocols"`` campaign that declared the same ``protocols``
    tuple, or simulates directly.
    """
    from repro.coherence.backend import backend_names

    names = tuple(protocols) if protocols else backend_names()
    apps = _apps_or_default(apps)
    points = grid("protocols", apps, (num_cores,), protocols=names, seed=seed)
    served = run_grid(points, executor, memops, trace_seed)
    label_of = {(app, config.protocol): label for label, app, config in points}
    reference_name = names[0]
    rows = []
    ratios: Dict[str, List[float]] = {name: [] for name in names}
    for app in apps:
        reference = served.get(label_of[(app, reference_name)])
        if reference is None:
            continue
        row = [app]
        for name in names:
            result = served.get(label_of[(app, name)])
            if result is None:
                row.append(float("nan"))
                continue
            ratio = result.cycles / max(1, reference.cycles)
            ratios[name].append(ratio)
            row.append(ratio)
        rows.append(row)
    rows.append(
        ["geomean"] + [_geomean(ratios[name]) for name in names]
    )
    text = format_table(
        ["app"] + [f"{name} cycles" for name in names],
        rows,
        title=(
            f"Protocol comparison ({num_cores} cores): cycles normalized "
            f"to {reference_name}"
        ),
    )
    return FigureResult(
        "protocols", ["app"] + list(names), rows, text,
        missing=_missing(points, served),
    )


# ------------------------------------------------------ MAC comparison

def figure_mac_comparison(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 16,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    protocols: Optional[Sequence[str]] = None,
    macs: Optional[Sequence[str]] = None,
    trace_seed: int = 0,
) -> FigureResult:
    """Cross-MAC comparison: every wireless MAC backend on one grid.

    One column per MAC (default: all of
    :func:`repro.wireless.mac.mac_names`), one row per app x wireless
    protocol (wired protocols have no MAC dimension and are skipped),
    cycles normalized to the first MAC in the list. Renders from a
    campaign that declared the same ``macs`` tuple, or simulates
    directly.
    """
    from repro.coherence.backend import backend_names, get_backend
    from repro.wireless.mac import mac_names

    mac_list = tuple(macs) if macs else mac_names()
    wireless = tuple(
        name
        for name in (tuple(protocols) if protocols else backend_names())
        if get_backend(name).uses_wireless
    )
    if not wireless:
        raise ValueError("no wireless protocol in the requested set")
    apps = _apps_or_default(apps)
    points = grid(
        "protocols", apps, (num_cores,), protocols=wireless, macs=mac_list,
        seed=seed,
    )
    served = run_grid(points, executor, memops, trace_seed)
    label_of = {
        (app, config.protocol, config.mac): label
        for label, app, config in points
    }
    reference_mac = mac_list[0]
    rows = []
    ratios: Dict[str, List[float]] = {mac: [] for mac in mac_list}
    for app in apps:
        for protocol in wireless:
            reference = served.get(label_of[(app, protocol, reference_mac)])
            if reference is None:
                continue
            row = [f"{app}/{protocol}" if len(wireless) > 1 else app]
            for mac in mac_list:
                result = served.get(label_of[(app, protocol, mac)])
                if result is None:
                    row.append(float("nan"))
                    continue
                ratio = result.cycles / max(1, reference.cycles)
                ratios[mac].append(ratio)
                row.append(ratio)
            rows.append(row)
    rows.append(["geomean"] + [_geomean(ratios[mac]) for mac in mac_list])
    text = format_table(
        ["app"] + [f"{mac} cycles" for mac in mac_list],
        rows,
        title=(
            f"MAC comparison ({num_cores} cores, "
            f"{'/'.join(wireless)}): cycles normalized to {reference_mac}"
        ),
    )
    return FigureResult(
        "macs", ["app"] + list(mac_list), rows, text,
        missing=_missing(points, served),
    )


# ------------------------------------------------------- the artifact table

#: Every artifact ``repro figure render`` draws, by name;
#: ``repro campaign render`` draws all but ``motivation``, which runs no
#: machine.
ARTIFACTS: Dict[str, Callable] = {
    "motivation": section2c_sharing_probe,
    "table4": table4_mpki_characterization,
    "fig5": figure5_sharer_histogram,
    "fig6": figure6_mpki,
    "fig7": figure7_memory_latency,
    "table5": table5_hop_distribution,
    "fig8": figure8_execution_time,
    "fig9": figure9_energy,
    "fig10": figure10_scalability,
    "table6": table6_sensitivity,
    "protocols": figure_protocol_comparison,
    "macs": figure_mac_comparison,
}


def render(name: str, **settings) -> List:
    """Artifact ``name``'s tables, in print order (Figure 8 has one per
    core count).

    ``settings`` are keyword arguments of the artifact functions
    (``apps``, ``num_cores``, ``memops``, ``executor``, ``seed``,
    ``trace_seed``, ``thresholds``, ``protocols``, ``macs``); each
    artifact takes the ones its signature declares and ignores the rest,
    so Figures 8 and 10 keep their own core-count axes.
    """
    function = ARTIFACTS[name]
    accepted = inspect.signature(function).parameters
    result = function(
        **{key: value for key, value in settings.items() if key in accepted}
    )
    return list(result.values()) if isinstance(result, dict) else [result]
