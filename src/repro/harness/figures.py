"""Per-figure / per-table experiment functions.

Each function regenerates one artifact of the paper's evaluation section and
returns a structured result plus a rendered text table (``.text``) printing
the same rows/series the paper plots. The benchmark suite under
``benchmarks/`` calls exactly these functions.

Execution model: every figure *declares* its run matrix as an
:class:`~repro.harness.executor.ExperimentPlan` and hands it to an
:class:`~repro.harness.executor.Executor`, which deduplicates identical
``(app, config, memops, trace_seed)`` requests, satisfies repeats from the
on-disk memo cache, and fans unique simulations out over worker processes.
Row values are computed from the executor's canonicalized results, so a
figure renders byte-identically whether its runs were simulated serially,
in parallel, or recalled from cache. Pass ``executor=`` to control workers
and caching explicitly; the default is the process-wide executor
(``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` aware).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config.presets import baseline_config, widir_config
from repro.harness.executor import Executor, ExperimentPlan, default_executor
from repro.harness.runner import SimulationResult
from repro.stats.report import format_table
from repro.workloads.profiles import ALL_APPS

#: Modest default app subset for quick runs; pass apps=ALL_APPS for the
#: full paper set.
DEFAULT_APPS: Tuple[str, ...] = ALL_APPS


class FigureResult:
    """A computed figure: structured rows plus a rendered table.

    ``missing`` lists the grid points that could not be rendered because
    their runs were unavailable (a degraded campaign serving partial
    results through a
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


def _exe(executor: Optional[Executor]) -> Executor:
    return executor if executor is not None else default_executor()


def _geomean(values: List[float]) -> float:
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    product = 1.0
    for value in positives:
        product *= value
    return product ** (1.0 / len(positives))


def _pairs(
    apps: Sequence[str],
    num_cores: int,
    memops: Optional[int],
    executor: Executor,
) -> Tuple[List[Tuple[str, SimulationResult, SimulationResult]], List[str]]:
    """One Baseline/WiDir pair per app, declared as a single plan.

    Returns ``(pairs, missing_apps)``: apps whose baseline or WiDir run the
    executor could not serve (``None`` from a partial campaign source) are
    reported rather than crashed on.
    """
    plan = ExperimentPlan()
    indices = [
        (app, plan.add_pair(app, num_cores=num_cores, memops=memops))
        for app in apps
    ]
    results = executor.map_runs(plan)
    pairs = []
    missing = []
    for app, (b, w) in indices:
        if results[b] is None or results[w] is None:
            missing.append(app)
        else:
            pairs.append((app, results[b], results[w]))
    return pairs, missing


# --------------------------------------------------------------- Table IV

def table4_mpki_characterization(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> FigureResult:
    """Table IV: per-application Baseline L1 MPKI."""
    apps = _apps_or_default(apps)
    plan = ExperimentPlan()
    for app in apps:
        plan.add(app, baseline_config(num_cores=num_cores), memops)
    results = _exe(executor).map_runs(plan)
    missing = [app for app, result in zip(apps, results) if result is None]
    rows = [
        [app, result.mpki]
        for app, result in zip(apps, results)
        if result is not None
    ]
    text = format_table(
        ["app", "baseline MPKI"], rows, title="Table IV: L1 MPKI in Baseline"
    )
    return FigureResult("table4", ["app", "mpki"], rows, text, missing=missing)


# --------------------------------------------------------------- Figure 5

def figure5_sharer_histogram(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> FigureResult:
    """Figure 5: sharers updated per wireless write, binned."""
    bins = ["0-5", "6-10", "11-25", "26-49", "50+"]
    apps = _apps_or_default(apps)
    plan = ExperimentPlan()
    for app in apps:
        plan.add(app, widir_config(num_cores=num_cores), memops)
    results = _exe(executor).map_runs(plan)
    missing = [app for app, result in zip(apps, results) if result is None]
    rows = []
    for app, result in zip(apps, results):
        if result is None:
            continue
        total = sum(result.sharer_histogram.values())
        fractions = [
            (result.sharer_histogram.get(b, 0) / total if total else 0.0)
            for b in bins
        ]
        rows.append([app] + fractions)
    text = format_table(
        ["app"] + [f"{b} sharers" for b in bins],
        rows,
        title="Figure 5: sharers updated per wireless write (fraction of writes)",
    )
    return FigureResult("fig5", ["app"] + bins, rows, text, missing=missing)


# --------------------------------------------------------------- Figure 6

def figure6_mpki(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> FigureResult:
    """Figure 6: MPKI of WiDir vs Baseline, read/write split, normalized."""
    rows = []
    ratios = []
    pairs, missing = _pairs(
        _apps_or_default(apps), num_cores, memops, _exe(executor)
    )
    for app, base, widir in pairs:
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
    return FigureResult("fig6", ["app", "ratio"], rows, text, missing=missing)


# --------------------------------------------------------------- Figure 7

def figure7_memory_latency(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> FigureResult:
    """Figure 7: total memory-operation latency, load/store split, normalized."""
    rows = []
    ratios = []
    pairs, missing = _pairs(
        _apps_or_default(apps), num_cores, memops, _exe(executor)
    )
    for app, base, widir in pairs:
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
    return FigureResult("fig7", ["app", "ratio"], rows, text, missing=missing)


# ---------------------------------------------------------------- Table V

def table5_hop_distribution(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> FigureResult:
    """Table V: wired hops per coherence leg in the 64-core Baseline."""
    bins = ["0-2", "3-5", "6-8", "9-11", "12+"]
    apps = _apps_or_default(apps)
    plan = ExperimentPlan()
    for app in apps:
        plan.add(app, baseline_config(num_cores=num_cores), memops)
    results = _exe(executor).map_runs(plan)
    missing = [app for app, result in zip(apps, results) if result is None]
    totals = {b: 0 for b in bins}
    for result in results:
        if result is None:
            continue
        for b in bins:
            totals[b] += result.hop_histogram.get(b, 0)
    grand = sum(totals.values()) or 1
    rows = [[b, totals[b] / grand] for b in bins]
    text = format_table(
        ["hops per leg", "fraction of messages"],
        rows,
        title="Table V: wired-mesh hop distribution (Baseline, 64 cores)",
    )
    return FigureResult("table5", ["bin", "fraction"], rows, text, missing=missing)


# --------------------------------------------------------------- Figure 8

def figure8_execution_time(
    apps: Optional[Iterable[str]] = None,
    core_counts: Sequence[int] = (64, 32, 16),
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> Dict[int, FigureResult]:
    """Figure 8: normalized execution time with stall/rest breakdown."""
    apps = _apps_or_default(apps)
    exe = _exe(executor)
    # One plan spanning every machine size: repeats against fig6/fig7 (and
    # between panels) collapse in the executor instead of re-simulating.
    plan = ExperimentPlan()
    indices = {
        (cores, app): plan.add_pair(app, num_cores=cores, memops=memops)
        for cores in core_counts
        for app in apps
    }
    all_results = exe.map_runs(plan)
    results: Dict[int, FigureResult] = {}
    for cores in core_counts:
        rows = []
        ratios = []
        missing = []
        for app in apps:
            b, w = indices[(cores, app)]
            base, widir = all_results[b], all_results[w]
            if base is None or widir is None:
                missing.append(f"{app}@{cores}c")
                continue
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
        results[cores] = FigureResult(
            f"fig8_{cores}", ["app", "ratio"], rows, text, missing=missing
        )
    return results


# --------------------------------------------------------------- Figure 9

def figure9_energy(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> FigureResult:
    """Figure 9: energy by component, normalized to Baseline."""
    rows = []
    ratios = []
    wnoc_shares = []
    pairs, missing = _pairs(
        _apps_or_default(apps), num_cores, memops, _exe(executor)
    )
    for app, base, widir in pairs:
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
    result = FigureResult("fig9", ["app", "ratio"], rows, text, missing=missing)
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
) -> FigureResult:
    """Figure 10: speedup vs the 4-core Baseline for both protocols.

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
    plan = ExperimentPlan()
    # The per-app reference machine is the smallest Baseline; it coincides
    # with the smallest sweep point, so the executor runs it exactly once.
    reference_idx = {
        app: plan.add(
            app, baseline_config(num_cores=smallest), per_core_work(smallest)
        )
        for app in apps
    }
    pair_idx = {
        (cores, app): plan.add_pair(app, num_cores=cores, memops=per_core_work(cores))
        for cores in core_counts
        for app in apps
    }
    all_results = _exe(executor).map_runs(plan)

    base_times: Dict[int, List[float]] = {c: [] for c in core_counts}
    widir_times: Dict[int, List[float]] = {c: [] for c in core_counts}
    missing = []
    reference = {
        app: all_results[i].cycles
        for app, i in reference_idx.items()
        if all_results[i] is not None
    }
    for cores in core_counts:
        for app in apps:
            b, w = pair_idx[(cores, app)]
            if (
                app not in reference
                or all_results[b] is None
                or all_results[w] is None
            ):
                missing.append(f"{app}@{cores}c")
                continue
            base_times[cores].append(reference[app] / max(1, all_results[b].cycles))
            widir_times[cores].append(reference[app] / max(1, all_results[w].cycles))
    rows = []
    for cores in core_counts:
        rows.append(
            [
                cores,
                _geomean(base_times[cores]),
                _geomean(widir_times[cores]),
            ]
        )
    text = format_table(
        ["cores", "Baseline speedup", "WiDir speedup"],
        rows,
        title="Figure 10: average speedup over 4-core Baseline",
    )
    return FigureResult(
        "fig10", ["cores", "base", "widir"], rows, text, missing=missing
    )


# ---------------------------------------------------------------- Table VI

def table6_sensitivity(
    apps: Optional[Iterable[str]] = None,
    thresholds: Sequence[int] = (2, 3, 4, 5),
    num_cores: int = 64,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> FigureResult:
    """Table VI: MaxWiredSharers sweep — speedup and collision probability."""
    apps = _apps_or_default(apps)
    plan = ExperimentPlan()
    base_idx = {
        app: plan.add(app, baseline_config(num_cores=num_cores), memops)
        for app in apps
    }
    widir_idx = {
        (threshold, app): plan.add(
            app,
            widir_config(num_cores=num_cores, max_wired_sharers=threshold),
            memops,
        )
        for threshold in thresholds
        for app in apps
    }
    all_results = _exe(executor).map_runs(plan)
    base_cycles = {
        app: all_results[i].cycles
        for app, i in base_idx.items()
        if all_results[i] is not None
    }
    missing = [
        app for app, i in base_idx.items() if all_results[i] is None
    ]
    rows = []
    for threshold in thresholds:
        speedups = []
        collisions = []
        for app in apps:
            widir = all_results[widir_idx[(threshold, app)]]
            if widir is None or app not in base_cycles:
                point = f"{app}@t{threshold}"
                if widir is None and point not in missing:
                    missing.append(point)
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
        title="Table VI: MaxWiredSharers sensitivity (64 cores)",
    )
    return FigureResult(
        "table6", ["threshold", "speedup", "collisions"], rows, text,
        missing=missing,
    )


# ------------------------------------------------- protocol comparison

def figure_protocol_comparison(
    apps: Optional[Iterable[str]] = None,
    num_cores: int = 16,
    memops: Optional[int] = None,
    executor: Optional[Executor] = None,
    seed: int = 42,
    protocols: Optional[Sequence[str]] = None,
) -> FigureResult:
    """Cross-protocol comparison: every registered backend on one grid.

    One column per backend (default: all of
    :func:`repro.coherence.backend.backend_names`), cycles normalized to
    the first protocol in the list, plus a geomean row. Renders from a
    ``kind="protocols"`` campaign that declared the same ``protocols``
    tuple, or simulates directly.
    """
    from repro.coherence.backend import backend_names
    from repro.harness.sweeps import grid

    names = tuple(protocols) if protocols else backend_names()
    apps = _apps_or_default(apps)
    plan = ExperimentPlan()
    indices = {
        (app, config.protocol): plan.add(app, config, memops)
        for _, app, config in grid(
            "protocols", apps, (num_cores,), protocols=names, seed=seed
        )
    }
    all_results = _exe(executor).map_runs(plan)
    reference_name = names[0]
    rows = []
    ratios: Dict[str, List[float]] = {name: [] for name in names}
    missing = []
    for app in apps:
        reference = all_results[indices[(app, reference_name)]]
        if reference is None:
            missing.append(f"{app}/{reference_name}")
            continue
        row = [app]
        for name in names:
            result = all_results[indices[(app, name)]]
            if result is None:
                missing.append(f"{app}/{name}")
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
        "protocols", ["app"] + list(names), rows, text, missing=missing
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
    from repro.harness.sweeps import grid
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
    plan = ExperimentPlan()
    indices = {
        (app, config.protocol, config.mac): plan.add(app, config, memops)
        for _, app, config in grid(
            "protocols", apps, (num_cores,), protocols=wireless,
            macs=mac_list, seed=seed,
        )
    }
    all_results = _exe(executor).map_runs(plan)
    reference_mac = mac_list[0]
    rows = []
    ratios: Dict[str, List[float]] = {mac: [] for mac in mac_list}
    missing = []
    for app in apps:
        for protocol in wireless:
            label = f"{app}/{protocol}" if len(wireless) > 1 else app
            reference = all_results[indices[(app, protocol, reference_mac)]]
            if reference is None:
                missing.append(f"{label}/{reference_mac}")
                continue
            row = [label]
            for mac in mac_list:
                result = all_results[indices[(app, protocol, mac)]]
                if result is None:
                    missing.append(f"{label}/{mac}")
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
        "macs", ["app"] + list(mac_list), rows, text, missing=missing
    )
