"""The evaluation grid, declared in one place.

The paper's evaluation is one grid: apps x {Baseline, WiDir} x core counts
x MaxWiredSharers (Fig. 8, Fig. 10, Table VI), crossed here with the MAC
backends. :func:`grid` expands a sweep kind into labelled
``(label, app, config)`` points; :func:`add_points` turns points into
the runs of an :class:`~repro.harness.executor.ExperimentPlan`, and
:func:`run_grid` executes them as one plan through an
:class:`~repro.harness.executor.Executor`, so points run in parallel and
repeated points are memo-cache hits. ``repro.api.sweep``, every
:class:`~repro.harness.campaign.CampaignSpec` kind and every artifact of
:mod:`repro.harness.figures` declare their runs through :func:`grid` and
:func:`add_points`, so an artifact asks for exactly the run keys a
campaign over the same points journals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.coherence.backend import get_backend
from repro.config.presets import protocol_config
from repro.config.system import SystemConfig
from repro.harness.executor import Executor, ExperimentPlan, default_executor
from repro.harness.runner import SimulationResult
from repro.wireless.mac import DEFAULT_MAC, get_mac

#: Default protocol pair of the paper's evaluation; sweeps accept any
#: subset of :func:`repro.coherence.backend.backend_names`.
DEFAULT_PROTOCOLS = ("baseline", "widir")

#: Default (single-point) MAC dimension; sweeps accept any subset of
#: :func:`repro.wireless.mac.mac_names`.
DEFAULT_MACS = (DEFAULT_MAC,)

#: One labelled grid point: (label, app, config).
GridPoint = Tuple[str, str, SystemConfig]


def label_for(app: str, config: SystemConfig) -> str:
    """Canonical sweep label: app/protocol/cores[/tN][/mac].

    The threshold segment appears only for threshold-using protocols, the
    MAC segment only for wireless protocols running a non-default MAC —
    so every pre-MAC-zoo label (and therefore every recorded campaign
    journal and aggregate digest) is byte-identical.
    """
    backend = get_backend(config.protocol)
    parts = [app, config.protocol, f"{config.num_cores}c"]
    if backend.uses_sharer_threshold:
        parts.append(f"t{config.directory.max_wired_sharers}")
    if backend.uses_wireless and config.mac != DEFAULT_MAC:
        parts.append(config.mac)
    return "/".join(parts)


def grid(
    kind: str,
    apps: Sequence[str],
    cores: Sequence[int],
    thresholds: Sequence[int] = (),
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    macs: Sequence[str] = DEFAULT_MACS,
    seed: int = 42,
) -> List[GridPoint]:
    """The ``(label, app, config)`` points a sweep kind declares, in order.

    * ``"protocols"``: app x cores x protocol x MAC, each protocol at its
      preset MaxWiredSharers;
    * ``"thresholds"``: app x cores x MaxWiredSharers x MAC, on WiDir
      (``protocols`` is then only validated).

    MAC is the innermost axis and crosses wireless protocols only: a wired
    protocol appears once per (app, cores), whatever ``macs`` says.
    Repeated apps or MACs repeat their points; the executor dedupes them
    by run key. Configs come from
    :func:`~repro.config.presets.protocol_config`. Unknown kinds,
    protocols and MACs raise ``ValueError``.
    """
    for protocol in protocols:
        get_backend(protocol)  # raises ValueError naming the known set
    for mac in macs:
        get_mac(mac)  # raises ValueError naming the known set
    if kind == "protocols":
        axis = [(protocol, None) for protocol in protocols]
    elif kind == "thresholds":
        axis = [("widir", threshold) for threshold in thresholds]
    else:
        raise ValueError(
            f"unknown grid kind {kind!r}; expected 'protocols' or "
            "'thresholds'"
        )
    points: List[GridPoint] = []
    for app in apps:
        for num_cores in cores:
            for protocol, threshold in axis:
                wireless = get_backend(protocol).uses_wireless
                for mac in macs if wireless else DEFAULT_MACS:
                    config = protocol_config(
                        protocol, num_cores, max_wired_sharers=threshold,
                        seed=seed, mac=mac,
                    )
                    points.append((label_for(app, config), app, config))
    return points


def add_points(
    plan: ExperimentPlan,
    points: Sequence[GridPoint],
    memops: Optional[int],
    trace_seed: int = 0,
) -> None:
    """Append each point to ``plan`` as one run, in order: ``memops``
    references per core on trace seed ``trace_seed``."""
    for _, app, config in points:
        plan.add(app, config, memops, trace_seed)


def run_grid(
    points: Sequence[GridPoint],
    executor: Optional[Executor],
    memops: Optional[int],
    trace_seed: int = 0,
) -> Dict[str, SimulationResult]:
    """Execute grid points as one plan; returns label -> result.

    ``executor=None`` uses the process-wide executor. Graceful
    degradation: points the executor cannot serve (``None`` from a
    partial :class:`~repro.harness.campaign.CampaignResultSource`) are
    *omitted* from the returned mapping instead of aborting the sweep;
    the campaign's provenance manifest records exactly which runs are
    missing and why. A plain :class:`Executor` always simulates, so
    direct sweeps never lose points.
    """
    plan = ExperimentPlan()
    add_points(plan, points, memops, trace_seed)
    exe = executor if executor is not None else default_executor()
    results = exe.map_runs(plan)
    return {
        label: result
        for (label, _, _), result in zip(points, results)
        if result is not None
    }


def speedup_table(results: Dict[str, SimulationResult]) -> Dict[str, float]:
    """Pair up baseline/widir labels of a ``"protocols"`` grid and return
    app -> WiDir speedup."""
    speedups: Dict[str, float] = {}
    for label, result in results.items():
        if "/baseline/" not in label:
            continue
        widir_label = label.replace("/baseline/", "/widir/") + "/t3"
        partner = results.get(widir_label) or results.get(
            label.replace("/baseline/", "/widir/")
        )
        if partner is None:
            # Threshold suffix may differ; match on prefix.
            prefix = label.replace("/baseline/", "/widir/")
            candidates = [r for l, r in results.items() if l.startswith(prefix)]
            partner = candidates[0] if candidates else None
        if partner is not None:
            app = label.split("/")[0]
            speedups[app] = result.cycles / max(1, partner.cycles)
    return speedups
