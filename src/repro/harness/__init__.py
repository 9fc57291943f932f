"""Experiment harness.

:mod:`~repro.harness.runner` executes one (application, machine) pair and
returns a :class:`~repro.harness.runner.SimulationResult` with every metric
the paper reports. :mod:`~repro.harness.figures` builds each table/figure of
the evaluation section from those results, and
:mod:`~repro.harness.motivation` reproduces the Section II-C measurement
that motivates the design.

Fault tolerance: :mod:`~repro.harness.campaign` runs whole sweeps as
crash-safe-resumable campaigns on one engine, the
:mod:`~repro.harness.distributed` coordinator and its local or remote
worker agents (per-run budgets, heartbeats, seeded retry/backoff from
:mod:`~repro.harness.supervisor`, graceful degradation). The campaign
modules — and everything they pull in (``asyncio``/``multiprocessing``
plumbing, campaign telemetry) — resolve lazily on first attribute access
so that ``import repro.harness`` (and therefore ``import repro.api``)
stays as cheap as it was before the campaign layer existed.
"""

from repro.harness.runner import SimulationResult, run_app, run_pair
from repro.harness.executor import (
    Executor,
    ExperimentPlan,
    RunRequest,
    default_executor,
    run_key,
)
from repro.harness.validate import validate_result
from repro.harness.figures import (
    figure10_scalability,
    figure5_sharer_histogram,
    figure6_mpki,
    figure7_memory_latency,
    figure8_execution_time,
    figure9_energy,
    table4_mpki_characterization,
    table5_hop_distribution,
    table6_sensitivity,
)
from repro.harness.motivation import section2c_sharing_probe

#: Lazily resolved exports: name -> (module, attribute). The campaign
#: engine is only needed by campaign workflows, never by a plain
#: ``api.simulate`` call.
_LAZY = {
    "Campaign": ("repro.harness.campaign", "Campaign"),
    "CampaignError": ("repro.harness.campaign", "CampaignError"),
    "CampaignReport": ("repro.harness.campaign", "CampaignReport"),
    "CampaignResultSource": ("repro.harness.campaign", "CampaignResultSource"),
    "CampaignSpec": ("repro.harness.campaign", "CampaignSpec"),
    "CampaignStatus": ("repro.harness.campaign", "CampaignStatus"),
    "run_campaign": ("repro.harness.campaign", "run_campaign"),
    "Coordinator": ("repro.harness.distributed", "Coordinator"),
    "DistributedError": ("repro.harness.distributed", "DistributedError"),
    "WorkerAgent": ("repro.harness.distributed", "WorkerAgent"),
    "RpcClient": ("repro.harness.protocol", "RpcClient"),
    "RpcError": ("repro.harness.protocol", "RpcError"),
    "ProtocolError": ("repro.harness.protocol", "ProtocolError"),
    "RetryPolicy": ("repro.harness.supervisor", "RetryPolicy"),
    "ScriptedFaults": ("repro.harness.supervisor", "ScriptedFaults"),
    "SeededFaults": ("repro.harness.supervisor", "SeededFaults"),
}

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignReport",
    "CampaignResultSource",
    "CampaignSpec",
    "CampaignStatus",
    "Coordinator",
    "DistributedError",
    "Executor",
    "ExperimentPlan",
    "ProtocolError",
    "RetryPolicy",
    "RpcClient",
    "RpcError",
    "RunRequest",
    "ScriptedFaults",
    "SeededFaults",
    "SimulationResult",
    "WorkerAgent",
    "default_executor",
    "run_campaign",
    "run_key",
    "validate_result",
    "figure10_scalability",
    "figure5_sharer_histogram",
    "figure6_mpki",
    "figure7_memory_latency",
    "figure8_execution_time",
    "figure9_energy",
    "run_app",
    "run_pair",
    "section2c_sharing_probe",
    "table4_mpki_characterization",
    "table5_hop_distribution",
    "table6_sensitivity",
]


def __getattr__(name):
    """PEP 562: resolve the campaign layer on first touch."""
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.harness' has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value


def __dir__():
    return sorted(set(__all__) | set(globals()))
