"""Statistics collection and report formatting.

Every measurable quantity in the simulator flows through one of the small
collector classes here: :class:`Counter` and :class:`BinnedHistogram`,
grouped per component in a :class:`StatsRegistry`, and each core's
:class:`LatencyStat`. The harness then renders registries into the same
rows/series the paper's tables and figures report, via :mod:`repro.stats.report`.
"""

from repro.stats.collectors import (
    BinnedHistogram,
    Counter,
    LatencyStat,
    StatsRegistry,
)
from repro.stats.report import format_table, normalize

__all__ = [
    "BinnedHistogram",
    "Counter",
    "LatencyStat",
    "StatsRegistry",
    "format_table",
    "normalize",
]
