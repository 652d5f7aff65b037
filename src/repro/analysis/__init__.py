"""Experiment analysis: sweeps, speedup/efficiency series, isoefficiency
fits, table rendering."""

from .charts import ascii_chart
from .isoefficiency import (
    IsoefficiencyFit,
    efficiency_table,
    fit_isoefficiency,
    isoefficiency_curve,
)
from .report import collect_results, results_to_markdown
from .speedup import (
    SpeedupSeries,
    parallel_overhead,
    relative_speedup,
    speedup_series,
)
from .sweep import ALGORITHMS, RunPoint, run_grid
from .tables import format_series, format_table

__all__ = [
    "ALGORITHMS",
    "IsoefficiencyFit",
    "efficiency_table",
    "fit_isoefficiency",
    "isoefficiency_curve",
    "RunPoint",
    "SpeedupSeries",
    "ascii_chart",
    "collect_results",
    "format_series",
    "format_table",
    "parallel_overhead",
    "relative_speedup",
    "results_to_markdown",
    "run_grid",
    "speedup_series",
]
