"""Performance-budget and scalability reporting (the measurement
methodology of Appendix B Section 3).

The per-rank budget itself is collected by the engine
(:class:`repro.machines.engine.RankBudget`); this package adds speedup /
efficiency curves, the uniprocessor extrapolation device, and plain-text
rendering of the paper's tables and figures.  Host-time benchmarking is
the end-to-end harness under ``bench/``, outside the package.
"""

from repro.perf.metrics import ScalingCurve, ScalingPoint, linear_extrapolate
from repro.perf.report import (
    format_budget,
    format_critical_path,
    format_fault_sweep,
    format_profile,
    format_speedup_series,
    format_table,
    format_timeline,
)

__all__ = [
    "ScalingPoint",
    "ScalingCurve",
    "linear_extrapolate",
    "format_table",
    "format_budget",
    "format_speedup_series",
    "format_timeline",
    "format_profile",
    "format_critical_path",
    "format_fault_sweep",
]
