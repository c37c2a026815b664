"""Causal tracing and message-race analysis for the SPMD engine.

The engine explains *where* time goes (Appendix B's performance budget);
this package explains *why* a schedule is ordered the way it is and
whether that order is an accident of timing:

* :class:`HappensBeforeGraph` — the happens-before partial order over an
  enriched trace (program-order + message edges), with
  ``happens_before`` / ``concurrent`` queries answered from vector-clock
  components the graph derives per queried rank (the engine stamps only
  Lamport clocks).
* :func:`find_wildcard_races` / :func:`certify_deterministic` — for every
  ``ANY_SOURCE``/``ANY_TAG`` receive, the concurrent alternative sends
  that could have matched under a different interleaving; zero hazards
  certifies the schedule interleaving-independent.
* :func:`diagnose_deadlock` — wait-for graph reconstruction from a
  :class:`~repro.errors.DeadlockError`, naming the cycle and each stuck
  rank's posted receive.
* :meth:`HappensBeforeGraph.critical_path` — the longest
  duration-weighted path through the DAG is the run's causal lower
  bound; slack against ``RunResult.elapsed_s`` quantifies contention and
  placement loss (the mechanism behind the Fig. 5 naive-vs-snake gap).
* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome/Perfetto
  trace-event JSON with flow arrows for messages (``python -m repro
  trace``).
"""

from repro.machines.causality.channels import observed_channels
from repro.machines.causality.deadlock import (
    DeadlockReport,
    PostedOp,
    diagnose_deadlock,
    wait_for_edges,
)
from repro.machines.causality.export import chrome_trace, write_chrome_trace
from repro.machines.causality.graph import CriticalPathAnalysis, HappensBeforeGraph
from repro.machines.causality.races import (
    DeterminismReport,
    WildcardRace,
    certify_deterministic,
    find_wildcard_races,
)

__all__ = [
    "HappensBeforeGraph",
    "CriticalPathAnalysis",
    "WildcardRace",
    "DeterminismReport",
    "find_wildcard_races",
    "certify_deterministic",
    "PostedOp",
    "DeadlockReport",
    "wait_for_edges",
    "diagnose_deadlock",
    "chrome_trace",
    "write_chrome_trace",
    "observed_channels",
]
