"""Accounting sink and steady-state metrics for the service loop.

Every event the :class:`~repro.service.loop.Service` emits lands here:
offered/shed/completed work items, pipeline completions, and periodic
backlog samples.  :meth:`Accounting.snapshot` reduces the raw records to
the dashboard numbers — p50/p99 queue wait and turnaround, utilization,
backlog depth, shed rate, per-tenant breakdowns — as a schema-versioned
document (``repro.service.snapshot/v1``) that
:func:`validate_snapshot` checks structurally.

Percentiles use the deterministic nearest-rank method (no interpolation)
so pinned-seed tests can assert exact values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "SNAPSHOT_SCHEMA",
    "ItemRecord",
    "Accounting",
    "percentile",
    "validate_snapshot",
    "write_snapshot_json",
]

SNAPSHOT_SCHEMA = "repro.service.snapshot/v1"


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    if not values:
        raise ConfigurationError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    rank = max(1, min(len(ordered), rank))
    return float(ordered[rank - 1])


def _dist(values: list) -> dict:
    """p50/p99/mean/max summary of a latency sample (0s when empty)."""
    if not values:
        return {"count": 0, "p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "p50": percentile(values, 50.0),
        "p99": percentile(values, 99.0),
        "mean": float(sum(values)) / len(values),
        "max": float(max(values)),
    }


@dataclass(frozen=True)
class ItemRecord:
    """One completed logical work item (a single image/job in a batch)."""

    tenant: str
    template: str
    arrival_s: float
    start_s: float
    finish_s: float
    batch_size: int = 1

    @property
    def queue_wait_s(self) -> float:
        """Arrival to partition allocation (includes batching delay)."""
        return self.start_s - self.arrival_s

    @property
    def turnaround_s(self) -> float:
        return self.finish_s - self.arrival_s


@dataclass
class Accounting:
    """Append-only sink the service loop reports into."""

    offered: int = 0
    sheds: list = field(default_factory=list)
    items: list = field(default_factory=list)
    pipelines: list = field(default_factory=list)  # (arrival_s, finish_s, tenant)
    backlog_samples: list = field(default_factory=list)  # (t_s, depth)
    busy_node_s: float = 0.0
    submissions: int = 0

    # -- event hooks ---------------------------------------------------------

    def record_offered(self, n: int = 1) -> None:
        self.offered += n

    def record_shed(self, rejection) -> None:
        self.sheds.append(rejection)

    def record_submission(self) -> None:
        self.submissions += 1

    def record_items(self, records: list) -> None:
        self.items.extend(records)

    def record_pipeline(self, arrival_s: float, finish_s: float, tenant: str) -> None:
        self.pipelines.append((arrival_s, finish_s, tenant))

    def record_backlog(self, t_s: float, depth: int) -> None:
        self.backlog_samples.append((t_s, depth))

    def record_service(self, partition_size: int, service_s: float) -> None:
        self.busy_node_s += partition_size * service_s

    # -- reductions ----------------------------------------------------------

    @property
    def shed_count(self) -> int:
        return len(self.sheds)

    @property
    def shed_rate(self) -> float:
        """Fraction of offered work items turned away at the door."""
        return self.shed_count / self.offered if self.offered else 0.0

    def utilization(self, usable_nodes: int, elapsed_s: float) -> float:
        """Busy node-seconds over the machine's node-seconds."""
        if usable_nodes <= 0 or elapsed_s <= 0.0:
            return 0.0
        return self.busy_node_s / (usable_nodes * elapsed_s)

    def snapshot(
        self, *, config: dict, usable_nodes: int, elapsed_s: float,
        backlog_end: int,
    ) -> dict:
        """The schema-versioned steady-state metrics document."""
        queue_waits = [item.queue_wait_s for item in self.items]
        turnarounds = [item.turnaround_s for item in self.items]
        depths = [depth for _, depth in self.backlog_samples]

        tenants = sorted(
            {item.tenant for item in self.items}
            | {shed.tenant for shed in self.sheds}
        )
        per_tenant = []
        for tenant in tenants:
            mine = [item for item in self.items if item.tenant == tenant]
            shed = sum(1 for s in self.sheds if s.tenant == tenant)
            per_tenant.append(
                {
                    "tenant": tenant,
                    "completed": len(mine),
                    "shed": shed,
                    "queue_wait": _dist([i.queue_wait_s for i in mine]),
                    "turnaround": _dist([i.turnaround_s for i in mine]),
                }
            )

        shed_reasons: dict = {}
        for rejection in self.sheds:
            shed_reasons[rejection.reason] = shed_reasons.get(rejection.reason, 0) + 1

        doc = {
            "schema": SNAPSHOT_SCHEMA,
            "config": dict(config),
            "jobs": {
                "offered": self.offered,
                "admitted": self.offered - self.shed_count,
                "completed": len(self.items),
                "submissions": self.submissions,
                "shed": self.shed_count,
                "shed_rate": self.shed_rate,
                "shed_reasons": dict(sorted(shed_reasons.items())),
                "pipelines_completed": len(self.pipelines),
            },
            "latency": {
                "queue_wait": _dist(queue_waits),
                "turnaround": _dist(turnarounds),
                "pipeline_makespan": _dist(
                    [finish - arrival for arrival, finish, _ in self.pipelines]
                ),
            },
            "backlog": {
                "samples": len(depths),
                "peak": int(max(depths)) if depths else 0,
                "mean": float(sum(depths)) / len(depths) if depths else 0.0,
                "end": int(backlog_end),
            },
            "utilization": self.utilization(usable_nodes, elapsed_s),
            "elapsed_s": float(elapsed_s),
            "per_tenant": per_tenant,
        }
        validate_snapshot(doc)
        return doc


_DIST_FIELDS = ("count", "p50", "p99", "mean", "max")


def _check_dist(where: str, dist) -> None:
    if not isinstance(dist, dict) or set(dist) != set(_DIST_FIELDS):
        raise ConfigurationError(f"{where}: malformed distribution summary")
    if dist["count"] < 0 or dist["p50"] > dist["p99"] + 1e-12:
        raise ConfigurationError(f"{where}: inconsistent percentiles")
    if dist["p99"] > dist["max"] + 1e-12:
        raise ConfigurationError(f"{where}: p99 exceeds max")


def validate_snapshot(doc) -> None:
    """Structural + consistency check of a service snapshot document.

    Raises :class:`~repro.errors.ConfigurationError` on any violation.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(f"snapshot must be a dict, got {type(doc)}")
    if doc.get("schema") != SNAPSHOT_SCHEMA:
        raise ConfigurationError(
            f"unknown snapshot schema {doc.get('schema')!r}; "
            f"expected {SNAPSHOT_SCHEMA!r}"
        )
    for key in ("config", "jobs", "latency", "backlog"):
        if not isinstance(doc.get(key), dict):
            raise ConfigurationError(f"snapshot is missing its {key!r} dict")
    jobs = doc["jobs"]
    for key in ("offered", "admitted", "completed", "shed", "submissions"):
        value = jobs.get(key)
        if not isinstance(value, int) or value < 0:
            raise ConfigurationError(f"jobs.{key} must be a non-negative int")
    if jobs["admitted"] + jobs["shed"] != jobs["offered"]:
        raise ConfigurationError("jobs: admitted + shed != offered")
    if not 0.0 <= jobs["shed_rate"] <= 1.0:
        raise ConfigurationError("jobs.shed_rate outside [0, 1]")
    for key in ("queue_wait", "turnaround", "pipeline_makespan"):
        _check_dist(f"latency.{key}", doc["latency"].get(key))
    if not 0.0 <= doc.get("utilization", -1.0) <= 1.0 + 1e-9:
        raise ConfigurationError("utilization outside [0, 1]")
    backlog = doc["backlog"]
    if backlog.get("peak", -1) < 0 or backlog.get("end", -1) < 0:
        raise ConfigurationError("backlog peak/end must be >= 0")
    if not isinstance(doc.get("per_tenant"), list):
        raise ConfigurationError("snapshot is missing its per_tenant list")
    for entry in doc["per_tenant"]:
        _check_dist(f"per_tenant[{entry.get('tenant')}].turnaround",
                    entry.get("turnaround"))


def write_snapshot_json(path: str, doc: dict) -> None:
    """Validate and write a snapshot as pretty-printed JSON."""
    validate_snapshot(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
