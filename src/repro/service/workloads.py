"""Tenant workload mixes: job templates, pipelines, and service times.

The service's traffic is described by a :class:`Mix` — a set of tenants,
each submitting a weighted blend of *work*: single :class:`JobTemplate`
requests (small DWT transforms, instruction-mix analytics) and
:class:`PipelineTemplate` DAGs in the style of the multispectral fusion
cluster of PAPERS.md ("Fusion of multispectral satellite imagery using a
cluster of GPUs"): a fan-out of per-band decompositions, a fusion-rule
stage, and an inverse transform, each stage gated on the previous one.

Service times are *measured, not invented*: :class:`EngineOracle` runs
each distinct template once through the :mod:`repro.runtime` executor on
a dedicated machine of the template's rank count and caches the virtual
seconds.  Partition runs are digest-identical to standalone runs of the
same size (pinned by ``tests/test_runtime_scheduler.py``), so the cached
time is exact for every later submission of the same template and the
service loop never has to re-simulate the engine per request — which is
what makes sweeping thousands of arrivals tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.machines.partition import next_power_of_two

__all__ = [
    "JobTemplate",
    "PipelineTemplate",
    "TenantProfile",
    "Mix",
    "EngineOracle",
    "FixedOracle",
    "default_mix",
    "get_mix",
    "MIX_BUILDERS",
]


@dataclass(frozen=True)
class JobTemplate:
    """One reusable request shape a tenant submits.

    ``program`` is a :mod:`repro.runtime` registry name; wavelet
    templates carry image ``size``/``filter_length``/``levels``/
    ``kernel`` (any :func:`repro.wavelet.plan.parse_kernel_spec` spec —
    ``"conv"``, ``"lifting"``, ``"fused"``/``"fused:N"``,
    ``"single-loop"``), workload templates a trace ``scale``/``repeats``.
    ``batchable`` marks small requests the service may coalesce into one
    fused submission (one partition allocation serving many images).
    """

    name: str
    program: str = "wavelet"
    nranks: int = 4
    size: int = 64
    filter_length: int = 4
    levels: int = 2
    kernel: str = "fused"
    scale: float = 0.1
    repeats: int = 1
    collective: str = "rdouble"
    batchable: bool = False

    @property
    def partition_size(self) -> int:
        """Buddy partition the template's rank count occupies."""
        return next_power_of_two(self.nranks)

    def build_spec(self, *, machine=None, tenant: str = "", priority: int = 0):
        """A runnable :class:`~repro.runtime.spec.JobSpec` for one item."""
        from repro.runtime import JobSpec, RunOptions

        if self.program == "wavelet":
            from repro.data import landsat_like_scene
            from repro.wavelet import filter_bank_for_length

            params = {
                "image": landsat_like_scene((self.size, self.size)),
                "bank": filter_bank_for_length(self.filter_length),
                "levels": self.levels,
            }
            options = RunOptions(
                machine=machine,
                nranks=self.nranks,
                kernel=self.kernel,
                collective=self.collective,
            )
        elif self.program == "workload":
            from repro.workload import nas_suite

            params = {"trace": nas_suite(self.scale)[0], "repeats": self.repeats}
            options = RunOptions(
                machine=machine, nranks=self.nranks, collective=self.collective
            )
        else:
            raise ConfigurationError(
                f"template {self.name!r}: program {self.program!r} is not "
                "service-templatable; use 'wavelet' or 'workload'"
            )
        return JobSpec(
            program=self.program,
            params=params,
            options=options,
            name=self.name,
            tenant=tenant,
            priority=priority,
        )


@dataclass(frozen=True)
class PipelineTemplate:
    """A multi-stage DAG of templates: stage *k+1* starts when every job
    of stage *k* has finished (the fusion paper's band-parallel shape)."""

    name: str
    stages: tuple  # tuple of tuples of template names

    def validate(self, templates: dict) -> None:
        if not self.stages:
            raise ConfigurationError(f"pipeline {self.name!r} has no stages")
        for stage in self.stages:
            if not stage:
                raise ConfigurationError(
                    f"pipeline {self.name!r} has an empty stage"
                )
            for template_name in stage:
                if template_name not in templates:
                    raise ConfigurationError(
                        f"pipeline {self.name!r} references unknown "
                        f"template {template_name!r}"
                    )


@dataclass(frozen=True)
class TenantProfile:
    """One tenant: its share of traffic, priority, and work blend.

    ``work`` maps work names to selection weights; names resolve first in
    the mix's templates, then its pipelines.  ``weight`` is the tenant's
    share of arrivals *and* its fair-share queue weight.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    work: tuple = ()  # tuple of (work_name, weight)

    def __post_init__(self):
        if self.weight <= 0.0:
            raise ConfigurationError(
                f"tenant {self.name!r} weight must be > 0, got {self.weight}"
            )
        if not self.work:
            raise ConfigurationError(f"tenant {self.name!r} has no work blend")


@dataclass(frozen=True)
class Mix:
    """A complete tenant workload mix."""

    name: str
    tenants: tuple
    templates: dict = field(default_factory=dict)
    pipelines: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.tenants:
            raise ConfigurationError(f"mix {self.name!r} has no tenants")
        for pipeline in sorted(self.pipelines.values(), key=lambda p: p.name):
            pipeline.validate(self.templates)
        for tenant in self.tenants:
            for work_name, weight in tenant.work:
                if weight <= 0.0:
                    raise ConfigurationError(
                        f"tenant {tenant.name!r} work {work_name!r} weight "
                        f"must be > 0"
                    )
                if work_name not in self.templates and work_name not in self.pipelines:
                    raise ConfigurationError(
                        f"tenant {tenant.name!r} references unknown work "
                        f"{work_name!r}"
                    )

    def tenant_weights(self) -> dict:
        """``{tenant: weight}`` for the fair-share policy."""
        return {tenant.name: tenant.weight for tenant in self.tenants}

    def with_collective(self, collective: str) -> "Mix":
        """A copy whose templates run their global reductions under the
        given all-reduce schedule (``serve --collective``).

        The name is validated eagerly; templates whose program has no
        global reduction (wavelet filtering) are left untouched rather
        than poisoned with a knob their validation would reject.
        """
        from dataclasses import replace

        from repro.machines.api import get_allreduce
        from repro.runtime.registry import get_program

        get_allreduce(collective)  # unknown name -> ConfigurationError
        templates = {
            name: (
                replace(template, collective=collective)
                if "collective" in get_program(template.program).supports
                else template
            )
            for name, template in self.templates.items()
        }
        return replace(self, templates=templates)

    def pick_tenant(self, rng) -> TenantProfile:
        """Weighted tenant draw from a seeded ``random.Random``."""
        return _weighted_pick(rng, [(t, t.weight) for t in self.tenants])

    def pick_work(self, rng, tenant: TenantProfile) -> str:
        """Weighted work-name draw for one arrival of ``tenant``."""
        return _weighted_pick(rng, list(tenant.work))

    def is_pipeline(self, work_name: str) -> bool:
        return work_name in self.pipelines

    def template_names(self) -> tuple:
        return tuple(sorted(self.templates))


def _weighted_pick(rng, weighted: list):
    total = sum(weight for _, weight in weighted)
    point = rng.random() * total
    cumulative = 0.0
    for value, weight in weighted:
        cumulative += weight
        if point < cumulative:
            return value
    return weighted[-1][0]


# --------------------------------------------------------------------------
# Service-time oracles
# --------------------------------------------------------------------------


class EngineOracle:
    """Measures each template's service time once through the engine.

    ``service_s(template)`` launches the template's job on a freshly
    built machine of the template's rank count (same spec family the
    scheduler carves partitions from) and caches
    ``Execution.total_virtual_s`` under the template name.
    """

    def __init__(self, machine: str = "paragon", *, protocol: str | None = None) -> None:
        self.machine = machine
        self.protocol = protocol
        self._cache: dict = {}

    def service_s(self, template: JobTemplate) -> float:
        cached = self._cache.get(template.name)
        if cached is not None:
            return cached
        from dataclasses import replace

        from repro.runtime import launch

        spec = template.build_spec(machine=self.machine)
        if self.protocol is not None:
            spec = replace(
                spec, options=spec.options.with_updates(protocol=self.protocol)
            )
        measured = launch(spec).total_virtual_s
        self._cache[template.name] = measured
        return measured


class FixedOracle:
    """Test oracle with prescribed service times (no engine runs)."""

    def __init__(self, times: dict, *, default_s: float | None = None) -> None:
        self.times = dict(times)
        self.default_s = default_s

    def service_s(self, template: JobTemplate) -> float:
        value = self.times.get(template.name, self.default_s)
        if value is None:
            raise ConfigurationError(
                f"FixedOracle has no service time for {template.name!r}"
            )
        return float(value)


# --------------------------------------------------------------------------
# The default tenant mix
# --------------------------------------------------------------------------


def default_mix() -> Mix:
    """Three tenants over five templates and one fusion pipeline.

    * ``interactive`` — high-priority stream of small batchable DWT
      requests (the "millions of users" fast path).
    * ``batch`` — medium DWT jobs plus instruction-mix analytics.
    * ``fusion-lab`` — the multi-stage satellite-fusion pipeline: four
      per-band decompositions fanning into a fusion rule, then an
      inverse transform.
    """
    templates = {
        "dwt-small": JobTemplate(
            name="dwt-small", program="wavelet", nranks=4, size=64,
            filter_length=4, levels=2, kernel="fused", batchable=True,
        ),
        "dwt-medium": JobTemplate(
            name="dwt-medium", program="wavelet", nranks=8, size=128,
            filter_length=4, levels=2, kernel="single-loop",
        ),
        "mix-analytics": JobTemplate(
            name="mix-analytics", program="workload", nranks=8, scale=0.2,
        ),
        "fusion-band": JobTemplate(
            name="fusion-band", program="wavelet", nranks=8, size=128,
            filter_length=4, levels=1, kernel="fused",
        ),
        "fusion-merge": JobTemplate(
            name="fusion-merge", program="workload", nranks=8, scale=0.1,
        ),
        "fusion-inverse": JobTemplate(
            name="fusion-inverse", program="wavelet", nranks=8, size=128,
            filter_length=4, levels=1, kernel="lifting",
        ),
    }
    pipelines = {
        "fusion": PipelineTemplate(
            name="fusion",
            stages=(
                ("fusion-band", "fusion-band", "fusion-band", "fusion-band"),
                ("fusion-merge",),
                ("fusion-inverse",),
            ),
        ),
    }
    tenants = (
        TenantProfile(
            name="interactive", weight=3.0, priority=2,
            work=(("dwt-small", 1.0),),
        ),
        TenantProfile(
            name="batch", weight=1.5, priority=1,
            work=(("dwt-medium", 0.7), ("mix-analytics", 0.3)),
        ),
        TenantProfile(
            name="fusion-lab", weight=0.5, priority=0,
            work=(("fusion", 1.0),),
        ),
    )
    return Mix(
        name="default", tenants=tenants, templates=templates, pipelines=pipelines
    )


MIX_BUILDERS = {"default": default_mix}


def get_mix(name: str) -> Mix:
    """Build a named mix (currently only ``"default"``)."""
    try:
        return MIX_BUILDERS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown mix {name!r}; available: {sorted(MIX_BUILDERS)}"
        ) from None
