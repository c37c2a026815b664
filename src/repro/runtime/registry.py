"""Program registry: every app describes itself to the runtime.

A :class:`ProgramDef` tells the runtime how to turn a
:class:`~repro.runtime.spec.JobSpec` into something the engine can run —
the rank program, its arguments, and how to assemble the per-rank return
values into the app's outcome object — plus which cross-cutting options
the program supports, so an unsupported knob (``kernel="lifting"`` on the
N-body code, say) fails loudly at submission instead of being silently
ignored.

The four built-in programs mirror the legacy drivers:

``wavelet``
    Striped/block SPMD 2-D decomposition
    (:mod:`repro.wavelet.parallel.spmd`); supports ``kernel``,
    ``decomposition``, and (striped only) checkpointing.  Assembles a
    :class:`~repro.wavelet.parallel.spmd.SpmdWaveletOutcome`.
``nbody``
    Manager-worker / replicated Barnes-Hut
    (:mod:`repro.nbody.parallel`); checkpointing with the euler
    integrator.  Assembles a
    :class:`~repro.nbody.parallel.ParallelNBodyOutcome`.
``pic``
    Worker-worker 3-D electrostatic PIC (:mod:`repro.pic.parallel`);
    checkpointing.  Assembles a
    :class:`~repro.pic.parallel.ParallelPicOutcome`.
``workload``
    Replays a NAS-like instruction trace's type mix as engine compute
    charges, evenly sharded over the ranks, with a final allreduce of the
    instruction counts — a synthetic job for exercising the scheduler
    with the Appendix C workload suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.runtime.spec import JobSpec

__all__ = [
    "Launch",
    "ProgramDef",
    "register",
    "get_program",
    "program_names",
    "build_launch",
]


@dataclass(frozen=True)
class Launch:
    """A ready-to-run job: rank program, arguments, and result assembly.

    ``assemble`` maps the finished
    :class:`~repro.machines.engine.RunResult` to the program's outcome
    object (``None`` means the run result itself is the outcome).
    """

    program: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    assemble: object = None


@dataclass(frozen=True)
class ProgramDef:
    """A registered application program.

    Parameters
    ----------
    name:
        Registry key (``spec.program``).
    build:
        ``build(spec, nranks) -> Launch`` — validates the spec against
        the target rank count and binds the rank program.
    supports:
        Option names the program honors beyond the engine-level ones
        (``record_trace``/``faults`` always apply): any of ``"kernel"``,
        ``"decomposition"``, ``"checkpointing"``, ``"collective"``.
    description:
        One-line summary for listings.
    """

    name: str
    build: object
    supports: frozenset = frozenset()
    description: str = ""

    def validate(self, spec: JobSpec) -> None:
        """Reject options the program does not support."""
        opts = spec.options
        if opts.kernel != "conv" and "kernel" not in self.supports:
            raise ConfigurationError(
                f"program {self.name!r} does not support kernel={opts.kernel!r}"
            )
        if opts.decomposition != "striped" and "decomposition" not in self.supports:
            raise ConfigurationError(
                f"program {self.name!r} does not support "
                f"decomposition={opts.decomposition!r}"
            )
        if opts.checkpoint_interval > 0 and "checkpointing" not in self.supports:
            raise ConfigurationError(
                f"program {self.name!r} does not support checkpointing"
            )
        if opts.collective != "rdouble":
            from repro.machines.api import ALLREDUCE_ALGORITHMS

            if opts.collective not in ALLREDUCE_ALGORITHMS:
                raise ConfigurationError(
                    f"unknown collective {opts.collective!r}; "
                    f"use one of {sorted(ALLREDUCE_ALGORITHMS)}"
                )
            if "collective" not in self.supports:
                raise ConfigurationError(
                    f"program {self.name!r} does not support "
                    f"collective={opts.collective!r}"
                )


_REGISTRY: dict = {}


def register(progdef: ProgramDef) -> ProgramDef:
    """Add (or replace) a program definition; returns it for chaining."""
    _REGISTRY[progdef.name] = progdef
    return progdef


def get_program(name: str) -> ProgramDef:
    """Look up a registered program by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown program {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def program_names() -> tuple:
    """Registered program names, sorted."""
    return tuple(sorted(_REGISTRY))


def build_launch(spec: JobSpec, nranks: int) -> Launch:
    """Validate ``spec`` and bind it to a rank count."""
    progdef = get_program(spec.program)
    progdef.validate(spec)
    return progdef.build(spec, nranks)


# --------------------------------------------------------------------------
# Built-in program definitions
# --------------------------------------------------------------------------


def _build_wavelet(spec: JobSpec, nranks: int) -> Launch:
    import numpy as np

    from repro.errors import DecompositionError
    from repro.wavelet.kernels import get_kernel
    from repro.wavelet.parallel.decomposition import (
        BlockDecomposition,
        StripeDecomposition,
        factor_grid,
    )
    from repro.wavelet.parallel.spmd import (
        _assemble_block,
        _assemble_striped,
        block_wavelet_program,
        striped_wavelet_program,
    )

    opts = spec.options
    image = np.asarray(spec.params["image"], dtype=np.float64)
    bank = spec.params["bank"]
    levels = int(spec.params["levels"])
    distribute = bool(spec.param("distribute", True))
    collect = bool(spec.param("collect", True))
    get_kernel(opts.kernel)  # rejects unknown kernels up front
    kwargs = dict(distribute=distribute, collect=collect, kernel=opts.kernel)

    if opts.decomposition == "striped":
        decomp = StripeDecomposition(image.shape[0], image.shape[1], nranks, levels)
        program = striped_wavelet_program
        if opts.checkpoint_interval > 0:
            kwargs["checkpoint_interval"] = opts.checkpoint_interval

        def assemble(run):
            from repro.wavelet.parallel.spmd import SpmdWaveletOutcome

            pyramid = None
            if run.results[0] is not None and (collect or nranks == 1):
                pyramid = _assemble_striped(run.results[0], bank.name, levels)
            return SpmdWaveletOutcome(run=run, pyramid=pyramid)

    elif opts.decomposition == "block":
        if opts.checkpoint_interval > 0:
            raise ConfigurationError(
                "checkpointing is only supported for the striped decomposition"
            )
        prows, pcols = factor_grid(nranks)
        decomp = BlockDecomposition(image.shape[0], image.shape[1], prows, pcols, levels)
        program = block_wavelet_program

        def assemble(run):
            from repro.wavelet.parallel.spmd import SpmdWaveletOutcome

            pyramid = None
            if run.results[0] is not None and (collect or nranks == 1):
                pyramid = _assemble_block(run.results[0], decomp, bank.name, levels)
            return SpmdWaveletOutcome(run=run, pyramid=pyramid)

    else:
        raise DecompositionError(
            f"unknown decomposition {opts.decomposition!r}; use 'striped' or 'block'"
        )

    return Launch(
        program=program,
        args=(image, bank, levels, decomp),
        kwargs=kwargs,
        assemble=assemble,
    )


def _build_nbody(spec: JobSpec, nranks: int) -> Launch:
    from repro.nbody.parallel import (
        ParallelNBodyOutcome,
        manager_worker_program,
        replicated_program,
    )

    opts = spec.options
    particles = spec.params["particles"]
    steps = int(spec.params["steps"])
    model = spec.param("model", "manager_worker")
    programs = {
        "manager_worker": manager_worker_program,
        "replicated": replicated_program,
    }
    try:
        program = programs[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown model {model!r}; use 'manager_worker' or 'replicated'"
        ) from None
    kwargs = {
        key: value
        for key, value in spec.params.items()
        if key not in ("particles", "steps", "model")
    }
    if opts.checkpoint_interval > 0:
        if model != "manager_worker":
            raise ConfigurationError(
                "checkpointing is only supported for the manager_worker model"
            )
        kwargs["checkpoint_interval"] = opts.checkpoint_interval

    def assemble(run):
        from repro.data.particles import ParticleSet

        final = run.results[0]
        out_particles = ParticleSet(
            positions=final["positions"],
            velocities=final["velocities"],
            masses=particles.masses.copy(),
        )
        return ParallelNBodyOutcome(
            run=run,
            particles=out_particles,
            interactions_per_step=final["interactions_per_step"],
        )

    return Launch(
        program=program, args=(particles, steps), kwargs=kwargs, assemble=assemble
    )


def _build_pic(spec: JobSpec, nranks: int) -> Launch:
    from repro.pic.parallel import ParallelPicOutcome, pic_program

    opts = spec.options
    grid = spec.params["grid"]
    particles = spec.params["particles"]
    steps = int(spec.params["steps"])
    kwargs = {
        key: value
        for key, value in spec.params.items()
        if key not in ("grid", "particles", "steps")
    }
    if opts.checkpoint_interval > 0:
        kwargs["checkpoint_interval"] = opts.checkpoint_interval
    if opts.collective != "rdouble":
        # The charge-density combine is the program's global reduction;
        # the scalar dt allreduce stays on recursive doubling either way.
        kwargs["global_sum"] = opts.collective

    def assemble(run):
        import numpy as np

        from repro.data.particles import ParticleSet

        result = run.results[0]
        positions = np.vstack([p[0] for p in result["pieces"]])
        velocities = np.vstack([p[1] for p in result["pieces"]])
        masses = particles.masses[: positions.shape[0]].copy()
        out = ParticleSet(positions, velocities, masses)
        return ParallelPicOutcome(run=run, particles=out, dts=result["dts"])

    return Launch(
        program=pic_program,
        args=(grid, particles, steps),
        kwargs=kwargs,
        assemble=assemble,
    )


def _workload_program(ctx, mix_counts: dict, repeats: int, collective: str = "rdouble"):
    """Rank program replaying an instruction-type mix as compute charges.

    ``mix_counts`` maps engine cost categories (``flops``/``intops``/
    ``memops``) to total instruction counts; each rank charges an even
    share per repeat, then the counts are allreduced as the SPMD epilogue
    (``collective`` picks the schedule; scalar payloads are
    value-identical either way).
    """
    from repro.machines.api import get_allreduce

    allred = get_allreduce(collective)
    share = {k: v / ctx.nranks for k, v in mix_counts.items()}
    for _ in range(repeats):
        yield ctx.compute(
            flops=share.get("flops", 0.0),
            intops=share.get("intops", 0.0),
            memops=share.get("memops", 0.0),
        )
    total = yield from allred(ctx, sum(share.values()))
    return {"instructions": total, "rank_share": sum(share.values())}


def _build_workload(spec: JobSpec, nranks: int) -> Launch:
    opts = spec.options
    trace = spec.params["trace"]
    repeats = int(spec.param("repeats", 1))
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    # Map the five-type workload mix onto the engine's three cost buckets
    # (control/branch instructions execute on the integer units).
    mix = trace.type_mix()
    n = float(len(trace))
    counts = {
        "intops": n * float(mix[0] + mix[3] + mix[4]),
        "memops": n * float(mix[1]),
        "flops": n * float(mix[2]),
    }

    def assemble(run):
        return run

    kwargs = {}
    if opts.collective != "rdouble":
        kwargs["collective"] = opts.collective
    return Launch(
        program=_workload_program,
        args=(counts, repeats),
        kwargs=kwargs,
        assemble=assemble,
    )


register(
    ProgramDef(
        name="wavelet",
        build=_build_wavelet,
        supports=frozenset({"kernel", "decomposition", "checkpointing"}),
        description="SPMD 2-D wavelet decomposition (striped/block)",
    )
)
register(
    ProgramDef(
        name="nbody",
        build=_build_nbody,
        supports=frozenset({"checkpointing"}),
        description="Barnes-Hut N-body (manager-worker/replicated)",
    )
)
register(
    ProgramDef(
        name="pic",
        build=_build_pic,
        supports=frozenset({"checkpointing", "collective"}),
        description="3-D electrostatic PIC (worker-worker)",
    )
)
register(
    ProgramDef(
        name="workload",
        build=_build_workload,
        supports=frozenset({"collective"}),
        description="NAS-like instruction-mix replay",
    )
)
