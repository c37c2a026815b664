"""Command-line interface: ``python -m repro <command>``.

Thin drivers over the library for running the paper's experiments without
writing code:

``wavelet``
    Decompose a synthetic scene on a chosen machine and report timing and
    the performance budget (optionally a timeline).
``nbody``
    Run the manager-worker Barnes-Hut simulation.
``pic``
    Run the worker-worker PIC simulation.
``workload``
    Characterize the NAS-like suite (centroids, similarity, smoothability).
``table1``
    Regenerate Appendix A Table 1.
``trace``
    Causal analysis of one traced run: wildcard-race certification,
    critical-path lower bound and slack, optional Chrome/Perfetto
    trace-event JSON export (``--out``).
``faults``
    Fault-injection sweep: run an app under seeded message faults,
    stragglers, and crashes with checkpoint/restart recovery, verify the
    recovered output against the fault-free reference, and report the
    overhead-vs-fault-rate table.
``schedule``
    Space-share one machine between several queued jobs through the
    runtime :class:`~repro.runtime.scheduler.Scheduler` (buddy
    power-of-two partitions, FIFO + backfill) and report per-job
    queue-wait/service/turnaround plus makespan and utilization.
``serve``
    Multi-tenant service simulation in virtual time: seeded open-loop
    arrivals over a tenant mix, admission control, batching, fair-share
    or FIFO queueing over buddy partitions, p50/p99 steady-state metrics
    (``repro.service.snapshot/v1``).  ``--sweep`` runs the closed-loop
    autopilot across an offered-load grid and reports the saturation
    knee (``repro.service.loadsweep/v1``).
``attack``
    Adversarial scenario suite: certify registered hostile-rank
    scenarios detect-or-survive against the SPMD apps, fuzz the
    (scenario, seed, placement) grid into a persisted findings corpus
    (``--fuzz``), replay persisted findings bitwise (``--replay``), or
    re-measure the service saturation knee under a hostile-tenant
    flood (``--knee``).

Every simulated-machine subcommand goes through the
:mod:`repro.runtime` layer: the flags assemble a
:class:`~repro.runtime.spec.JobSpec` and the registry/executor do the
rest.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Wavelet Decomposition on High-Performance "
        "Computing Systems' (ICPP 1996) and companion JNNIE studies.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    wavelet = sub.add_parser("wavelet", help="parallel wavelet decomposition")
    wavelet.add_argument("--size", type=int, default=512, help="image side (default 512)")
    wavelet.add_argument("--filter", type=int, default=8, choices=(2, 4, 8), dest="filter_length")
    wavelet.add_argument("--levels", type=int, default=1)
    wavelet.add_argument("--procs", type=int, default=32)
    wavelet.add_argument(
        "--machine", default="paragon", choices=("paragon", "t3d", "workstation", "maspar")
    )
    wavelet.add_argument("--placement", default="snake", choices=("snake", "naive"))
    wavelet.add_argument(
        "--kernel", default="conv",
        help="filtering kernel: conv, lifting, fused, or single-loop "
        "(default conv)",
    )
    wavelet.add_argument("--timeline", action="store_true", help="render an ASCII Gantt chart")

    nbody = sub.add_parser("nbody", help="Barnes-Hut N-body on a simulated machine")
    nbody.add_argument("--bodies", type=int, default=4096)
    nbody.add_argument("--steps", type=int, default=2)
    nbody.add_argument("--procs", type=int, default=16)
    nbody.add_argument("--machine", default="paragon", choices=("paragon", "t3d"))
    nbody.add_argument("--theta", type=float, default=0.6)
    nbody.add_argument("--model", default="manager_worker", choices=("manager_worker", "replicated"))

    pic = sub.add_parser("pic", help="3-D electrostatic PIC on a simulated machine")
    pic.add_argument("--particles", type=int, default=65536)
    pic.add_argument("--grid", type=int, default=32, dest="grid_m")
    pic.add_argument("--steps", type=int, default=2)
    pic.add_argument("--procs", type=int, default=16)
    pic.add_argument("--machine", default="paragon", choices=("paragon", "t3d"))
    pic.add_argument("--global-sum", default="prefix", choices=("prefix", "gssum"))

    workload = sub.add_parser("workload", help="characterize the NAS-like suite")
    workload.add_argument("--scale", type=float, default=1.0)

    sub.add_parser("table1", help="regenerate Appendix A Table 1")

    trace = sub.add_parser(
        "trace", help="causal analysis: races, critical path, Chrome trace export"
    )
    trace.add_argument(
        "--program", default="wavelet", choices=("wavelet", "nbody", "pic")
    )
    trace.add_argument("--size", type=int, default=512, help="image side (wavelet)")
    trace.add_argument("--filter", type=int, default=8, choices=(2, 4, 8), dest="filter_length")
    trace.add_argument("--levels", type=int, default=1)
    trace.add_argument("--bodies", type=int, default=1024, help="bodies (nbody)")
    trace.add_argument("--particles", type=int, default=4096, help="particles (pic)")
    trace.add_argument("--grid", type=int, default=16, dest="grid_m")
    trace.add_argument("--steps", type=int, default=1, help="steps (nbody/pic)")
    trace.add_argument("--procs", type=int, default=16)
    trace.add_argument("--machine", default="paragon", choices=("paragon", "t3d"))
    trace.add_argument("--placement", default="snake", choices=("snake", "naive"))
    trace.add_argument("--out", default=None, help="write Chrome trace-event JSON here")

    faults = sub.add_parser(
        "faults", help="seeded fault-injection sweep with checkpoint/restart recovery"
    )
    faults.add_argument(
        "--program", default="wavelet", choices=("wavelet", "nbody", "pic")
    )
    faults.add_argument("--size", type=int, default=128, help="image side (wavelet)")
    faults.add_argument("--filter", type=int, default=4, choices=(2, 4, 8), dest="filter_length")
    faults.add_argument("--levels", type=int, default=2)
    faults.add_argument("--bodies", type=int, default=256, help="bodies (nbody)")
    faults.add_argument("--particles", type=int, default=1024, help="particles (pic)")
    faults.add_argument("--grid", type=int, default=8, dest="grid_m")
    faults.add_argument("--steps", type=int, default=3, help="steps (nbody/pic)")
    faults.add_argument("--procs", type=int, default=8)
    faults.add_argument("--machine", default="paragon", choices=("paragon", "t3d"))
    faults.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    faults.add_argument(
        "--rates",
        default="0.0,0.05,0.1,0.2,0.4",
        help="comma-separated fault rates to sweep",
    )
    faults.add_argument(
        "--checkpoint-interval", type=int, default=1,
        help="steps/levels between coordinated checkpoints (0 disables)",
    )
    faults.add_argument(
        "--max-restarts", type=int, default=8,
        help="restart budget per scenario before giving up",
    )

    schedule = sub.add_parser(
        "schedule", help="space-share one machine between several queued jobs"
    )
    schedule.add_argument(
        "--machine", default="paragon", choices=("paragon", "t3d", "workstation")
    )
    schedule.add_argument(
        "--job",
        action="append",
        dest="jobs",
        metavar="PROG:PROCS",
        help="queued job as program:procs (wavelet/nbody/pic/workload); "
        "repeatable; default two 32-rank wavelet jobs",
    )
    schedule.add_argument("--size", type=int, default=256, help="image side (wavelet)")
    schedule.add_argument("--filter", type=int, default=4, choices=(2, 4, 8), dest="filter_length")
    schedule.add_argument("--levels", type=int, default=2)
    schedule.add_argument("--bodies", type=int, default=256, help="bodies (nbody)")
    schedule.add_argument("--particles", type=int, default=1024, help="particles (pic)")
    schedule.add_argument("--grid", type=int, default=8, dest="grid_m")
    schedule.add_argument("--steps", type=int, default=2, help="steps (nbody/pic)")
    schedule.add_argument(
        "--seed", type=int, default=0,
        help="arrival-stream seed (with --arrival)",
    )
    schedule.add_argument(
        "--arrival", default=None, metavar="KIND:RATE",
        help="stagger submissions with a seeded arrival process "
        "(poisson|bursty|diurnal, e.g. poisson:2.0); default: all at t=0",
    )
    schedule.add_argument(
        "--count", type=int, default=0,
        help="with --arrival: total submissions, cycling the --job pool "
        "(default: one per --job entry)",
    )
    schedule.add_argument(
        "--policy", default="fifo", choices=("fifo", "fair"),
        help="queue policy (default fifo)",
    )
    schedule.add_argument(
        "--collective", default="rdouble", choices=("rdouble", "rabenseifner"),
        help="all-reduce schedule for programs with global reductions "
        "(pic/workload; default rdouble)",
    )

    serve = sub.add_parser(
        "serve", help="multi-tenant service simulation (virtual time)"
    )
    serve.add_argument(
        "--machine", default="paragon", choices=("paragon", "t3d", "workstation")
    )
    serve.add_argument("--mix", default="default", help="tenant mix name")
    serve.add_argument(
        "--arrival", default="poisson", metavar="KIND[:RATE]",
        help="arrival process: poisson|bursty|diurnal, optional rate/s "
        "(default poisson at --load x capacity)",
    )
    serve.add_argument(
        "--load", type=float, default=0.7,
        help="offered load as a fraction of estimated capacity, used when "
        "--arrival carries no rate (default 0.7)",
    )
    serve.add_argument("--horizon", type=float, default=60.0, dest="horizon_s",
                       help="arrival horizon in virtual seconds (default 60)")
    serve.add_argument("--seed", type=int, default=0, help="simulation seed")
    serve.add_argument(
        "--policy", default="fair", choices=("fifo", "fair"),
        help="queue policy (default fair = weighted fair-share)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=0,
        help="shed arrivals beyond this total backlog (0 = off)",
    )
    serve.add_argument(
        "--tenant-backlog", type=int, default=0,
        help="shed arrivals beyond this per-tenant backlog (0 = off)",
    )
    serve.add_argument(
        "--sweep", action="store_true",
        help="closed-loop load sweep: find the saturation knee",
    )
    serve.add_argument(
        "--sweep-loads", default=None, metavar="M1,M2,...",
        help="ascending offered-load multipliers for --sweep "
        "(default 0.25,0.5,0.75,1.0,1.5,2.0)",
    )
    serve.add_argument(
        "--collective", default="rdouble", choices=("rdouble", "rabenseifner"),
        help="all-reduce schedule for templates with global reductions "
        "(default rdouble)",
    )
    serve.add_argument(
        "--format", choices=("human", "json"), default="human", dest="fmt",
        help="report format (default human)",
    )
    serve.add_argument("--out", default=None, help="also write the JSON report here")

    attack = sub.add_parser(
        "attack", help="adversarial scenarios: certify, fuzz, replay"
    )
    attack.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario id to certify (default: the full registered matrix)",
    )
    attack.add_argument(
        "--app", default=None, choices=("wavelet", "nbody", "pic"),
        help="restrict certification to one target app (default: all)",
    )
    attack.add_argument("--seed", type=int, default=0, help="adversary seed")
    attack.add_argument(
        "--placement", type=int, default=None,
        help="move the adversary to this rank (default: as registered)",
    )
    attack.add_argument(
        "--list", action="store_true",
        help="list registered scenarios with expected verdicts and exit",
    )
    attack.add_argument(
        "--fuzz", action="store_true",
        help="sweep the (scenario, app, seed, placement) grid",
    )
    attack.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="fuzz seeds (default 0,1)",
    )
    attack.add_argument(
        "--placements", default=None, metavar="R1,R2,...",
        help="fuzz adversary placements (default 1,2)",
    )
    attack.add_argument(
        "--corpus", default=None, metavar="PATH",
        help="findings corpus: --fuzz merges novel findings into it, "
        "--replay re-certifies from it",
    )
    attack.add_argument(
        "--replay", default=None, metavar="FINDING_ID",
        help="re-certify one persisted finding from --corpus bitwise "
        "('all' replays every finding)",
    )
    attack.add_argument(
        "--knee", action="store_true",
        help="re-measure the service load-sweep knee under a "
        "hostile-tenant flood (clean vs attacked vs defended)",
    )
    attack.add_argument(
        "--machine", default="paragon", choices=("paragon", "t3d", "workstation"),
        help="service machine for --knee (default paragon)",
    )
    attack.add_argument("--mix", default="default", help="tenant mix for --knee")
    attack.add_argument(
        "--horizon", type=float, default=40.0, dest="horizon_s",
        help="arrival horizon per --knee sweep point (default 40)",
    )
    attack.add_argument(
        "--format", choices=("human", "json"), default="human", dest="fmt",
        help="report format (default human)",
    )
    attack.add_argument("--out", default=None, help="also write the JSON report here")

    lint = sub.add_parser(
        "lint",
        help="static communication/determinism/charging/protocol analysis",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or package dirs to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("human", "json", "sarif"), default="human", dest="fmt",
        help="report format (default human)",
    )
    lint.add_argument(
        "--protocol", action="store_true",
        help="also run the whole-program protocol verifier (PROTO-* rules) "
        "over the registered SPMD programs",
    )
    lint.add_argument("--baseline", help="reviewed baseline JSON to subtract")
    lint.add_argument(
        "--write-baseline", metavar="PATH",
        help="write current findings as a baseline file and exit 0",
    )
    lint.add_argument(
        "--comm-summary", action="store_true",
        help="dump per-module static communication summaries instead of findings",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also list suppressed and baselined findings",
    )
    return parser


def _mimd_options(args, placement: str = "snake", **extra):
    """The RunOptions the legacy ``_mimd_machine`` helper used to imply:
    NX message protocol on the Paragon, calibrated defaults elsewhere."""
    from repro.runtime import RunOptions

    protocol = "nx" if args.machine == "paragon" else None
    return RunOptions(
        machine=args.machine,
        nranks=args.procs,
        placement=placement,
        protocol=protocol,
        **extra,
    )


def _cmd_wavelet(args) -> int:
    from repro.data import landsat_like_scene
    from repro.machines.simd import MasParMachine, maspar_mp2
    from repro.perf import format_budget, format_timeline
    from repro.runtime import JobSpec, launch
    from repro.wavelet import filter_bank_for_length
    from repro.wavelet.parallel import simd_mallat_decompose

    image = landsat_like_scene((args.size, args.size))
    bank = filter_bank_for_length(args.filter_length)
    print(
        f"decomposing {args.size}x{args.size}, {bank.name}, "
        f"{args.levels} level(s) on {args.machine}"
    )
    if args.machine == "maspar":
        from repro.wavelet.kernels import get_kernel

        # Map the MIMD kernel onto the closest SIMD formulation: conv
        # filters run systolically, the single-loop sweep keeps its
        # monolithic form, and the other lifting kernels run the
        # decimate-first lane algorithm.
        algorithm = {"conv": "systolic", "single-loop": "single-loop"}.get(
            get_kernel(args.kernel).name, "lifting"
        )
        machine = MasParMachine(maspar_mp2(), "hierarchical")
        outcome = simd_mallat_decompose(
            machine, image, bank, args.levels, algorithm=algorithm
        )
        print(f"algorithm: {outcome.algorithm}")
        print(f"virtual time: {outcome.elapsed_s:.4f} s "
              f"({1 / outcome.elapsed_s:.0f} images/second)")
        for kind, share in outcome.stats.fractions().items():
            print(f"  {kind:<10}{share:.0%}")
        return 0

    spec = JobSpec(
        program="wavelet",
        params={"image": image, "bank": bank, "levels": args.levels},
        options=_mimd_options(
            args,
            placement=args.placement,
            kernel=args.kernel,
            record_trace=args.timeline,
        ),
    )
    execution = launch(spec)
    if args.timeline:
        print(format_timeline("decomposition timeline", execution.run))
        print(f"virtual time: {execution.run.elapsed_s:.4f} s")
        return 0
    print(f"virtual time: {execution.run.elapsed_s:.4f} s")
    print(format_budget("performance budget", execution.run))
    return 0


def _cmd_nbody(args) -> int:
    from repro.data import plummer_sphere
    from repro.perf import format_budget
    from repro.runtime import JobSpec, execute, resolve_machine

    particles = plummer_sphere(args.bodies, dim=2, seed=0)
    spec = JobSpec(
        program="nbody",
        params={
            "particles": particles,
            "steps": args.steps,
            "theta": args.theta,
            "model": args.model,
        },
        options=_mimd_options(args),
    )
    machine = resolve_machine(spec.options)
    outcome = execute(machine, spec).outcome
    print(
        f"{args.bodies} bodies, {args.steps} steps on {machine.name}: "
        f"{outcome.run.elapsed_s:.3f} virtual s"
    )
    print(
        "interactions/step:",
        ", ".join(f"{i:,}" for i in outcome.interactions_per_step),
    )
    print(format_budget("performance budget", outcome.run))
    return 0


def _cmd_pic(args) -> int:
    from repro.data import uniform_cube
    from repro.perf import format_budget
    from repro.pic import Grid3D
    from repro.runtime import JobSpec, execute, resolve_machine

    particles = uniform_cube(args.particles, thermal_speed=0.05, seed=0)
    spec = JobSpec(
        program="pic",
        params={
            "grid": Grid3D(args.grid_m),
            "particles": particles,
            "steps": args.steps,
            "global_sum": args.global_sum,
            "collect": False,
        },
        options=_mimd_options(args),
    )
    machine = resolve_machine(spec.options)
    outcome = execute(machine, spec).outcome
    print(
        f"{args.particles} particles, {args.grid_m}^3 grid, {args.steps} steps "
        f"on {machine.name}: {outcome.run.elapsed_s:.3f} virtual s"
    )
    print("adaptive dt per step:", ", ".join(f"{dt:.4g}" for dt in outcome.dts))
    print(format_budget("performance budget", outcome.run))
    return 0


def _cmd_workload(args) -> int:
    from repro.perf import format_table
    from repro.workload import (
        INSTRUCTION_TYPES,
        nas_suite,
        oracle_schedule,
        similarity_matrix,
        smoothability,
    )

    suite = nas_suite(args.scale)
    workloads = [oracle_schedule(t).workload for t in suite]
    names = [t.name for t in suite]
    rows = []
    for trace, workload in zip(suite, workloads):
        smooth = smoothability(trace)
        rows.append(
            [trace.name, f"{workload.average_parallelism:.1f}", f"{smooth.smoothability:.3f}"]
            + [f"{v:.1f}" for v in workload.centroid()]
        )
    print(
        format_table(
            "NAS-like suite characterization",
            ["kernel", "avg_par", "smooth"] + list(INSTRUCTION_TYPES),
            rows,
        )
    )
    matrix = similarity_matrix(workloads)
    sim_rows = [
        [names[i]] + [f"{matrix[i, j]:.2f}" for j in range(i + 1)]
        for i in range(len(names))
    ]
    print()
    print(format_table("pairwise similarity (0=identical)", ["kernel"] + names, sim_rows))
    print()
    from repro.perf import format_profile

    for trace, workload in zip(suite, workloads):
        print(format_profile(f"{trace.name} parallelism profile", workload.parallelism_profile()))
    return 0


def _cmd_table1(args) -> int:
    from repro.data import landsat_like_scene
    from repro.machines import paragon, workstation
    from repro.machines.simd import MasParMachine, maspar_mp2
    from repro.perf import format_table
    from repro.wavelet import filter_bank_for_length
    from repro.wavelet.parallel import run_spmd_wavelet, simd_mallat_decompose

    image = landsat_like_scene((512, 512))
    rows = []
    machines = [
        ("MasPar MP-2 (16K)", None),
        ("Paragon 1 proc", paragon(1)),
        ("Paragon 32 proc", paragon(32)),
        ("DEC 5000", workstation()),
    ]
    for label, machine in machines:
        cells = []
        for filter_length, levels in ((8, 1), (4, 2), (2, 4)):
            bank = filter_bank_for_length(filter_length)
            if machine is None:
                simd = simd_mallat_decompose(
                    MasParMachine(maspar_mp2(), "hierarchical"), image, bank, levels
                )
                cells.append(f"{simd.elapsed_s:.4f}")
            else:
                outcome = run_spmd_wavelet(machine, image, bank, levels)
                cells.append(f"{outcome.run.elapsed_s:.4f}")
        rows.append([label] + cells)
    print(
        format_table(
            "Appendix A Table 1 (virtual seconds)",
            ["machine", "F8/L1", "F4/L2", "F2/L4"],
            rows,
        )
    )
    return 0


def _traced_run(args):
    """Run the selected program with tracing on and return its RunResult."""
    from repro.runtime import JobSpec, execute, resolve_machine

    if args.program == "wavelet":
        from repro.data import landsat_like_scene
        from repro.wavelet import filter_bank_for_length

        image = landsat_like_scene((args.size, args.size))
        bank = filter_bank_for_length(args.filter_length)
        label = f"{args.size}x{args.size} F{args.filter_length}/L{args.levels} wavelet"
        # Appendix A's wavelet study ran over PVM (the Fig. 5 calibration);
        # the nbody/pic programs below use the NX regime like Appendix B.
        options = _mimd_options(args, placement=args.placement, record_trace=True)
        if args.machine == "paragon":
            options = options.with_updates(protocol="pvm")
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": bank, "levels": args.levels},
            options=options,
        )
    elif args.program == "nbody":
        from repro.data import plummer_sphere

        particles = plummer_sphere(args.bodies, dim=2, seed=0)
        label = f"{args.bodies}-body manager-worker"
        spec = JobSpec(
            program="nbody",
            params={"particles": particles, "steps": args.steps},
            options=_mimd_options(args, placement=args.placement, record_trace=True),
        )
    else:
        from repro.data import uniform_cube
        from repro.pic import Grid3D

        particles = uniform_cube(args.particles, thermal_speed=0.05, seed=0)
        label = f"{args.particles}-particle PIC"
        spec = JobSpec(
            program="pic",
            params={
                "grid": Grid3D(args.grid_m),
                "particles": particles,
                "steps": args.steps,
                "collect": False,
            },
            options=_mimd_options(args, placement=args.placement, record_trace=True),
        )
    machine = resolve_machine(spec.options)
    run = execute(machine, spec).run
    return machine, label, run


def _cmd_trace(args) -> int:
    from repro.machines.causality import (
        HappensBeforeGraph,
        certify_deterministic,
        write_chrome_trace,
    )
    from repro.perf import format_critical_path

    machine, label, run = _traced_run(args)
    print(f"traced {label} on {machine.name}: {len(run.trace)} events, "
          f"{run.messages_sent} messages")

    graph = HappensBeforeGraph(run.trace)
    report = certify_deterministic(graph)
    if report.deterministic:
        print(
            f"race detector: {report.wildcard_recvs} wildcard recv(s), 0 hazards "
            "-> message matching is interleaving-independent"
        )
    else:
        print(
            f"race detector: {len(report.races)} nondeterminism hazard(s) over "
            f"{report.wildcard_recvs} wildcard recv(s)"
        )
        for race in report.races:
            print(f"  {race.describe()}")

    print(format_critical_path("critical path", graph.critical_path(run.elapsed_s)))

    if args.out:
        doc = write_chrome_trace(args.out, run, machine_name=machine.name)
        print(f"wrote {len(doc['traceEvents'])} trace events to {args.out}")
    return 0


def _fault_app(args):
    """Build (label, program, prog_args, prog_kwargs) for the faults sweep.

    The sweep drives the rank program directly through the recovery driver
    (not the ``run_*`` wrapper), because the driver owns the Engine loop.
    """
    if args.program == "wavelet":
        from repro.data import landsat_like_scene
        from repro.wavelet import filter_bank_for_length
        from repro.wavelet.parallel.decomposition import StripeDecomposition
        from repro.wavelet.parallel.spmd import striped_wavelet_program

        image = landsat_like_scene((args.size, args.size))
        bank = filter_bank_for_length(args.filter_length)
        decomp = StripeDecomposition(args.size, args.size, args.procs, args.levels)
        label = f"{args.size}x{args.size} F{args.filter_length}/L{args.levels} wavelet"
        return label, striped_wavelet_program, (image, bank, args.levels, decomp), {}
    if args.program == "nbody":
        from repro.data import plummer_sphere
        from repro.nbody.parallel import manager_worker_program

        particles = plummer_sphere(args.bodies, dim=2, seed=0)
        label = f"{args.bodies}-body manager-worker"
        return label, manager_worker_program, (particles, args.steps), {}
    from repro.data import uniform_cube
    from repro.pic import Grid3D
    from repro.pic.parallel import pic_program

    particles = uniform_cube(args.particles, thermal_speed=0.05, seed=0)
    label = f"{args.particles}-particle PIC"
    grid_args = (Grid3D(args.grid_m), particles, args.steps)
    return label, pic_program, grid_args, {"collect": False}


def _cmd_faults(args) -> int:
    from repro.machines.faults import FaultPlan, payload_equal
    from repro.perf import format_fault_sweep
    from repro.runtime import resolve_machine, run_program

    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    label, program, prog_args, prog_kwargs = _fault_app(args)
    if args.checkpoint_interval > 0:
        prog_kwargs = dict(prog_kwargs, checkpoint_interval=args.checkpoint_interval)

    # Fault-free reference: the correctness oracle and the time horizon
    # that crash instants and slowdown windows are drawn from.
    machine = resolve_machine(_mimd_options(args))
    reference = run_program(machine, program, *prog_args, **prog_kwargs).run
    print(
        f"{label} on {machine.name}: fault-free reference "
        f"{reference.elapsed_s:.4f} virtual s"
    )

    rows = []
    mismatches = 0
    for rate in rates:
        plan = FaultPlan.sampled(
            args.seed, args.procs, rate, t_horizon=reference.elapsed_s
        )
        # Fresh machine per run: the contention network carries per-run state.
        outcome = run_program(
            resolve_machine(_mimd_options(args)),
            program,
            *prog_args,
            faults=plan,
            max_restarts=args.max_restarts,
            **prog_kwargs,
        )
        if not payload_equal(outcome.run.results, reference.results):
            mismatches += 1
            print(f"  WARNING: rate {rate:.2f} result differs from reference")
        stats = outcome.run.fault_stats
        rows.append(
            {
                "rate": rate,
                "elapsed_s": outcome.run.elapsed_s,
                # Overhead over *total* virtual time: a restarted final
                # attempt can be shorter than the reference (it resumes
                # from a checkpoint), but the aborted attempts still cost.
                "overhead": outcome.total_virtual_s / reference.elapsed_s - 1.0,
                "retransmits": stats["retransmits"],
                "checkpoints": stats["checkpoints"],
                "restarts": outcome.restarts,
                "lost_s": outcome.total_virtual_s - outcome.run.elapsed_s,
            }
        )
    print(format_fault_sweep(f"fault sweep (seed {args.seed})", rows))
    if mismatches == 0:
        print("all recovered runs bitwise-identical to the fault-free reference")
        return 0
    print(f"{mismatches} run(s) diverged from the fault-free reference")
    return 1


def _schedule_spec(args, entry: str, index: int):
    """Turn one ``--job prog:procs`` entry into a JobSpec."""
    from repro.errors import ConfigurationError
    from repro.runtime import JobSpec, RunOptions

    name, _, procs_text = entry.partition(":")
    try:
        procs = int(procs_text) if procs_text else 8
    except ValueError:
        raise ConfigurationError(
            f"--job expects program:procs, got {entry!r}"
        ) from None
    # The collective knob rides along verbatim: ProgramDef.validate rejects
    # it with a ConfigurationError on programs without a global reduction.
    options = RunOptions(
        nranks=procs, collective=getattr(args, "collective", "rdouble")
    )
    if name == "wavelet":
        from repro.data import landsat_like_scene
        from repro.wavelet import filter_bank_for_length

        params = {
            "image": landsat_like_scene((args.size, args.size)),
            "bank": filter_bank_for_length(args.filter_length),
            "levels": args.levels,
        }
    elif name == "nbody":
        from repro.data import plummer_sphere

        params = {
            "particles": plummer_sphere(args.bodies, dim=2, seed=0),
            "steps": args.steps,
        }
    elif name == "pic":
        from repro.data import uniform_cube
        from repro.pic import Grid3D

        params = {
            "grid": Grid3D(args.grid_m),
            "particles": uniform_cube(args.particles, thermal_speed=0.05, seed=0),
            "steps": args.steps,
            "collect": False,
        }
    elif name == "workload":
        from repro.workload import nas_suite

        params = {"trace": nas_suite(0.2)[0]}
    else:
        raise ConfigurationError(
            f"unknown --job program {name!r}; "
            "use wavelet, nbody, pic, or workload"
        )
    return JobSpec(
        program=name, params=params, options=options, name=f"{name}#{index}"
    )


def _arrival_times(process, count: int) -> list:
    """First ``count`` instants of a seeded arrival process.

    ``times()`` regenerates the identical stream from its seed on every
    call, so growing the horizon until enough events land is replay-safe.
    """
    horizon_s = max(1.0, 4.0 * count / process.mean_rate_s)
    while True:
        times = list(process.times(horizon_s))
        if len(times) >= count:
            return times[:count]
        horizon_s *= 2.0


def _cmd_schedule(args) -> int:
    from repro.perf import format_table
    from repro.runtime import Scheduler, machine_template, make_policy

    entries = args.jobs or ["wavelet:32", "wavelet:32"]
    protocol = "nx" if args.machine == "paragon" else None
    template = machine_template(args.machine, protocol=protocol)
    sched = Scheduler(template, policy=make_policy(args.policy))
    if args.arrival:
        from repro.service.arrivals import parse_arrival_spec

        process = parse_arrival_spec(args.arrival, args.seed)
        count = args.count if args.count > 0 else len(entries)
        submit_times = _arrival_times(process, count)
        print(
            f"staggering {count} submission(s) over {process.describe()}: "
            f"last arrival t={submit_times[-1]:.3f}s"
        )
        for index, submit_s in enumerate(submit_times):
            entry = entries[index % len(entries)]
            sched.submit(_schedule_spec(args, entry, index), submit_s=submit_s)
    else:
        for index, entry in enumerate(entries):
            sched.submit(_schedule_spec(args, entry, index))
    results = sched.run()

    rows = [
        [
            result.spec.label,
            str(result.spec.options.nranks),
            str(result.partition_size),
            f"{result.queue_wait_s:.4f}",
            f"{result.service_s:.4f}",
            f"{result.turnaround_s:.4f}",
        ]
        for result in results
    ]
    print(
        f"{len(results)} job(s) space-shared on {template.prototype.name} "
        f"({sched.usable_nodes} schedulable nodes)"
    )
    print(
        format_table(
            "schedule (virtual seconds)",
            ["job", "ranks", "partition", "queued", "service", "turnaround"],
            rows,
        )
    )
    print(
        f"makespan {sched.makespan_s():.4f} s, "
        f"utilization {sched.utilization():.0%}, "
        f"total queue wait {sched.total_queue_wait_s():.4f} s"
    )
    return 0


def _serve_human(doc: dict) -> None:
    """Render a service snapshot as tables on stdout."""
    from repro.perf import format_table

    config = doc["config"]
    jobs = doc["jobs"]
    latency = doc["latency"]
    backlog = doc["backlog"]
    print(
        f"service on {config['usable_nodes']} nodes: mix={config['mix']}, "
        f"arrival={config['arrival']}, policy={config['policy']}, "
        f"admission={config['admission']}"
    )
    print(
        f"offered {jobs['offered']} item(s), admitted {jobs['admitted']}, "
        f"completed {jobs['completed']} in {jobs['submissions']} submission(s), "
        f"shed {jobs['shed']} ({jobs['shed_rate']:.1%})"
    )
    if jobs["shed_reasons"]:
        reasons = ", ".join(
            f"{reason}={count}" for reason, count in sorted(jobs["shed_reasons"].items())
        )
        print(f"shed reasons: {reasons}")
    rows = [
        [
            name,
            str(latency[key]["count"]),
            f"{latency[key]['p50']:.4f}",
            f"{latency[key]['p99']:.4f}",
            f"{latency[key]['mean']:.4f}",
            f"{latency[key]['max']:.4f}",
        ]
        for name, key in (
            ("queue wait", "queue_wait"),
            ("turnaround", "turnaround"),
            ("pipeline", "pipeline_makespan"),
        )
        if latency[key]["count"]
    ]
    print(
        format_table(
            "latency (virtual seconds)",
            ["metric", "n", "p50", "p99", "mean", "max"],
            rows,
        )
    )
    tenant_rows = [
        [
            entry["tenant"],
            str(entry["completed"]),
            str(entry["shed"]),
            f"{entry['queue_wait']['p99']:.4f}",
            f"{entry['turnaround']['p50']:.4f}",
            f"{entry['turnaround']['p99']:.4f}",
        ]
        for entry in doc["per_tenant"]
    ]
    print(
        format_table(
            "per-tenant",
            ["tenant", "done", "shed", "wait p99", "turn p50", "turn p99"],
            tenant_rows,
        )
    )
    print(
        f"utilization {doc['utilization']:.0%}, backlog peak {backlog['peak']} "
        f"mean {backlog['mean']:.1f} end {backlog['end']}, "
        f"drained at t={doc['elapsed_s']:.3f}s"
    )


def _sweep_human(doc: dict) -> None:
    """Render a load-sweep report as a table plus the knee verdict."""
    from repro.perf import format_table

    config = doc["config"]
    print(
        f"load sweep on {config['usable_nodes']} nodes: mix={config['mix']}, "
        f"arrival={config['arrival']}, policy={config['policy']}, "
        f"estimated capacity {config['capacity_rate_s']:.3f} req/s"
    )
    rows = [
        [
            f"{p['offered_load']:.2f}",
            f"{p['rate_s']:.3f}",
            str(p["completed"]),
            f"{p['shed_rate']:.1%}",
            f"{p['p50_turnaround_s']:.4f}",
            f"{p['p99_turnaround_s']:.4f}",
            f"{p['utilization']:.0%}",
            str(p["backlog_end"]),
            "yes" if p["unstable"] else "",
        ]
        for p in doc["points"]
    ]
    print(
        format_table(
            "offered-load sweep (virtual seconds)",
            ["load", "req/s", "done", "shed", "p50", "p99", "util", "backlog", "unstable"],
            rows,
        )
    )
    knee = doc["knee"]
    if knee["detected"]:
        print(
            f"saturation knee at offered load {knee['offered_load']:.2f}x "
            f"({knee['rate_s']:.3f} req/s), p99 turnaround "
            f"{knee['p99_turnaround_s']:.4f}s [{knee['method']}]"
        )
    else:
        print("no saturation knee detected inside the sweep range")


def _cmd_serve(args) -> int:
    import json as _json

    from repro.runtime import machine_template, make_policy
    from repro.service import (
        AdmissionController,
        EngineOracle,
        Service,
        ServiceConfig,
        estimate_capacity_rate,
        get_mix,
        parse_arrival_spec,
        run_load_sweep,
    )

    protocol = "nx" if args.machine == "paragon" else None
    template = machine_template(args.machine, protocol=protocol)
    usable_nodes = template.total_nodes
    mix = get_mix(args.mix)
    if args.collective != "rdouble":
        mix = mix.with_collective(args.collective)
    oracle = EngineOracle(args.machine, protocol=protocol)
    admission = None
    if args.queue_limit or args.tenant_backlog:
        admission = AdmissionController(
            tenant_backlog_limit=args.tenant_backlog,
            queue_limit=args.queue_limit,
        )

    if args.sweep:
        # The sweep sets each point's rate itself; only the kind carries.
        arrival_kind = args.arrival.partition(":")[0]
        multipliers = (
            tuple(float(m) for m in args.sweep_loads.split(","))
            if args.sweep_loads
            else (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
        )
        doc = run_load_sweep(
            usable_nodes,
            mix,
            oracle,
            multipliers=multipliers,
            arrival_kind=arrival_kind,
            seed=args.seed,
            horizon_s=args.horizon_s,
            policy_name=args.policy,
            admission=admission,
        )
        if args.fmt == "json":
            print(_json.dumps(doc, indent=2, sort_keys=True))
        else:
            _sweep_human(doc)
    else:
        default_rate = args.load * estimate_capacity_rate(mix, oracle, usable_nodes)
        arrivals = parse_arrival_spec(args.arrival, args.seed, rate_s=default_rate)
        service = Service(
            usable_nodes,
            mix,
            arrivals,
            oracle,
            policy=make_policy(args.policy, weights=mix.tenant_weights()),
            admission=admission,
            config=ServiceConfig(horizon_s=args.horizon_s),
            seed=args.seed,
        )
        doc = service.run().snapshot
        if args.fmt == "json":
            print(_json.dumps(doc, indent=2, sort_keys=True))
        else:
            _serve_human(doc)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.out}")
    return 0


def _attack_cell_row(cell: dict) -> str:
    mark = {True: "ok", False: "MISMATCH", None: "-"}[cell["expected_ok"]]
    return (
        f"  {cell['scenario']:22s} {cell['app']:8s} "
        f"{cell['verdict']}/{cell['layer']:20s} "
        f"attacks={cell['attacks']:<4d} restarts={cell['restarts']:<2d} {mark}"
    )


def _cmd_attack(args) -> int:
    import json as _json

    from repro.scenarios import (
        APPS,
        DEFAULT_PLACEMENTS,
        DEFAULT_SEEDS,
        SCENARIOS,
        certify,
        empty_corpus,
        finding_from_certification,
        get_scenario,
        load_corpus,
        merge_findings,
        replay_finding,
        run_fuzz,
        write_corpus,
    )

    if args.list:
        for sc in SCENARIOS:
            expected = ", ".join(
                f"{app}={verdict}/{layer}"
                for app, (verdict, layer) in sorted(sc.expected.items())
            )
            print(f"{sc.scenario_id:22s} {sc.title}")
            print(f"{'':22s} expected: {expected}")
        return 0

    failures = 0
    if args.knee:
        from repro.runtime import machine_template
        from repro.scenarios import attacked_sweep
        from repro.service import EngineOracle, get_mix

        protocol = "nx" if args.machine == "paragon" else None
        template = machine_template(args.machine, protocol=protocol)
        doc = attacked_sweep(
            template.total_nodes,
            get_mix(args.mix),
            EngineOracle(args.machine, protocol=protocol),
            seed=args.seed,
            horizon_s=args.horizon_s,
        )
        if args.fmt == "json":
            slim = {key: value for key, value in doc.items() if key != "sweeps"}
            print(_json.dumps(slim, indent=2, sort_keys=True))
        else:
            atk = doc["attack"]
            print(
                f"hostile tenant {atk['tenant']!r} weight {atk['weight']:g}, "
                f"defense rate limit {atk['defense_rate_s']:.3f}/s"
            )
            for name in ("clean", "attacked", "defended"):
                s = doc[name]
                knee = (
                    f"knee @ {s['knee_rate_s']:.3f}/s "
                    f"(load {s['knee_offered_load']:g}, "
                    f"p99 {s['knee_p99_turnaround_s']:.2f}s)"
                    if s["knee_detected"]
                    else "no knee in sweep range"
                )
                print(
                    f"  {name:9s} {knee}; completed {s['completed']}/"
                    f"{s['offered']}, worst shed {s['worst_shed_rate']:.2f}, "
                    f"worst backlog {s['worst_backlog_end']}"
                )
    elif args.replay:
        if not args.corpus:
            print("--replay needs --corpus PATH", file=sys.stderr)
            return 2
        corpus = load_corpus(args.corpus)
        if args.replay == "all":
            targets = corpus["findings"]
        else:
            targets = [f for f in corpus["findings"] if f["id"] == args.replay]
            if not targets:
                print(
                    f"no finding {args.replay!r} in {args.corpus}", file=sys.stderr
                )
                return 2
        replays = []
        for finding in targets:
            _cert, mismatches = replay_finding(finding, nranks=corpus["nranks"])
            replays.append({"id": finding["id"], "mismatches": mismatches})
            failures += bool(mismatches)
        doc = {
            "schema": "repro.scenarios.replay/v1",
            "corpus": args.corpus,
            "replayed": len(replays),
            "failures": failures,
            "replays": replays,
        }
        if args.fmt == "json":
            print(_json.dumps(doc, indent=2, sort_keys=True))
        else:
            for row in replays:
                status = (
                    "bitwise" if not row["mismatches"]
                    else "; ".join(row["mismatches"])
                )
                print(f"  {row['id']:48s} {status}")
            print(f"replayed {len(replays)} finding(s), {failures} failure(s)")
    elif args.fuzz:
        seeds = (
            tuple(int(s) for s in args.seeds.split(","))
            if args.seeds
            else DEFAULT_SEEDS
        )
        placements = (
            tuple(int(r) for r in args.placements.split(","))
            if args.placements
            else DEFAULT_PLACEMENTS
        )
        scenario_filter = (args.scenario,) if args.scenario else None
        apps = (args.app,) if args.app else APPS
        findings = run_fuzz(scenario_filter, apps, seeds, placements)
        added = None
        if args.corpus:
            try:
                corpus = load_corpus(args.corpus)
            except FileNotFoundError:
                corpus = empty_corpus()
            added = merge_findings(corpus, findings)
            write_corpus(args.corpus, corpus)
        doc = {
            "schema": "repro.scenarios.fuzz/v1",
            "seeds": list(seeds),
            "placements": list(placements),
            "findings": findings,
            "novel": added,
        }
        if args.fmt == "json":
            print(_json.dumps(doc, indent=2, sort_keys=True))
        else:
            for finding in findings:
                print(
                    f"  {finding['id']:48s} "
                    f"{finding['verdict']}/{finding['layer']}"
                )
            print(f"{len(findings)} finding(s) from the sweep")
            if added is not None:
                print(f"merged {added} novel finding(s) into {args.corpus}")
    else:
        scenarios = (
            (get_scenario(args.scenario),) if args.scenario else SCENARIOS
        )
        apps = (args.app,) if args.app else APPS
        pinned = args.placement is None and args.seed == 0
        cells = []
        for sc in scenarios:
            cell_apps = ("static",) if sc.kind == "static" else apps
            for app in cell_apps:
                cert = certify(
                    sc, app, seed=args.seed, placement=args.placement
                )
                expected = sc.expected.get(app)
                expected_ok = (
                    (cert.verdict, cert.layer) == tuple(expected)
                    if pinned and expected is not None
                    else None
                )
                failures += expected_ok is False
                cell = finding_from_certification(cert)
                cell["detail"] = cert.detail
                cell["expected_ok"] = expected_ok
                cells.append(cell)
        doc = {
            "schema": "repro.scenarios.certification/v1",
            "seed": args.seed,
            "placement": args.placement,
            "cells": cells,
            "failures": failures,
        }
        if args.fmt == "json":
            print(_json.dumps(doc, indent=2, sort_keys=True))
        else:
            for cell in cells:
                print(_attack_cell_row(cell))
            verdicts = sum(cell["verdict"] == "detected" for cell in cells)
            print(
                f"{len(cells)} cell(s): {verdicts} detected, "
                f"{len(cells) - verdicts} survived, {failures} "
                f"expectation mismatch(es)"
            )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.out}")
    return 1 if failures else 0


def _cmd_lint(args) -> int:
    import json as _json

    from repro.analysis import lint_paths, write_baseline
    from repro.analysis.linter import (
        LintConfig,
        format_comm_summary,
        format_human,
        format_json,
    )

    config = LintConfig(protocol=args.protocol)
    report = lint_paths(args.paths or None, config, baseline_path=args.baseline)
    if args.write_baseline:
        write_baseline(args.write_baseline, report.findings)
        print(f"wrote baseline for {len(report.findings)} finding(s) to {args.write_baseline}")
        return 0
    if args.comm_summary:
        print(format_comm_summary(report))
        return 0
    if args.fmt == "json":
        print(_json.dumps(format_json(report), indent=2, sort_keys=True))
    elif args.fmt == "sarif":
        from repro.analysis.sarif import format_sarif

        print(_json.dumps(format_sarif(report), indent=2, sort_keys=True))
    else:
        print(format_human(report, verbose=args.verbose))
    return report.exit_code


_COMMANDS = {
    "wavelet": _cmd_wavelet,
    "nbody": _cmd_nbody,
    "pic": _cmd_pic,
    "workload": _cmd_workload,
    "table1": _cmd_table1,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "schedule": _cmd_schedule,
    "serve": _cmd_serve,
    "attack": _cmd_attack,
    "lint": _cmd_lint,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
