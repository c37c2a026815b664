"""Coarse-grain SPMD transform for 1-D signals.

The paper's introduction motivates wavelets for signal analysis (speech)
as well as imagery; this module parallelizes the 1-D Mallat transform
with the same discipline as the 2-D striped code: contiguous segments
per rank, kernel-sized guards from the ring neighbors built in place in
one buffer per level, scatter/gather for distribution and collection.
Outputs are bitwise :func:`repro.wavelet.dwt_1d`/:func:`~repro.wavelet.idwt_1d`
of the same kernel, and whatever those refuse raises here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecompositionError
from repro.machines import tags
from repro.machines.api import gather, scatter
from repro.machines.engine import Engine, Machine, RunResult
from repro.wavelet.filters import FilterBank
from repro.wavelet.kernels import get_kernel
from repro.wavelet.parallel.decomposition import exchange_guards

__all__ = [
    "Spmd1dOutcome",
    "dwt_1d_program",
    "run_spmd_dwt_1d",
    "idwt_1d_program",
    "run_spmd_idwt_1d",
]

_TAG_DISTRIBUTE = tags.DWT1D_DISTRIBUTE
_TAG_GUARD = tags.DWT1D_GUARD
_TAG_COLLECT = tags.DWT1D_COLLECT
# Opposite-direction guards, sent when a kernel's depth on that side is
# nonzero (the lifting kernels).
_TAG_GUARD_FRONT = tags.DWT1D_GUARD_FRONT
_TAG_GUARD_BACK = tags.DWT1D_GUARD_BACK


@dataclass
class Spmd1dOutcome:
    """Engine result plus the assembled (approximation, details) output."""

    run: RunResult
    approximation: np.ndarray
    details: list


def _segment(n: int, nranks: int, rank: int) -> tuple:
    if n % nranks != 0:
        raise DecompositionError(
            f"signal length {n} must divide evenly over {nranks} ranks"
        )
    width = n // nranks
    return rank * width, (rank + 1) * width


def dwt_1d_program(
    ctx,
    signal: np.ndarray,
    bank: FilterBank,
    levels: int,
    *,
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
):
    """Rank program for the striped 1-D multi-level decomposition.

    The guard depths come from the kernel: the left neighbor ships its
    first ``back`` samples, and a second, front guard travels the other
    way around the ring when the kernel's steps reach backwards (the
    lifting kernels; in 1-D the single-loop sweep degenerates to the
    factored passes).
    """
    rank, nranks = ctx.rank, ctx.nranks
    impl = get_kernel(kernel)
    front, back = impl.analysis_guard_depths(bank)
    min_side = impl.min_side(bank)
    n = signal.shape[0]
    if n % (nranks * 2**levels) != 0:
        raise DecompositionError(
            f"signal length {n} must be divisible by nranks*2^levels="
            f"{nranks * 2 ** levels}"
        )

    if distribute:
        segments = (
            [signal[slice(*_segment(n, nranks, r))] for r in range(nranks)]
            if rank == 0
            else None
        )
        current = yield from scatter(ctx, segments, tag=_TAG_DISTRIBUTE)
    else:
        current = signal[slice(*_segment(n, nranks, rank))]
    current = np.asarray(current, dtype=np.float64)

    right = (rank + 1) % nranks
    left = (rank - 1) % nranks
    local_details = []
    for _level in range(levels):
        length = current.shape[0]
        if length < min_side or length < max(front, back):
            raise DecompositionError(
                f"local segment of {length} samples is shorter than the "
                f"{impl.name!r} kernel needs ({min_side} samples, "
                f"{max(front, back)} guard samples); reduce ranks or levels"
            )
        # Guard: my left neighbor needs my first `back` samples (periodic
        # ring), my right neighbor my last `front` ones.
        buf = np.empty(front + length + back)
        buf[front : front + length] = current
        del current
        yield from exchange_guards(
            ctx, buf, length, front, back, left, right,
            _TAG_GUARD, _TAG_GUARD_FRONT, multi=nranks > 1, axis=-1,
        )
        out_len = length // 2
        approx, detail = impl.analyze_valid(buf, bank, 0, out_len, front)
        del buf
        yield ctx.charge(impl.analysis_pass_cost(2 * out_len, bank))
        local_details.append(detail)
        current = approx

    pieces = {"approx": current, "details": local_details}
    if collect:
        return (yield from gather(ctx, pieces, tag=_TAG_COLLECT))
    return [pieces] if rank == 0 else None


def idwt_1d_program(
    ctx,
    approximation: np.ndarray,
    details: list,
    bank: FilterBank,
    *,
    collect: bool = True,
    kernel: str = "conv",
):
    """Rank program for the striped 1-D reconstruction.

    Synthesis needs a guard from the *left* neighbor (the mirror of the
    analysis guard; ``filter_length // 2`` coefficients under conv).  The
    depths come from the kernel's synthesis guard depths, adding a
    right-neighbor (back) guard when the inverse steps reach forwards.
    """
    rank, nranks = ctx.rank, ctx.nranks
    impl = get_kernel(kernel)
    s_front, s_back = impl.synthesis_guard_depths(bank)
    min_side = impl.min_side(bank)
    levels = len(details)
    right = (rank + 1) % nranks
    left = (rank - 1) % nranks

    a0, a1 = _segment(approximation.shape[0], nranks, rank)
    current = np.asarray(approximation[a0:a1], dtype=np.float64)

    for level in range(levels - 1, -1, -1):
        d0, d1 = _segment(details[level].shape[0], nranks, rank)
        length = current.shape[0]
        # A one-rank ring wraps its own segment, as deep as the guards go.
        if 2 * length < min_side or (nranks > 1 and length < max(s_front, s_back)):
            raise DecompositionError(
                f"local segment of {length} samples synthesizes fewer than the "
                f"{min_side} samples the {impl.name!r} kernel needs, or is shorter "
                f"than its {max(s_front, s_back)} guard samples; reduce ranks or levels"
            )
        # The approximation and detail segments share one buffer: the
        # guards to the neighbors are slices of both rows at once.
        buf = np.empty((2, s_front + length + s_back))
        buf[0, s_front : s_front + length] = current
        buf[1, s_front : s_front + length] = details[level][d0:d1]
        yield from exchange_guards(
            ctx, buf, length, s_front, s_back, left, right,
            _TAG_GUARD_BACK, _TAG_GUARD, multi=nranks > 1, axis=-1, front_first=True,
        )
        out_len = 2 * length
        current = impl.synthesize_valid(buf[0], buf[1], bank, 0, out_len, s_front)
        del buf
        yield ctx.charge(impl.synthesis_pass_cost(out_len, bank))

    if collect:
        segments = yield from gather(ctx, current, tag=_TAG_COLLECT)
        return None if segments is None else np.concatenate(segments)
    return current if rank == 0 else None


def run_spmd_idwt_1d(
    machine: Machine,
    approximation: np.ndarray,
    details: list,
    bank: FilterBank,
    *,
    kernel: str = "conv",
):
    """Reconstruct a 1-D multi-level decomposition on a simulated machine;
    the signal is bitwise :func:`repro.wavelet.idwt_1d` of the same
    kernel, and whatever that refuses raises here too.  Returns ``(run,
    signal)``."""
    run = Engine(machine).run(
        idwt_1d_program,
        np.asarray(approximation, dtype=np.float64),
        [np.asarray(d, dtype=np.float64) for d in details],
        bank,
        kernel=kernel,
    )
    return run, run.results[0]


def run_spmd_dwt_1d(
    machine: Machine,
    signal: np.ndarray,
    bank: FilterBank,
    levels: int,
    *,
    distribute: bool = True,
    kernel: str = "conv",
) -> Spmd1dOutcome:
    """Run the 1-D decomposition on a simulated machine; the outputs are
    bitwise the sequential :func:`repro.wavelet.dwt_1d` of the same
    kernel, and whatever that refuses raises here too."""
    signal = np.asarray(signal, dtype=np.float64)
    run = Engine(machine).run(
        dwt_1d_program,
        signal,
        bank,
        levels,
        distribute=distribute,
        collect=True,
        kernel=kernel,
    )
    gathered = run.results[0]
    approximation = np.concatenate([p["approx"] for p in gathered])
    details = [
        np.concatenate([p["details"][level] for p in gathered])
        for level in range(levels)
    ]
    return Spmd1dOutcome(run=run, approximation=approximation, details=details)
