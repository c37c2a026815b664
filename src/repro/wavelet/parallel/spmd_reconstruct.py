"""Coarse-grain SPMD wavelet *reconstruction* (the paper's Figure 2
reverse process, parallelized with the same striping discipline as the
decomposition).

Each rank owns row stripes of every pyramid level.  Reconstruction runs
coarsest-to-finest; at each level the column synthesis (upsample + filter
along rows of the stripe) needs ``filter_length // 2`` guard rows from
the *north* neighbor — the mirror of the decomposition's south guard —
followed by fully local row synthesis.  Outputs are bit-identical to
:func:`repro.wavelet.mallat_reconstruct_2d`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecompositionError
from repro.machines import tags
from repro.machines.engine import Engine, Machine, RunResult
from repro.wavelet.filters import FilterBank
from repro.wavelet.kernels import get_kernel
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.pyramid import WaveletPyramid

__all__ = ["SpmdReconstructOutcome", "striped_reconstruct_program", "run_spmd_reconstruct"]

_TAG_DISTRIBUTE = tags.RECONSTRUCT_DISTRIBUTE
_TAG_GUARD = tags.RECONSTRUCT_GUARD
_TAG_COLLECT = tags.RECONSTRUCT_COLLECT
# Extra guard fetched from the *south* neighbor when a kernel's inverse
# steps reach forwards (the lifting kernels).
_TAG_GUARD_BACK = tags.RECONSTRUCT_GUARD_BACK


@dataclass
class SpmdReconstructOutcome:
    """Engine result plus the assembled image (rank 0)."""

    run: RunResult
    image: np.ndarray


def _stripe_pieces(pyramid: WaveletPyramid, decomp: StripeDecomposition, rank: int):
    """Slice one rank's stripes out of a full pyramid (deepest level's
    stripes use the deepest row split, and so on upward)."""
    levels = pyramid.levels
    a0, a1 = decomp.row_range(rank, level=levels)
    pieces = {"approx": pyramid.approximation[a0:a1].copy(), "details": []}
    for level in range(levels):
        d0, d1 = decomp.row_range(rank, level=level + 1)
        triple = pyramid.details[level]
        pieces["details"].append(
            (triple.lh[d0:d1].copy(), triple.hl[d0:d1].copy(), triple.hh[d0:d1].copy())
        )
    return pieces


def striped_reconstruct_program(
    ctx,
    pyramid: WaveletPyramid,
    bank: FilterBank,
    decomp: StripeDecomposition,
    *,
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
):
    """Rank program for the striped parallel reconstruction.

    Every kernel runs its valid-mode column synthesis over guards sized by
    its synthesis guard depths (a north front guard, plus a south back
    guard when the inverse steps reach forwards), then its fully local
    periodized row synthesis; the single-loop inverse shares the
    separable lifting passes here.
    """
    rank, nranks = ctx.rank, ctx.nranks
    m = bank.length
    guard_depth = max(1, m // 2)
    impl = get_kernel(kernel)
    s_front, s_back = impl.synthesis_guard_depths(bank)
    levels = pyramid.levels

    if distribute and nranks > 1:
        if rank == 0:
            for dst in range(1, nranks):
                yield ctx.send(dst, _stripe_pieces(pyramid, decomp, dst), tag=_TAG_DISTRIBUTE)
            pieces = _stripe_pieces(pyramid, decomp, 0)
        else:
            pieces = yield ctx.recv(0, tag=_TAG_DISTRIBUTE)
    else:
        pieces = _stripe_pieces(pyramid, decomp, rank)

    north = decomp.north_neighbor(rank)
    south = decomp.south_neighbor(rank)
    current = np.asarray(pieces["approx"], dtype=np.float64)

    for level in range(levels - 1, -1, -1):
        lh, hl, hh = (np.asarray(b, dtype=np.float64) for b in pieces["details"][level])
        rows, cols = current.shape
        if (
            rows < guard_depth or rows < max(s_front, s_back)
        ) and nranks > 1:
            raise DecompositionError(
                f"local stripe of {rows} rows is shorter than the "
                f"synthesis guard requirement; reduce ranks or levels"
            )
        yield ctx.compute(intops=64, redundant=True)

        out_rows = 2 * rows
        # Column synthesis needs the north neighbor's *bottom* guard rows
        # of every subband at this level (periodic wrap via the ring).
        bands = (current, lh, hl, hh)
        if nranks > 1:
            if s_front > 0:
                bottom = np.stack([b[rows - s_front :] for b in bands])
                yield ctx.send(south, bottom, tag=_TAG_GUARD)
            if s_back > 0:
                top = np.stack([b[:s_back] for b in bands])
                yield ctx.send(north, top, tag=_TAG_GUARD_BACK)
            if s_front > 0:
                front_guard = yield ctx.recv(north, tag=_TAG_GUARD)
            else:
                front_guard = [b[:0] for b in bands]
            if s_back > 0:
                back_guard = yield ctx.recv(south, tag=_TAG_GUARD_BACK)
            else:
                back_guard = [b[:0] for b in bands]
        else:
            front_guard = [b[rows - s_front :] for b in bands]
            back_guard = [b[:s_back] for b in bands]
        ext = [
            np.vstack([front_guard[i], bands[i], back_guard[i]])
            for i in range(4)
        ]

        # Column inverse: (LL, LH) -> low rows, (HL, HH) -> high rows.
        low = impl.synthesize_valid(ext[0], ext[1], bank, 0, out_rows, s_front)
        high = impl.synthesize_valid(ext[2], ext[3], bank, 0, out_rows, s_front)
        yield ctx.charge(impl.synthesis_pass_cost(2 * out_rows * cols, bank))

        # Row inverse is fully local (rows are whole within a stripe).
        current = impl.synthesize(low, high, bank, 1)
        yield ctx.charge(impl.synthesis_pass_cost(out_rows * 2 * cols, bank))

    if collect and nranks > 1:
        if rank == 0:
            stripes = [current]
            for src in range(1, nranks):
                stripes.append((yield ctx.recv(src, tag=_TAG_COLLECT)))
            return np.vstack(stripes)
        yield ctx.send(0, current, tag=_TAG_COLLECT)
        return None
    return current if rank == 0 else None


def run_spmd_reconstruct(
    machine: Machine,
    pyramid: WaveletPyramid,
    bank: FilterBank,
    *,
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
) -> SpmdReconstructOutcome:
    """Reconstruct a pyramid on a simulated machine; the result matches
    the sequential inverse transform exactly (``kernel="conv"``) or within
    float tolerance (lifting kernels)."""
    rows, cols = pyramid.original_shape
    decomp = StripeDecomposition(rows, cols, machine.nranks, pyramid.levels)
    run = Engine(machine).run(
        striped_reconstruct_program,
        pyramid,
        bank,
        decomp,
        distribute=distribute,
        collect=collect,
        kernel=kernel,
    )
    return SpmdReconstructOutcome(run=run, image=run.results[0])
