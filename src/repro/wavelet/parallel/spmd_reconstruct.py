"""Coarse-grain SPMD wavelet *reconstruction* (the paper's Figure 2
reverse process, parallelized with the same striping discipline as the
decomposition).

Each rank owns row stripes of every pyramid level.  Reconstruction runs
coarsest-to-finest; at each level the column synthesis (upsample + filter
along rows of the stripe) needs guard rows from the *north* neighbor —
the mirror of the decomposition's south guard — and from the south one
too when a kernel's inverse steps reach forwards, followed by fully local
row synthesis.  The four subbands' stripes share one buffer per level
whose margins take the guards in place; distribution and collection are
scatter/gather.  Outputs are bitwise
:func:`repro.wavelet.mallat_reconstruct_2d` (of ``"lifting"`` for
``"single-loop"``, whose passes it runs here).
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
from repro.wavelet.parallel.decomposition import StripeDecomposition, exchange_guards
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
    """Views of one rank's stripes of a full pyramid (deepest level's
    stripes use the deepest row split, and so on upward)."""
    levels = pyramid.levels
    a0, a1 = decomp.row_range(rank, level=levels)
    pieces = {"approx": pyramid.approximation[a0:a1], "details": []}
    for level in range(levels):
        d0, d1 = decomp.row_range(rank, level=level + 1)
        triple = pyramid.details[level]
        pieces["details"].append((triple.lh[d0:d1], triple.hl[d0:d1], triple.hh[d0:d1]))
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
    impl = get_kernel(kernel)
    s_front, s_back = impl.synthesis_guard_depths(bank)
    min_side = impl.min_side(bank)
    levels = pyramid.levels

    if distribute:
        stripes = (
            [_stripe_pieces(pyramid, decomp, r) for r in range(nranks)] if rank == 0 else None
        )
        pieces = yield from scatter(ctx, stripes, tag=_TAG_DISTRIBUTE)
    else:
        pieces = _stripe_pieces(pyramid, decomp, rank)

    north = decomp.north_neighbor(rank)
    south = decomp.south_neighbor(rank)
    current = pieces["approx"]

    for level in range(levels - 1, -1, -1):
        rows, cols = current.shape
        if 2 * min(rows, cols) < min_side or rows < max(s_front, s_back):
            raise DecompositionError(
                f"local stripe {rows}x{cols} synthesizes fewer than the {min_side} "
                f"rows and columns the {impl.name!r} kernel needs, or is shorter than "
                f"its {max(s_front, s_back)} guard rows; reduce ranks or levels"
            )
        yield ctx.compute(intops=64, redundant=True)

        out_rows = 2 * rows
        # Column synthesis needs the north neighbor's *bottom* guard rows
        # of every subband at this level (periodic wrap via the ring): the
        # four subbands share one buffer, so one guard carries all four.
        buf = np.empty((4, s_front + rows + s_back, cols))
        for band, data in zip(buf, (current, *pieces["details"][level])):
            band[s_front : s_front + rows] = data
        del current
        yield from exchange_guards(
            ctx, buf, rows, s_front, s_back, north, south,
            _TAG_GUARD_BACK, _TAG_GUARD, multi=nranks > 1, front_first=True,
        )

        # Column inverse: (LL, LH) -> low rows, (HL, HH) -> high rows.
        low = impl.synthesize_valid(buf[0], buf[1], bank, 0, out_rows, s_front)
        high = impl.synthesize_valid(buf[2], buf[3], bank, 0, out_rows, s_front)
        del buf
        yield ctx.charge(impl.synthesis_pass_cost(2 * out_rows * cols, bank))

        # Row inverse is fully local (rows are whole within a stripe).
        current = impl.synthesize(low, high, bank, 1)
        yield ctx.charge(impl.synthesis_pass_cost(out_rows * 2 * cols, bank))

    if collect:
        stripes = yield from gather(ctx, current, tag=_TAG_COLLECT)
        return None if stripes is None else np.vstack(stripes)
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
    """Reconstruct a pyramid on a simulated machine; the image is bitwise
    :func:`~repro.wavelet.mallat_reconstruct_2d` of the same kernel
    (``"conv"``, ``"lifting"``, ``"fused"``) or of ``"lifting"`` (for
    ``"single-loop"``, whose inverse runs the lifting passes), and
    whatever that refuses raises here too."""
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
