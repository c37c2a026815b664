"""Coarse-grain SPMD wavelet decomposition (the Paragon algorithm).

Implements Section 4.2: the image is distributed as stripes of rows, and
at the end of each level's row filtering every rank builds a guard zone of
``filter_length`` rows from its *south* neighbor before column filtering.
Striping limits the exchange to one neighbor; the alternative block
decomposition (two guards per level: east for row filtering, south for
column filtering) is implemented for the comparison benchmark.

The programs run real NumPy filtering, so the assembled parallel pyramid
is verified bit-for-bit against :func:`repro.wavelet.mallat_decompose_2d`
(both compute the identical periodized transform; no float reordering is
introduced by the decomposition).

Every kernel but the single-loop sweep runs the same separable level: a
row pass, a guard exchange, and a valid-mode column pass, with the
arithmetic, guard depths and per-pass charges taken from the kernel
(:mod:`repro.wavelet.kernels`).  The convolution kernel's guards are the
paper's (no front guard, ``filter_length`` back rows); lifting steps also
reach backwards, so the lifting kernels add a front-guard exchange in
the opposite direction.

Guard zones are built in place.  A separable level copies its row-pass
halves into one ``(2, front + rows + back, cols // 2)`` buffer, and
:func:`~repro.wavelet.parallel.decomposition.exchange_guards` ships its
guards as slices of it and receives the neighbors' into its margins; the
sweep does the same with the raw tile.  Each tile and buffer is released
as soon as it is used.  Distribution and collection are
:func:`~repro.machines.api.scatter` (of views) and ``gather``.  A level whose
local tile is smaller than the kernel's ``min_side`` on either axis, or
shorter than its guard depths, raises
:class:`~repro.errors.DecompositionError` at any rank count — the rule
that keeps every margin a plain slice of owned rows.

Message tags are allocated by the central :mod:`repro.machines.tags`
registry (distribution, row-guard, column-guard, collection, plus the
front-guard exchanges and the single-loop sweep's raw-tile guard
exchanges).

``kernel="single-loop"`` runs the monolithic sweep of
:mod:`repro.wavelet.singleloop`: there are no per-pass intermediates to
exchange, so each level ships guards of the *raw* tile up front — row
guards under striping (2 messages/level), column guards plus guards of
the horizontally-extended tile under blocking (4 messages/level, the
extended rows carrying the corner data through the neighbors) — and then
charges one sweep instead of two passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import DecompositionError
from repro.machines import tags
from repro.machines.api import gather, scatter
from repro.machines.engine import Machine, RunResult
from repro.wavelet.filters import FilterBank
from repro.wavelet.kernels import SingleLoopKernel, get_kernel, wrap_margins
from repro.wavelet.parallel.decomposition import (
    BlockDecomposition,
    StripeDecomposition,
    exchange_guards,
)
from repro.wavelet.pyramid import DetailTriple, WaveletPyramid

__all__ = [
    "SpmdWaveletOutcome",
    "striped_wavelet_program",
    "block_wavelet_program",
    "run_spmd_wavelet",
]

_TAG_DISTRIBUTE = tags.WAVELET_DISTRIBUTE
_TAG_ROW_GUARD = tags.WAVELET_ROW_GUARD
_TAG_COL_GUARD = tags.WAVELET_COL_GUARD
_TAG_COLLECT = tags.WAVELET_COLLECT
# Front guards travel opposite to the back guards when a kernel's steps
# reach backwards (the lifting kernels).
_TAG_COL_GUARD_FRONT = tags.WAVELET_COL_GUARD_FRONT
_TAG_ROW_GUARD_FRONT = tags.WAVELET_ROW_GUARD_FRONT
# The single-loop sweep exchanges guards of the raw tile before any
# arithmetic; its messages ride their own tags so a mixed-kernel trace
# can never alias a lifting guard.
_TAG_SWEEP_GUARD = tags.WAVELET_SWEEP_GUARD
_TAG_SWEEP_GUARD_FRONT = tags.WAVELET_SWEEP_GUARD_FRONT
_TAG_SWEEP_COL_GUARD = tags.WAVELET_SWEEP_COL_GUARD
_TAG_SWEEP_COL_GUARD_FRONT = tags.WAVELET_SWEEP_COL_GUARD_FRONT


@dataclass
class SpmdWaveletOutcome:
    """A parallel decomposition run: engine result plus assembled pyramid
    (``None`` when ``collect=False``).  The gathered pieces in
    ``run.results[0]`` are views of the pyramid's bands, so writing to
    one writes to the other."""

    run: RunResult
    pyramid: WaveletPyramid


def striped_wavelet_program(
    ctx,
    image: np.ndarray,
    bank: FilterBank,
    levels: int,
    decomp: StripeDecomposition,
    *,
    distribute: bool = True,
    collect: bool = True,
    checkpoint_interval: int = 0,
    restore=None,
    kernel: str = "conv",
):
    """Rank program: striped decomposition with snake-friendly neighbor
    guard exchange.  Rank 0 returns the per-rank piece dictionary needed
    for assembly (all ranks return their local pieces).

    ``checkpoint_interval > 0`` writes a coordinated checkpoint every
    that-many levels (state: next level, running approximation, detail
    pieces so far); ``restore`` is the per-rank state list carried by a
    :class:`~repro.errors.RankCrashError` — resuming skips the initial
    distribution and fast-forwards to the checkpointed level.

    ``kernel`` selects the filtering implementation (``"conv"``, the
    default seed path, ``"lifting"``, ``"fused"`` or ``"single-loop"``).
    The fully-local row pass is the kernel's periodized pass (its
    valid-mode pass over each row's own wrapped ends) and the column pass
    its valid-mode pass over guards sized by
    :meth:`~repro.wavelet.kernels.WaveletKernel.analysis_guard_depths`,
    adding a front-guard exchange toward the south neighbor when the
    front depth is nonzero (``"fused"`` is ``"lifting"`` under another
    name, here as in the sequential step).  ``"single-loop"``
    exchanges row guards of the *raw* stripe instead (same depths — the
    sweep's row erosion equals the separable column pass's), wraps each
    row's ends into column margins, and runs one monolithic valid-mode
    sweep per level, charged as a single
    :func:`~repro.wavelet.cost.single_loop_sweep_cost`.
    """
    rank, nranks = ctx.rank, ctx.nranks
    impl = get_kernel(kernel)
    front, back = impl.analysis_guard_depths(bank)
    min_side = impl.min_side(bank)
    sweep = isinstance(impl, SingleLoopKernel)

    if restore is not None:
        start_level, current, saved_details = restore[rank]
        current = np.asarray(current, dtype=np.float64)
        local_details = [tuple(np.asarray(a) for a in d) for d in saved_details]
    else:
        start_level = 0
        # --- initial distribution (rank 0 owns the image) ------------------
        if distribute:
            stripes = (
                [image[slice(*decomp.row_range(r))] for r in range(nranks)]
                if rank == 0
                else None
            )
            current = yield from scatter(ctx, stripes, tag=_TAG_DISTRIBUTE)
        else:
            current = image[slice(*decomp.row_range(rank))]
        current = np.asarray(current, dtype=np.float64)
        local_details = []

    north = decomp.north_neighbor(rank)
    south = decomp.south_neighbor(rank)

    for _level in range(start_level, levels):
        rows, cols = current.shape
        if min(rows, cols) < min_side or rows < max(front, back):
            raise DecompositionError(
                f"local stripe {rows}x{cols} is smaller than the {impl.name!r} "
                f"kernel needs ({min_side} per side, {max(front, back)} guard "
                f"rows); reduce ranks or levels"
            )
        # Domain-decomposition bookkeeping: pure parallelization redundancy.
        yield ctx.compute(intops=64, redundant=True)

        if sweep:
            # Guards of the raw stripe, shipped before any arithmetic (the
            # sweep has no row-pass intermediates to exchange), land in the
            # row margins of one extended stripe; each ships as its
            # ``cols`` owned columns, and then every row, guard rows
            # included, wraps its own ends into the column margins.
            ext = np.empty((front + rows + back, front + cols + back))
            ext[front : front + rows, front : front + cols] = current
            del current
            yield from exchange_guards(
                ctx, ext[:, front : front + cols], rows, front, back, north, south,
                _TAG_SWEEP_GUARD, _TAG_SWEEP_GUARD_FRONT, multi=nranks > 1,
            )
            wrap_margins(ext, cols, front, back, axis=1)
            ll, lh, hl, hh = impl.sweep_valid(ext, bank, rows // 2, cols // 2, front, front)
            del ext
            yield ctx.charge(impl.level_cost(rows, cols, bank))
        else:
            # Steps 1-2: row filtering + column decimation, fully local,
            # into one buffer of both halves with guard margins.
            buf = np.empty((2, front + rows + back, cols // 2))
            buf[0, front : front + rows], buf[1, front : front + rows] = impl.analyze(
                current, bank, 1
            )
            del current
            yield ctx.charge(impl.analysis_pass_cost(2 * rows * (cols // 2), bank))

            # Guard zone: my top `back` rows of both halves go to the north
            # neighbor (periodic wrap), plus my bottom `front` rows to the
            # south when the kernel's steps reach backwards; the neighbors'
            # rows land in my margins.
            yield from exchange_guards(
                ctx, buf, rows, front, back, north, south,
                _TAG_COL_GUARD, _TAG_COL_GUARD_FRONT, multi=nranks > 1,
            )

            # Steps 3-4: column filtering + row decimation over stripe+guards.
            out_rows = rows // 2
            ll, lh = impl.analyze_valid(buf[0], bank, 0, out_rows, front)
            hl, hh = impl.analyze_valid(buf[1], bank, 0, out_rows, front)
            del buf
            yield ctx.charge(impl.analysis_pass_cost(4 * out_rows * (cols // 2), bank))

        local_details.append((lh, hl, hh))
        current = ll

        if checkpoint_interval > 0 and (_level + 1) % checkpoint_interval == 0:
            yield ctx.checkpoint((_level + 1, current, local_details))

    pieces = {"approx": current, "details": local_details}
    if collect:
        return (yield from gather(ctx, pieces, tag=_TAG_COLLECT))
    return [pieces] if rank == 0 else None


def block_wavelet_program(
    ctx,
    image: np.ndarray,
    bank: FilterBank,
    levels: int,
    decomp: BlockDecomposition,
    *,
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
):
    """Rank program: 2-D block decomposition (two guard exchanges per
    level), the costlier alternative of Figure 3.  ``kernel`` as in
    :func:`striped_wavelet_program`; both the row and the column
    filtering gain a front-guard exchange when the kernel's front depth
    is nonzero (the lifting kernels).  Under
    ``"single-loop"`` the level exchanges guards of the raw block in two
    stages — east/west column guards, then north/south row guards of the
    *horizontally-extended* block, so the corner data each diagonal
    neighbor owns arrives through the adjacent neighbors' guards — and
    runs one doubly-valid monolithic sweep."""
    rank, nranks = ctx.rank, ctx.nranks
    impl = get_kernel(kernel)
    front, back = impl.analysis_guard_depths(bank)
    need = max(impl.min_side(bank), front, back)
    sweep = isinstance(impl, SingleLoopKernel)

    if distribute:
        blocks = (
            [image[slice(*r), slice(*c)] for r, c in map(decomp.block_ranges, range(nranks))]
            if rank == 0
            else None
        )
        current = yield from scatter(ctx, blocks, tag=_TAG_DISTRIBUTE)
    else:
        (r0, r1), (c0, c1) = decomp.block_ranges(rank)
        current = image[r0:r1, c0:c1]
    current = np.asarray(current, dtype=np.float64)

    east = decomp.east_neighbor(rank)
    west = decomp.west_neighbor(rank)
    north = decomp.north_neighbor(rank)
    south = decomp.south_neighbor(rank)
    local_details = []

    for _level in range(levels):
        rows, cols = current.shape
        if min(rows, cols) < need:
            raise DecompositionError(
                f"local block {rows}x{cols} is smaller than the {need} rows and "
                f"columns the {impl.name!r} kernel needs; reduce ranks or levels"
            )
        yield ctx.compute(intops=128, redundant=True)

        out_cols = cols // 2
        out_rows = rows // 2
        if sweep:
            # One tile with guard margins on all four sides.  Stage 1:
            # east/west column guards of the raw block, in its middle rows.
            full = np.empty((front + rows + back, front + cols + back))
            ext = full[front : front + rows]
            ext[:, front : front + cols] = current
            del current
            yield from exchange_guards(
                ctx, ext, cols, front, back, west, east,
                _TAG_SWEEP_COL_GUARD, _TAG_SWEEP_COL_GUARD_FRONT,
                multi=decomp.pcols > 1, axis=-1,
            )
            # Stage 2: north/south row guards of the horizontally-extended
            # block — the neighbors' own east/west guards ride along, so
            # the corner data flows without diagonal messages.
            yield from exchange_guards(
                ctx, full, rows, front, back, north, south,
                _TAG_SWEEP_GUARD, _TAG_SWEEP_GUARD_FRONT, multi=decomp.prows > 1,
            )
            ll, lh, hl, hh = impl.sweep_valid(full, bank, out_rows, out_cols, front, front)
            del ext, full
            yield ctx.charge(impl.level_cost(rows, cols, bank))
        else:
            # Row filtering: east back guard, plus a west front guard when
            # the kernel's steps reach backwards, in the margins of one
            # extended block.
            ext = np.empty((rows, front + cols + back))
            ext[:, front : front + cols] = current
            del current
            yield from exchange_guards(
                ctx, ext, cols, front, back, west, east,
                _TAG_ROW_GUARD, _TAG_ROW_GUARD_FRONT, multi=decomp.pcols > 1, axis=-1,
            )
            buf = np.empty((2, front + rows + back, out_cols))
            buf[0, front : front + rows], buf[1, front : front + rows] = impl.analyze_valid(
                ext, bank, 1, out_cols, front
            )
            del ext
            yield ctx.charge(impl.analysis_pass_cost(2 * rows * out_cols, bank))

            # Column filtering: south back guard plus north front guard, in
            # the margins of the halves' buffer.
            yield from exchange_guards(
                ctx, buf, rows, front, back, north, south,
                _TAG_COL_GUARD, _TAG_COL_GUARD_FRONT, multi=decomp.prows > 1,
            )
            ll, lh = impl.analyze_valid(buf[0], bank, 0, out_rows, front)
            hl, hh = impl.analyze_valid(buf[1], bank, 0, out_rows, front)
            del buf
            yield ctx.charge(impl.analysis_pass_cost(4 * out_rows * out_cols, bank))

        local_details.append((lh, hl, hh))
        current = ll

    pieces = {"approx": current, "details": local_details}
    if collect:
        return (yield from gather(ctx, pieces, tag=_TAG_COLLECT))
    return [pieces] if rank == 0 else None


def _fill_band(parts: list, pcols: int) -> tuple[np.ndarray, list]:
    """Copy ``parts``, laid out row-major on a grid ``pcols`` pieces wide,
    into one new band; return the band and each part's view of it."""
    rows = [0, *itertools.accumulate(part.shape[0] for part in parts[::pcols])]
    cols = [0, *itertools.accumulate(part.shape[1] for part in parts[:pcols])]
    band = np.empty((rows[-1], cols[-1]), dtype=np.result_type(*parts))
    views = []
    for index, part in enumerate(parts):
        br, bc = divmod(index, pcols)
        view = band[rows[br] : rows[br + 1], cols[bc] : cols[bc + 1]]
        view[...] = part
        views.append(view)
    return band, views


def _assemble_pyramid(gathered: list, pcols: int, bank_name: str, levels: int) -> WaveletPyramid:
    """The pyramid of the ranks' gathered pieces, in rank order on a grid
    ``pcols`` ranks wide (1 under striping).

    Each band is allocated once, and every piece is copied into its place
    and then rebound in ``gathered`` to its view of the band, so the
    pieces and the pyramid are one copy of the result (writing to one
    writes to the other) and at most one band's old pieces are alive at
    a time.
    """
    approx, views = _fill_band([p["approx"] for p in gathered], pcols)
    for piece, view in zip(gathered, views):
        piece["approx"] = view
    details = []
    for level in range(levels):
        triple = []
        for k in range(3):
            band, views = _fill_band([p["details"][level][k] for p in gathered], pcols)
            for piece, view in zip(gathered, views):
                old = piece["details"][level]
                piece["details"][level] = (*old[:k], view, *old[k + 1 :])
            triple.append(band)
        details.append(DetailTriple(*triple))
    return WaveletPyramid(approx, tuple(details), bank_name)


def run_spmd_wavelet(
    machine: Machine,
    image: np.ndarray,
    bank: FilterBank,
    levels: int,
    *,
    decomposition: str = "striped",
    distribute: bool = True,
    collect: bool = True,
    kernel: str = "conv",
) -> SpmdWaveletOutcome:
    """Execute the parallel decomposition on a simulated machine.

    Parameters
    ----------
    machine:
        A :class:`~repro.machines.engine.Machine` (e.g. from
        :func:`repro.machines.paragon`).
    image:
        2-D input image.
    bank, levels:
        Analysis bank and decomposition depth.
    decomposition:
        ``"striped"`` (the paper's choice) or ``"block"``.
    kernel:
        Filtering implementation: ``"conv"`` (default, the seed path),
        ``"lifting"``, ``"fused"``, or ``"single-loop"`` (see
        :mod:`repro.wavelet.kernels`).
    distribute / collect:
        Whether the timed region includes shipping the image out from
        rank 0 and gathering the subbands back (the paper's measurements
        operate on distributed data; pass ``True`` to include the I/O).

    Returns
    -------
    SpmdWaveletOutcome
        Engine run result and the assembled pyramid (when collected, or
        when running on one rank).

    Notes
    -----
    Thin wrapper over the runtime layer: builds a
    :class:`~repro.runtime.spec.JobSpec` for the registered ``wavelet``
    program and runs it through :func:`repro.runtime.execute`.
    """
    from repro.runtime import JobSpec, RunOptions, execute

    spec = JobSpec(
        program="wavelet",
        params={
            "image": image,
            "bank": bank,
            "levels": levels,
            "distribute": distribute,
            "collect": collect,
        },
        options=RunOptions(kernel=kernel, decomposition=decomposition),
    )
    return execute(machine, spec).outcome
