"""Kernel registry for the Mallat transform hot paths.

Every public transform entry point accepts
``kernel="conv"|"lifting"|"fused"|"single-loop"`` (default ``"conv"``,
the seed implementation, byte-for-byte preserved):

* ``"conv"`` — direct periodized correlation/convolution
  (:mod:`repro.wavelet.conv`), one pass per subband.
* ``"lifting"`` — the factored scheme of :mod:`repro.wavelet.lifting`:
  roughly half the multiply-adds, both subbands in one in-place pass over
  the even/odd lanes.
* ``"fused"`` — the lifting kernel under the name of the strip-fused
  traversal it introduced, which every separable kernel now runs.
* ``"single-loop"`` — the monolithic sweep of
  :mod:`repro.wavelet.singleloop`: each strip's rows are split once into
  their four polyphase lanes and every lifting step runs along both axes
  before the next, so each pixel is visited once per level and no
  intermediate subband image exists at all.

A kernel is the only code that knows its arithmetic.  Per axis it offers
the periodized passes (:meth:`~WaveletKernel.analyze`,
:meth:`~WaveletKernel.synthesize`), the valid-mode passes over a
guard-extended segment whose first ``front`` samples come from the
preceding neighbor (:meth:`~WaveletKernel.analyze_valid`,
:meth:`~WaveletKernel.synthesize_valid` — what the SPMD programs run),
the guard depths those passes need, the :class:`~repro.wavelet.cost.OpCount`
one pass charges, and the smallest image a 2-D step accepts.

The base class validates every kernel's inputs the same way and runs
every kernel's 2-D step in strips (Barina et al.): each block of 32
coarse rows gathers only the input rows it needs plus the guard margins
and transforms them in one per-strip method — the row pass, then the
column pass in valid mode, so no full-height L/H image is built.
Single-loop overrides only the per-strip methods, with its valid-mode
sweep and inverse sweep.  Each output gets the same products in the
same step and tap order as in the kernel's whole-image level.

:func:`get_kernel` resolves one of the four names to a fresh instance;
anything else raises :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.conv import (
    analyze_axis,
    analyze_axis_valid,
    normalize_axis_index,
    synthesize_axis,
    synthesize_axis_valid,
)
from repro.wavelet.cost import (
    OpCount,
    filter_pass_cost,
    lifting_pass_cost,
    single_loop_sweep_cost,
    synthesis_pass_cost,
)
from repro.wavelet.filters import FilterBank
from repro.wavelet.lifting import (
    lifting_analyze_axis,
    lifting_analyze_axis_valid,
    lifting_scheme,
    lifting_synthesize_axis,
    lifting_synthesize_axis_valid,
)
from repro.wavelet.singleloop import (
    single_loop_analyze_valid,
    single_loop_synthesize_valid,
)

__all__ = [
    "KERNEL_NAMES",
    "WaveletKernel",
    "ConvKernel",
    "LiftingKernel",
    "FusedKernel",
    "SingleLoopKernel",
    "get_kernel",
]


class WaveletKernel:
    """Interface every transform kernel implements.

    The per-axis passes return or take the ``(low, high)`` subband pair;
    2-D steps consume/produce :class:`repro.wavelet.transform.Subbands2D`.
    Pass costs count every emitted sample (both subbands for analysis,
    the full doubled rate for synthesis).
    """

    name = "abstract"
    #: Coarse output rows per strip of the separable 2-D traversal.
    block_rows = 32

    # -- per-axis arithmetic (one scheme per subclass) -----------------------

    def analyze(self, data: np.ndarray, bank: FilterBank, axis: int):
        """Periodized analysis along ``axis``: ``(low, high)``, axis halved."""
        raise NotImplementedError

    def synthesize(self, low, high, bank: FilterBank, axis: int) -> np.ndarray:
        """Invert :meth:`analyze`: the doubled-axis signal."""
        raise NotImplementedError

    def analyze_valid(self, ext, bank: FilterBank, axis: int, out_len: int, front: int):
        """Valid-mode analysis of a guard-extended segment whose first
        ``front`` samples are guards: ``out_len`` samples per subband,
        aligned with the owned part."""
        raise NotImplementedError

    def synthesize_valid(
        self, low, high, bank: FilterBank, axis: int, out_len: int, front: int
    ) -> np.ndarray:
        """Valid-mode synthesis of guard-extended subbands (first ``front``
        samples are guards): ``out_len`` outputs aligned with the owned
        part."""
        raise NotImplementedError

    def analysis_guard_depths(self, bank: FilterBank) -> tuple:
        """``(front, back)`` guard samples :meth:`analyze_valid` needs
        around an owned segment."""
        raise NotImplementedError

    def synthesis_guard_depths(self, bank: FilterBank) -> tuple:
        """``(front, back)`` guard subband samples :meth:`synthesize_valid`
        needs (front from the preceding neighbor, back from the next)."""
        raise NotImplementedError

    def analysis_pass_cost(self, output_samples: int, bank: FilterBank) -> OpCount:
        """Cost of one analysis pass emitting ``output_samples``."""
        raise NotImplementedError

    def synthesis_pass_cost(self, output_samples: int, bank: FilterBank) -> OpCount:
        """Cost of one synthesis pass emitting ``output_samples``."""
        raise NotImplementedError

    def min_side(self, bank: FilterBank) -> int:
        """Smallest image side a 2-D analysis step accepts: periodized
        filtering may not wrap more than once."""
        raise NotImplementedError

    # -- shared 2-D step -----------------------------------------------------

    def level_cost(self, rows: int, cols: int, bank: FilterBank) -> OpCount:
        """One 2-D analysis level on an ``rows x cols`` input: the row
        pass plus the column pass."""
        if rows % 2 or cols % 2:
            raise ConfigurationError(
                f"level input must have even dimensions, got {(rows, cols)}"
            )
        row_pass = self.analysis_pass_cost(2 * rows * (cols // 2), bank)
        col_pass = self.analysis_pass_cost(4 * (rows // 2) * (cols // 2), bank)
        return row_pass + col_pass

    def forward_step_2d(self, image: np.ndarray, bank: FilterBank):
        """One level of 2-D analysis; every kernel enforces the same shape
        and minimum-size checks, and the error reports the minimum."""
        from repro.wavelet.transform import Subbands2D  # transform imports us

        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2:
            raise ConfigurationError(f"expected a 2-D image, got ndim={image.ndim}")
        rows, cols = image.shape
        if rows % 2 or cols % 2:
            raise ConfigurationError(
                f"image dimensions must be even for decimation, got {rows}x{cols}"
            )
        self._check_min_side(rows, cols, bank)
        ll, lh, hl, hh = self._analyze_2d(image, bank)
        return Subbands2D(ll=ll, lh=lh, hl=hl, hh=hh)

    def inverse_step_2d(self, subbands, bank: FilterBank) -> np.ndarray:
        """Invert :meth:`forward_step_2d`; the four subbands must be 2-D,
        of one shape, and synthesize an image the forward step accepts."""
        bands = [
            np.asarray(b, dtype=np.float64)
            for b in (subbands.ll, subbands.lh, subbands.hl, subbands.hh)
        ]
        if any(b.ndim != 2 or b.shape != bands[0].shape for b in bands):
            raise ConfigurationError(
                "expected four 2-D subbands of one shape, got "
                f"{[b.shape for b in bands]}"
            )
        self._check_min_side(*(2 * n for n in bands[0].shape), bank)
        return self._synthesize_2d(*bands, bank)

    def _check_min_side(self, rows: int, cols: int, bank: FilterBank) -> None:
        need = self.min_side(bank)
        if min(rows, cols) < need:
            raise ConfigurationError(
                f"image {rows}x{cols} is too small for the {self.name!r} kernel "
                f"with the {bank.length}-tap {bank.name} bank: both sides must "
                f"be at least {need} (and even), so the minimum image is "
                f"{need + need % 2}x{need + need % 2}"
            )

    def _analyze_2d(self, image: np.ndarray, bank: FilterBank) -> tuple:
        """Strip traversal: each strip's input rows plus its guard rows,
        wrapped periodically, go through :meth:`_analyze_strip`."""
        rows, cols = image.shape
        front, back = self.analysis_guard_depths(bank)
        half_rows, half_cols = rows // 2, cols // 2
        ll, lh, hl, hh = (np.empty((half_rows, half_cols)) for _ in range(4))
        for r0 in range(0, half_rows, self.block_rows):
            r1 = min(half_rows, r0 + self.block_rows)
            need = np.arange(2 * r0 - front, 2 * r1 + back) % rows
            ll[r0:r1], lh[r0:r1], hl[r0:r1], hh[r0:r1] = self._analyze_strip(
                image, need, bank, front, r1 - r0
            )
        return ll, lh, hl, hh

    def _synthesize_2d(self, ll, lh, hl, hh, bank: FilterBank) -> np.ndarray:
        """Strip traversal: each strip's subband rows plus its guard rows,
        wrapped periodically, go through :meth:`_synthesize_strip`."""
        half_rows, half_cols = ll.shape
        rows = 2 * half_rows
        front, back = self.synthesis_guard_depths(bank)
        image = np.empty((rows, 2 * half_cols))
        for j0 in range(0, rows, 2 * self.block_rows):
            j1 = min(rows, j0 + 2 * self.block_rows)
            seg = np.arange(j0 // 2 - front, (j1 + 1) // 2 + back) % half_rows
            self._synthesize_strip(ll, lh, hl, hh, seg, bank, front, image[j0:j1])
        return image

    def _analyze_strip(self, image, need, bank: FilterBank, front: int, out_rows: int):
        """One strip of ``image``, its rows ``need`` (``front`` guard rows
        first): periodized row pass, then valid-mode column pass, to
        ``out_rows`` rows of each band."""
        low, high = self.analyze(image[need], bank, 1)
        return (
            *self.analyze_valid(low, bank, 0, out_rows, front),
            *self.analyze_valid(high, bank, 0, out_rows, front),
        )

    def _synthesize_strip(self, ll, lh, hl, hh, seg, bank, front: int, out) -> None:
        """One strip from the subband rows ``seg`` (``front`` guard rows
        first): valid-mode column pass, then periodized row pass, into the
        image rows ``out``."""
        out_rows = out.shape[0]
        low = self.synthesize_valid(ll[seg], lh[seg], bank, 0, out_rows, front)
        high = self.synthesize_valid(hl[seg], hh[seg], bank, 0, out_rows, front)
        out[...] = self.synthesize(low, high, bank, 1)


class ConvKernel(WaveletKernel):
    """The seed convolution implementation (the default)."""

    name = "conv"

    def analyze(self, data, bank, axis):
        return (
            analyze_axis(data, bank.lowpass, axis),
            analyze_axis(data, bank.highpass, axis),
        )

    def synthesize(self, low, high, bank, axis):
        return synthesize_axis(low, bank.lowpass, axis) + synthesize_axis(
            high, bank.highpass, axis
        )

    def analyze_valid(self, ext, bank, axis, out_len, front):
        # The correlation window starts at each output's own sample, so
        # the front guards are skipped rather than read.
        owned = ext[(slice(None),) * axis + (slice(front, None),)]
        return (
            analyze_axis_valid(owned, bank.lowpass, axis, out_len),
            analyze_axis_valid(owned, bank.highpass, axis, out_len),
        )

    def synthesize_valid(self, low, high, bank, axis, out_len, front):
        return synthesize_axis_valid(
            low, bank.lowpass, axis, out_len, front
        ) + synthesize_axis_valid(high, bank.highpass, axis, out_len, front)

    def analysis_guard_depths(self, bank):
        # The correlation window only reads forward: ``filter_length``
        # trailing samples (the paper's "order of the filter length").
        return (0, bank.length)

    def synthesis_guard_depths(self, bank):
        return (max(1, bank.length // 2), 0)

    def analysis_pass_cost(self, output_samples, bank):
        return filter_pass_cost(output_samples, bank.length)

    def synthesis_pass_cost(self, output_samples, bank):
        # Each output sums one product stream per channel, so the pass is
        # charged per channel: twice the emitted samples.
        return synthesis_pass_cost(2 * output_samples, bank.length)

    def min_side(self, bank):
        return bank.length


class LiftingKernel(WaveletKernel):
    """Factored lifting passes, separable (row pass then column pass)."""

    name = "lifting"

    def analyze(self, data, bank, axis):
        return lifting_analyze_axis(data, lifting_scheme(bank), axis)

    def synthesize(self, low, high, bank, axis):
        return lifting_synthesize_axis(low, high, lifting_scheme(bank), axis)

    def analyze_valid(self, ext, bank, axis, out_len, front):
        return lifting_analyze_axis_valid(
            ext, lifting_scheme(bank), axis, out_len, front
        )

    def synthesize_valid(self, low, high, bank, axis, out_len, front):
        scheme = lifting_scheme(bank)
        # Each subband is shifted into its lane before the steps replay,
        # so a segment shorter than the larger lane shift has no place.
        shift = max(abs(scheme.low_shift), abs(scheme.high_shift))
        length = np.shape(low)[normalize_axis_index(axis, np.ndim(low))]
        if length < shift:
            raise ConfigurationError(
                f"valid-mode {bank.name} lifting synthesis needs subband "
                f"segments of >= {shift} samples (its lane shift), got {length}"
            )
        return lifting_synthesize_axis_valid(low, high, scheme, axis, out_len, front)

    def analysis_guard_depths(self, bank):
        # Lifting steps reach both ways; the probed back margin is rounded
        # up to even so extended segments keep their lane parity.
        front, back = lifting_scheme(bank).analysis_margins
        return (front, back + back % 2)

    def synthesis_guard_depths(self, bank):
        return lifting_scheme(bank).synthesis_margins

    def analysis_pass_cost(self, output_samples, bank):
        return lifting_pass_cost(output_samples, lifting_scheme(bank).step_taps)

    def synthesis_pass_cost(self, output_samples, bank):
        return lifting_pass_cost(output_samples, lifting_scheme(bank).step_taps)

    def min_side(self, bank):
        return lifting_scheme(bank).filter_length


class FusedKernel(LiftingKernel):
    """The lifting kernel under its former name: its strip traversal is
    now every separable kernel's."""

    name = "fused"


class SingleLoopKernel(LiftingKernel):
    """The monolithic single-loop 2-D sweep (Barina et al.).

    Lifting arithmetic, but each strip interleaves vertical and
    horizontal steps over its four polyphase lanes so each pixel is
    visited once per level (:mod:`repro.wavelet.singleloop`).  In 1-D
    there is only one axis to sweep, so the monolithic unit degenerates
    to the plain lifting pass — the per-axis passes are inherited.  A
    level charges one sweep instead of two passes; the sweep erodes
    validity along each axis exactly like the separable lifting pass, so
    the guard depths are inherited too.
    """

    name = "single-loop"

    def level_cost(self, rows, cols, bank):
        return single_loop_sweep_cost(rows, cols, lifting_scheme(bank).step_taps)

    def sweep_valid(
        self, ext, bank, out_rows, out_cols, lead_rows, lead_cols=0, *, periodic_cols=False
    ):
        """Valid-mode sweep over a guard-extended tile; see
        :func:`repro.wavelet.singleloop.single_loop_analyze_valid`."""
        return single_loop_analyze_valid(
            ext,
            lifting_scheme(bank),
            out_rows,
            out_cols,
            lead_rows,
            lead_cols,
            periodic_cols=periodic_cols,
        )

    def _analyze_strip(self, image, need, bank, front, out_rows):
        return self.sweep_valid(
            image[need], bank, out_rows, image.shape[1] // 2, front, periodic_cols=True
        )

    def _synthesize_strip(self, ll, lh, hl, hh, seg, bank, front, out):
        single_loop_synthesize_valid(
            ll[seg], lh[seg], hl[seg], hh[seg], lifting_scheme(bank), front, out
        )


_FACTORIES = {
    cls.name: cls for cls in (ConvKernel, LiftingKernel, FusedKernel, SingleLoopKernel)
}

#: Registry spellings, in registration order.
KERNEL_NAMES = tuple(_FACTORIES)


def get_kernel(kernel) -> WaveletKernel:
    """Resolve a kernel name to a fresh kernel instance.

    An already-built :class:`WaveletKernel` passes through.  Anything
    that is not one of :data:`KERNEL_NAMES` raises
    :class:`ConfigurationError`.
    """
    if isinstance(kernel, WaveletKernel):
        return kernel
    factory = _FACTORIES.get(kernel) if isinstance(kernel, str) else None
    if factory is None:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; choose one of {KERNEL_NAMES}"
        )
    return factory()
