"""Kernel registry for the Mallat transform hot paths.

Every public transform entry point accepts
``kernel="conv"|"lifting"|"fused"|"single-loop"`` (default ``"conv"``,
the seed implementation, byte-for-byte preserved):

* ``"conv"`` — direct correlation/convolution
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

A kernel is the only code that knows its arithmetic, and it has one per
axis: the valid-mode passes over a guard-extended segment whose first
``front`` samples come from the preceding neighbor
(:meth:`~WaveletKernel.analyze_valid`,
:meth:`~WaveletKernel.synthesize_valid`), the guard depths those passes
need, the :class:`~repro.wavelet.cost.OpCount` one pass charges, and the
smallest side it accepts.  The sequential transform is the one-rank
case of the SPMD programs: the base class's periodized passes
(:meth:`~WaveletKernel.analyze`, :meth:`~WaveletKernel.synthesize`)
extend the axis by the guard depths, wrapped from the data's own ends by
:func:`wrap_margins`, and run the valid-mode pass over it.  Every
output gets the same products in the same tap order as the textbook
periodized formula, so the results are bit-identical to it.

The base class validates every kernel's inputs the same way and runs
every kernel's 2-D step in strips (Barina et al.): each block of 32
coarse rows copies only the input rows it needs plus the guard margins,
by slices, into one buffer with column margins too, and transforms it
in one per-strip method — the valid-mode row pass, then the valid-mode
column pass, so no full-height L/H image is built.  Single-loop
overrides only the per-strip methods, with its valid-mode sweep and
inverse sweep.  A level at least :data:`_THREAD_MIN_COLS` columns wide
runs its strips on every usable CPU (:func:`_run_strips`); each strip
writes only its own rows of the outputs with unchanged arithmetic, so
the results are byte-identical to the serial traversal.

:func:`get_kernel` resolves one of the four names to a fresh instance;
anything else raises :class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.conv import (
    _along,
    _resized,
    analyze_axis_valid,
    normalize_axis_index,
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
    lifting_analyze_axis_valid,
    lifting_scheme,
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
    "wrap_margins",
]


def _copy_wrapped(dst: np.ndarray, src: np.ndarray, start: int) -> None:
    """``dst[i] = src[(start + i) mod len(src)]`` along the first axis,
    one slice per run of consecutive entries."""
    n = len(src)
    i = 0
    while i < len(dst):
        j = (start + i) % n
        k = min(n - j, len(dst) - i)
        dst[i : i + k] = src[j : j + k]
        i += k


#: Narrowest level, in image columns (the input of a forward step, the
#: output of an inverse step), whose strips run on every usable CPU.
#: Below it a strip's NumPy calls are shorter than a GIL hand-off and
#: threads slow the level down (EXPERIMENTS.md, "Strips on host threads").
_THREAD_MIN_COLS = 2048


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_strips(strip, starts: range, cols: int) -> None:
    """Call ``strip(start)`` for every start on the calling thread plus,
    for a level of at least :data:`_THREAD_MIN_COLS` columns, one helper
    thread per further usable CPU, each taking the next start until none
    are left.  With no helper the strips run serially and in order.

    After the first failure no strip starts; once every thread has
    stopped, the failing strip with the lowest start re-raises.  The
    helpers that started are joined before this returns or raises, also
    when starting a further one fails."""
    workers = min(_usable_cpus(), len(starts)) if cols >= _THREAD_MIN_COLS else 1
    lock = threading.Lock()
    pending = iter(starts)
    failures: dict = {}

    def work() -> None:
        while True:
            with lock:
                start = None if failures else next(pending, None)
            if start is None:
                return
            try:
                strip(start)
            except BaseException as exc:  # re-raised below: no strip is lost silently
                with lock:
                    failures[start] = exc

    helpers = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work, name="strip")
            thread.start()
            helpers.append(thread)
        work()
    finally:
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[min(failures)]


def wrap_margins(buf: np.ndarray, owned: int, front: int, back: int, axis: int = 0) -> None:
    """Fill the margins of ``buf`` (``front + owned + back`` entries along
    ``axis``) in place from its own owned part, read periodically: the
    front margin ends with the owned part's last entries and the back
    margin starts with its first.  A margin deeper than the owned part
    wraps it more than once."""
    zone = buf.swapaxes(axis, 0)
    body = zone[front : front + owned]
    _copy_wrapped(zone[:front], body, -front)
    _copy_wrapped(zone[front + owned :], body, 0)


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
        """Smallest axis a periodized analysis accepts (and a synthesis
        produces): the filter length."""
        raise NotImplementedError

    # -- periodized passes: the valid-mode pass over wrapped margins ---------

    def analyze(self, data, bank: FilterBank, axis: int):
        """Periodized analysis along ``axis``: ``(low, high)``, axis halved.

        The axis is extended by :meth:`analysis_guard_depths`, wrapped
        from its own ends, and run through :meth:`analyze_valid`."""
        need = self.min_side(bank)
        data = np.asarray(data, dtype=np.float64)
        axis = normalize_axis_index(axis, data.ndim)
        n = data.shape[axis]
        if n % 2 != 0:
            raise ConfigurationError(f"axis length must be even for decimation, got {n}")
        if n < need:
            raise ConfigurationError(
                f"axis length {n} is shorter than the {self.name!r} kernel's "
                f"minimum of {need} samples (the filter length)"
            )
        front, back = self.analysis_guard_depths(bank)
        ext = np.empty(_resized(data.shape, axis, front + n + back))
        _along(ext, axis, front, front + n)[...] = data
        wrap_margins(ext, n, front, back, axis)
        return self.analyze_valid(ext, bank, axis, n // 2, front)

    def synthesize(self, low, high, bank: FilterBank, axis: int) -> np.ndarray:
        """Invert :meth:`analyze`: the doubled-axis signal.

        Both subbands are extended by :meth:`synthesis_guard_depths`,
        wrapped from their own ends, and run through
        :meth:`synthesize_valid`."""
        need = self.min_side(bank)
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        if low.shape != high.shape:
            raise ConfigurationError(
                f"low shape {low.shape} does not match high shape {high.shape}"
            )
        axis = normalize_axis_index(axis, low.ndim)
        n = low.shape[axis]
        if 2 * n < need:
            raise ConfigurationError(
                f"a subband of {n} samples synthesizes fewer than the {need} the "
                f"{self.name!r} kernel needs (the filter length)"
            )
        front, back = self.synthesis_guard_depths(bank)
        ext = np.empty((2, *_resized(low.shape, axis, front + n + back)))
        for band, data in zip(ext, (low, high)):
            _along(band, axis, front, front + n)[...] = data
        wrap_margins(ext, n, front, back, axis + 1)
        return self.synthesize_valid(ext[0], ext[1], bank, axis, 2 * n, front)

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
        read periodically, and its column margins go through
        :meth:`_analyze_strip` (see :func:`_run_strips`)."""
        rows, cols = image.shape
        front, back = self.analysis_guard_depths(bank)
        half_rows, half_cols = rows // 2, cols // 2
        ll, lh, hl, hh = (np.empty((half_rows, half_cols)) for _ in range(4))

        def strip(r0: int) -> None:
            r1 = min(half_rows, r0 + self.block_rows)
            ext = np.empty((2 * (r1 - r0) + front + back, front + cols + back))
            _copy_wrapped(ext[:, front : front + cols], image, 2 * r0 - front)
            wrap_margins(ext, cols, front, back, axis=1)
            ll[r0:r1], lh[r0:r1], hl[r0:r1], hh[r0:r1] = self._analyze_strip(
                ext, bank, front, r1 - r0, half_cols
            )

        _run_strips(strip, range(0, half_rows, self.block_rows), cols)
        return ll, lh, hl, hh

    def _synthesize_2d(self, ll, lh, hl, hh, bank: FilterBank) -> np.ndarray:
        """Strip traversal: each strip's rows of the four subbands plus
        their guard rows, read periodically, and their column margins go
        through :meth:`_synthesize_strip` in one ``(4, ...)`` buffer (see
        :func:`_run_strips`)."""
        half_rows, half_cols = ll.shape
        rows = 2 * half_rows
        front, back = self.synthesis_guard_depths(bank)
        image = np.empty((rows, 2 * half_cols))

        def strip(j0: int) -> None:
            j1 = min(rows, j0 + 2 * self.block_rows)
            seg = np.empty((4, (j1 - j0) // 2 + front + back, front + half_cols + back))
            for band, data in zip(seg, (ll, lh, hl, hh)):
                _copy_wrapped(band[:, front : front + half_cols], data, j0 // 2 - front)
            wrap_margins(seg, half_cols, front, back, axis=2)
            self._synthesize_strip(seg, bank, front, image[j0:j1])

        _run_strips(strip, range(0, rows, 2 * self.block_rows), 2 * half_cols)
        return image

    def _analyze_strip(self, ext, bank: FilterBank, front: int, out_rows: int, out_cols: int):
        """One strip with margins on both axes (``front`` guards first):
        valid-mode row pass, then valid-mode column pass, to ``out_rows x
        out_cols`` samples of each band."""
        low, high = self.analyze_valid(ext, bank, 1, out_cols, front)
        return (
            *self.analyze_valid(low, bank, 0, out_rows, front),
            *self.analyze_valid(high, bank, 0, out_rows, front),
        )

    def _synthesize_strip(self, seg, bank: FilterBank, front: int, out) -> None:
        """One strip from the four subbands' rows with margins on both axes
        (``front`` guards first): valid-mode column pass, then valid-mode
        row pass, into the image rows ``out``.  The column pass also runs
        over the margin columns; a column filter never mixes columns, so
        they come out as the wrapped copies the row pass needs."""
        out_rows = out.shape[0]
        low = self.synthesize_valid(seg[0], seg[1], bank, 0, out_rows, front)
        high = self.synthesize_valid(seg[2], seg[3], bank, 0, out_rows, front)
        out[...] = self.synthesize_valid(low, high, bank, 1, out.shape[1], front)


class ConvKernel(WaveletKernel):
    """The seed convolution implementation (the default)."""

    name = "conv"

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

    def sweep_valid(self, ext, bank, out_rows, out_cols, lead_rows, lead_cols):
        """Valid-mode sweep over a tile with guard margins on both axes;
        see :func:`repro.wavelet.singleloop.single_loop_analyze_valid`."""
        return single_loop_analyze_valid(
            ext, lifting_scheme(bank), out_rows, out_cols, lead_rows, lead_cols
        )

    def _analyze_strip(self, ext, bank, front, out_rows, out_cols):
        return self.sweep_valid(ext, bank, out_rows, out_cols, front, front)

    def _synthesize_strip(self, seg, bank, front, out):
        single_loop_synthesize_valid(*seg, lifting_scheme(bank), front, out)


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
