"""The strip traversal on host threads.

A level at least ``kernels._THREAD_MIN_COLS`` columns wide runs its
strips on the calling thread plus one helper thread per further usable
CPU.  Each strip reads the shared input and writes only its own rows of
the preallocated outputs, with the arithmetic of the serial traversal,
so the threaded level must be byte-identical to the serial one.  The
serial side is forced by reporting one usable CPU; the threaded side
reports at least two, and must be seen to start a helper, so no test
here passes vacuously on a one-CPU host.  A strip that raises must
surface from the step as the same exception, the lowest failing strip
first, with no strip started after it and no thread left behind.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.wavelet import filter_bank_for_length, get_kernel, kernels
from repro.wavelet.transform import Subbands2D

ALL = kernels.KERNEL_NAMES
GATE = kernels._THREAD_MIN_COLS

# (shape, strips): two, three and four strips, the last one partial; at
# the gate and twice the gate, and, with the gate lowered, below it.
WIDE = [((68, GATE), 2), ((204, GATE), 4), ((132, 2 * GATE), 3)]
NARROW = [((68, GATE // 4), 2), ((132, GATE // 2), 3)]

# Lifting factors only D2-D14.
FILTERS = {"conv": (2, 8, 20)}

PARAMS = [
    pytest.param(kernel, shape, m, gated, id=f"{kernel}-{shape[0]}x{shape[1]}-D{m}")
    for cases, gated in ((WIDE, True), (NARROW, False))
    for shape, _ in cases
    for kernel in ALL
    for m in FILTERS.get(kernel, (2, 8, 14))
]


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names = []
    real_start = threading.Thread.start

    def start(self):
        names.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return names


def _threaded_cpus() -> int:
    return max(2, kernels._usable_cpus())


def _bands(sub: Subbands2D) -> tuple:
    return sub.ll, sub.lh, sub.hl, sub.hh


def _assert_bytes_equal(got, want) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel, shape, m, gated", PARAMS)
def test_threaded_strips_are_byte_identical_to_serial(
    monkeypatch, started, kernel, shape, m, gated
):
    impl = get_kernel(kernel)
    bank = filter_bank_for_length(m)
    image = np.random.default_rng(shape[0] * m).standard_normal(shape)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)
    serial = impl.forward_step_2d(image, bank)
    serial_image = impl.inverse_step_2d(serial, bank)
    assert started == []

    cpus = _threaded_cpus()
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
    if not gated:
        monkeypatch.setattr(kernels, "_THREAD_MIN_COLS", 0)
    threaded = impl.forward_step_2d(image, bank)
    assert len(started) >= 1
    threaded_image = impl.inverse_step_2d(serial, bank)
    assert len(started) >= 2

    for got, want in zip(_bands(threaded), _bands(serial)):
        _assert_bytes_equal(got, want)
    _assert_bytes_equal(threaded_image, serial_image)


@pytest.mark.parametrize("shape, strips", WIDE + NARROW)
def test_helpers_follow_width_and_usable_cpus(started, shape, strips):
    """With the host's own affinity mask: a level at or above the gate
    starts one helper per further usable CPU (at most one per further
    strip), a narrower level none; a one-CPU mask (``taskset -c 0``)
    starts none at all."""
    impl = get_kernel("conv")
    bank = filter_bank_for_length(2)
    image = np.zeros(shape)
    impl.inverse_step_2d(impl.forward_step_2d(image, bank), bank)
    wide = shape[1] >= GATE
    assert len(started) == (2 * (min(kernels._usable_cpus(), strips) - 1) if wide else 0)


def test_usable_cpus_is_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert kernels._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert kernels._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert kernels._usable_cpus() == 1


# -- failure path -------------------------------------------------------------

#: Rows per image of the failure tests: eight strips, at the gate's width.
ROWS = 16 * kernels.WaveletKernel.block_rows
STRIP = 2 * kernels.WaveletKernel.block_rows  # image rows per strip
DIRECTIONS = ("forward", "inverse")


class StripError(Exception):
    pass


def _start(direction, index):
    """Start row of strip ``index`` as the strip methods see it: coarse
    rows for the forward step, image rows for the inverse."""
    return index * (STRIP // 2 if direction == "forward" else STRIP)


def _failing(monkeypatch, impl, direction, fail, before=lambda start: None):
    """Patch ``impl``'s per-strip method to call ``before(start)`` and
    then make the strips whose start is in ``fail`` raise a fresh
    :class:`StripError`.  Every strip's start is recorded, read from its
    first owned row: row ``i`` of the test input holds ``i``.  Returns
    ``(starts, raised)``."""
    starts, raised = [], {}
    lock = threading.Lock()
    name = "_analyze_strip" if direction == "forward" else "_synthesize_strip"
    real = getattr(impl, name)

    def strip(buf, bank, front, *rest):
        if direction == "forward":
            start = int(buf[front, front]) // 2
        else:
            start = 2 * int(buf[0, front, front])
        with lock:
            starts.append(start)
        before(start)
        if start in fail:
            raised[start] = StripError(start)
            raise raised[start]
        return real(buf, bank, front, *rest)

    monkeypatch.setattr(impl, name, strip)
    return starts, raised


def _step(impl, direction, bank):
    """Run one step of ``direction`` on the failure tests' input."""
    if direction == "forward":
        rows = np.arange(ROWS, dtype=np.float64)
        impl.forward_step_2d(np.repeat(rows[:, None], GATE, axis=1), bank)
    else:
        rows = np.arange(ROWS // 2, dtype=np.float64)
        band = np.repeat(rows[:, None], GATE // 2, axis=1)
        impl.inverse_step_2d(Subbands2D(band, band, band, band), bank)


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("kernel", ALL)
@pytest.mark.parametrize("cpus", (1, 2))
def test_failing_strip_surfaces_unchanged(monkeypatch, kernel, direction, cpus):
    impl = get_kernel(kernel)
    bank = filter_bank_for_length(4)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
    failing = _start(direction, 5)
    starts, raised = _failing(monkeypatch, impl, direction, {failing})
    before = threading.active_count()
    with pytest.raises(StripError) as info:
        _step(impl, direction, bank)
    assert info.value is raised[failing]
    assert threading.active_count() == before
    if cpus == 1:
        # Serially, the strips run in order and none starts after it.
        assert starts == [_start(direction, i) for i in range(6)]


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_lowest_failing_strip_wins(monkeypatch, direction):
    """Strip 0 raises only once strip 1, on the other thread, is raising;
    strip 0's exception is the one re-raised."""
    impl = get_kernel("conv")
    bank = filter_bank_for_length(2)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    first, second = _start(direction, 0), _start(direction, 1)
    second_raising = threading.Event()

    def before(start):
        if start == second:
            second_raising.set()
        else:
            assert second_raising.wait(timeout=30)

    starts, raised = _failing(monkeypatch, impl, direction, {first, second}, before)
    count = threading.active_count()
    with pytest.raises(StripError) as info:
        _step(impl, direction, bank)
    assert info.value is raised[first]
    assert set(raised) == {first, second}
    assert sorted(starts) == [first, second]
    assert threading.active_count() == count


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_no_strip_starts_after_a_failure(monkeypatch, direction):
    """Strip 0 fails while the other thread is still in strip 1; that
    thread then takes no further strip of the eight."""
    impl = get_kernel("conv")
    bank = filter_bank_for_length(2)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    failing = _start(direction, 0)
    failed = threading.Event()

    def before(start):
        if start == failing:
            failed.set()
        else:
            assert failed.wait(timeout=30)
            time.sleep(0.2)

    starts, _ = _failing(monkeypatch, impl, direction, {failing}, before)
    count = threading.active_count()
    with pytest.raises(StripError):
        _step(impl, direction, bank)
    assert set(starts) <= {failing, _start(direction, 1)}
    assert threading.active_count() == count


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_helper_that_cannot_start_leaves_no_thread(monkeypatch, direction):
    """Three workers, and the second helper cannot start: the step
    raises that error only once the first helper has stopped."""
    impl = get_kernel("conv")
    bank = filter_bank_for_length(2)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
    _failing(monkeypatch, impl, direction, set(), lambda start: time.sleep(0.01))
    real_start = threading.Thread.start
    threads = []

    def start(self):
        threads.append(self)
        if len(threads) == 2:
            raise RuntimeError("can't start new thread")
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    count = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        _step(impl, direction, bank)
    assert not threads[0].is_alive()
    assert threading.active_count() == count


def test_stress_more_workers_than_cores(monkeypatch):
    """Eight workers on 64 narrow strips, switching threads every
    microsecond: every strip runs exactly once and the level stays
    byte-identical (a strip taken twice or lost would break both)."""
    impl = get_kernel("lifting")
    bank = filter_bank_for_length(8)
    image = np.random.default_rng(64).standard_normal((64 * STRIP, 64))
    image[:, 0] = np.arange(len(image))  # read back as each strip's start
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)
    serial = impl.forward_step_2d(image, bank)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(kernels, "_THREAD_MIN_COLS", 0)
    starts, _ = _failing(monkeypatch, impl, "forward", set())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = impl.forward_step_2d(image, bank)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(starts) == [_start("forward", i) for i in range(64)]
    for got, want in zip(_bands(threaded), _bands(serial)):
        _assert_bytes_equal(got, want)
