"""Domain decompositions for the coarse-grain parallel wavelet transform.

Section 4.2 distributes the image as *stripes* of rows rather than blocks:
a stripe owner only ever needs guard data from one neighbor (the south
one, for column filtering), halving the per-level message count relative
to a block decomposition, which needs guards for both the row and column
filtering steps.  Both schemes are implemented so the benchmark suite can
regenerate that comparison.

Guard zones are "in the order of the filter length"; the kernel sets
their depths (``analysis_guard_depths``/``synthesis_guard_depths``), and
:func:`exchange_guards` is the one guard exchange of every SPMD program.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DecompositionError
from repro.wavelet.kernels import wrap_margins

__all__ = [
    "StripeDecomposition",
    "BlockDecomposition",
    "factor_grid",
    "exchange_guards",
]


@dataclass(frozen=True)
class StripeDecomposition:
    """Contiguous row stripes, one per rank.

    Requires ``rows`` divisible by ``nranks * 2**levels`` so every rank
    owns a whole, even number of rows at every decomposition level.
    """

    rows: int
    cols: int
    nranks: int
    levels: int

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise DecompositionError(f"nranks must be >= 1, got {self.nranks}")
        if self.levels < 1:
            raise DecompositionError(f"levels must be >= 1, got {self.levels}")
        granularity = self.nranks * 2**self.levels
        if self.rows % granularity != 0:
            raise DecompositionError(
                f"rows={self.rows} must be divisible by nranks*2^levels="
                f"{granularity} for a balanced stripe decomposition"
            )
        if self.cols % 2**self.levels != 0:
            raise DecompositionError(
                f"cols={self.cols} must be divisible by 2^levels="
                f"{2**self.levels}"
            )

    def local_rows(self, level: int = 0) -> int:
        """Rows owned by each rank at the start of ``level`` (0-based)."""
        return self.rows // self.nranks // 2**level

    def row_range(self, rank: int, level: int = 0) -> tuple:
        """Global ``(start, stop)`` rows owned by ``rank`` at ``level``."""
        if not 0 <= rank < self.nranks:
            raise DecompositionError(f"rank {rank} out of range")
        local = self.local_rows(level)
        return (rank * local, (rank + 1) * local)

    def south_neighbor(self, rank: int) -> int:
        """Rank owning the stripe below (wraps: the transform is periodic)."""
        return (rank + 1) % self.nranks

    def north_neighbor(self, rank: int) -> int:
        """Rank owning the stripe above (wraps)."""
        return (rank - 1) % self.nranks


def factor_grid(nranks: int) -> tuple:
    """Factor a rank count into the most square ``(prows, pcols)`` grid."""
    best = (1, nranks)
    for prows in range(1, int(nranks**0.5) + 1):
        if nranks % prows == 0:
            best = (prows, nranks // prows)
    return best


@dataclass(frozen=True)
class BlockDecomposition:
    """2-D block decomposition over a ``prows x pcols`` rank grid.

    Ranks are numbered row-major over the grid.  Each block needs an east
    guard (for row filtering) *and* a south guard (for column filtering)
    at every level — the two-transaction cost that Figure 3 contrasts with
    striping.
    """

    rows: int
    cols: int
    prows: int
    pcols: int
    levels: int

    def __post_init__(self) -> None:
        if self.prows < 1 or self.pcols < 1:
            raise DecompositionError(
                f"process grid must be >= 1x1, got {self.prows}x{self.pcols}"
            )
        if self.levels < 1:
            raise DecompositionError(f"levels must be >= 1, got {self.levels}")
        if self.rows % (self.prows * 2**self.levels) != 0:
            raise DecompositionError(
                f"rows={self.rows} not divisible by prows*2^levels="
                f"{self.prows * 2 ** self.levels}"
            )
        if self.cols % (self.pcols * 2**self.levels) != 0:
            raise DecompositionError(
                f"cols={self.cols} not divisible by pcols*2^levels="
                f"{self.pcols * 2 ** self.levels}"
            )

    @property
    def nranks(self) -> int:
        """Total ranks in the grid."""
        return self.prows * self.pcols

    def grid_coord(self, rank: int) -> tuple:
        """(block-row, block-col) of a rank."""
        if not 0 <= rank < self.nranks:
            raise DecompositionError(f"rank {rank} out of range")
        return (rank // self.pcols, rank % self.pcols)

    def local_shape(self, level: int = 0) -> tuple:
        """Block shape at the start of ``level``."""
        return (
            self.rows // self.prows // 2**level,
            self.cols // self.pcols // 2**level,
        )

    def block_ranges(self, rank: int, level: int = 0) -> tuple:
        """Global ``((r0, r1), (c0, c1))`` owned by ``rank`` at ``level``."""
        br, bc = self.grid_coord(rank)
        lr, lc = self.local_shape(level)
        return ((br * lr, (br + 1) * lr), (bc * lc, (bc + 1) * lc))

    def east_neighbor(self, rank: int) -> int:
        """Rank owning the block to the right (wraps around the grid row)."""
        br, bc = self.grid_coord(rank)
        return br * self.pcols + (bc + 1) % self.pcols

    def west_neighbor(self, rank: int) -> int:
        """Rank owning the block to the left (wraps)."""
        br, bc = self.grid_coord(rank)
        return br * self.pcols + (bc - 1) % self.pcols

    def south_neighbor(self, rank: int) -> int:
        """Rank owning the block below (wraps around the grid column)."""
        br, bc = self.grid_coord(rank)
        return ((br + 1) % self.prows) * self.pcols + bc

    def north_neighbor(self, rank: int) -> int:
        """Rank owning the block above (wraps)."""
        br, bc = self.grid_coord(rank)
        return ((br - 1) % self.prows) * self.pcols + bc


def exchange_guards(
    ctx, buf, owned, front, back, prev, nxt, back_tag, front_tag, *, multi, axis=-2,
    front_first=False,
):
    """Fill the margins of ``buf`` (``front + owned + back`` entries along
    ``axis``) in place: the first ``back`` owned entries go to ``prev``
    under ``back_tag``, the last ``front`` to ``nxt`` under ``front_tag``,
    each a slice of ``buf`` as laid out (depth 0 is not sent).  Both sends
    precede both receives, the back guard's first (analysis) unless
    ``front_first`` (synthesis).  Without ``multi`` (a ring of one rank)
    the margins wrap the rank's own entries, as often as they need."""
    if not multi:
        wrap_margins(buf, owned, front, back, axis)
        return
    # A view with the guard axis first; swapping back restores the layout.
    zone = buf.swapaxes(axis, 0)
    back_guard = zone[front : front + back].swapaxes(0, axis)
    front_guard = zone[owned : owned + front].swapaxes(0, axis)
    # The order flag is a literal at every call, so the protocol verifier
    # walks only the branches a call runs.
    if front_first:
        if front > 0:
            yield ctx.send(nxt, front_guard, tag=front_tag)
    if back > 0:
        yield ctx.send(prev, back_guard, tag=back_tag)
    if not front_first:
        if front > 0:
            yield ctx.send(nxt, front_guard, tag=front_tag)
    if front_first:
        if front > 0:
            zone[:front] = (yield ctx.recv(prev, tag=front_tag)).swapaxes(axis, 0)
    if back > 0:
        zone[front + owned :] = (yield ctx.recv(nxt, tag=back_tag)).swapaxes(axis, 0)
    if not front_first:
        if front > 0:
            zone[:front] = (yield ctx.recv(prev, tag=front_tag)).swapaxes(axis, 0)
