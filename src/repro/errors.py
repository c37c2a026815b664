"""Exception hierarchy shared across the :mod:`repro` subsystems.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything produced by this package with a single ``except`` clause
without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """A machine spec, topology, or algorithm parameter is invalid."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event engine detected an inconsistent state."""


class DeadlockError(SimulationError):
    """All live ranks are blocked on receives that can never be satisfied."""

    def __init__(self, waiting: dict) -> None:
        self.waiting = dict(waiting)
        detail = ", ".join(
            f"rank {rank} waiting on {want}" for rank, want in sorted(self.waiting.items())
        )
        super().__init__(f"deadlock: {detail}")


class CommunicationError(SimulationError):
    """A message-passing call was used incorrectly (bad rank, tag, size)."""


class RecvTimeoutError(CommunicationError, TimeoutError):
    """A ``ctx.recv(..., timeout_s=...)`` expired before a matching message
    arrived.  Thrown *into* the rank program at the blocked ``yield`` so it
    can recover (retransmit, fall back, abort) instead of deadlocking."""

    def __init__(self, rank: int, src: int, tag: int, timeout_s: float, at_s: float) -> None:
        self.rank = rank
        self.src = src
        self.tag = tag
        self.timeout_s = timeout_s
        self.at_s = at_s
        super().__init__(
            f"rank {rank}: recv(src={src}, tag={tag}) timed out after "
            f"{timeout_s:g}s at virtual t={at_s:.6f}s"
        )


class TransportError(CommunicationError):
    """The reliable transport exhausted its retransmission budget without
    getting a message (or its acknowledgement) through."""


class RankCrashError(SimulationError):
    """A rank hit its fault-plan crash time (fail-stop model).

    The whole run aborts at the crash instant; the error carries what a
    recovery driver needs: which rank died, when, and the newest *globally
    committed* checkpoint (the largest index every rank had written to
    stable storage before the crash).
    """

    def __init__(self, rank: int, at_s: float, checkpoint_index: int = -1,
                 checkpoint_states: list | None = None) -> None:
        self.rank = rank
        self.at_s = at_s
        self.checkpoint_index = checkpoint_index
        self.checkpoint_states = checkpoint_states
        where = (
            f"no committed checkpoint" if checkpoint_index < 0
            else f"committed checkpoint #{checkpoint_index}"
        )
        super().__init__(
            f"rank {rank} crashed at virtual t={at_s:.6f}s ({where})"
        )


class DecompositionError(ConfigurationError):
    """A domain decomposition cannot be constructed for the given shape."""


class TraceError(ReproError, ValueError):
    """A workload trace is malformed (unknown opcode, bad operands)."""


class CausalityError(ReproError, ValueError):
    """An engine trace cannot support the requested causal analysis
    (missing trace, unknown event indices, unmatched message linkage)."""
