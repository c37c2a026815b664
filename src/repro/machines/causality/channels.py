"""Trace → concrete channel extraction.

The symbolic protocol verifier (:mod:`repro.analysis.protocol`) predicts
the set of ``(src, dst, tag)`` channels a program can use; this helper
produces the channels a recorded run *actually* used, so the test suite
can prove the static prediction a superset of every dynamic observation
(exact on the striped wavelet program) — the same validation discipline
the wildcard-race rule went through.

Sends are the ground truth: every send event names its destination and
tag at the moment of posting, whereas a receive's ``peer``/``tag`` are
attributes of the *matched* message and would double-count the channel.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.machines.tags import USER_TAG_CEILING

__all__ = ["observed_channels"]


def observed_channels(trace: Iterable, *, user_only: bool = True) -> set:
    """The ``{(src, dst, tag)}`` channels used by a recorded trace.

    With ``user_only`` (the default) channels on registry-reserved tags —
    collective internals and reliable-transport data/acks — are
    dropped: they belong to the owning layer's protocol, not the
    program's, and the static verifier exempts them for the same reason.
    Collectives invoked with an explicit user tag (e.g. the PIC final
    gather) stay visible on both sides.
    """
    channels = set()
    for event in trace:
        if event.kind != "send":
            continue
        if user_only and event.tag >= USER_TAG_CEILING:
            continue
        if user_only and _reserved(event.tag):
            continue
        channels.add((event.rank, event.peer, event.tag))
    return channels


def _reserved(tag: int) -> bool:
    from repro.machines.tags import protocol_kind

    return protocol_kind(tag) != "app"
