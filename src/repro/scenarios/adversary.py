"""Hostile-rank adversary overlays for the SPMD engine.

An :class:`AdversaryPlan` wraps a base
:class:`~repro.machines.faults.plan.FaultPlan` and adds *intentional*
misbehavior on top of the random fault machinery: one hostile rank whose
outgoing traffic is withheld, jammed, duplicated as junk floods, poisoned
with crafted-but-plausible values, replayed stale, delayed out of order,
or (for the straggler cartel) whose coalition slows its compute down.

Like the fault plan underneath it, every adversary decision is a *pure
function* of ``(seed, config)``: the attack-or-not draw for a message is
keyed by the splitmix64 hash of ``(seed, behavior domain, src, dst, tag,
per-channel ordinal)``.  The per-channel ordinal follows the sender's
program order, so decisions are independent of global event interleaving
(arrival order at the receiver, tracing on or off) — the property
``tests/test_scenarios_property.py`` certifies.  A disjoint salt keeps
the adversary's draws out of the fault plan's hash domains, so layering
an adversary never perturbs the random-fault decisions either.

The engine consults the overlay through one optional hook:
``intercept_send(src, dst, tag, payload, now_s)`` returning an
:class:`AdversaryAction` (or ``None`` for an unmolested send).  Plans
without the hook — every plain ``FaultPlan`` — take the zero-cost path.

An ``AdversaryPlan`` instance carries per-run channel state (ordinals,
replay memory) and must be constructed fresh per run, exactly like the
contention network machine.  ``without_crash`` (the recovery driver's
repair hook) returns a fresh overlay sharing the accumulated attack
stats, so restarted attempts re-derive their decisions deterministically
from ordinal zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.machines.engine import _copy_payload
from repro.machines.faults.plan import FaultConfig, FaultPlan, _hash01
from repro.machines.tags import ADVERSARY_SPAM, COLLECTIVE_TAG_BASE

__all__ = [
    "BEHAVIORS",
    "AdversaryConfig",
    "AdversaryAction",
    "AdversaryPlan",
]

#: The attack behaviors an adversary config can select.
BEHAVIORS = (
    "withhold",  # selective silence: eat outgoing messages entirely
    "jam",  # wire-level loss: reliable transport retries then raises
    "spam",  # tag-flood: junk copies burn wire time past admission
    "poison",  # crafted-but-plausible value perturbation
    "replay",  # stale duplicate of the channel's previous payload
    "reorder",  # cross-channel delivery delay
    "cartel",  # coalition compute slowdown (straggler cartel)
    "byzantine",  # poisoning restricted to collective-band traffic
)

# Hash-domain separators, salted away from the fault plan's domains
# (1..10 in repro.machines.faults.plan) so overlay draws can never
# collide with random-fault draws for the same seed.
_ADV_SALT = 0xAD7E_25A7_1E5C_E11A
_D_FIRE, _D_POISON_IDX, _D_POISON_SIGN, _D_DELAY_AMT = 101, 102, 103, 104


@dataclass(frozen=True)
class AdversaryConfig:
    """Static description of one hostile-rank behavior.

    ``rank`` is the adversary's placement; ``victims`` restricts which
    destination ranks are attacked (empty = every peer).  ``rate`` is the
    per-eligible-message attack probability; ``window`` gates attacks to
    a virtual-time interval.  The remaining knobs parameterize individual
    behaviors (poison ``magnitude``, ``spam_copies``/``spam_nbytes``,
    reorder ``delay_s``, cartel ``accomplices``/``slowdown``).
    """

    behavior: str
    rank: int = 1
    victims: tuple = ()
    rate: float = 1.0
    window: tuple = (0.0, float("inf"))
    magnitude: float = 0.25
    spam_copies: int = 3
    spam_nbytes: int = 4096
    delay_s: float = 2e-3
    accomplices: tuple = ()
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ConfigurationError(
                f"unknown adversary behavior {self.behavior!r}; "
                f"expected one of {BEHAVIORS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"rate must be in [0, 1], got {self.rate}")
        if self.rank < 0:
            raise ConfigurationError(f"adversary rank must be >= 0, got {self.rank}")
        t0, t1 = self.window
        if t0 < 0.0 or t1 < t0:
            raise ConfigurationError(f"window needs 0 <= t0 <= t1, got {self.window}")
        if self.magnitude <= 0.0:
            raise ConfigurationError(f"magnitude must be > 0, got {self.magnitude}")
        if self.spam_copies < 1 or self.spam_nbytes < 1:
            raise ConfigurationError("need spam_copies >= 1 and spam_nbytes >= 1")
        if self.delay_s < 0.0:
            raise ConfigurationError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.slowdown < 1.0:
            raise ConfigurationError(f"slowdown must be >= 1, got {self.slowdown}")

    @property
    def cartel_ranks(self) -> tuple:
        """The slowdown coalition: the adversary plus its accomplices."""
        return tuple(sorted({self.rank, *self.accomplices}))


@dataclass(frozen=True)
class AdversaryAction:
    """What the overlay does to one intercepted send."""

    deliver: bool = True
    jam: bool = False
    replace: bool = False
    payload: object = None
    extra_delay_s: float = 0.0
    replay: bool = False
    replay_payload: object = None
    spam: tuple = ()  # ((tag, payload, nbytes), ...)


def _poison_value(obj, seed: int, parts: tuple, magnitude: float):
    """Perturb the first plausibly-poisonable float leaf of ``obj``.

    Returns ``(poisoned, changed)``.  Arrays get one hash-chosen element
    nudged by ``magnitude`` relative to its own scale (a sneaky
    single-sample error, not random garbage); float scalars get a
    proportional skew.  Integers, strings, and empty containers pass
    through untouched so protocol plumbing (counts, indices) keeps
    working — the corruption must *look* plausible to survive en route.
    """
    if isinstance(obj, np.ndarray):
        if obj.size and np.issubdtype(obj.dtype, np.floating):
            out = np.array(obj, copy=True)
            # ``out.flat`` indexes in C order on any layout; a reshape of a
            # non-C-contiguous copy would be a copy, dropping the poison.
            flat = out.flat
            idx = int(_hash01(seed, _D_POISON_IDX, *parts) * out.size) % out.size
            sign = 1.0 if _hash01(seed, _D_POISON_SIGN, *parts) < 0.5 else -1.0
            flat[idx] = flat[idx] + sign * magnitude * (abs(float(flat[idx])) + 1.0)
            return out, True
        return obj, False
    if isinstance(obj, float):
        return obj * (1.0 + magnitude) + magnitude * 1e-6, True
    if isinstance(obj, tuple):
        items = list(obj)
        for i, item in enumerate(items):
            poisoned, changed = _poison_value(item, seed, parts + (i,), magnitude)
            if changed:
                items[i] = poisoned
                return tuple(items), True
        return obj, False
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            poisoned, changed = _poison_value(item, seed, parts + (i,), magnitude)
            if changed:
                out_list = list(obj)
                out_list[i] = poisoned
                return out_list, True
        return obj, False
    if isinstance(obj, dict):
        for i, key in enumerate(sorted(obj, key=repr)):
            poisoned, changed = _poison_value(obj[key], seed, parts + (i,), magnitude)
            if changed:
                out_dict = dict(obj)
                out_dict[key] = poisoned
                return out_dict, True
        return obj, False
    return obj, False


def _fresh_stats() -> dict:
    return {
        "withheld": 0,
        "jammed": 0,
        "spammed": 0,
        "poisoned": 0,
        "replayed": 0,
        "reordered": 0,
        "cartel": 0,
    }


class AdversaryPlan:
    """A fault plan with one hostile rank layered on top.

    Delegates the entire :class:`FaultPlan` oracle interface to the
    wrapped base plan unchanged (same seed, same hash keying — layering
    the overlay never alters a random-fault decision) and adds the
    engine's ``intercept_send`` hook for the adversary behaviors.
    """

    def __init__(
        self,
        seed: int,
        adversary: AdversaryConfig,
        faults: FaultConfig | None = None,
        *,
        base: FaultPlan | None = None,
        stats: dict | None = None,
    ) -> None:
        self.seed = int(seed)
        self.adversary = adversary
        self.base = base if base is not None else FaultPlan(seed, faults)
        self.stats = stats if stats is not None else _fresh_stats()
        # Per-run channel state: (src, dst, tag) -> sends seen / last payload.
        self._ordinals: dict = {}
        self._replay_memory: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdversaryPlan(seed={self.seed}, "
            f"behavior={self.adversary.behavior!r}, rank={self.adversary.rank})"
        )

    # -- FaultPlan delegation (bitwise-unchanged fault oracle) --------------

    @property
    def config(self) -> FaultConfig:
        return self.base.config

    def message_fate(self, msg_index: int, attempt: int = 0):
        return self.base.message_fate(msg_index, attempt)

    def crash_time(self, rank: int):
        return self.base.crash_time(rank)

    @property
    def crash_schedule(self) -> dict:
        return self.base.crash_schedule

    def link_factor(self, node_a: int, node_b: int, t: float) -> float:
        return self.base.link_factor(node_a, node_b, t)

    @property
    def has_link_slowdowns(self) -> bool:
        return self.base.has_link_slowdowns

    def straggler_factor(self, rank: int, t: float) -> float:
        factor = self.base.straggler_factor(rank, t)
        adv = self.adversary
        if (
            adv.behavior == "cartel"
            and rank in adv.cartel_ranks
            and adv.window[0] <= t < adv.window[1]
        ):
            factor *= adv.slowdown
            self.stats["cartel"] = 1
        return factor

    def without_crash(self, rank: int) -> "AdversaryPlan":
        """Repaired plan for a restarted attempt: fresh channel state
        (the restart replays sends from ordinal zero), shared stats."""
        return AdversaryPlan(
            self.seed,
            self.adversary,
            base=self.base.without_crash(rank),
            stats=self.stats,
        )

    # -- the engine hook ----------------------------------------------------

    def _fires(self, src: int, dst: int, tag: int, ordinal: int) -> bool:
        adv = self.adversary
        if adv.rate >= 1.0:
            return True
        return (
            _hash01(self.seed ^ _ADV_SALT, _D_FIRE, src, dst, tag, ordinal)
            < adv.rate
        )

    def intercept_send(
        self, src: int, dst: int, tag: int, payload, now_s: float
    ) -> AdversaryAction | None:
        """The engine's per-send consultation; ``None`` = leave it alone."""
        adv = self.adversary
        key = (src, dst, tag)
        ordinal = self._ordinals.get(key, 0)
        self._ordinals[key] = ordinal + 1
        if src != adv.rank:
            return None
        previous = None
        if adv.behavior == "replay":
            previous = self._replay_memory.get(key)
            self._replay_memory[key] = _copy_payload(payload)
        if adv.victims and dst not in adv.victims:
            return None
        if not adv.window[0] <= now_s < adv.window[1]:
            return None
        if not self._fires(src, dst, tag, ordinal):
            return None
        draw_key = (src, dst, tag, ordinal)
        if adv.behavior == "withhold":
            self.stats["withheld"] += 1
            return AdversaryAction(deliver=False)
        if adv.behavior == "jam":
            self.stats["jammed"] += 1
            return AdversaryAction(deliver=False, jam=True)
        if adv.behavior == "spam":
            junk = bytes(adv.spam_nbytes)
            flood = tuple(
                (ADVERSARY_SPAM, junk, adv.spam_nbytes)
                for _ in range(adv.spam_copies)
            )
            self.stats["spammed"] += adv.spam_copies
            return AdversaryAction(spam=flood)
        if adv.behavior in ("poison", "byzantine"):
            if adv.behavior == "byzantine" and tag < COLLECTIVE_TAG_BASE:
                return None
            poisoned, changed = _poison_value(
                payload, self.seed ^ _ADV_SALT, draw_key, adv.magnitude
            )
            if not changed:
                return None
            self.stats["poisoned"] += 1
            return AdversaryAction(replace=True, payload=poisoned)
        if adv.behavior == "replay":
            if previous is None:
                return None
            self.stats["replayed"] += 1
            return AdversaryAction(replay=True, replay_payload=previous)
        if adv.behavior == "reorder":
            jitter = _hash01(self.seed ^ _ADV_SALT, _D_DELAY_AMT, *draw_key)
            self.stats["reordered"] += 1
            return AdversaryAction(extra_delay_s=adv.delay_s * (0.5 + jitter))
        # "cartel" attacks compute time, not messages.
        return None

    @property
    def attacks_fired(self) -> int:
        """Total adversary interventions so far (all behaviors)."""
        return sum(self.stats[key] for key in sorted(self.stats))
