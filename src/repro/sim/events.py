"""Typed events on the virtual timeline.

An :class:`Event` is one scheduled point on the clock axis: *when* it is
due (``time_ms``), *what* it is (:class:`EventKind`), and an opaque
``payload`` for the subscriber.  Events are immutable; mutability lives
in the :class:`EventHandle` the kernel returns at scheduling time, whose
only writable state is the cancellation flag.

Determinism contract: the kernel assigns each event a monotonically
increasing ``seq`` and dispatches in ``(time_ms, seq)`` order, so two
events due at the same instant always fire in scheduling order — no
hash-order or insertion-accident nondeterminism.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any

from repro.common import ConfigError

__all__ = ["EventKind", "Event", "EventHandle"]


class EventKind(enum.Enum):
    """What a scheduled timeline event represents."""

    RETRY = "retry"            # a resilient-path backoff expiring
    TIMER = "timer"            # a generic subscriber timer
    GUARD_TICK = "guard_tick"  # a policy-guard evaluation instant


@dataclass(frozen=True)
class Event:
    """One immutable scheduled occurrence on the virtual clock.

    Attributes:
        time_ms: absolute virtual time the event is due.
        kind: the typed discriminator (:class:`EventKind`).
        seq: kernel-assigned monotonic sequence number; the deterministic
            tie-breaker for events due at the same instant.
        payload: opaque subscriber data (e.g. a timer tag).
    """

    time_ms: float
    kind: EventKind
    seq: int
    payload: Any = None

    def __post_init__(self):
        if not math.isfinite(self.time_ms) or self.time_ms < 0:
            raise ConfigError(f"bad event time: {self.time_ms} ms")
        if not isinstance(self.kind, EventKind):
            raise ConfigError(f"bad event kind: {self.kind!r}")


class EventHandle:
    """The cancellation token for one scheduled event.

    Cancellation is *lazy*: the heap entry stays put and is skipped when
    it surfaces, so cancelling is O(1) and the heap never needs a
    re-sift.  A handle that already fired ignores :meth:`cancel`.
    """

    __slots__ = ("event", "callback", "cancelled", "fired")

    def __init__(self, event, callback=None):
        self.event = event
        self.callback = callback
        self.cancelled = False
        self.fired = False

    @property
    def live(self):
        """Still waiting in the heap (not fired, not cancelled)."""
        return not (self.fired or self.cancelled)

    def cancel(self):
        """Drop the event before it fires; no-op once fired."""
        if not self.fired:
            self.cancelled = True
        return self.cancelled

    def __repr__(self):
        state = ("fired" if self.fired
                 else "cancelled" if self.cancelled else "pending")
        return (f"EventHandle({self.event.kind.value} "
                f"@ {self.event.time_ms} ms, {state})")
