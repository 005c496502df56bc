"""The event kernel: one heap, one clock, one writer.

:class:`EventKernel` owns every write to the shared virtual clock
(reprolint's RL103 approves exactly this module's ``advance_by`` /
``advance_to`` / ``rewind`` plus the :class:`~repro.common.Stopwatch`
primitive itself).  Timeline producers — retry backoff, guard ticks,
timers — schedule typed :class:`~repro.sim.events.Event`\\ s on the
heap instead of sweeping time with private arithmetic, and the kernel
dispatches them in deterministic ``(time_ms, seq)`` order.  Outage
windows are not events: whether a location is dark is a pure function
of the fault plan and the clock
(:meth:`~repro.faults.plan.FaultPlan.outage_covers`).

Dispatch model — **advance, then fire**:

``advance_by(delta)`` performs the *same single*
``clock.advance(delta)`` the pre-kernel code performed, then fires every
event whose due time is at or before the new now.  Advancing stepwise
from event to event instead (``now += t1 - now; now += t2 - now; ...``)
would land on different float values than one ``now += delta``, breaking
the bit-parity contract the pinned fixtures enforce.  Consequently a
callback may run with the clock already *past* its event's ``time_ms``;
subscribers that care about the due instant read ``event.time_ms``, not
the clock.  Within one dispatch batch, order is still exactly
``(time_ms, seq)``.

The empty-heap fast path makes the funnel free for the training engine:
with nothing scheduled, ``advance_by`` is one ``clock.advance`` and one
truthiness check.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.common import ConfigError
from repro.sim.events import Event, EventHandle

__all__ = ["EventKernel"]


class EventKernel:
    """A monotonic event heap fused to one virtual clock.

    Args:
        clock: the :class:`~repro.common.Stopwatch` this kernel owns.
            The kernel is the clock's single writer; everything else
            reads ``clock.now_ms`` freely.
    """

    def __init__(self, clock):
        self.clock = clock
        self._heap: List[tuple] = []
        self._seq = 0
        self.scheduled = 0
        self.fired = 0
        self.dropped = 0  # cancelled entries skipped at the heap top

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now_ms(self):
        """The current virtual time (read-only convenience)."""
        return self.clock.now_ms

    @property
    def pending(self):
        """Live (scheduled, uncancelled, unfired) event count."""
        return sum(1 for _, _, handle in self._heap if handle.live)

    def next_time_ms(self) -> Optional[float]:
        """Due time of the earliest live event, or ``None`` if idle."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, time_ms, kind, payload=None, callback=None):
        """Schedule an event at absolute virtual time ``time_ms``.

        A time at or before the current now is legal — the event fires
        on the next dispatch (``fire_due`` or any advance).  Returns the
        :class:`~repro.sim.events.EventHandle` cancellation token.
        """
        event = Event(time_ms=time_ms, kind=kind, seq=self._seq,
                      payload=payload)
        handle = EventHandle(event, callback)
        heapq.heappush(self._heap, (time_ms, self._seq, handle))
        self._seq += 1
        self.scheduled += 1
        return handle

    def schedule_in(self, delay_ms, kind, payload=None, callback=None):
        """Schedule an event ``delay_ms`` from now (>= 0)."""
        if delay_ms < 0:
            raise ConfigError(f"cannot schedule {delay_ms} ms in the past")
        return self.schedule(self.clock.now_ms + delay_ms, kind,
                             payload=payload, callback=callback)

    # ------------------------------------------------------------------
    # Dispatch (the RL103-approved clock writers)
    # ------------------------------------------------------------------

    def fire_due(self):
        """Dispatch every event due at or before now; returns them.

        Does not move the clock.  Events scheduled *by* a firing
        callback are dispatched too if they are already due — the loop
        re-reads the heap top, so chained same-instant events (a callback
        scheduling another event at or before now) settle in one call.
        """
        heap = self._heap
        if heap and heap[0][2].cancelled:
            self._drop_cancelled()
        now_ms = self.clock.now_ms
        fired: List[Event] = []
        while heap and heap[0][0] <= now_ms:
            handle = heapq.heappop(heap)[2]
            handle.fired = True
            self.fired += 1
            fired.append(handle.event)
            if handle.callback is not None:
                handle.callback(handle.event)
            self._drop_cancelled()
        return fired

    def advance_by(self, delta_ms):
        """Advance the clock by ``delta_ms``, then fire what came due.

        The clock movement is one ``Stopwatch.advance`` call — the exact
        float arithmetic of the pre-kernel sweeps — so timestamps are
        bit-identical whether or not events fire along the way.  Every
        execution ends here, so the idle-timeline check is inlined.
        """
        self.clock.advance(delta_ms)
        return self.fire_due() if self._heap else []

    def advance_to(self, at_ms):
        """Advance the clock to ``at_ms`` if it is in the future.

        A target at or behind the current time moves nothing (arrivals
        already in the past start service immediately) but still fires
        anything due.
        """
        delta_ms = at_ms - self.clock.now_ms
        if delta_ms > 0:
            self.clock.advance(delta_ms)
        return self.fire_due()

    # ------------------------------------------------------------------
    # Rewind (episode boundaries)
    # ------------------------------------------------------------------

    def rewind(self):
        """Reset the clock to zero and drop every pending event.

        Pending events belong to the abandoned timeline, so the heap is
        cleared wholesale; a producer that needs an event on the new
        timeline schedules it after the rewind.  Scheduling counters
        keep accumulating across rewinds (they are lifetime telemetry,
        not episode state).
        """
        self.clock.reset()
        self.dropped += sum(1 for _, _, handle in self._heap
                            if handle.live)
        self._heap.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _drop_cancelled(self):
        """Pop lazily-cancelled entries off the heap top."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self.dropped += 1
