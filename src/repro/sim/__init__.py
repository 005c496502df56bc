"""Discrete-event simulation kernel for the shared virtual timeline.

Every component of the simulator lives on one virtual clock (the
environment's :class:`~repro.common.Stopwatch`).  Before this package,
each timeline producer — arrival replay, retry backoff — swept time
forward with its own ad-hoc arithmetic; the kernel replaces those
sweeps with one clock funnel and a monotonic event heap:

- :class:`EventKernel` — the heap, the clock-write funnel (RL103), and
  the episode rewind;
- :class:`Event` / :class:`EventKind` — typed timeline events;
- :class:`EventHandle` — the cancellation token for a scheduled event.

See ``docs/architecture.md`` ("Event kernel") for the dispatch model
and the bit-parity contract with the pre-kernel timeline.
"""

from repro.sim.events import Event, EventHandle, EventKind
from repro.sim.kernel import EventKernel

__all__ = ["Event", "EventHandle", "EventKind", "EventKernel"]
