"""Tests for the event kernel: ordering, cancellation, rewind, parity.

The load-bearing properties:

- dispatch order is exactly ``(time_ms, seq)`` — randomized schedules
  (seeded through :func:`~repro.common.make_rng`) always fire sorted,
  and same-instant events fire in scheduling order;
- cancellation is lazy but airtight — a cancelled event never fires,
  whatever its heap position;
- ``advance_by`` performs the *same single* float addition the
  pre-kernel sweeps performed (the bit-parity contract);
- rewind drops the abandoned timeline and re-arms via hooks;
- the serving pipeline, which replays arrivals from a cursor rather
  than the heap, admits a merged stream in ``(at_ms, name)`` order.
"""

import pytest

from repro.common import ConfigError, Stopwatch, make_rng
from repro.core.service import AutoScaleService
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import UseCase
from repro.hardware.devices import build_device
from repro.serving.arrivals import (
    MarkovModulatedArrivals,
    PoissonArrivals,
    merge_arrivals,
)
from repro.serving.pipeline import ServingConfig, ServingPipeline
from repro.sim import Event, EventKernel, EventKind


def _kernel():
    return EventKernel(Stopwatch())


class TestScheduling:
    def test_schedule_returns_live_handle(self):
        kernel = _kernel()
        handle = kernel.schedule(5.0, EventKind.TIMER, payload="x")
        assert handle.live
        assert handle.event.time_ms == 5.0
        assert handle.event.payload == "x"
        assert kernel.pending == 1

    def test_schedule_in_offsets_from_now(self):
        kernel = _kernel()
        kernel.advance_by(100.0)
        handle = kernel.schedule_in(25.0, EventKind.RETRY)
        assert handle.event.time_ms == 125.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            _kernel().schedule_in(-1.0, EventKind.TIMER)

    def test_bad_event_time_rejected(self):
        kernel = _kernel()
        with pytest.raises(ConfigError):
            kernel.schedule(float("nan"), EventKind.TIMER)
        with pytest.raises(ConfigError):
            kernel.schedule(-4.0, EventKind.TIMER)

    def test_bad_event_kind_rejected(self):
        with pytest.raises(ConfigError):
            Event(time_ms=1.0, kind="arrival", seq=0)

    def test_past_times_are_legal_and_fire_next_dispatch(self):
        kernel = _kernel()
        kernel.advance_by(50.0)
        kernel.schedule(10.0, EventKind.TIMER)
        fired = kernel.fire_due()
        assert [event.time_ms for event in fired] == [10.0]


class TestOrdering:
    def test_random_schedules_fire_sorted(self):
        """Property: any seeded random schedule dispatches in
        nondecreasing time order with ``seq`` breaking ties."""
        rng = make_rng(99)
        for _ in range(20):
            kernel = _kernel()
            times = [float(t) for t in rng.integers(0, 50, size=40)]
            for time_ms in times:
                kernel.schedule(time_ms, EventKind.TIMER)
            fired = kernel.advance_by(100.0)
            keys = [(event.time_ms, event.seq) for event in fired]
            assert keys == sorted(keys)
            assert len(fired) == len(times)

    def test_same_instant_fires_in_schedule_order(self):
        kernel = _kernel()
        handles = [kernel.schedule(7.0, EventKind.TIMER, payload=index)
                   for index in range(10)]
        fired = kernel.advance_by(7.0)
        assert [event.payload for event in fired] == list(range(10))
        assert all(handle.fired for handle in handles)

    def test_incremental_advances_never_fire_early_or_late(self):
        """Property: across random interleavings of advance_by /
        advance_to, every event fires in the first dispatch where its
        time is due, and none is lost."""
        rng = make_rng(123)
        for _ in range(10):
            kernel = _kernel()
            times = sorted(float(t) for t in rng.integers(0, 200, size=60))
            for time_ms in times:
                kernel.schedule(time_ms, EventKind.TIMER)
            seen = []
            while kernel.pending:
                if rng.random() < 0.5:
                    fired = kernel.advance_by(float(rng.integers(1, 40)))
                else:
                    fired = kernel.advance_to(
                        kernel.now_ms + float(rng.integers(0, 40)))
                for event in fired:
                    assert event.time_ms <= kernel.now_ms
                seen.extend(event.time_ms for event in fired)
                # Invariant: nothing due is left pending.
                next_ms = kernel.next_time_ms()
                assert next_ms is None or next_ms > kernel.now_ms
            assert seen == times


class TestCancellation:
    def test_cancelled_event_never_fires(self):
        kernel = _kernel()
        keep = kernel.schedule(5.0, EventKind.TIMER, payload="keep")
        drop = kernel.schedule(3.0, EventKind.TIMER, payload="drop")
        assert drop.cancel()
        fired = kernel.advance_by(10.0)
        assert [event.payload for event in fired] == ["keep"]
        assert keep.fired and not drop.fired

    def test_random_cancellation_subset(self):
        rng = make_rng(7)
        kernel = _kernel()
        handles = [kernel.schedule(float(t), EventKind.TIMER)
                   for t in rng.integers(0, 100, size=50)]
        dropped = [handle for handle in handles if rng.random() < 0.4]
        for handle in dropped:
            handle.cancel()
        fired = kernel.advance_by(200.0)
        live = [handle for handle in handles if handle not in dropped]
        assert len(fired) == len(live)
        assert all(handle.fired for handle in live)
        assert not any(handle.fired for handle in dropped)

    def test_cancel_after_fire_is_noop(self):
        kernel = _kernel()
        handle = kernel.schedule(1.0, EventKind.TIMER)
        kernel.advance_by(2.0)
        assert handle.fired
        assert not handle.cancel()
        assert not handle.cancelled

    def test_next_time_skips_cancelled_head(self):
        kernel = _kernel()
        head = kernel.schedule(1.0, EventKind.TIMER)
        kernel.schedule(9.0, EventKind.TIMER)
        head.cancel()
        assert kernel.next_time_ms() == 9.0
        assert kernel.pending == 1


class TestDispatchModel:
    def test_advance_by_is_one_stopwatch_advance(self):
        """Bit-parity: the clock lands on exactly ``now + delta`` even
        when events fire along the way."""
        kernel = _kernel()
        kernel.advance_by(0.1)
        kernel.schedule(0.25, EventKind.TIMER)
        before = kernel.now_ms
        kernel.advance_by(0.2)
        assert kernel.now_ms == before + 0.2  # bitwise, not approx

    def test_callback_sees_event_time_not_clock(self):
        kernel = _kernel()
        seen = []
        kernel.schedule(3.0, EventKind.TIMER,
                        callback=lambda event: seen.append(
                            (event.time_ms, kernel.now_ms)))
        kernel.advance_by(10.0)
        assert seen == [(3.0, 10.0)]

    def test_chained_same_call_dispatch(self):
        """An event scheduled by a firing callback fires in the same
        dispatch batch when already due (outage chains rely on it)."""
        kernel = _kernel()
        order = []

        def first(event):
            order.append("first")
            kernel.schedule(event.time_ms, EventKind.TIMER,
                            callback=lambda e: order.append("chained"))

        kernel.schedule(5.0, EventKind.TIMER, callback=first)
        kernel.advance_by(5.0)
        assert order == ["first", "chained"]

    def test_advance_to_past_target_still_fires_due(self):
        kernel = _kernel()
        kernel.advance_by(10.0)
        kernel.schedule(4.0, EventKind.TIMER)
        fired = kernel.advance_to(2.0)
        assert kernel.now_ms == 10.0
        assert [event.time_ms for event in fired] == [4.0]

    def test_empty_heap_fast_path(self):
        kernel = _kernel()
        assert kernel.fire_due() == []
        assert kernel.advance_by(5.0) == []
        assert kernel.next_time_ms() is None

    def test_cancelled_top_before_a_future_event(self):
        """Nothing due behind a cancelled head: the head is dropped and
        counted, nothing fires, the future event stays pending."""
        kernel = _kernel()
        kernel.schedule(1.0, EventKind.TIMER).cancel()
        kernel.schedule(9.0, EventKind.TIMER)
        assert kernel.fire_due() == []
        assert (kernel.scheduled, kernel.fired, kernel.dropped) == (2, 0, 1)
        assert kernel.pending == 1
        assert kernel.next_time_ms() == 9.0
        assert [event.time_ms for event in kernel.advance_to(9.0)] == [9.0]
        assert (kernel.scheduled, kernel.fired, kernel.dropped) == (2, 1, 1)


class TestRewind:
    def test_rewind_resets_clock_and_drops_pending(self):
        kernel = _kernel()
        kernel.schedule(50.0, EventKind.TIMER)
        kernel.advance_by(10.0)
        kernel.rewind()
        assert kernel.now_ms == 0.0
        assert kernel.pending == 0
        assert kernel.advance_by(100.0) == []


class _AdmissionLog(ServingPipeline):
    """A pipeline that records each admission and the clock at it."""

    def __init__(self, service, config=None):
        super().__init__(service, config)
        self.admitted = []

    def _admit(self, arrival, now_ms, outcomes):
        self.admitted.append((arrival, now_ms))
        super()._admit(arrival, now_ms, outcomes)


def _admissions(zoo, arrivals):
    """Serve ``arrivals`` (in the order given) and return the pipeline's
    admission log."""
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=5)
    service = AutoScaleService(env, seed=5)
    for name in sorted({arrival.name for arrival in arrivals}):
        service.register(UseCase(name=name, network=zoo["mobilenet_v3"],
                                 qos_ms=50.0))
    pipeline = _AdmissionLog(service, ServingConfig.fifo())
    pipeline.serve(list(arrivals))
    return pipeline.admitted


class TestArrivalReplayIdentity:
    """Arrival replay, judged by the pipeline's admission log.  Arrivals
    are read from a cursor over the sorted stream and no longer pass
    through the kernel's heap or its events; the test names keep the
    wording of the event-per-arrival replay whose guarantees the cursor
    inherits, so the claims can be followed across that change."""

    def test_merged_streams_replay_identically_through_the_heap(self, zoo):
        """Serving a merged multi-process stream (Poisson + MMPP), handed
        over in reverse, admits it in ``merge_arrivals``'s
        ``(at_ms, name)`` order exactly, each arrival no earlier than
        its timestamp — the pipeline's cursor is a faithful replay of
        the sorted stream."""
        poisson = PoissonArrivals("svc_a", arrivals_per_s=5.0) \
            .generate(20_000.0, make_rng(31))
        mmpp = MarkovModulatedArrivals(
            "svc_b", calm_per_s=2.0, burst_per_s=25.0,
        ).generate(20_000.0, make_rng(32))
        merged = merge_arrivals(poisson, mmpp)
        assert len(merged) > 100

        admitted = _admissions(zoo, merged[::-1])
        assert [arrival for arrival, _ in admitted] == merged
        assert all(now_ms >= arrival.at_ms for arrival, now_ms in admitted)

    def test_mmpp_replay_is_seed_reproducible_through_events(self, zoo):
        """Same seed, same stream, same admissions — end to end."""
        def replay(seed):
            arrivals = MarkovModulatedArrivals("svc") \
                .generate(30_000.0, make_rng(seed))
            return _admissions(zoo, arrivals)

        assert replay(77) == replay(77)
        assert replay(77) != replay(78)
