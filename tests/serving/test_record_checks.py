"""The per-request serving records validate with contracts switched off.

``ServedRequest`` and ``SheddedRequest`` accept the common case on one
chained comparison and fall back to the named ``ensure_*`` checks only
to raise; none of that obeys ``REPRO_CONTRACTS``, so a production run
(contracts off) still rejects every bad value a test run does.
"""

import math

import pytest

from repro.common import ConfigError
from repro.serving.arrivals import Arrival
from repro.serving.pipeline import ServedRequest
from repro.serving.shedder import ShedReason, SheddedRequest


@pytest.fixture(autouse=True)
def contracts_off(monkeypatch):
    monkeypatch.setenv("REPRO_CONTRACTS", "0")


def _shed(**overrides):
    fields = dict(reason=ShedReason.EXPIRED, name="svc", at_ms=10.0,
                  shed_at_ms=50.0, deadline_ms=40.0, queue_delay_ms=40.0)
    fields.update(overrides)
    return SheddedRequest(**fields)


def _served(queue_delay_ms):
    return ServedRequest(Arrival(10.0, "svc"), _shed(),
                         queue_delay_ms=queue_delay_ms)


class TestServedRequest:
    @pytest.mark.parametrize("delay_ms", [0.0, 12.5])
    def test_accepts_valid_delays(self, delay_ms):
        assert _served(delay_ms).queue_delay_ms == delay_ms

    @pytest.mark.parametrize("delay_ms",
                             [math.nan, -1.0, math.inf, "soon", None])
    def test_rejects_bad_delays(self, delay_ms):
        with pytest.raises(ConfigError, match="queue_delay_ms"):
            _served(delay_ms)


class TestSheddedRequest:
    def test_accepts_shed_at_arrival(self):
        assert _shed(shed_at_ms=10.0, queue_delay_ms=0.0).shed_at_ms == 10.0

    @pytest.mark.parametrize("field", ["at_ms", "shed_at_ms", "deadline_ms",
                                       "queue_delay_ms"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, "soon"])
    def test_rejects_bad_times(self, field, value):
        with pytest.raises(ConfigError, match=field):
            _shed(**{field: value})

    def test_rejects_shed_before_arrival(self):
        with pytest.raises(ConfigError, match="before arrival"):
            _shed(shed_at_ms=5.0)
