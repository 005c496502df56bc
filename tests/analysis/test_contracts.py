"""Contract-layer tests: violating values raise typed repro errors
instead of propagating NaNs, and the ``checked`` gate obeys
``REPRO_CONTRACTS``/pytest detection."""

import math

import pytest

from repro.analysis.contracts import (
    RSSI_CEIL_DBM,
    RSSI_FLOOR_DBM,
    checked,
    contracts_enabled,
    ensure_duration_ms,
    ensure_energy_mj,
    ensure_finite,
    ensure_latency_ms,
    ensure_power_mw,
    ensure_q_value,
    ensure_rssi_dbm,
    ensure_utilization,
)
from repro.common import ConfigError, SimulationError


class TestValidators:
    def test_power_rejects_negative(self):
        with pytest.raises(ConfigError):
            ensure_power_mw(-1.0)

    def test_power_allows_zero_and_returns_value(self):
        assert ensure_power_mw(0.0) == 0.0
        assert ensure_power_mw(123.5) == 123.5

    def test_latency_rejects_zero_and_negative(self):
        with pytest.raises(ConfigError):
            ensure_latency_ms(0.0)
        with pytest.raises(ConfigError):
            ensure_latency_ms(-3.0)

    def test_latency_rejects_nan_that_plain_comparison_misses(self):
        # nan <= 0 is False, so a naive "if value <= 0: raise" check
        # waves NaN through — the contract must not.
        assert not math.nan <= 0
        with pytest.raises(ConfigError):
            ensure_latency_ms(math.nan)

    def test_duration_allows_zero(self):
        assert ensure_duration_ms(0.0) == 0.0

    def test_energy_rejects_below_minimum(self):
        with pytest.raises(ConfigError):
            ensure_energy_mj(-0.5)
        with pytest.raises(ConfigError):
            ensure_energy_mj(0.5, minimum_mj=1.0)
        assert ensure_energy_mj(0.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.inf, math.nan])
    def test_utilization_rejects_outside_unit_interval(self, bad):
        with pytest.raises(ConfigError):
            ensure_utilization(bad)

    def test_utilization_accepts_bounds(self):
        assert ensure_utilization(0.0) == 0.0
        assert ensure_utilization(1.0) == 1.0

    def test_rssi_window_matches_signal_model(self):
        assert ensure_rssi_dbm(RSSI_FLOOR_DBM) == RSSI_FLOOR_DBM
        assert ensure_rssi_dbm(RSSI_CEIL_DBM) == RSSI_CEIL_DBM
        with pytest.raises(ConfigError):
            ensure_rssi_dbm(RSSI_FLOOR_DBM - 1.0)
        with pytest.raises(ConfigError):
            ensure_rssi_dbm(RSSI_CEIL_DBM + 1.0)
        with pytest.raises(ConfigError):
            ensure_rssi_dbm(0.0)  # "perfect" RSSI is not physical here

    def test_q_value_failure_is_a_simulation_error(self):
        with pytest.raises(SimulationError):
            ensure_q_value(math.nan)
        with pytest.raises(SimulationError):
            ensure_q_value(-math.inf)
        assert ensure_q_value(-0.25) == -0.25

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     None, "12.0"])
    def test_finite_rejects_non_numbers(self, bad):
        with pytest.raises(ConfigError):
            ensure_finite(bad)


class TestEnabledGate:
    def test_enabled_by_default_under_pytest(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        # PYTEST_CURRENT_TEST is set while this test runs.
        assert contracts_enabled()

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        assert not contracts_enabled()
        monkeypatch.setenv("REPRO_CONTRACTS", "off")
        assert not contracts_enabled()
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        assert contracts_enabled()

    def test_forced_on_outside_pytest(self, monkeypatch):
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        assert not contracts_enabled()
        monkeypatch.setenv("REPRO_CONTRACTS", "yes")
        assert contracts_enabled()


class TestCheckedDecorator:
    def test_validates_positional_keyword_and_default_arguments(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")

        @checked(power_mw=ensure_power_mw, busy_ms=ensure_duration_ms)
        def energy(power_mw, busy_ms=1.0):
            return power_mw * busy_ms / 1000.0

        assert energy(100.0, 2.0) == pytest.approx(0.2)
        with pytest.raises(ConfigError):
            energy(-5.0, 2.0)
        with pytest.raises(ConfigError):
            energy(100.0, busy_ms=-1.0)
        with pytest.raises(ConfigError):  # default busy_ms also validated
            energy(math.nan)

    def test_return_contract(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")

        @checked(_returns=ensure_energy_mj)
        def broken():
            return -1.0

        with pytest.raises(ConfigError):
            broken()

    def test_error_names_the_offending_parameter(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")

        @checked(rssi_dbm=ensure_rssi_dbm)
        def f(rssi_dbm):
            return rssi_dbm

        with pytest.raises(ConfigError, match="rssi_dbm"):
            f(5.0)

    def test_disabled_via_env_skips_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "0")

        @checked(latency_ms=ensure_latency_ms)
        def f(latency_ms):
            return latency_ms

        assert math.isnan(f(math.nan))  # passes through unvalidated

    def test_unknown_parameter_rejected_at_decoration_time(self):
        with pytest.raises(ConfigError):
            @checked(no_such_param=ensure_power_mw)
            def f(power_mw):
                return power_mw

    def test_contracts_attribute_exposed_for_introspection(self):
        @checked(power_mw=ensure_power_mw)
        def f(power_mw):
            return power_mw

        assert f.__contracts__ == {"power_mw": ensure_power_mw}


class TestWiredBoundaries:
    """The modules named by the issue actually enforce contracts."""

    def test_execution_result_rejects_nan_latency(self):
        from repro.env.result import ExecutionResult

        with pytest.raises(ConfigError):
            ExecutionResult(latency_ms=math.nan, energy_mj=1.0,
                            estimated_energy_mj=1.0, accuracy_pct=70.0,
                            target_key="cpu")

    def test_execution_result_rejects_negative_energy(self):
        from repro.env.result import ExecutionResult

        with pytest.raises(ConfigError):
            ExecutionResult(latency_ms=10.0, energy_mj=-2.0,
                            estimated_energy_mj=1.0, accuracy_pct=70.0,
                            target_key="cpu")

    def test_power_model_rejects_negative_duration(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")

        from repro.hardware.devices import build_device
        from repro.hardware.power import busy_idle_energy_mj

        processor = next(iter(build_device("mi8pro").soc.processors.values()))
        with pytest.raises(ConfigError):
            busy_idle_energy_mj(processor, busy_ms=-1.0)
        with pytest.raises(ConfigError):
            busy_idle_energy_mj(processor, busy_ms=math.nan)

    def test_transmission_energy_rejects_out_of_window_rssi(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")

        from repro.wireless.energy import transmission_energy_mj
        from repro.wireless.profiles import default_wifi

        link = default_wifi()
        with pytest.raises(ConfigError):
            transmission_energy_mj(link, rssi_dbm=0.0, tx_bytes=1000,
                                   rx_bytes=100, total_latency_ms=50.0)
        with pytest.raises(ConfigError):
            transmission_energy_mj(link, rssi_dbm=-70.0, tx_bytes=1000,
                                   rx_bytes=100, total_latency_ms=math.nan)

    def test_qtable_update_rejects_nan_reward(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")

        from repro.core.qlearning import QTable

        table = QTable(4, 3, seed=0)
        with pytest.raises(SimulationError):
            table.update(0, 0, math.nan, 1)

    def test_qtable_update_accepts_finite_reward(self):
        from repro.core.qlearning import QTable

        table = QTable(4, 3, seed=0)
        table.update(0, 0, -0.5, 1)  # must not raise
        assert table.update_count == 1
