"""Tests for execution tracing."""

import pytest

from repro.common import ConfigError
from repro.core.engine import AutoScale
from repro.core.tracing import TraceRecorder, load_trace
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import use_case_for
from repro.hardware.devices import build_device


@pytest.fixture()
def traced(zoo):
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=4)
    engine = AutoScale(env, seed=4)
    case = use_case_for(zoo["mobilenet_v3"])
    recorder = TraceRecorder()
    for _ in range(30):
        step = engine.step(case)
        recorder.record_step(step, case, at_ms=env.clock.now_ms)
    return recorder, case


class TestCapture:
    def test_record_count(self, traced):
        recorder, _ = traced
        assert len(recorder) == 30

    def test_records_carry_rewards(self, traced):
        recorder, _ = traced
        assert all(r.reward is not None for r in recorder.records)

    def test_record_result_without_engine(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=4)
        case = use_case_for(zoo["mobilenet_v3"])
        result = env.execute(case.network, env.targets()[0])
        recorder = TraceRecorder()
        recorder.record_result(result, case)
        record = recorder.records[-1]
        assert record.reward is None
        assert record.target_key == result.target_key


class TestAnalysis:
    def test_summary_fields(self, traced):
        recorder, _ = traced
        summary = recorder.summary()
        assert summary["num_inferences"] == 30
        assert summary["total_energy_mj"] > 0
        assert 0.0 <= summary["qos_violation_pct"] <= 100.0

    def test_location_shares_sum_to_one(self, traced):
        recorder, _ = traced
        shares = recorder.decisions_by_location()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_migrations_detected(self, traced):
        recorder, _ = traced
        migrations = recorder.migrations()
        # Early training sweeps targets, so migrations must exist.
        assert len(migrations) > 0
        assert all(0 < i < 30 for i in migrations)

    def test_violation_runs_partition_violations(self, traced):
        recorder, _ = traced
        total_violations = sum(1 for r in recorder.records
                               if not r.meets_qos)
        assert sum(recorder.violation_runs()) == total_violations

    def test_estimator_mape_reasonable(self, traced):
        recorder, _ = traced
        assert 0.0 <= recorder.estimator_mape_pct() < 50.0

    def test_empty_trace_summary_is_all_zeros(self):
        # Regression: summary() used to divide by len(records); a
        # monitoring endpoint polling an idle service must get zeros,
        # not a crash.
        summary = TraceRecorder().summary()
        assert summary["num_inferences"] == 0
        assert all(value == 0.0 for key, value in summary.items()
                   if key != "num_inferences")

    def test_all_failed_trace_keeps_rates_finite(self):
        from repro.core.tracing import TraceRecord
        recorder = TraceRecorder()
        for index in range(3):
            recorder.records.append(TraceRecord(
                index=index, at_ms=float(index), use_case="svc",
                target_key="cloud/gpu/fp32", latency_ms=10.0,
                energy_mj=5.0, estimated_energy_mj=5.0,
                accuracy_pct=75.0, qos_ms=100.0, status="failed",
            ))
        summary = recorder.summary()
        assert summary["availability_pct"] == 0.0
        assert summary["qos_violation_pct"] == 100.0
        assert summary["energy_per_delivered_mj"] == 0.0
        assert summary["failed_energy_mj"] == pytest.approx(15.0)

    def test_other_analyses_still_reject_empty_traces(self):
        with pytest.raises(ConfigError):
            TraceRecorder().decisions_by_location()


class TestPersistence:
    def test_jsonl_roundtrip(self, traced, tmp_path):
        recorder, _ = traced
        path = recorder.save(tmp_path / "trace.jsonl")
        loaded = load_trace(path)
        assert len(loaded) == len(recorder)
        assert loaded.records[0] == recorder.records[0]
        assert loaded.summary() == recorder.summary()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_trace(tmp_path / "nope.jsonl")

    def test_load_respects_max_records(self, traced, tmp_path):
        recorder, _ = traced
        path = recorder.save(tmp_path / "trace.jsonl")
        loaded = load_trace(path, max_records=10)
        assert len(loaded) == 10
        assert loaded.max_records == 10
        # The *newest* records survive, original indices intact.
        assert loaded.records[-1] == recorder.records[-1]


class TestResilienceBookkeeping:
    def _record(self, **overrides):
        from repro.core.tracing import TraceRecord
        fields = dict(index=0, at_ms=0.0, use_case="svc",
                      target_key="cloud/gpu/fp32", latency_ms=10.0,
                      energy_mj=5.0, estimated_energy_mj=5.0,
                      accuracy_pct=75.0, qos_ms=100.0)
        fields.update(overrides)
        return TraceRecord(**fields)

    def test_status_validated(self, monkeypatch):
        # TraceRecord's field contracts obey REPRO_CONTRACTS.
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        with pytest.raises(ConfigError, match="status"):
            self._record(status="exploded")
        with pytest.raises(ConfigError):
            self._record(retries=-1)

    def test_failed_records_never_meet_qos(self):
        record = self._record(status="failed", latency_ms=1.0)
        assert not record.delivered
        assert not record.meets_qos

    def test_degraded_records_deliver(self):
        record = self._record(status="degraded")
        assert record.delivered
        assert record.meets_qos

    def test_summary_accounts_failed_energy(self, traced):
        recorder, case = traced
        count = len(recorder.records)
        recorder.records.append(self._record(
            index=count, status="failed", energy_mj=7.0))
        recorder.records.append(self._record(
            index=count + 1, status="degraded", retries=2,
            failed_energy_mj=3.0))
        summary = recorder.summary()
        assert summary["availability_pct"] \
            == pytest.approx((count + 1) / (count + 2) * 100.0)
        assert summary["degraded_pct"] \
            == pytest.approx(1 / (count + 2) * 100.0)
        assert summary["failed_energy_mj"] == pytest.approx(10.0)
        assert summary["retries_per_request"] \
            == pytest.approx(2 / (count + 2))

    def test_resilience_fields_roundtrip_jsonl(self, tmp_path):
        recorder = TraceRecorder()
        recorder.records.append(self._record(status="degraded",
                                             retries=3,
                                             failed_energy_mj=12.5))
        loaded = load_trace(recorder.save(tmp_path / "t.jsonl"))
        assert loaded.records[0] == recorder.records[0]


class TestRollingWindow:
    def test_bound_validated(self):
        with pytest.raises(ConfigError):
            TraceRecorder(max_records=0)

    def test_trims_oldest_half(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=4)
        case = use_case_for(zoo["mobilenet_v3"])
        recorder = TraceRecorder(max_records=10)
        target = env.targets()[0]
        for _ in range(25):
            recorder.record_result(env.execute(case.network, target),
                                   case)
        assert len(recorder) <= 10
        # Indices count every row ever recorded, so they keep rising
        # across trims instead of restarting at the kept length.
        indices = [record.index for record in recorder.records]
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert indices[-1] == 24

    def test_unbounded_by_default(self):
        assert TraceRecorder().max_records is None


class TestContractsSwitch:
    """The recorder reads ``REPRO_CONTRACTS`` once, when it is built."""

    @pytest.fixture()
    def step(self, zoo):
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=4)
        case = use_case_for(zoo["mobilenet_v3"])
        return AutoScale(env, seed=4).step(case), case

    def test_checked_recorder_rejects_bad_row(self, step, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        recorder = TraceRecorder()
        # Flipping the switch after construction changes nothing.
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        with pytest.raises(ConfigError, match="status"):
            recorder.record_step(*step, status="exploded")
        with pytest.raises(ConfigError, match="retries"):
            recorder.record_step(*step, retries=-1)
        assert len(recorder) == 0

    def test_unchecked_recorder_stores_bad_row(self, step, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "0")
        recorder = TraceRecorder()
        monkeypatch.setenv("REPRO_CONTRACTS", "1")
        recorder.record_step(*step, status="exploded")
        assert len(recorder) == 1
        # Reading a stored row back never re-validates it.
        assert recorder.records[-1].status == "exploded"


class TestRecordsView:
    def test_sequence_surface(self, traced):
        recorder, _ = traced
        view = recorder.records
        assert not isinstance(view, list)
        assert len(view) == 30
        assert view[-1] == view[29]
        assert view[-1].index == 29
        assert [r.index for r in view[5:8]] == [5, 6, 7]
        assert [r.index for r in view] == list(range(30))
        assert view[0] in view

    def test_equality_with_views_and_lists(self, traced, tmp_path):
        recorder, _ = traced
        loaded = load_trace(recorder.save(tmp_path / "trace.jsonl"))
        assert loaded.records == recorder.records
        assert recorder.records == list(loaded.records)
        assert list(loaded.records) == recorder.records
        assert recorder.records != list(loaded.records)[:-1]
        assert recorder.records != TraceRecorder().records

    def test_append_stores_the_record_as_is(self, traced):
        recorder, _ = traced
        record = recorder.records[3]
        recorder.records.append(record)
        assert len(recorder) == 31
        assert recorder.records[-1] == record

    def test_roundtrip_keeps_original_indices(self, traced, tmp_path):
        recorder, _ = traced
        path = recorder.save(tmp_path / "trace.jsonl")
        loaded = load_trace(path, max_records=10)
        assert [r.index for r in loaded.records] == list(range(20, 30))
        assert loaded.records == recorder.records[20:]

    def test_load_continues_numbering(self, traced, tmp_path):
        recorder, case = traced
        loaded = load_trace(recorder.save(tmp_path / "trace.jsonl"),
                            max_records=10)
        env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                                   seed=4)
        loaded.record_result(env.execute(case.network, env.targets()[0]),
                             case)
        assert loaded.records[-1].index == 30
