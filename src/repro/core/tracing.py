"""Execution tracing: record, persist, and analyze inference streams.

A deployed scheduler needs observability: which targets ran, what they
cost, where deadlines were missed, and how decisions moved as conditions
changed.  :class:`TraceRecorder` captures one record per inference from
an engine's steps (or any scheduler's results), round-trips through JSONL,
and produces the summaries the examples print.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.contracts import (
    contracts_enabled,
    ensure_duration_ms,
    ensure_energy_mj,
    ensure_finite,
    ensure_latency_ms,
)
from repro.common import ConfigError

__all__ = ["TraceRecord", "TraceRecorder", "load_trace"]


#: Legal ``TraceRecord.status`` values: a normally delivered result, a
#: request that delivered nothing (naive serving under faults), a
#: result delivered by the resilience fallback after remote attempts
#: were exhausted, and a request the overload pipeline refused to
#: execute (zero latency, zero energy).
_STATUSES = ("ok", "failed", "degraded", "shed")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One inference, flattened for persistence.

    ``status``/``retries``/``failed_energy_mj`` are the resilience
    bookkeeping: ``failed_energy_mj`` is the energy billed to dead
    attempts *before* this record's outcome (for ``status="failed"``
    the record's own ``energy_mj`` is itself dead-attempt energy).

    ``queue_delay_ms``/``tier`` are the overload bookkeeping: time the
    request waited in the admission queue before service (or before
    being shed), and the brownout tier it was served under.  QoS is
    judged end-to-end — queueing delay counts against the deadline just
    like service latency does.

    ``reason`` is the degradation reason code in force when the record
    was written — ``"guard/<stage>"`` under an escalated policy guard,
    ``"brownout/<tier>"`` under an escalated brownout with a healthy
    guard, empty for a normally served request.  Unlike ``tier`` it is
    stamped on *every* row (including sheds), so a trace reader can
    attribute any record to the regime that produced it.
    """

    index: int
    at_ms: float
    use_case: str
    target_key: str
    latency_ms: float
    energy_mj: float
    estimated_energy_mj: float
    accuracy_pct: float
    qos_ms: float
    reward: Optional[float] = None
    explored: Optional[bool] = None
    status: str = "ok"
    retries: int = 0
    failed_energy_mj: float = 0.0
    queue_delay_ms: float = 0.0
    tier: str = "normal"
    reason: str = ""

    def __post_init__(self):
        # Trace rows are minted once per served request — the serving
        # hot path — so the field contracts obey the same switch as
        # :func:`repro.analysis.contracts.checked`: on under pytest,
        # off in production unless REPRO_CONTRACTS forces them.
        if not contracts_enabled():
            return
        ensure_duration_ms(self.at_ms, "at_ms")
        if self.status == "shed":
            # A shed executes nothing; zero latency is its whole point.
            ensure_duration_ms(self.latency_ms, "latency_ms")
        else:
            ensure_latency_ms(self.latency_ms, "latency_ms")
        ensure_energy_mj(self.energy_mj, "energy_mj")
        ensure_energy_mj(self.estimated_energy_mj, "estimated_energy_mj")
        ensure_duration_ms(self.qos_ms, "qos_ms")
        ensure_duration_ms(self.queue_delay_ms, "queue_delay_ms")
        if not 0.0 <= self.accuracy_pct <= 100.0:
            raise ConfigError(
                f"accuracy outside [0, 100]: {self.accuracy_pct}"
            )
        if self.reward is not None:
            ensure_finite(self.reward, "reward")
        if self.status not in _STATUSES:
            raise ConfigError(
                f"unknown trace status {self.status!r}; "
                f"legal: {_STATUSES}"
            )
        if self.retries < 0:
            raise ConfigError(f"negative retries: {self.retries}")
        ensure_energy_mj(self.failed_energy_mj, "failed_energy_mj")

    @property
    def delivered(self):
        """Whether the request produced an inference result at all."""
        return self.status not in ("failed", "shed")

    @property
    def meets_qos(self):
        """End-to-end QoS: queueing delay counts against the deadline.

        A request that delivered nothing (failed or shed) cannot have
        met its QoS.
        """
        return (self.delivered
                and self.queue_delay_ms + self.latency_ms <= self.qos_ms)


class TraceRecorder:
    """Accumulates :class:`TraceRecord` entries and analyzes them.

    ``max_records`` bounds the trace as a rolling window: when an append
    would reach the bound, the oldest half is dropped in one go
    (amortized O(1) per record).  ``None`` keeps everything.
    """

    def __init__(self, max_records=None):
        if max_records is not None and max_records < 1:
            raise ConfigError("max_records must be >= 1 (or None)")
        self.max_records = max_records
        self.records: List[TraceRecord] = []

    def __len__(self):
        return len(self.records)

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def _trim(self):
        if self.max_records is not None \
                and len(self.records) >= self.max_records:
            self.records = self.records[self.max_records // 2:]

    def record_step(self, step, use_case, at_ms=None, status=None,
                    retries=0, failed_energy_mj=0.0, queue_delay_ms=0.0,
                    tier="normal", reason=""):
        """Capture one engine :class:`AutoScaleStep`.

        ``status`` defaults from the result itself (``"failed"`` for a
        :class:`~repro.faults.FailedAttempt`, else ``"ok"``); the
        resilient service overrides it and supplies the retry count and
        the energy its dead attempts burned.  The serving pipeline
        supplies the queueing delay and brownout tier.
        """
        self._trim()
        result = step.result
        if status is None:
            status = "failed" if result.failed else "ok"
        self.records.append(TraceRecord(
            index=len(self.records),
            at_ms=float(at_ms if at_ms is not None else len(self.records)),
            use_case=use_case.name,
            target_key=step.target_key,
            latency_ms=result.latency_ms,
            energy_mj=result.energy_mj,
            estimated_energy_mj=result.estimated_energy_mj,
            accuracy_pct=result.accuracy_pct,
            qos_ms=use_case.qos_ms,
            reward=step.reward,
            explored=step.explored,
            status=status,
            retries=retries,
            failed_energy_mj=failed_energy_mj,
            queue_delay_ms=queue_delay_ms,
            tier=tier,
            reason=reason,
        ))
        return self.records[-1]

    def record_result(self, result, use_case, at_ms=None, status=None,
                      retries=0, failed_energy_mj=0.0, queue_delay_ms=0.0,
                      tier="normal", reason=""):
        """Capture a bare :class:`ExecutionResult` (baseline schedulers,
        and the resilient service's degraded-mode fallback)."""
        self._trim()
        if status is None:
            status = "failed" if getattr(result, "failed", False) else "ok"
        self.records.append(TraceRecord(
            index=len(self.records),
            at_ms=float(at_ms if at_ms is not None else len(self.records)),
            use_case=use_case.name,
            target_key=result.target_key,
            latency_ms=result.latency_ms,
            energy_mj=result.energy_mj,
            estimated_energy_mj=result.estimated_energy_mj,
            accuracy_pct=result.accuracy_pct,
            qos_ms=use_case.qos_ms,
            status=status,
            retries=retries,
            failed_energy_mj=failed_energy_mj,
            queue_delay_ms=queue_delay_ms,
            tier=tier,
            reason=reason,
        ))
        return self.records[-1]

    def record_shed(self, shed, use_case, tier="normal", reason=""):
        """Capture a :class:`~repro.serving.SheddedRequest`.

        Shed records bill zero latency and zero energy; their
        ``target_key`` carries the shed reason (``"shed/<reason>"``) so
        :meth:`decisions_by_location` and per-target breakdowns keep a
        visible ``shed`` bucket.  ``tier``/``reason`` stamp the brownout
        tier and degradation regime in force at shed time — previously
        sheds always recorded the default tier, hiding which regime was
        refusing work.
        """
        self._trim()
        self.records.append(TraceRecord(
            index=len(self.records),
            at_ms=shed.shed_at_ms,
            use_case=use_case.name,
            target_key=shed.target_key,
            latency_ms=0.0,
            energy_mj=0.0,
            estimated_energy_mj=0.0,
            accuracy_pct=0.0,
            qos_ms=use_case.qos_ms,
            status="shed",
            queue_delay_ms=shed.queue_delay_ms,
            tier=tier,
            reason=reason,
        ))
        return self.records[-1]

    # ------------------------------------------------------------------
    # Persistence (JSONL)
    # ------------------------------------------------------------------

    def save(self, path):
        """Write one JSON object per line."""
        path = pathlib.Path(path)
        with path.open("w") as handle:
            for record in self.records:
                handle.write(json.dumps(asdict(record)) + "\n")
        return path

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _require_records(self):
        if not self.records:
            raise ConfigError("trace is empty")

    _EMPTY_SUMMARY = {
        "num_inferences": 0,
        "total_energy_mj": 0.0,
        "mean_energy_mj": 0.0,
        "p95_latency_ms": 0.0,
        "qos_violation_pct": 0.0,
        "availability_pct": 0.0,
        "degraded_pct": 0.0,
        "retries_per_request": 0.0,
        "failed_energy_mj": 0.0,
        "shed_pct": 0.0,
        "p50_queue_delay_ms": 0.0,
        "p99_queue_delay_ms": 0.0,
        "energy_per_delivered_mj": 0.0,
    }

    def summary(self):
        """Aggregate energy/latency/violation/availability statistics.

        Degenerate traces are legal inputs: an empty trace returns the
        all-zero summary (every key present, every rate 0.0) instead of
        raising, and a trace with nothing delivered (all failed, all
        shed) keeps every ratio finite — a monitoring endpoint must not
        crash precisely when the service is at its sickest.
        """
        total = len(self.records)
        if total == 0:
            return dict(self._EMPTY_SUMMARY)
        energies = np.array([r.energy_mj for r in self.records])
        # Shed requests never executed; their zero latency is not a
        # service-time sample and would drag percentiles toward zero.
        executed_latencies = np.array([
            r.latency_ms for r in self.records if r.status != "shed"
        ])
        queue_delays = np.array([r.queue_delay_ms for r in self.records])
        violations = sum(1 for r in self.records if not r.meets_qos)
        delivered = sum(1 for r in self.records if r.delivered)
        degraded = sum(1 for r in self.records if r.status == "degraded")
        sheds = sum(1 for r in self.records if r.status == "shed")
        # Dead-attempt energy: resilient records carry it alongside a
        # delivered result; a "failed" record's own energy *is* it.
        failed_energy_mj = sum(r.failed_energy_mj for r in self.records)
        failed_energy_mj += sum(r.energy_mj for r in self.records
                                if r.status == "failed")
        total_energy_mj = float(energies.sum())
        return {
            "num_inferences": total,
            "total_energy_mj": total_energy_mj,
            "mean_energy_mj": float(energies.mean()),
            "p95_latency_ms": (
                float(np.percentile(executed_latencies, 95))
                if len(executed_latencies) else 0.0
            ),
            "qos_violation_pct": violations / total * 100.0,
            "availability_pct": delivered / total * 100.0,
            "degraded_pct": degraded / total * 100.0,
            "retries_per_request": sum(r.retries for r in self.records)
            / total,
            "failed_energy_mj": float(failed_energy_mj),
            "shed_pct": sheds / total * 100.0,
            "p50_queue_delay_ms": float(np.percentile(queue_delays, 50)),
            "p99_queue_delay_ms": float(np.percentile(queue_delays, 99)),
            "energy_per_delivered_mj": (
                total_energy_mj / delivered if delivered else 0.0
            ),
        }

    def decisions_by_location(self):
        """Share of decisions per location (local/cloud/connected)."""
        self._require_records()
        counts: Dict[str, int] = {}
        for record in self.records:
            location = record.target_key.split("/")[0]
            counts[location] = counts.get(location, 0) + 1
        total = len(self.records)
        return {k: v / total for k, v in sorted(counts.items())}

    def migrations(self):
        """Indices where the chosen target changed from the previous
        inference of the *same use case* — how often the scheduler moved
        work around."""
        self._require_records()
        last: Dict[str, str] = {}
        moved = []
        for record in self.records:
            previous = last.get(record.use_case)
            if previous is not None and previous != record.target_key:
                moved.append(record.index)
            last[record.use_case] = record.target_key
        return moved

    def violation_runs(self):
        """Lengths of consecutive QoS-violation stretches."""
        self._require_records()
        runs, current = [], 0
        for record in self.records:
            if record.meets_qos:
                if current:
                    runs.append(current)
                current = 0
            else:
                current += 1
        if current:
            runs.append(current)
        return runs

    def estimator_mape_pct(self):
        """MAPE of the engine's energy estimates over this trace.

        Shed records never executed (measured energy is identically
        zero) so they carry no estimator information and are excluded;
        a trace with nothing executed yields 0.0.
        """
        self._require_records()
        executed = [r for r in self.records if r.status != "shed"]
        if not executed:
            return 0.0
        predicted = np.array([r.estimated_energy_mj for r in executed])
        measured = np.array([r.energy_mj for r in executed])
        return float(np.mean(np.abs(predicted - measured) / measured)
                     * 100.0)


def load_trace(path, max_records=None):
    """Read a JSONL trace back into a :class:`TraceRecorder`.

    ``max_records`` restores the recorder's rolling-window bound (only
    the newest ``max_records`` lines are kept, with original indices).
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigError(f"no trace at {path}")
    recorder = TraceRecorder(max_records=max_records)
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            recorder.records.append(TraceRecord(**json.loads(line)))
    if max_records is not None and len(recorder.records) > max_records:
        recorder.records = recorder.records[-max_records:]
    return recorder
