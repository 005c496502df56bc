"""Execution tracing: record, persist, and analyze inference streams.

A deployed scheduler needs observability: which targets ran, what they
cost, where deadlines were missed, and how decisions moved as conditions
changed.  :class:`TraceRecorder` captures one row per inference from
an engine's steps (or any scheduler's results), round-trips through JSONL,
and produces the summaries the examples print.

Rows are written once per served request, so the recorder stores each
as a plain tuple in :class:`TraceRecord` field order and builds a
``TraceRecord`` only when one is read back through
:attr:`TraceRecorder.records`.
"""

from __future__ import annotations

import json
import operator
import pathlib
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from repro.analysis.contracts import (
    contracts_enabled,
    ensure_duration_ms,
    ensure_energy_mj,
    ensure_finite,
    ensure_latency_ms,
)
from repro.common import ConfigError

__all__ = ["TraceRecord", "TraceRecorder", "TraceRows", "load_trace"]


#: Legal ``TraceRecord.status`` values: a normally delivered result, a
#: request that delivered nothing (naive serving under faults), a
#: result delivered by the resilience fallback after remote attempts
#: were exhausted, and a request the overload pipeline refused to
#: execute (zero latency, zero energy).
_STATUSES = ("ok", "failed", "degraded", "shed")

#: Statuses whose request produced no inference result.
_UNDELIVERED = ("failed", "shed")


def _meets_qos(status, queue_delay_ms, latency_ms, qos_ms):
    """End-to-end QoS of one row: queueing delay counts against the
    deadline, and a request that delivered nothing cannot meet it."""
    return (status not in _UNDELIVERED
            and queue_delay_ms + latency_ms <= qos_ms)


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
        # The field contracts obey the same switch as
        # :func:`repro.analysis.contracts.checked`: on under pytest,
        # off in production unless REPRO_CONTRACTS forces them.
        if contracts_enabled():
            self.check()

    def check(self):
        """Raise :class:`ConfigError` unless every field is legal."""
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
        return self.status not in _UNDELIVERED

    @property
    def meets_qos(self):
        """End-to-end QoS: queueing delay counts against the deadline.

        A request that delivered nothing (failed or shed) cannot have
        met its QoS.
        """
        return _meets_qos(self.status, self.queue_delay_ms,
                          self.latency_ms, self.qos_ms)


#: The row layout: ``TraceRecord``'s field names in declaration order.
_FIELDS = tuple(field.name for field in fields(TraceRecord))

#: One record's fields as a row tuple.
_as_row = operator.attrgetter(*_FIELDS)

#: Row-position getters, by field name.
_GETTERS = {name: operator.itemgetter(position)
            for position, name in enumerate(_FIELDS)}

#: The slot setters, in row order.  A frozen dataclass blocks plain
#: attribute assignment, not its slot descriptors.
_SETTERS = tuple(getattr(TraceRecord, name).__set__ for name in _FIELDS)


def _as_record(row):
    """A ``TraceRecord`` holding ``row``, built without re-validation:
    a stored row was checked (or deliberately not) when it was stored."""
    record = object.__new__(TraceRecord)
    for setter, value in zip(_SETTERS, row):
        setter(record, value)
    return record


class TraceRows(Sequence):
    """The read view of a :class:`TraceRecorder`'s row store.

    Indexing and iteration build one :class:`TraceRecord` per row read,
    so a reader walking a long trace never holds more than the row it
    is on; a slice returns a list of that slice's records.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_as_record(row) for row in self._rows[index]]
        return _as_record(self._rows[index])

    def __iter__(self):
        return map(_as_record, self._rows)

    def __eq__(self, other):
        if isinstance(other, TraceRows):
            return self._rows == other._rows
        if isinstance(other, list):
            return (len(other) == len(self._rows)
                    and all(mine == theirs
                            for mine, theirs in zip(self, other)))
        return NotImplemented

    def append(self, record):
        """Store one :class:`TraceRecord` as it is: no trim, no renumber."""
        self._rows.append(_as_row(record))


class TraceRecorder:
    """Accumulates trace rows and analyzes them.

    ``max_records`` bounds the trace as a rolling window: when an append
    would reach the bound, the oldest half is dropped in one go
    (amortized O(1) per record).  ``None`` keeps everything.  Row
    indices count every row ever recorded, so they keep increasing
    across trims.

    The contracts switch is read once, here: while it is on, every
    recorded row passes :meth:`TraceRecord.check` before it is stored.
    """

    def __init__(self, max_records=None):
        if max_records is not None and max_records < 1:
            raise ConfigError("max_records must be >= 1 (or None)")
        self.max_records = max_records
        self._rows = []
        self._dropped = 0
        self._checked = contracts_enabled()
        self._view = TraceRows(self._rows)

    def __len__(self):
        return len(self._rows)

    @property
    def records(self):
        """The rows, read as :class:`TraceRecord` objects through a
        :class:`TraceRows` view (no list of all rows is built)."""
        return self._view

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def _append(self, at_ms, columns):
        """Trim, number and store one row.

        ``columns`` are the row's fields after ``index`` and ``at_ms``;
        ``at_ms=None`` stamps the row's index as its time.
        """
        rows = self._rows
        if self.max_records is not None and len(rows) >= self.max_records:
            half = self.max_records // 2
            del rows[:half]
            self._dropped += half
        index = self._dropped + len(rows)
        row = (index, float(index if at_ms is None else at_ms)) + columns
        if self._checked:
            _as_record(row).check()
        rows.append(row)

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
        result = step.result
        if status is None:
            status = "failed" if result.failed else "ok"
        self._append(at_ms, (
            use_case.name, step.target_key, result.latency_ms,
            result.energy_mj, result.estimated_energy_mj,
            result.accuracy_pct, use_case.qos_ms, step.reward,
            step.explored, status, retries, failed_energy_mj,
            queue_delay_ms, tier, reason,
        ))

    def record_result(self, result, use_case, at_ms=None, status=None,
                      retries=0, failed_energy_mj=0.0, queue_delay_ms=0.0,
                      tier="normal", reason=""):
        """Capture a bare :class:`ExecutionResult` (baseline schedulers,
        and the resilient service's degraded-mode fallback)."""
        if status is None:
            status = "failed" if result.failed else "ok"
        self._append(at_ms, (
            use_case.name, result.target_key, result.latency_ms,
            result.energy_mj, result.estimated_energy_mj,
            result.accuracy_pct, use_case.qos_ms, None, None, status,
            retries, failed_energy_mj, queue_delay_ms, tier, reason,
        ))

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
        self._append(shed.shed_at_ms, (
            use_case.name, shed.target_key, 0.0, 0.0, 0.0, 0.0,
            use_case.qos_ms, None, None, "shed", 0, 0.0,
            shed.queue_delay_ms, tier, reason,
        ))

    # ------------------------------------------------------------------
    # Persistence (JSONL)
    # ------------------------------------------------------------------

    def save(self, path):
        """Write one JSON object per line."""
        path = pathlib.Path(path)
        with path.open("w") as handle:
            for row in self._rows:
                handle.write(json.dumps(dict(zip(_FIELDS, row))) + "\n")
        return path

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _column(self, name):
        """One field of every row, streamed: no transposed copy of the
        store is built."""
        return map(_GETTERS[name], self._rows)

    def _qos_met(self):
        """Per row, whether it met its end-to-end QoS (streamed)."""
        column = self._column
        return map(_meets_qos, column("status"), column("queue_delay_ms"),
                   column("latency_ms"), column("qos_ms"))

    def _require_records(self):
        if not self._rows:
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
        total = len(self._rows)
        if total == 0:
            return dict(self._EMPTY_SUMMARY)
        column = self._column
        statuses = list(column("status"))
        energies = np.array(list(column("energy_mj")))
        # Shed requests never executed; their zero latency is not a
        # service-time sample and would drag percentiles toward zero.
        executed_latencies = np.array([
            latency_ms for latency_ms, status
            in zip(column("latency_ms"), statuses) if status != "shed"
        ])
        queue_delays = np.array(list(column("queue_delay_ms")))
        violations = sum(1 for met in self._qos_met() if not met)
        delivered = sum(1 for status in statuses
                        if status not in _UNDELIVERED)
        degraded = statuses.count("degraded")
        sheds = statuses.count("shed")
        # Dead-attempt energy: resilient records carry it alongside a
        # delivered result; a "failed" record's own energy *is* it.
        failed_energy_mj = sum(column("failed_energy_mj"))
        failed_energy_mj += sum(energy_mj for energy_mj, status
                                in zip(column("energy_mj"), statuses)
                                if status == "failed")
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
            "retries_per_request": sum(column("retries")) / total,
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
        for target_key in self._column("target_key"):
            location = target_key.split("/")[0]
            counts[location] = counts.get(location, 0) + 1
        total = len(self._rows)
        return {k: v / total for k, v in sorted(counts.items())}

    def migrations(self):
        """Indices where the chosen target changed from the previous
        inference of the *same use case* — how often the scheduler moved
        work around."""
        self._require_records()
        column = self._column
        last: Dict[str, str] = {}
        moved = []
        for index, use_case, target_key in zip(
                column("index"), column("use_case"), column("target_key")):
            previous = last.get(use_case)
            if previous is not None and previous != target_key:
                moved.append(index)
            last[use_case] = target_key
        return moved

    def violation_runs(self):
        """Lengths of consecutive QoS-violation stretches."""
        self._require_records()
        runs, current = [], 0
        for met in self._qos_met():
            if met:
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
        column = self._column
        executed = [
            (estimated, measured) for estimated, measured, status in zip(
                column("estimated_energy_mj"), column("energy_mj"),
                column("status"))
            if status != "shed"
        ]
        if not executed:
            return 0.0
        predicted, measured = np.array(executed).T
        return float(np.mean(np.abs(predicted - measured) / measured)
                     * 100.0)


def load_trace(path, max_records=None):
    """Read a JSONL trace back into a :class:`TraceRecorder`.

    ``max_records`` restores the recorder's rolling-window bound (only
    the newest ``max_records`` lines are kept, with original indices).
    Rows recorded after the load are numbered on from the last loaded
    index.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigError(f"no trace at {path}")
    recorder = TraceRecorder(max_records=max_records)
    rows = recorder._rows
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            rows.append(_as_row(TraceRecord(**json.loads(line))))
    if max_records is not None and len(rows) > max_records:
        del rows[:-max_records]
    if rows:
        recorder._dropped = max(0, rows[-1][0] + 1 - len(rows))
    return recorder
