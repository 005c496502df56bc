"""The slotted per-step records: round-trips and byte-stable persistence.

``ExecutionResult``, ``FailedAttempt``, ``SheddedRequest``,
``AutoScaleStep``, ``TraceRecord``, ``Arrival`` and ``ServedRequest``
are minted once per request and retained by the thousand, so they carry
``__slots__`` instead of a per-instance ``__dict__``.  Slotting must not
change what they hold: they still pickle and deep-copy to equal objects
(so they can cross process boundaries), and a seeded serve
run's ``trace.jsonl`` and checkpoint are byte-for-byte what they were.
"""

import copy
import hashlib
import pickle

import pytest

from repro.common import make_rng
from repro.core.engine import AutoScaleStep
from repro.core.service import AutoScaleService
from repro.core.tracing import TraceRecord
from repro.env.environment import EdgeCloudEnvironment
from repro.env.qos import UseCase
from repro.env.result import ExecutionResult
from repro.faults import FailedAttempt, FaultPlan, OutageWindow
from repro.hardware.devices import build_device
from repro.serving.arrivals import Arrival, PoissonArrivals
from repro.serving.pipeline import ServedRequest, ServingConfig, ServingPipeline
from repro.serving.shedder import SheddedRequest

SLOTTED = (ExecutionResult, FailedAttempt, SheddedRequest, AutoScaleStep,
           TraceRecord, Arrival, ServedRequest)

#: sha256 of the seeded serve run's ``trace.jsonl`` (see ``served``),
#: taken before the records were slotted.
TRACE_SHA256 = (
    "7b944667690081baf6d154821f6bbb0e96e4715114f74018ce61a7cb2acb7c6f"
)


def _environment():
    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=7, think_time_ms=0.0)
    env.faults = FaultPlan(
        loss_scale=1.0, abort_prob=0.3, straggler_prob=0.1,
        outages=(OutageWindow("cloud", start_ms=5_000.0,
                              duration_ms=5_000.0),),
    )
    return env


@pytest.fixture(scope="module")
def served(zoo):
    """235 Poisson arrivals against an unresilient service under faults:
    delivered, shed and failed outcomes all appear."""
    service = AutoScaleService(_environment(), seed=7)
    case = UseCase(name="inception_v1", network=zoo["inception_v1"],
                   qos_ms=100.0)
    service.register(case)
    arrivals = PoissonArrivals(case.name, arrivals_per_s=8.0) \
        .generate(30_000.0, make_rng(7))
    outcomes = ServingPipeline(service, ServingConfig()).serve(arrivals)
    return service, outcomes


def _samples(service, outcomes):
    found = {}
    candidates = [served.outcome for served in outcomes]
    candidates += list(outcomes) + [served.arrival for served in outcomes]
    candidates += list(service.engine.history) + list(service.trace.records)
    for candidate in candidates:
        found.setdefault(type(candidate), candidate)
    return found


def test_every_slotted_record_appears(served):
    assert set(_samples(*served)) == set(SLOTTED)


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_record_round_trips(served, cls):
    record = _samples(*served)[cls]
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_trace_bytes_unchanged(served, tmp_path):
    service, _ = served
    statuses = {record.status for record in service.trace.records}
    assert statuses == {"ok", "shed", "failed"}
    path = service.trace.save(tmp_path / "trace.jsonl")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256


def test_checkpoint_round_trip_is_byte_stable(served, tmp_path):
    service, _ = served
    first, second = tmp_path / "first", tmp_path / "second"
    service.checkpoint(first)
    restored = AutoScaleService.restore(first, _environment(), seed=7)
    assert restored.trace.records == service.trace.records
    restored.checkpoint(second)
    names = sorted(path.name for path in first.iterdir())
    assert "trace.jsonl" in names
    assert names == sorted(path.name for path in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    digest = hashlib.sha256((first / "trace.jsonl").read_bytes())
    assert digest.hexdigest() == TRACE_SHA256
