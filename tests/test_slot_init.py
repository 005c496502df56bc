"""``repro.common.slot_init``: the per-request records' ``__init__``.

``ExecutionResult``, ``AutoScaleStep``, ``FailedAttempt``,
``ServedRequest`` and ``SheddedRequest`` are frozen, slotted dataclasses
whose ``__init__`` stores each field through its slot descriptor
instead of one ``object.__setattr__`` call per field.  The records must
behave exactly as dataclass-built ones: the same signature and
defaults, frozen and ``__dict__``-free, equal across keyword,
positional, ``replace``, pickle and deep-copy construction, and raising
the same ``ConfigError`` messages from their validation.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from repro.common import ConfigError, slot_init
from repro.core.engine import AutoScaleStep
from repro.env.result import ExecutionResult
from repro.faults import FailedAttempt
from repro.faults.failure import FaultKind
from repro.serving.arrivals import Arrival
from repro.serving.pipeline import ServedRequest
from repro.serving.shedder import SheddedRequest, ShedReason

_RESULT = ExecutionResult(12.5, 40.0, 38.5, 71.2, "local/cpu/fp32/vf3",
                          {"compute_ms": 12.5})

#: One valid keyword set per record, every field given.
SAMPLES = {
    ExecutionResult: dict(latency_ms=12.5, energy_mj=40.0,
                          estimated_energy_mj=38.5, accuracy_pct=71.2,
                          target_key="local/cpu/fp32/vf3",
                          detail={"compute_ms": 12.5}),
    AutoScaleStep: dict(state=17, action=4, target_key="cloud/gpu/fp32",
                        reward=-0.25, result=_RESULT, explored=True,
                        q_delta=0.125),
    FailedAttempt: dict(kind=FaultKind.TIMEOUT, target_key="cloud/gpu/fp32",
                        latency_ms=30.0, energy_mj=9.0,
                        estimated_energy_mj=8.5, detail={"deadline": 1.0}),
    ServedRequest: dict(arrival=Arrival(5.0, "mobilenet_v3"),
                        outcome=_RESULT, queue_delay_ms=2.5, tier="degraded"),
    SheddedRequest: dict(reason=ShedReason.EXPIRED, name="mobilenet_v3",
                         at_ms=5.0, shed_at_ms=9.0, deadline_ms=8.0,
                         queue_delay_ms=4.0),
}
RECORDS = list(SAMPLES)

#: One invalid field per validated record.
_INVALID_FIELD = {
    ExecutionResult: {"latency_ms": math.nan},
    FailedAttempt: {"latency_ms": math.nan},
    ServedRequest: {"queue_delay_ms": math.nan},
    SheddedRequest: {"at_ms": math.nan},
}


def _ids(cls):
    return cls.__name__


def _dataclass_twin(cls):
    """The same fields on a plain ``@dataclass(frozen=True,
    slots=True)``: the signature ``slot_init`` must reproduce."""
    fields = [
        (f.name, f.type, dataclasses.field(default=f.default,
                                           default_factory=f.default_factory))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      slots=True)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
class TestRecordInit:
    def test_uses_slot_init(self, cls):
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert "_set_" + dataclasses.fields(cls)[0].name \
            in cls.__init__.__globals__

    def test_signature_matches_dataclass(self, cls):
        ours = inspect.signature(cls).parameters
        theirs = inspect.signature(_dataclass_twin(cls)).parameters
        assert list(ours) == list(theirs)
        for name in ours:
            assert ours[name].kind is theirs[name].kind
            assert repr(ours[name].default) == repr(theirs[name].default)

    def test_keyword_and_positional_agree(self, cls):
        kwargs = SAMPLES[cls]
        by_keyword = cls(**kwargs)
        by_position = cls(*kwargs.values())
        assert by_keyword == by_position
        for name, value in kwargs.items():
            assert getattr(by_keyword, name) is value

    def test_defaults(self, cls):
        fields = dataclasses.fields(cls)
        required = {f.name: SAMPLES[cls][f.name] for f in fields
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING}
        first, second = cls(**required), cls(**required)
        for f in fields:
            if f.default is not dataclasses.MISSING:
                assert getattr(first, f.name) is f.default
            elif f.default_factory is not dataclasses.MISSING:
                assert getattr(first, f.name) == f.default_factory()
                # A fresh value per instance, as a dataclass makes.
                assert getattr(first, f.name) is not getattr(second, f.name)

    def test_replace_pickle_deepcopy_round_trip(self, cls):
        record = cls(**SAMPLES[cls])
        assert dataclasses.replace(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
        assert copy.copy(record) == record
        assert repr(pickle.loads(pickle.dumps(record))) == repr(record)

    def test_replace_runs_validation(self, cls):
        record = cls(**SAMPLES[cls])
        if cls is AutoScaleStep:  # no validation: any value is stored
            assert dataclasses.replace(record, state=-1).state == -1
            return
        with pytest.raises(ConfigError):
            dataclasses.replace(record, **_INVALID_FIELD[cls])

    def test_frozen_and_slotted(self, cls):
        record = cls(**SAMPLES[cls])
        assert not hasattr(record, "__dict__")
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
        with pytest.raises((AttributeError, TypeError)):
            record.extra = 1


#: Invalid keyword overrides and the exact messages they raise.
_INVALID = [
    (ExecutionResult, dict(latency_ms=math.nan),
     "contract violation: latency_ms must be a finite number, got nan"),
    (ExecutionResult, dict(latency_ms=-1.0),
     "contract violation: latency_ms must be positive (ms), got -1.0"),
    (ExecutionResult, dict(energy_mj=-1.0),
     "contract violation: energy_mj must be >= 0.0 (mJ), got -1.0"),
    (ExecutionResult, dict(energy_mj=0.0), "non-positive energy"),
    (ExecutionResult, dict(estimated_energy_mj=math.nan),
     "contract violation: estimated_energy_mj must be a finite number, "
     "got nan"),
    (ExecutionResult, dict(accuracy_pct=101.0),
     "accuracy outside [0, 100]: 101.0"),
    (ExecutionResult, dict(accuracy_pct=math.nan),
     "contract violation: accuracy_pct must be a finite number, got nan"),
    (FailedAttempt, dict(latency_ms=math.nan),
     "contract violation: latency_ms must be a finite number, got nan"),
    (FailedAttempt, dict(latency_ms=-1.0),
     "contract violation: latency_ms must be positive (ms), got -1.0"),
    (FailedAttempt, dict(energy_mj=0.0),
     "failed attempts still burn energy; non-positive bill"),
    (FailedAttempt, dict(estimated_energy_mj=-2.0),
     "contract violation: estimated_energy_mj must be >= 0.0 (mJ), "
     "got -2.0"),
    (ServedRequest, dict(queue_delay_ms=math.nan),
     "contract violation: queue_delay_ms must be a finite number, got nan"),
    (ServedRequest, dict(queue_delay_ms=-1.0),
     "contract violation: queue_delay_ms must be non-negative (ms), "
     "got -1.0"),
    (SheddedRequest, dict(at_ms=math.nan),
     "contract violation: at_ms must be a finite number, got nan"),
    (SheddedRequest, dict(at_ms=-1.0),
     "contract violation: at_ms must be non-negative (ms), got -1.0"),
    (SheddedRequest, dict(at_ms=10.0),
     "shed at 9.0 ms before arrival 10.0"),
    (SheddedRequest, dict(queue_delay_ms=math.inf),
     "contract violation: queue_delay_ms must be a finite number, got inf"),
]


@pytest.mark.parametrize(
    "cls, overrides, message", _INVALID,
    ids=[f"{cls.__name__}-{next(iter(o))}={o[next(iter(o))]}"
         for cls, o, _ in _INVALID])
def test_validation_messages_unchanged(cls, overrides, message):
    with pytest.raises(ConfigError) as raised:
        cls(**{**SAMPLES[cls], **overrides})
    assert str(raised.value) == message


class TestSlotInitRejects:
    def test_unfrozen_dataclass(self):
        @dataclasses.dataclass(slots=True)
        class Loose:
            value: float

        with pytest.raises(ConfigError, match="frozen, slotted"):
            slot_init(Loose)

    def test_unslotted_dataclass(self):
        @dataclasses.dataclass(frozen=True)
        class Open:
            value: float

        with pytest.raises(ConfigError, match="frozen, slotted"):
            slot_init(Open)

    def test_keyword_only_field(self):
        @dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
        class KeywordOnly:
            value: float

        with pytest.raises(ConfigError, match="plain positional"):
            slot_init(KeywordOnly)

    def test_record_without_fields_or_validation(self):
        @slot_init
        @dataclasses.dataclass(frozen=True, slots=True)
        class Empty:
            pass

        assert Empty() == Empty()
