"""repro — a full reproduction of AutoScale (Kim & Wu, MICRO 2020).

AutoScale is an adaptive, lightweight execution-scaling engine that uses
tabular Q-learning to pick the most energy-efficient execution target for
each DNN inference on a mobile device — a local processor at a DVFS point
and quantization level, the cloud, or a locally connected edge device —
while meeting latency and accuracy constraints under stochastic runtime
variance.

Quick start::

    from repro import (AutoScale, EdgeCloudEnvironment, build_device,
                       build_network, use_case_for)

    env = EdgeCloudEnvironment(build_device("mi8pro"), scenario="S1",
                               seed=0)
    engine = AutoScale(env, seed=0)
    use_case = use_case_for(build_network("mobilenet_v3"))
    engine.run(use_case, 100)         # Algorithm-1 training cycles
    engine.freeze()
    target = engine.predict(use_case.network, env.observe())

Sub-packages:

- ``repro.core`` — state/action/reward, Q-learning, the engine, transfer;
- ``repro.models`` — the Table-III network zoo and accuracy tables;
- ``repro.hardware`` — Table-II devices, DVFS, power/thermal models;
- ``repro.wireless`` — RSSI-dependent links and eq. (4) energy;
- ``repro.interference`` — co-runners and the contention model;
- ``repro.env`` — the edge-cloud execution simulator and Table IV;
- ``repro.faults`` — request-level fault injection and the resilient
  serving vocabulary (see docs/robustness.md);
- ``repro.serving`` — open-loop arrivals, admission control,
  deadline-aware load shedding, and brownout degradation
  (see docs/robustness.md);
- ``repro.guard`` — runtime policy guardrails: drift detectors and the
  staged HEALTHY/READAPT/SHADOW/DEGRADE supervisor
  (see docs/robustness.md);
- ``repro.baselines`` — Edge/Cloud/Connected/Opt, LR/SVR/SVM/KNN/BO,
  MOSAIC, NeuroSurgeon;
- ``repro.evalharness`` — metrics and one driver per paper figure.
"""

from repro.common import ReproError, make_rng
from repro.core import (
    AutoScale,
    QLearningConfig,
    QTable,
    RewardConfig,
    compute_reward,
    table_i_state_space,
    transfer_q_table,
)
from repro.env import (
    ActionSpace,
    EdgeCloudEnvironment,
    ExecutionTarget,
    Location,
    Observation,
    UseCase,
    build_scenario,
    use_case_for,
    use_cases_for_zoo,
)
from repro.faults import (
    FailedAttempt,
    FaultPlan,
    OutageWindow,
    ResiliencePolicy,
)
from repro.guard import GuardConfig, GuardStage, PolicyGuard
from repro.hardware import Device, build_device
from repro.serving import (
    BrownoutConfig,
    DeadlinePolicy,
    MarkovModulatedArrivals,
    PoissonArrivals,
    ServingConfig,
    ServingPipeline,
    TraceArrivals,
)
from repro.models import (
    NeuralNetwork,
    Precision,
    build_network,
    load_zoo,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "make_rng",
    "ActionSpace",
    "AutoScale",
    "QLearningConfig",
    "QTable",
    "RewardConfig",
    "compute_reward",
    "table_i_state_space",
    "transfer_q_table",
    "EdgeCloudEnvironment",
    "ExecutionTarget",
    "Location",
    "Observation",
    "UseCase",
    "build_scenario",
    "use_case_for",
    "use_cases_for_zoo",
    "FailedAttempt",
    "FaultPlan",
    "OutageWindow",
    "ResiliencePolicy",
    "GuardConfig",
    "GuardStage",
    "PolicyGuard",
    "Device",
    "build_device",
    "BrownoutConfig",
    "DeadlinePolicy",
    "MarkovModulatedArrivals",
    "PoissonArrivals",
    "ServingConfig",
    "ServingPipeline",
    "TraceArrivals",
    "NeuralNetwork",
    "Precision",
    "build_network",
    "load_zoo",
    "__version__",
]
