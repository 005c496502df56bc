"""Execution-environment simulation: targets, QoS, scenarios, executor."""

from repro.env.costcache import CacheStats, NominalCostEngine, NominalSweep
from repro.env.environment import EdgeCloudEnvironment
from repro.env.executor import (
    NoiseConfig,
    partitioned_execution,
    pipelined_plan,
)
from repro.env.observation import Observation
from repro.env.presets import PRESET_BUILDERS, build_preset
from repro.env.qos import (
    QOS_NON_STREAMING_MS,
    QOS_STREAMING_MS,
    QOS_TRANSLATION_MS,
    UseCase,
    use_case_for,
    use_cases_for_zoo,
)
from repro.env.result import ExecutionResult
from repro.env.scenarios import (
    DYNAMIC_SCENARIOS,
    SCENARIO_NAMES,
    STATIC_SCENARIOS,
    Scenario,
    build_scenario,
)
from repro.env.target import (
    ActionSpace,
    ExecutionTarget,
    Location,
    combine_masks,
    enumerate_targets,
)
__all__ = [
    "CacheStats",
    "NominalCostEngine",
    "NominalSweep",
    "EdgeCloudEnvironment",
    "PRESET_BUILDERS",
    "build_preset",
    "NoiseConfig",
    "partitioned_execution",
    "pipelined_plan",
    "Observation",
    "QOS_NON_STREAMING_MS",
    "QOS_STREAMING_MS",
    "QOS_TRANSLATION_MS",
    "UseCase",
    "use_case_for",
    "use_cases_for_zoo",
    "ExecutionResult",
    "DYNAMIC_SCENARIOS",
    "SCENARIO_NAMES",
    "STATIC_SCENARIOS",
    "Scenario",
    "build_scenario",
    "ActionSpace",
    "ExecutionTarget",
    "Location",
    "combine_masks",
    "enumerate_targets",
]
