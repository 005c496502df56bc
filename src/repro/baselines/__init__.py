"""Baseline schedulers: static policies, Opt, ML predictors, prior work."""

from repro.baselines.base import Scheduler
from repro.baselines.bayesian import (
    BayesianOptScheduler,
    GaussianProcess,
    expected_improvement,
)
from repro.baselines.classification import (
    ClassificationScheduler,
    KNNClassifier,
    LinearSVM,
    knn_scheduler,
    svm_scheduler,
)
from repro.baselines.features import (
    ProfilingDataset,
    Standardizer,
    collect_dataset,
    encode_action,
    encode_context,
)
from repro.baselines.mosaic import MosaicScheduler
from repro.baselines.neurosurgeon import (
    LayerLatencyModel,
    NeurosurgeonScheduler,
)
from repro.baselines.oracle import OptOracle
from repro.baselines.regression import (
    LinearRegression,
    LinearSVR,
    RegressionScheduler,
    linear_regression_scheduler,
    svr_scheduler,
)
from repro.baselines.static import (
    CloudOffload,
    ConnectedEdgeOffload,
    EdgeBest,
    EdgeCpuFp32,
)

__all__ = [
    "Scheduler",
    "BayesianOptScheduler",
    "GaussianProcess",
    "expected_improvement",
    "ClassificationScheduler",
    "KNNClassifier",
    "LinearSVM",
    "knn_scheduler",
    "svm_scheduler",
    "ProfilingDataset",
    "Standardizer",
    "collect_dataset",
    "encode_action",
    "encode_context",
    "MosaicScheduler",
    "LayerLatencyModel",
    "NeurosurgeonScheduler",
    "OptOracle",
    "LinearRegression",
    "LinearSVR",
    "RegressionScheduler",
    "linear_regression_scheduler",
    "svr_scheduler",
    "CloudOffload",
    "ConnectedEdgeOffload",
    "EdgeBest",
    "EdgeCpuFp32",
]
