"""AutoScale core: state/action/reward, Q-learning, engine, transfer."""

from repro.core.alternatives import (LinearQFunction, MlpQNetwork,
                                     SarsaTable)
from repro.core.convergence import ConvergenceDetector, episodes_to_converge
from repro.core.discretize import cluster_edges, dbscan, derive_feature_edges
from repro.core.engine import AutoScale, AutoScaleStep, OverheadStats
from repro.core.persistence import load_engine, save_engine
from repro.core.qlearning import QLearningConfig, QTable
from repro.core.service import AutoScaleService
from repro.core.reward import RewardConfig, compute_reward
from repro.core.state import StateFeature, StateSpace, table_i_state_space
from repro.core.transfer import map_actions, transfer_q_table

__all__ = [
    "LinearQFunction",
    "MlpQNetwork",
    "SarsaTable",
    "load_engine",
    "save_engine",
    "ConvergenceDetector",
    "episodes_to_converge",
    "cluster_edges",
    "dbscan",
    "derive_feature_edges",
    "AutoScale",
    "AutoScaleService",
    "AutoScaleStep",
    "OverheadStats",
    "QLearningConfig",
    "QTable",
    "RewardConfig",
    "compute_reward",
    "StateFeature",
    "StateSpace",
    "table_i_state_space",
    "map_actions",
    "transfer_q_table",
]
