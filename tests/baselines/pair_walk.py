"""Scalar reference for the ML baselines' (context, action) encoder.

``repro.baselines.features.encode_pairs`` builds every target's row at
once: a shared context block, a memoized action block and sixteen
scalar-times-column interaction products.  :func:`encode_pair` walks
one target the long way, one interaction at a time, so a test can pin
the batched rows to it with ``np.array_equal``.
"""

import numpy as np

from repro.baselines.features import (
    _LOCATIONS,
    _PRECISIONS,
    _ROLES,
    encode_action,
    encode_context,
    vf_fraction_for,
)


def encode_pair(network, observation, target, environment=None):
    """Full feature vector for one (context, action) pair."""
    context = encode_context(network, observation)
    action = encode_action(target,
                           vf_fraction_for(target, environment))
    log_macs = context[3]
    is_local = action[0]
    is_cloud = action[1]
    is_connected = action[2]
    weak_wlan = context[8]
    weak_p2p = context[9]
    roles_start = len(_LOCATIONS)
    precisions_start = roles_start + len(_ROLES)
    role_onehot = action[roles_start:precisions_start]
    precision_onehot = action[precisions_start:
                              precisions_start + len(_PRECISIONS)]
    log_vf = action[-1]
    interactions = np.array([
        log_macs * is_local,
        log_macs * is_cloud,
        log_macs * is_connected,
        log_macs * role_onehot[0],
        log_macs * role_onehot[1],
        log_macs * role_onehot[2],
        log_macs * role_onehot[3],
        log_macs * precision_onehot[0],
        log_macs * precision_onehot[1],
        log_macs * precision_onehot[2],
        log_macs * log_vf,
        weak_wlan * is_cloud,
        weak_p2p * is_connected,
        observation.cpu_util * is_local,
        observation.mem_util * is_local,
        network.num_fc * role_onehot[1],  # FC layers on a co-processor
    ], dtype=float)
    return np.concatenate([context, action, interactions])
