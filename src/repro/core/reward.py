"""AutoScale's reward function — equation (5).

::

    if R_accuracy < inference-quality requirement:
        R = R_accuracy - 100
    elif R_latency < QoS constraint:
        R = -R_energy + alpha * R_latency + beta * R_accuracy
    else:
        R = -R_energy + beta * R_accuracy

The accuracy-failure branch makes a quality-violating action strictly
worse than any quality-satisfying one.  Inside the QoS budget the
*positive* latency term is intentional: among QoS-satisfying actions it
rewards running "just fast enough" (a slower, lower-voltage DVFS point),
which is how the paper's engine learns to race exactly to the deadline
instead of to idle.  Outside the budget the bonus disappears, so a
violating action can only compete on raw energy.

**Units.**  The paper does not state the units of the three terms; with
alpha = beta = 0.1 the terms are only commensurate if energy is in joules,
latency in seconds, and accuracy a fraction — that is this module's
``normalize=False`` mode, kept for fidelity.  The default mode divides
the energy *and* latency terms by a common reference (``energy_ref_mj``),
which preserves the raw form's term ratios exactly while keeping reward
magnitudes in a numerically comfortable range for the Q-table; the
accuracy term stays a fraction in both modes.  With the paper's
alpha = 0.1 this makes the in-QoS latency bonus a strong tie-break —
enough to steer DVFS toward the deadline and to discourage marginal QoS
violations, never enough to outvote a real energy difference (the
property behind Fig. 13's 97.9% agreement with the pure-energy oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import ConfigError

__all__ = ["RewardConfig", "compute_reward"]

#: Offset that keeps the accuracy-failure branch below every regular
#: reward in normalized mode (normalized energies stay well above -50).
_ACCURACY_FAIL_OFFSET = 50.0


@dataclass(frozen=True)
class RewardConfig:
    """Weights and normalization for equation (5).

    Attributes:
        alpha: latency weight (paper: 0.1).
        beta: accuracy weight (paper: 0.1).
        normalize: use the scale-free form (default) or the paper's raw
            joules/seconds/fraction form.
        energy_ref_mj: normalization reference; 100 mJ is the scale of a
            well-placed light-network inference on the phones modelled
            here, putting good actions near -1.
    """

    alpha: float = 0.1
    beta: float = 0.1
    normalize: bool = True
    energy_ref_mj: float = 100.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("reward weights must be non-negative")
        if self.energy_ref_mj <= 0:
            raise ConfigError("energy reference must be positive")


def compute_reward(result, use_case, config=RewardConfig(),
                   energy_mj=None):
    """Equation (5) for one executed inference.

    Args:
        result: the :class:`~repro.env.result.ExecutionResult`.
        use_case: the :class:`~repro.env.qos.UseCase` defining the QoS
            constraint and the inference-quality requirement.
        config: reward weights/normalization.
        energy_mj: override the energy term.  AutoScale trains on its
            *estimated* energy (``result.estimated_energy_mj``, the
            default); pass ``result.energy_mj`` to train on ground truth
            (used by ablations).

    Returns the scalar reward.
    """
    if result.failed:
        # An injected fault (or a deadline abort) delivered nothing but
        # still burned energy.  Score it strictly below the accuracy-
        # failure branch so a flaky target ranks worse than any target
        # that at least returns an answer, with the billed energy as a
        # tie-break between flaky targets.
        if energy_mj is None:
            energy_mj = result.estimated_energy_mj
        if config.normalize:
            return (-_ACCURACY_FAIL_OFFSET - 1.0
                    - energy_mj / config.energy_ref_mj)
        return -100.0 - energy_mj / 1000.0

    accuracy = result.accuracy_pct
    if not use_case.meets_accuracy(accuracy):
        if config.normalize:
            return -_ACCURACY_FAIL_OFFSET + (accuracy - 100.0) / 100.0
        return accuracy - 100.0

    if energy_mj is None:
        energy_mj = result.estimated_energy_mj
    # ``e_term``/``l_term`` are eq. 5's R_energy and R_latency.
    if config.normalize:
        # Both physical terms share the energy reference, so their
        # *ratio* matches the paper's raw joules/seconds form exactly
        # (the whole reward is the raw one scaled by 1000/ref).
        e_term = energy_mj / config.energy_ref_mj
        l_term = result.latency_ms / config.energy_ref_mj
    else:
        e_term = energy_mj / 1000.0          # joules
        l_term = result.latency_ms / 1000.0  # seconds
    accuracy_term = accuracy / 100.0

    reward = -e_term + config.beta * accuracy_term
    if use_case.meets_qos(result.latency_ms):
        reward += config.alpha * l_term
    return reward
