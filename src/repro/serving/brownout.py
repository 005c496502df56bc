"""Brownout: graceful degradation tiers under sustained queue pressure.

When the backlog grows faster than the engine can drain it, the service
has two bad options — blow every deadline, or shed most of the traffic.
Brownout adds a third: serve *cheaper*.  The controller watches queue
depth and steps through explicit degradation tiers, each expressed as an
action mask over the environment's action space, read from its
``int8``, ``reduced`` and ``local`` columns (and intersected with the
circuit breakers' mask):

- :attr:`~BrownoutTier.NORMAL` — no mask; the engine picks freely;
- :attr:`~BrownoutTier.REDUCED_PRECISION` — only the lowest
  quantization level (INT8), deliberately trading inference quality
  for cheaper, faster service (the accuracy may drop below the use
  case's target — that is the brownout bargain);
- :attr:`~BrownoutTier.LOCAL_ONLY` — INT8 *local* targets only,
  additionally dropping the network round-trip (and its failure modes)
  from the critical path.

Transitions are hysteretic: the controller escalates the moment depth
crosses the enter watermark, but de-escalates only after ``patience``
consecutive observations at or below the exit watermark — so a queue
oscillating around the threshold does not flap the service between
tiers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common import ConfigError

__all__ = ["BrownoutTier", "BrownoutConfig", "BrownoutController"]


class BrownoutTier(enum.Enum):
    """Degradation tiers, ordered from full service to deepest brownout."""

    NORMAL = "normal"
    REDUCED_PRECISION = "reduced_precision"
    LOCAL_ONLY = "local_only"

    @property
    def depth(self):
        """Position in the escalation ladder (0 = full service)."""
        return _LADDER.index(self)


_LADDER = (
    BrownoutTier.NORMAL,
    BrownoutTier.REDUCED_PRECISION,
    BrownoutTier.LOCAL_ONLY,
)


@dataclass(frozen=True)
class BrownoutConfig:
    """Watermarks and hysteresis for the brownout controller.

    Attributes:
        enabled: master switch; disabled leaves the tier pinned NORMAL.
        enter_depth: queue depth at (or above) which the controller
            escalates one tier per observation.
        exit_depth: queue depth at (or below) which pressure counts as
            cleared; must sit strictly below ``enter_depth`` so the two
            watermarks form a hysteresis band.
        patience: consecutive cleared observations required before
            de-escalating one tier.
    """

    enabled: bool = True
    enter_depth: int = 8
    exit_depth: int = 2
    patience: int = 3

    def __post_init__(self):
        if self.enter_depth < 1:
            raise ConfigError(
                f"enter watermark must be >= 1, got {self.enter_depth}"
            )
        if not 0 <= self.exit_depth < self.enter_depth:
            raise ConfigError(
                f"exit watermark {self.exit_depth} must sit in "
                f"[0, {self.enter_depth})"
            )
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")

    @classmethod
    def disabled(cls):
        return cls(enabled=False)


class BrownoutController:
    """Steps the service through :class:`BrownoutTier` with hysteresis."""

    def __init__(self, config=None):
        self.config = config if config is not None else BrownoutConfig()
        self.tier = BrownoutTier.NORMAL
        self.escalations = 0
        self.deescalations = 0
        self._calm_streak = 0

    def observe_pressure(self, depth):
        """Feed one queue-depth observation; returns the current tier.

        Escalation is immediate (overload hurts now); de-escalation
        waits for ``patience`` consecutive observations at or below the
        exit watermark.  Depths inside the hysteresis band hold the
        current tier *and* reset the calm streak.
        """
        if depth < 0:
            raise ConfigError(f"negative queue depth {depth}")
        if not self.config.enabled:
            return self.tier
        if depth >= self.config.enter_depth:
            self._calm_streak = 0
            if self.tier is not _LADDER[-1]:
                self.tier = _LADDER[self.tier.depth + 1]
                self.escalations += 1
        elif depth <= self.config.exit_depth:
            self._calm_streak += 1
            if (self._calm_streak >= self.config.patience
                    and self.tier is not _LADDER[0]):
                self.tier = _LADDER[self.tier.depth - 1]
                self.deescalations += 1
                self._calm_streak = 0
        else:
            self._calm_streak = 0
        return self.tier

    def mask(self, action_space):
        """The current tier's boolean action mask (``None`` = no mask).

        Read from the :class:`~repro.env.target.ActionSpace`'s class
        columns.  A tier whose mask would allow nothing falls back to
        the next weaker constraint (any reduced precision instead of
        INT8, plain local-only, then no mask at all) — brownout must
        never leave the engine with an empty action set.
        """
        if self.tier is BrownoutTier.NORMAL:
            return None
        int8, reduced = action_space.int8, action_space.reduced
        if self.tier is BrownoutTier.REDUCED_PRECISION:
            if int8.any():
                return int8
            return reduced if reduced.any() else None
        local = action_space.local
        for cut in (local & int8, local & reduced, local):
            if cut.any():
                return cut
        return None
