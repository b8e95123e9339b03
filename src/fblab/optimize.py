"""Deterministic multistart search utilities.

All searches in the package are pure functions of their inputs and a
master seed.  Per-restart generators are derived from the master seed
and the restart index, and the reduction over restarts takes the first
strict improvement, so a parallel execution with the same seeds would
reproduce the sequential result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["OptimizerConfig", "restart_rng"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by every multistart search.

    family_size caps witness families and the member side (2^(N-1) sign
    patterns) of the exact weak-1 norm, not its cube side over a sup-norm
    ball.  extreme_enum_cap bounds exact extreme-point enumeration at 2^cap.
    """

    seed: int = 0
    restarts: int = 64
    max_iter: int = 200
    family_size: int = 20
    extreme_enum_cap: int = 22
    tol: float = 1e-10
    polish: bool = True
    polish_iter: int = 400

    def with_seed(self, seed: int) -> "OptimizerConfig":
        return replace(self, seed=seed)

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iter < 1 or self.family_size < 1:
            raise ValueError("restarts, max_iter and family_size must be positive")
        if self.family_size > 20:
            raise ValueError("family_size above 20 breaks the sign-enumeration budget")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


def restart_rng(cfg: OptimizerConfig, restart: int, salt: int = 0) -> np.random.Generator:
    """The generator owned by one restart; fixed by (seed, salt, restart)."""
    return np.random.default_rng((int(cfg.seed), int(salt), int(restart)))

