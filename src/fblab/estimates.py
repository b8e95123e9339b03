"""Norm estimates: certified intervals with witness provenance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import _readonly

__all__ = ["NormEstimate", "WitnessFamily"]


@dataclass(frozen=True, eq=False)
class WitnessFamily:
    """A finite tuple of dual functionals feasible for a weak-p constraint,
    copied once into the rows of a read-only float array.

    ``constraint`` is the weak-p norm of the (already normalized) family;
    ``objective`` is the value the family certifies.  Families compare by
    identity.
    """

    functionals: np.ndarray
    p: float
    constraint: float
    objective: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "functionals", _readonly(np.atleast_2d(self.functionals)))
        for name in ("p", "constraint", "objective"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def matrix(self) -> np.ndarray:
        return self.functionals

    def to_json(self) -> dict:
        return {
            "functionals": self.functionals.tolist(),
            "p": "inf" if math.isinf(self.p) else self.p,
            "constraint": self.constraint,
            "objective": self.objective,
        }


@dataclass(frozen=True)
class NormEstimate:
    """An interval [lower, upper] around a norm-like quantity.

    A certified flag means the corresponding bound is mathematically
    guaranteed (exact enumeration, exact constraint normalization, or a
    structural inequality), not merely the best value a heuristic found.
    """

    lower: float
    upper: float = math.inf
    lower_certified: bool = False
    upper_certified: bool = False
    method: tuple[str, ...] = field(default=())
    witness: WitnessFamily | None = None

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError(f"estimate bounds must not be NaN: [{self.lower}, {self.upper}]")
        if self.lower > self.upper:
            # rounding may put a lower bound a few ulp above its upper
            # bound; anything more means one of them is wrong
            if self.lower > self.upper + 1e-9:
                raise ValueError(
                    f"inconsistent estimate: lower {self.lower} exceeds upper {self.upper}"
                )
            object.__setattr__(self, "lower", self.upper)

    @property
    def exact(self) -> bool:
        return (
            self.lower_certified
            and self.upper_certified
            and self.upper - self.lower <= 1e-9 * max(1.0, abs(self.upper))
        )

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": None if math.isinf(self.upper) else self.upper,
            "lower_certified": self.lower_certified,
            "upper_certified": self.upper_certified,
            "method": list(self.method),
            "witness": None if self.witness is None else self.witness.to_json(),
        }
