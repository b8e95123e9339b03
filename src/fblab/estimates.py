"""Norm estimates: certified intervals with witness provenance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .spaces import _ldexp, _readonly

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

    def _scaled(self, e: int, degree: int) -> WitnessFamily:
        """This witness of an estimate of ``degree`` (0 or 1) in data scaled
        by 2^-e, for the data itself: the objective is of that degree, the
        functionals and their constraint of the other one."""
        k = (1 - degree) * e
        Y, c, v = np.ldexp(self.functionals, k), _ldexp(self.constraint, k), _ldexp(self.objective, e - k)
        return WitnessFamily(Y, self.p, c, v)

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
    The lower bound must be finite; the upper bound may be infinite (none
    known).
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
        if math.isinf(self.lower):
            # an overflowed evaluation, never a value
            raise ValueError(f"estimate lower bound must be finite, got {self.lower}")
        if self.lower > self.upper:
            # rounding may put a lower bound a few ulp above its upper
            # bound; anything more means one of them is wrong.  The slack is
            # relative below magnitude 1, so a wrong tiny interval is not
            # clipped to a false one
            scale = min(1.0, max(abs(self.lower), abs(self.upper)))
            if self.lower - self.upper > 1e-9 * scale:
                raise ValueError(
                    f"inconsistent estimate: lower {self.lower} exceeds upper {self.upper}"
                )
            object.__setattr__(self, "lower", self.upper)

    def _scaled(self, e: int, degree: int) -> NormEstimate:
        """This estimate of a quantity of ``degree`` in data scaled by 2^-e,
        for the data itself."""
        w, k = self.witness, degree * e
        w = w and w._scaled(e, degree)
        return replace(self, lower=_ldexp(self.lower, k), upper=_ldexp(self.upper, k), witness=w)

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
