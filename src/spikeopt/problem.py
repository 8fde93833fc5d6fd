"""Continuous minimisation problems: box domains, counters, and a native benchmark suite.

All benchmarks are defined on the canonical box [-5, 5]^d and are built with
fitness 0 at a seeded random shift inside [-4, 4]^d, so the optimum never sits
on a bound. Definitions are plain, axis-aligned variants of the usual
black-box test functions (no rotation or oscillation transforms).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SearchDomain",
    "ObjectiveFunction",
    "BENCHMARK_NAMES",
    "default_domain",
    "clip",
    "make_benchmark",
]


@dataclass(frozen=True)
class SearchDomain:
    """Axis-aligned box of feasible positions."""

    dimension: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.lower.shape != (self.dimension,) or self.upper.shape != (self.dimension,):
            raise ValueError("bound vectors must have length equal to dimension")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower


def default_domain(dimension: int) -> SearchDomain:
    """Canonical [-5, 5]^d box shared by every benchmark."""
    return SearchDomain(
        dimension=dimension,
        lower=np.full(dimension, -5.0),
        upper=np.full(dimension, 5.0),
    )


def clip(domain: SearchDomain, x: np.ndarray) -> np.ndarray:
    """Componentwise projection onto the box."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != domain.dimension:
        raise ValueError(
            f"position has length {x.shape[-1]}, domain has dimension {domain.dimension}"
        )
    return np.minimum(domain.upper, np.maximum(domain.lower, x))


@dataclass
class ObjectiveFunction:
    """A scalar objective with an evaluation counter.

    Only the counter update is lock-protected: several concurrently running
    selectors share one instance without losing counts, and their evaluator
    calls still run side by side.
    """

    identifier: str
    evaluator: Callable[[np.ndarray], float]
    dimension: int
    optimum_value: Optional[float] = None
    optimum_position: Optional[np.ndarray] = None
    evaluation_count: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"{self.identifier}: expected shape ({self.dimension},), got {x.shape}"
            )
        with self._lock:
            self.evaluation_count += 1
        return float(self.evaluator(x))


def _sphere(z: np.ndarray) -> float:
    return float(np.sum(z * z))


def _ellipsoid(z: np.ndarray) -> float:
    d = z.size
    if d == 1:
        return float(z[0] * z[0])
    exponents = 6.0 * np.arange(d) / (d - 1)
    return float(np.sum(10.0 ** exponents * z * z))


def _rastrigin(z: np.ndarray) -> float:
    return float(10.0 * (z.size - np.sum(np.cos(2.0 * np.pi * z))) + np.sum(z * z))


def _rosenbrock(z: np.ndarray) -> float:
    # shift so the optimum sits at z = 0 rather than the classic all-ones point
    w = z + 1.0
    return float(np.sum(100.0 * (w[:-1] ** 2 - w[1:]) ** 2 + (w[:-1] - 1.0) ** 2))


def _bent_cigar(z: np.ndarray) -> float:
    return float(z[0] * z[0] + 1.0e6 * np.sum(z[1:] * z[1:]))


_SCHWEFEL_OFFSET = 420.968746227503
# evaluate the per-dimension maximum at the stored offset so f(shift) == 0 in floats
_SCHWEFEL_VALUE = float(_SCHWEFEL_OFFSET * np.sin(np.sqrt(_SCHWEFEL_OFFSET)))


def _schwefel(z: np.ndarray) -> float:
    # z in box units; map to the +-500 landscape with the optimum at w = offset,
    # clamp outside it and add a quadratic penalty; the stored offset is only
    # near the true maximiser, so floor at 0 to keep fitness >= 0 in floats
    w = 100.0 * z + _SCHWEFEL_OFFSET
    w_in = np.clip(w, -500.0, 500.0)
    excess = np.abs(w) - 500.0
    penalty = np.sum(np.maximum(excess, 0.0) ** 2)
    value = (
        _SCHWEFEL_VALUE * z.size
        - np.sum(w_in * np.sin(np.sqrt(np.abs(w_in))))
        + 100.0 * penalty
    )
    return float(max(value, 0.0))


def _make_attractive_sector(shift: np.ndarray) -> Callable[[np.ndarray], float]:
    def evaluator_z(z: np.ndarray) -> float:
        scale = np.where(z * shift > 0.0, 100.0, 1.0)
        return float(np.sum((scale * z) ** 2))

    return evaluator_z


_BENCHMARKS: dict[str, Callable[[np.ndarray], float]] = {
    "sphere": _sphere,
    "ellipsoid_separable": _ellipsoid,
    "rastrigin_separable": _rastrigin,
    "attractive_sector": None,  # built per-instance, depends on the shift
    "rosenbrock": _rosenbrock,
    "ellipsoid": _ellipsoid,
    "bent_cigar": _bent_cigar,
    "rastrigin": _rastrigin,
    "schwefel": _schwefel,
}

BENCHMARK_NAMES = tuple(_BENCHMARKS)


def make_benchmark(
    name: str,
    dimension: int,
    seed: int = 0,
    shift: Optional[np.ndarray] = None,
) -> ObjectiveFunction:
    """Instantiate a named benchmark with a seeded optimum shift.

    Parameters
    ----------
    name : str
        One of ``BENCHMARK_NAMES``.
    dimension : int
        Problem dimension d >= 1.
    seed : int
        Seed for the shift draw; ignored when ``shift`` is given.
    shift : ndarray, optional
        Explicit optimum position (length d). Pass zeros for the unshifted
        canonical function.
    """
    if name not in _BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}")
    if dimension < 1:
        raise ValueError("dimension must be a positive integer")
    if shift is None:
        rng = np.random.default_rng([seed, _stable_tag(name)])
        shift = rng.uniform(-4.0, 4.0, size=dimension)
    else:
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (dimension,):
            raise ValueError("shift must have length equal to dimension")

    if name == "attractive_sector":
        base = _make_attractive_sector(shift)
    else:
        base = _BENCHMARKS[name]

    def evaluator(x: np.ndarray, _base=base, _shift=shift) -> float:
        return _base(x - _shift)

    return ObjectiveFunction(
        identifier=name,
        evaluator=evaluator,
        dimension=dimension,
        optimum_value=0.0,
        optimum_position=shift.copy(),
    )


def _stable_tag(name: str) -> int:
    """Seed component derived from the name, stable across interpreter runs."""
    return sum((i + 1) * b for i, b in enumerate(name.encode())) % (2**31)
