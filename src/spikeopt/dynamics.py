"""Sub-threshold state dynamics: 2D vector fields and fixed-step integrators.

Every core shares the same 2-component state shape ``(..., 2)``; component 1
plays the role of a membrane potential, component 2 is model-specific
(recovery variable, or inert for the leaky integrator). All operations
broadcast over leading axes so a whole unit's per-dimension states can be
stepped in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "LinearModel",
    "IzhikevichModel",
    "LIFModel",
    "DynamicsModel",
    "REGULAR_SPIKING",
    "vector_field",
    "euler_step",
    "rk4_step",
    "izhikevich_reset",
    "random_linear_model",
    "LINEAR_STABILITY_CLASSES",
]


@dataclass(frozen=True)
class LinearModel:
    """dv/dt = A v for a 2x2 matrix A."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.shape != (2, 2):
            raise ValueError("A must be a 2x2 matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("A entries must be finite")
        object.__setattr__(self, "A", A)

    @property
    def trace(self) -> float:
        return float(np.trace(self.A))


@dataclass(frozen=True)
class IzhikevichModel:
    """Quadratic membrane model with a linear recovery variable."""

    a: float = 0.02
    b: float = 0.2
    c: float = -65.0
    d: float = 8.0
    i_syn: float = 10.0

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "i_syn"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class LIFModel:
    """Leaky integrator; the second state component is inert."""

    tau_m: float = 10.0
    v_rest: float = -65.0
    i_syn: float = 0.0

    def __post_init__(self):
        if self.tau_m <= 0.0:
            raise ValueError("tau_m must be positive")


DynamicsModel = Union[LinearModel, IzhikevichModel, LIFModel]

# canonical regular-spiking parameter set, exposed as the Izhikevich default
REGULAR_SPIKING = IzhikevichModel(a=0.02, b=0.2, c=-65.0, d=8.0, i_syn=10.0)


def vector_field(model: DynamicsModel, v: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Time derivative of the state under the model's continuous dynamics."""
    v = np.asarray(v, dtype=float)
    if isinstance(model, LinearModel):
        # elementwise, not ``v @ A.T``, whose bits depend on the host's OpenBLAS kernel
        (a00, a01), (a10, a11) = model.A.tolist()
        v1, v2 = v[..., 0], v[..., 1]
        return np.stack([a00 * v1 + a01 * v2, a10 * v1 + a11 * v2], axis=-1)
    if isinstance(model, IzhikevichModel):
        v1, v2 = v[..., 0], v[..., 1]
        dv1 = v1 * v1 / 25.0 + 5.0 * v1 + 140.0 - v2 + model.i_syn
        dv2 = model.a * (model.b * v1 - v2)
        return np.stack([dv1, dv2], axis=-1)
    if isinstance(model, LIFModel):
        dv1 = -(v[..., 0] - model.v_rest + model.i_syn) / model.tau_m
        return np.stack([dv1, np.zeros_like(dv1)], axis=-1)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _check_finite(v: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"non-finite state after {where}")
    return v


def euler_step(model: DynamicsModel, v: np.ndarray, dt: float) -> np.ndarray:
    """One forward Euler step v + g(v) dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    v = np.asarray(v, dtype=float)
    return _check_finite(v + vector_field(model, v) * dt, "euler step")


def rk4_step(model: DynamicsModel, v: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    v = np.asarray(v, dtype=float)
    k1 = vector_field(model, v)
    k2 = vector_field(model, v + 0.5 * dt * k1)
    k3 = vector_field(model, v + 0.5 * dt * k2)
    k4 = vector_field(model, v + dt * k3)
    return _check_finite(v + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0, "rk4 step")


INTEGRATORS = {"euler": euler_step, "rk4": rk4_step}


def izhikevich_reset(model: IzhikevichModel, v: np.ndarray) -> np.ndarray:
    """After-spike reset: membrane to c, recovery bumped by d."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = model.c
    out[..., 1] = v[..., 1] + model.d
    return out


LINEAR_STABILITY_CLASSES = (
    "random",
    "stable_node",
    "unstable_node",
    "stable_spiral",
    "unstable_spiral",
    "center",
)


def random_linear_model(rng: np.random.Generator, stability: str = "random") -> LinearModel:
    """Draw a seeded 2x2 system, optionally forcing an equilibrium class.

    ``random`` samples entries uniformly in [-2, 2]; the named classes place
    eigenvalues directly (real pairs for nodes, conjugate pairs for spirals).
    """
    if stability == "random":
        return LinearModel(A=rng.uniform(-2.0, 2.0, size=(2, 2)))
    if stability == "stable_node":
        lams = rng.uniform(-2.0, -0.2, size=2)
        return LinearModel(A=np.diag(lams))
    if stability == "unstable_node":
        lams = rng.uniform(0.2, 2.0, size=2)
        return LinearModel(A=np.diag(lams))
    if stability in ("stable_spiral", "unstable_spiral", "center"):
        omega = rng.uniform(0.5, 2.0)
        if stability == "stable_spiral":
            sigma = rng.uniform(-1.5, -0.1)
        elif stability == "unstable_spiral":
            sigma = rng.uniform(0.1, 1.5)
        else:
            sigma = 0.0
        return LinearModel(A=np.array([[sigma, omega], [-omega, sigma]]))
    raise ValueError(
        f"unknown stability class {stability!r}; choose from {LINEAR_STABILITY_CLASSES}"
    )
