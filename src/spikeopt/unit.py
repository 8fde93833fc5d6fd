"""One population member as plain step functions: spiking core, selector, and I/O rows.

A unit holds no state of its own; the drivers keep every unit's position and
best in population arrays (or, in the concurrent driver, in the loop locals
of the worker stepping the unit) and pass the unit's rows in. A core step encodes the current position
around a freshly computed reference point, evaluates the firing predicate per
dimension, then either integrates the sub-threshold dynamics or applies the
spike-triggered perturbation, and finally decodes and clips the new position.
The selector evaluates emitted positions greedily. A core step draws nothing:
the driver passes it a block of variates drawn from the unit's stream.

The three I/O peripherals are one-line row functions called by the unit's core
(the receiver before its step, the spike handler after it) and selector (the
sender): each is the one place where a unit's vector becomes a row of a
population matrix, or its slice of a neighbourhood tensor becomes a core input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .dynamics import (
    DynamicsModel,
    INTEGRATORS,
    LinearModel,
)
from .heuristics import (
    SpikeCondition,
    SpikeRule,
    ThresholdRule,
    apply_spike_rule,
    phi_s,
    threshold,
)
from .problem import ObjectiveFunction, SearchDomain, clip
from .transform import TransformParams, SELF_GLOBAL_NEIGHBOUR_AVERAGE, compute_xref, decode, encode

__all__ = [
    "UnitParams",
    "CoreStep",
    "UnitAbortError",
    "spiking_core_step",
    "selector_step",
    "spiking_handler_step",
    "sender_step",
    "receiver_step",
]


class UnitAbortError(RuntimeError):
    """Raised when a core produces a non-finite state."""


@dataclass
class UnitParams:
    """Per-unit configuration resolved to concrete objects.

    The threshold rule, condition and spike rule are shared by every unit
    built from the same spec; the model and the transform (which holds the
    unit's retained encoding noise) are the unit's own.
    """

    model: DynamicsModel
    integrator: str
    dt: float
    transform: TransformParams
    threshold_rule: ThresholdRule
    condition: SpikeCondition
    rule: SpikeRule

    def __post_init__(self):
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.condition.variant == "disc" and not isinstance(self.model, LinearModel):
            raise ValueError("the disc condition needs a linear core")
        self.model_trace: Optional[float] = (
            self.model.trace if isinstance(self.model, LinearModel) else None
        )


class CoreStep(NamedTuple):
    """What one core step emits, and what it leaves for the full-state trace."""

    s: np.ndarray  # (d,) self-spikes
    x: np.ndarray  # (d,) new position, clipped to the domain
    v_pre: np.ndarray  # (d, 2) encoded state before the step
    v_post: np.ndarray  # (d, 2) state after integration or the spike rule
    theta: np.ndarray  # (d,) firing thresholds
    fallbacks: int  # firing dimensions whose rule fell back to a fixed reset


def spiking_core_step(
    params: UnitParams,
    domain: SearchDomain,
    t: int,
    x: np.ndarray,
    p: np.ndarray,
    g: Optional[np.ndarray],
    a: np.ndarray,
    P_n: Optional[np.ndarray],
    z: np.ndarray,
    u: np.ndarray,
) -> CoreStep:
    """Advance one unit one step from its position ``x`` and best ``p``.

    ``t`` counts the core steps taken before this one. ``g`` of ``None``
    means no global broadcast has arrived yet, and ``P_n`` (the ``(m, d)``
    neighbour bests) of ``None`` that no neighbourhood has; both then fall
    back to the unit's own best. ``a`` holds the activations received, and
    ``z``, ``u`` the step's variates (``heuristics.step_variates``); a firing
    dimension j hands its rows to the spike rule.
    """
    d = x.size
    g = p if g is None else g
    P_n = p[None, :] if P_n is None else P_n

    tp = params.transform
    neighbours = P_n if tp.reference_strategy == SELF_GLOBAL_NEIGHBOUR_AVERAGE else None
    x_ref = compute_xref(tp.reference_strategy, p, g, neighbours, tp.weights)

    r = tp.retained_noise
    v = encode(x, x_ref, tp, r)  # (d, 2)
    theta = threshold(params.threshold_rule, g, p, x_ref)
    s = np.asarray(
        phi_s(params.condition, v, t, theta, params.model_trace), dtype=bool
    )
    fire = s | a

    v_new = v.copy()
    calm = ~fire
    fallbacks = 0
    if calm.any():
        v_new[calm] = INTEGRATORS[params.integrator](params.model, v[calm], params.dt)
    if fire.any():
        v_self = encode(p, x_ref, tp, r)
        v_glob = encode(g, x_ref, tp, r)
        v_nb = encode(P_n, x_ref, tp, r)  # (m, d, 2)
        # the second state component is shared per dimension, so distinct
        # neighbour states reduce to distinct first components
        v1_sorted = np.sort(v_nb[..., 0], axis=0)
        distinct = 1 + np.count_nonzero(v1_sorted[1:] != v1_sorted[:-1], axis=0)
        for j in np.flatnonzero(fire):
            v_new[j], fell_back = apply_spike_rule(
                params.rule,
                v[j],
                v_self[j],
                v_glob[j],
                v_nb[:, j, :],
                int(distinct[j]),
                z[j],
                u[j],
            )
            fallbacks += fell_back

    if not np.all(np.isfinite(v_new)):
        raise UnitAbortError(f"non-finite state at core step {t}")

    x_new = clip(domain, decode(v_new, x_ref, tp))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (d,))
    return CoreStep(s, x_new, v, v_new, theta, fallbacks)


def selector_step(
    x: np.ndarray,
    p: Optional[np.ndarray],
    f_p: float,
    f: ObjectiveFunction,
) -> Tuple[np.ndarray, float]:
    """Evaluate a candidate once; it replaces the best ``p`` only on strict improvement.

    ``p`` of ``None`` means the unit has no best yet, so the candidate is kept.
    """
    f_x = f.evaluate(x)
    if p is None or f_x < f_p:
        return np.array(x, dtype=float), f_x
    return p, f_p


def spiking_handler_step(
    i: int, s: np.ndarray, A: np.ndarray
) -> Tuple[Tuple[int, np.ndarray], np.ndarray]:
    """Unit ``i``'s spike row for the population matrix, and its row of activations."""
    return (i, s), A[i]


def sender_step(
    i: int, p: np.ndarray, f_p: float
) -> Tuple[int, Tuple[np.ndarray, float]]:
    """Unit ``i``'s best as a row update for the shared position/fitness stores."""
    return i, (p, f_p)


def receiver_step(i: int, Pn_tensor: np.ndarray) -> np.ndarray:
    """Unit ``i``'s ``(m, d)`` slice of the ``(m, d, n)`` neighbourhood tensor."""
    return Pn_tensor[:, :, i]
