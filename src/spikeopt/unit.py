"""One population member as plain step functions: spiking core, selector, and I/O rows.

A unit holds no state of its own; the drivers keep every unit's position and
best in population arrays (each concurrent worker in private ones) and pass
the unit's rows in. A core step encodes the current position around a
freshly computed reference point, evaluates the firing predicate per
dimension, then either integrates the sub-threshold dynamics or applies the
spike-triggered perturbation, and finally decodes and clips the new
position. It draws nothing (the driver passes it a block of variates from
the unit's stream) and checks only that its new state is finite:
``UnitParams`` and the objects it holds check the rest when they are built.
The selector evaluates emitted positions greedily.

The three I/O row functions (receiver, spike handler, sender) are what is
left of a unit's peripherals. No driver calls them, since both index their
arrays directly; the benchmark's layer tracer still wraps them, and they go
once it counts work instead of calls (ROADMAP item 1).
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
    g = p if g is None else g
    P_n = p[None, :] if P_n is None else P_n

    tp = params.transform
    neighbours = P_n if tp.reference_strategy == SELF_GLOBAL_NEIGHBOUR_AVERAGE else None
    x_ref = compute_xref(tp.reference_strategy, p, g, neighbours, tp.weights)

    # x, p, g and the m neighbour bests, encoded in one call: (3 + m, d, 2)
    V = encode(np.concatenate((x[None], p[None], g[None], P_n)), x_ref, tp, tp.retained_noise)
    v, v_self, v_glob, v_nb = V[0], V[1], V[2], V[3:]
    theta = threshold(params.threshold_rule, g, p, x_ref)
    s = phi_s(params.condition, v, t, theta, params.model_trace)
    fire = s | a

    v_new = v.copy()
    firing = fire.nonzero()[0].tolist()
    fallbacks = 0
    if len(firing) < x.size:
        calm = ~fire
        v_new[calm] = INTEGRATORS[params.integrator](params.model, v[calm], params.dt)
    if firing:
        rule = params.rule
        # the second state component is shared per dimension, so distinct
        # neighbour states reduce to distinct first components
        v1_sorted = np.sort(v_nb[..., 0], axis=0)
        distinct = (1 + (v1_sorted[1:] != v1_sorted[:-1]).sum(axis=0)).tolist()
        for j in firing:
            v_new[j], fell_back = apply_spike_rule(
                rule, v[j], v_self[j], v_glob[j], v_nb[:, j], distinct[j], z[j], u[j]
            )
            fallbacks += fell_back

    if not np.isfinite(v_new).all():
        raise UnitAbortError(f"non-finite state at core step {t}")

    x_new = clip(domain, decode(v_new, x_ref, tp))
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
