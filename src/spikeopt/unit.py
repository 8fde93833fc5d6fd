"""One population member: spiking core, selector, and its three I/O peripherals.

Each member owns per-dimension 2-component neuron states. A step encodes the
current position around a freshly computed reference point, evaluates the
firing predicate per dimension, then either integrates the sub-threshold
dynamics or applies the spike-triggered perturbation, and finally decodes and
clips the new position. The selector evaluates emitted positions greedily.

The peripherals are plain functions, not processes: the spike handler and the
receiver are called by the unit's core (after and before its step), the
sender by its selector. Each is the one place where a local vector becomes a
row of a population matrix, or a slice of a neighbourhood tensor becomes
local inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .dynamics import (
    DynamicsModel,
    INTEGRATORS,
    LinearModel,
)
from .heuristics import (
    SpikeCondition,
    SpikeContext,
    SpikeRule,
    ThresholdRule,
    apply_spike_rule,
    phi_s,
    threshold,
)
from .problem import ObjectiveFunction, SearchDomain, clip
from .transform import TransformParams, SELF_GLOBAL_NEIGHBOUR_AVERAGE, compute_xref, decode, encode

__all__ = [
    "UnitState",
    "UnitParams",
    "CoreInputs",
    "UnitAbortError",
    "init_unit_state",
    "spiking_core_step",
    "selector_step",
    "spiking_handler_step",
    "sender_step",
    "receiver_step",
]


class UnitAbortError(RuntimeError):
    """Raised when a core produces a non-finite state."""


@dataclass
class UnitState:
    """Mutable state of one unit across its lifetime."""

    unit_id: int
    x: np.ndarray
    p: np.ndarray
    f_p: float
    s: np.ndarray
    a: np.ndarray
    neuro_states: np.ndarray  # (d, 2)
    retained_noise: np.ndarray  # (d,)
    is_init: bool = False
    t: int = 0
    events: List[str] = field(default_factory=list)
    # diagnostics captured by the last core step, used for spike replay checks
    v_pre: Optional[np.ndarray] = None
    theta: Optional[np.ndarray] = None

    @property
    def dimension(self) -> int:
        return self.x.size


@dataclass
class UnitParams:
    """Per-unit configuration resolved to concrete objects."""

    model: DynamicsModel
    integrator: str
    dt: float
    transform: TransformParams
    threshold_rule: ThresholdRule
    condition: SpikeCondition
    rule: SpikeRule
    rule_rngs: List[np.random.Generator]

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


@dataclass
class CoreInputs:
    """Everything a core reads at the start of a step.

    ``g`` of ``None`` means no global broadcast has arrived yet; the core then
    treats its own best as the global best. ``P_n`` of ``None`` likewise falls
    back to the unit's own best.
    """

    a: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    f_g: Optional[float] = None
    p: Optional[np.ndarray] = None
    f_p: Optional[float] = None
    P_n: Optional[np.ndarray] = None  # (m, d)
    f_pn: Optional[np.ndarray] = None  # (m,)


def init_unit_state(
    unit_id: int,
    domain: SearchDomain,
    init_rng: np.random.Generator,
) -> UnitState:
    """Fresh state with a uniform position and retained encoding noise."""
    d = domain.dimension
    x0 = init_rng.uniform(domain.lower, domain.upper)
    noise = init_rng.uniform(size=d)
    return UnitState(
        unit_id=unit_id,
        x=x0,
        p=x0.copy(),
        f_p=np.inf,
        s=np.zeros(d, dtype=bool),
        a=np.zeros(d, dtype=bool),
        neuro_states=np.zeros((d, 2)),
        retained_noise=noise,
    )


def spiking_core_step(
    state: UnitState,
    params: UnitParams,
    domain: SearchDomain,
    inputs: CoreInputs,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance the unit one step; returns the spike vector and new position."""
    d = state.dimension

    if inputs.p is not None:
        state.p = np.asarray(inputs.p, dtype=float)
        state.f_p = float(inputs.f_p)
    p = state.p
    g = p if inputs.g is None else np.asarray(inputs.g, dtype=float)
    a = (
        np.zeros(d, dtype=bool)
        if inputs.a is None
        else np.asarray(inputs.a, dtype=bool)
    )
    P_n = p[None, :] if inputs.P_n is None else np.asarray(inputs.P_n, dtype=float)

    tp = params.transform
    neighbours = (
        list(P_n) if tp.reference_strategy == SELF_GLOBAL_NEIGHBOUR_AVERAGE else ()
    )
    x_ref = compute_xref(tp.reference_strategy, p, g, neighbours, tp.weights)

    r = state.retained_noise
    v = encode(state.x, x_ref, tp, r)  # (d, 2)
    theta = threshold(params.threshold_rule, g, p, x_ref)
    s = np.asarray(
        phi_s(params.condition, v, state.t, theta, params.model_trace), dtype=bool
    )
    fire = s | a

    v_new = v.copy()
    calm = ~fire
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
            ctx = SpikeContext(
                v_self_best=v_self[j],
                v_global_best=v_glob[j],
                neighbour_best_states=v_nb[:, j, :],
                rng=params.rule_rngs[j],
                events=state.events,
                distinct_count=int(distinct[j]),
            )
            v_new[j] = apply_spike_rule(params.rule, v[j], ctx)

    if not np.all(np.isfinite(v_new)):
        raise UnitAbortError(
            f"unit {state.unit_id}: non-finite state at step {state.t}"
        )

    x_new = clip(domain, decode(v_new, x_ref, tp))

    state.x = x_new
    state.s = s
    state.a = a
    state.neuro_states = v_new
    state.v_pre = v
    state.theta = np.broadcast_to(np.asarray(theta, dtype=float), (d,))
    state.t += 1
    return s, x_new


def selector_step(
    state: UnitState,
    x: np.ndarray,
    f: ObjectiveFunction,
) -> Tuple[np.ndarray, float]:
    """Evaluate a candidate once and keep it only on strict improvement."""
    f_x = f.evaluate(x)
    if f_x < state.f_p or not state.is_init:
        state.p = np.asarray(x, dtype=float).copy()
        state.f_p = f_x
        state.is_init = True
    return state.p, state.f_p


def spiking_handler_step(
    state: UnitState,
    s: np.ndarray,
    A: np.ndarray,
) -> Tuple[Tuple[int, np.ndarray], np.ndarray]:
    """Encode the local spikes as a row update and pull the unit's activations."""
    s = np.asarray(s, dtype=bool)
    A = np.asarray(A, dtype=bool)
    if A.ndim != 2 or A.shape[1] != s.size or not 0 <= state.unit_id < A.shape[0]:
        raise ValueError(
            f"activation matrix shape {A.shape} inconsistent with unit "
            f"{state.unit_id} and spike length {s.size}"
        )
    return (state.unit_id, s.copy()), A[state.unit_id].copy()


def sender_step(
    state: UnitState,
    p: np.ndarray,
    f_p: float,
) -> Tuple[Tuple[int, np.ndarray], Tuple[int, float]]:
    """Row updates placing the unit's best into the shared position/fitness stores."""
    return (state.unit_id, np.asarray(p, dtype=float).copy()), (state.unit_id, float(f_p))


def receiver_step(
    state: UnitState,
    Pn_tensor: np.ndarray,
    Fn_matrix: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Extract this unit's neighbourhood slice from the shared tensors."""
    Pn_tensor = np.asarray(Pn_tensor, dtype=float)
    Fn_matrix = np.asarray(Fn_matrix, dtype=float)
    if Pn_tensor.ndim != 3 or Fn_matrix.ndim != 2:
        raise ValueError("expected an (m, d, n) tensor and an (m, n) matrix")
    m, _, n = Pn_tensor.shape
    if Fn_matrix.shape != (m, n) or not 0 <= state.unit_id < n:
        raise ValueError(
            f"neighbour payload shapes {Pn_tensor.shape}/{Fn_matrix.shape} "
            f"inconsistent for unit {state.unit_id}"
        )
    return Pn_tensor[:, :, state.unit_id].copy(), Fn_matrix[:, state.unit_id].copy()
