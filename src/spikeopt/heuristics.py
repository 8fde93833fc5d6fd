"""Spike machinery: threshold schedules, firing predicates, and spike-triggered rules.

The firing predicate decides, per dimension, whether the state takes a
perturbation jump instead of a plain dynamics step. Perturbation rules range
from blind resets to differential-evolution mutations over the encoded best
states of the unit, the population, and the neighbourhood. Rules draw no
random numbers themselves: the caller hands each firing pair its variates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "THRESHOLD_VARIANTS",
    "CONDITION_VARIANTS",
    "RULE_VARIANTS",
    "DIRECTIONAL_TARGETS",
    "ThresholdRule",
    "SpikeCondition",
    "SpikeRule",
    "threshold",
    "phi_s",
    "step_variates",
    "apply_spike_rule",
]

THRESHOLD_VARIANTS = ("fixed", "global_self_gap", "ref_self_gap")
CONDITION_VARIANTS = ("abs_threshold", "weighted_minkowski", "shrinking_ball", "disc")
RULE_VARIANTS = (
    "random_reset",
    "fixed_reset",
    "directional",
    "de_current_to_best",
    "de_rand",
)
DIRECTIONAL_TARGETS = ("self_best", "global_best", "blend")


@dataclass(frozen=True)
class ThresholdRule:
    """Base threshold, either fixed or scaled by a best-position gap."""

    variant: str = "fixed"
    alpha_thr: float = 1.0

    def __post_init__(self):
        if self.variant not in THRESHOLD_VARIANTS:
            raise ValueError(f"unknown threshold variant {self.variant!r}")
        if self.alpha_thr <= 0.0:
            raise ValueError("alpha_thr must be positive")


def threshold(
    rule: ThresholdRule,
    g_j: np.ndarray | float,
    p_j: np.ndarray | float,
    x_ref_j: np.ndarray | float,
) -> np.ndarray | float:
    """Per-dimension firing threshold."""
    if rule.variant == "fixed":
        return np.full(np.shape(p_j), rule.alpha_thr, dtype=float)
    if rule.variant == "global_self_gap":
        return rule.alpha_thr * np.abs(g_j - p_j)
    return rule.alpha_thr * np.abs(x_ref_j - p_j)


@dataclass(frozen=True)
class SpikeCondition:
    """Self-firing predicate over the encoded state.

    ``abs_threshold`` fires on |v1| >= theta (inclusive); ``weighted_minkowski``
    on a strict q-norm exceedance; ``shrinking_ball`` inside a tolerance that
    tightens as 1/(1+t); ``disc`` inside an attractor disc for contracting
    linear cores and outside a repeller disc for expanding ones.
    """

    variant: str = "abs_threshold"
    q: float = 2.0
    weights: Optional[np.ndarray] = None
    epsilon_spk: float = 1.0
    theta_attractor: float = 0.5
    theta_repeller: float = 1.5

    def __post_init__(self):
        if self.variant not in CONDITION_VARIANTS:
            raise ValueError(f"unknown spike condition {self.variant!r}")
        if self.variant == "weighted_minkowski":
            if self.q < 1.0:
                raise ValueError("q must be >= 1")
            w = (
                np.full(2, 1.0 / np.sqrt(2.0))
                if self.weights is None
                else np.asarray(self.weights, dtype=float)
            )
            if w.shape != (2,) or np.any(w < 0.0) or np.any(w > 1.0):
                raise ValueError("weights must be two entries in [0, 1]")
            if abs(np.linalg.norm(w) - 1.0) > 1e-9:
                raise ValueError("weights must form a unit vector")
            object.__setattr__(self, "weights", w)
        if self.variant == "shrinking_ball" and self.epsilon_spk <= 0.0:
            raise ValueError("epsilon_spk must be positive")
        if self.variant == "disc" and not (0.0 < self.theta_attractor < self.theta_repeller):
            raise ValueError("need 0 < theta_attractor < theta_repeller")


def phi_s(
    cond: SpikeCondition,
    v: np.ndarray,
    t: int,
    theta: np.ndarray | float,
    model_trace: Optional[float] = None,
) -> np.ndarray | bool:
    """Self-spiking predicate; broadcasts over leading axes of the float array ``v``."""
    if cond.variant == "abs_threshold":
        out = np.abs(v[..., 0]) >= theta
    elif cond.variant == "weighted_minkowski":
        weighted = cond.weights * v
        if cond.q == 2.0:
            out = np.sqrt((weighted * weighted).sum(axis=-1)) > theta
        else:
            out = (np.abs(weighted) ** cond.q).sum(axis=-1) ** (1.0 / cond.q) > theta
    elif cond.variant == "shrinking_ball":
        out = np.linalg.norm(v, axis=-1) < cond.epsilon_spk / (1.0 + t)
    else:  # disc; ``UnitParams`` gives it a linear core, so ``model_trace`` is set
        norm = np.linalg.norm(v, axis=-1)
        if model_trace <= 0.0:
            out = norm <= cond.theta_attractor
        else:
            out = norm >= cond.theta_repeller
    return bool(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class SpikeRule:
    """Spike-triggered perturbation, with optional binomial crossover on top.

    ``p_cr`` of ``None`` disables the crossover; a value in [0, 1] masks each
    component of the rule output, keeping the new value with probability
    ``p_cr`` and the pre-spike value otherwise.
    """

    variant: str = "fixed_reset"
    sigma: float = 0.5
    alpha_d: float = 1.0
    target: str = "global_best"
    F: float = 0.5
    p_cr: Optional[float] = None

    def __post_init__(self):
        if self.variant not in RULE_VARIANTS:
            raise ValueError(f"unknown spike rule {self.variant!r}")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        if self.alpha_d <= 0.0:
            raise ValueError("alpha_d must be positive")
        if self.target not in DIRECTIONAL_TARGETS:
            raise ValueError(f"unknown directional target {self.target!r}")
        if not 0.0 <= self.F <= 2.0:
            raise ValueError("F must lie in [0, 2]")
        if self.p_cr is not None and not 0.0 <= self.p_cr <= 1.0:
            raise ValueError("p_cr must lie in [0, 1]")


def step_variates(rng: np.random.Generator, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """One core step's block: ``(d, 2)`` standard normals and ``(d, 5)`` uniforms."""
    return rng.standard_normal((d, 2)), rng.random((d, 5))


def _donors(u, m: int, k: int) -> list:
    """k distinct indices in [0, m) from the uniforms ``u[:k]``, without rejection.

    Index i is drawn from the m - i indices still free and shifted past those
    already taken, so each ordered k-tuple owns one cell of the unit k-cube.
    """
    taken: list = []
    for i in range(k):
        r = int(u[i] * (m - i))
        for s in sorted(taken):
            if r >= s:
                r += 1
        taken.append(r)
    return taken


def apply_spike_rule(
    rule: SpikeRule,
    v: np.ndarray,
    v_self_best: np.ndarray,
    v_global_best: np.ndarray,
    neighbour_best_states: np.ndarray,
    distinct_count: int,
    z: np.ndarray,
    u: np.ndarray,
) -> Tuple[np.ndarray, bool]:
    """Apply the configured perturbation to one encoded state.

    ``neighbour_best_states`` holds the ``(m, 2)`` encoded neighbour bests, of
    which ``distinct_count`` are distinct. ``z`` holds 2 standard normals and
    ``u`` 5 uniforms in [0, 1): 3 pick distinct differential donors, 2 the
    crossover mask. When too few neighbour states are distinct a differential
    rule degrades to a fixed reset with sigma = 0.1. Returns the new state and
    whether that fallback was taken. Every state argument is a float array.
    """
    nb, v_self, v_glob = neighbour_best_states, v_self_best, v_global_best
    fell_back = False

    if rule.variant == "random_reset":
        out = z.copy()
    elif rule.variant == "fixed_reset":
        out = v_self + rule.sigma * z
    elif rule.variant == "directional":
        if rule.target == "self_best":
            v_target = v_self
        elif rule.target == "global_best":
            v_target = v_glob
        else:
            v_target = 0.5 * (v_self + v_glob)
        out = v + rule.alpha_d * (v_target - v) + rule.sigma * z
    elif rule.variant == "de_current_to_best":
        fell_back = distinct_count < 2
        if fell_back:
            out = v_self + 0.1 * z
        else:
            r1, r2 = _donors(u[:2].tolist(), nb.shape[0], 2)
            out = v + rule.F * (v_glob - v) + rule.F * (nb[r1] - nb[r2])
    else:  # de_rand
        fell_back = distinct_count < 3
        if fell_back:
            out = v_self + 0.1 * z
        else:
            r1, r2, r3 = _donors(u[:3].tolist(), nb.shape[0], 3)
            out = v + rule.F * (nb[r1] - v) + rule.F * (nb[r2] - nb[r3])

    if rule.p_cr is not None:
        # binomial crossover: keep each new component with probability p_cr
        out = np.where(u[3:5] < rule.p_cr, out, v)
    return out, fell_back
