"""Reference per-unit core step: the plain implementation the lean core is checked against.

These are ``unit.spiking_core_step``, ``transform.encode``,
``heuristics.apply_spike_rule`` and ``heuristics._donors`` as they stood before
the core was made lean: four ``encode`` calls per firing step, distinct
neighbour counts for every rule, ``np.asarray`` on every argument. They share
the reference point, threshold, predicate, integrators, decode and clip with
the package, so they pin the core's own arithmetic and call order, not those.
A population kernel is checked against the same functions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from spikeopt.dynamics import INTEGRATORS
from spikeopt.heuristics import SpikeRule, phi_s, threshold
from spikeopt.problem import SearchDomain, clip
from spikeopt.transform import (
    SELF_GLOBAL_NEIGHBOUR_AVERAGE,
    TransformParams,
    compute_xref,
    decode,
)
from spikeopt.unit import CoreStep, UnitAbortError, UnitParams


def reference_encode(
    x_j: np.ndarray | float,
    x_ref_j: np.ndarray | float,
    params: TransformParams,
    r_j: np.ndarray | float,
) -> np.ndarray:
    v1 = np.asarray(params.gain * (np.asarray(x_j, dtype=float) - x_ref_j))
    v2 = np.asarray(2.0 * np.asarray(r_j, dtype=float) - (1.0 - x_ref_j))
    if v2.shape != v1.shape:
        v1, v2 = np.broadcast_arrays(v1, v2)
    out = np.empty(v1.shape + (2,))
    out[..., 0] = v1
    out[..., 1] = v2
    return out


def reference_donors(u, m: int, k: int) -> list:
    taken: list = []
    for i in range(k):
        r = int(u[i] * (m - i))
        for s in sorted(taken):
            if r >= s:
                r += 1
        taken.append(r)
    return taken


def reference_apply_spike_rule(
    rule: SpikeRule,
    v: np.ndarray,
    v_self_best: np.ndarray,
    v_global_best: np.ndarray,
    neighbour_best_states: np.ndarray,
    distinct_count: int,
    z: np.ndarray,
    u: np.ndarray,
) -> Tuple[np.ndarray, bool]:
    v = np.asarray(v, dtype=float)
    nb = np.asarray(neighbour_best_states, dtype=float)
    v_self = np.asarray(v_self_best, dtype=float)
    v_glob = np.asarray(v_global_best, dtype=float)
    fell_back = False

    if rule.variant == "random_reset":
        out = np.array(z, dtype=float)
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
            r1, r2 = reference_donors(u, nb.shape[0], 2)
            out = v + rule.F * (v_glob - v) + rule.F * (nb[r1] - nb[r2])
    else:  # de_rand
        fell_back = distinct_count < 3
        if fell_back:
            out = v_self + 0.1 * z
        else:
            r1, r2, r3 = reference_donors(u, nb.shape[0], 3)
            out = v + rule.F * (nb[r1] - v) + rule.F * (nb[r2] - nb[r3])

    if rule.p_cr is not None:
        out = np.where(u[3:5] < rule.p_cr, out, v)
    return out, fell_back


def reference_core_step(
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
    d = x.size
    g = p if g is None else g
    P_n = p[None, :] if P_n is None else P_n

    tp = params.transform
    neighbours = P_n if tp.reference_strategy == SELF_GLOBAL_NEIGHBOUR_AVERAGE else None
    x_ref = compute_xref(tp.reference_strategy, p, g, neighbours, tp.weights)

    r = tp.retained_noise
    v = reference_encode(x, x_ref, tp, r)
    theta = threshold(params.threshold_rule, g, p, x_ref)
    s = np.asarray(phi_s(params.condition, v, t, theta, params.model_trace), dtype=bool)
    fire = s | a

    v_new = v.copy()
    calm = ~fire
    fallbacks = 0
    if calm.any():
        v_new[calm] = INTEGRATORS[params.integrator](params.model, v[calm], params.dt)
    if fire.any():
        v_self = reference_encode(p, x_ref, tp, r)
        v_glob = reference_encode(g, x_ref, tp, r)
        v_nb = reference_encode(P_n, x_ref, tp, r)
        v1_sorted = np.sort(v_nb[..., 0], axis=0)
        distinct = 1 + np.count_nonzero(v1_sorted[1:] != v1_sorted[:-1], axis=0)
        for j in np.flatnonzero(fire):
            v_new[j], fell_back = reference_apply_spike_rule(
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
