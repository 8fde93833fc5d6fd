"""Population-level coordination: spike propagation, neighbourhoods, global best.

Spike activity travels over a boolean adjacency matrix, applied to every
column (dimension) of the population spike matrix by one boolean matrix
product; positional information travels over a separate boolean graph whose
rows define each unit's neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "SpikeTopology",
    "InfoTopology",
    "GlobalBest",
    "tensor_contract",
    "high_level_selector_step",
    "neighbour_manager_step",
    "build_ring",
    "build_full_spike",
    "build_random_info",
    "build_full_info",
]


@dataclass
class SpikeTopology:
    """Boolean synapse graph; no self-connections."""

    W_s: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W_s, dtype=bool)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("W_s must be a square matrix")
        if np.any(np.diagonal(W)):
            raise ValueError("W_s must have a zero diagonal")
        self.W_s = W

    @property
    def n(self) -> int:
        return self.W_s.shape[0]


@dataclass
class InfoTopology:
    """Boolean information-sharing graph; every unit needs >= 1 neighbour.

    ``index`` is the ``(n, m)`` neighbour table: row i lists unit i's
    neighbours in ascending order, padded with i itself up to the largest
    neighbourhood size ``m``.
    """

    W_x: np.ndarray
    index: np.ndarray = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        W = np.asarray(self.W_x, dtype=bool)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("W_x must be a square matrix")
        if np.any(np.diagonal(W)):
            raise ValueError("W_x must have a zero diagonal")
        sizes = W.sum(axis=1)
        if np.any(sizes == 0):
            raise ValueError("every unit needs at least one neighbour")
        self.W_x = W
        self.m = int(sizes.max())
        # a stable sort puts each row's neighbours first, in ascending order,
        # and the rest behind them; the padding columns are then set to the row
        order = np.argsort(~W, axis=1, kind="stable")[:, : self.m]
        pad = np.arange(self.m)[None, :] >= sizes[:, None]
        self.index = np.where(pad, np.arange(W.shape[0])[:, None], order)

    @property
    def n(self) -> int:
        return self.W_x.shape[0]


@dataclass
class GlobalBest:
    """Greedy record of the best position seen by the high-level selector."""

    g: Optional[np.ndarray] = None
    f_g: float = np.inf


def tensor_contract(topology: SpikeTopology, S: np.ndarray) -> np.ndarray:
    """Activation matrix A[i, j] = OR_k (W[i, k] AND S[k, j]) for the boolean ``(n, d)`` ``S``."""
    # a boolean matmul ORs the ANDs, so no spike count can overflow
    return topology.W_s @ S


def high_level_selector_step(
    state: GlobalBest,
    P: np.ndarray,
    f_p: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Greedy global-best update over the ``(n, d)`` bests; ties resolve to the lowest unit index."""
    i_star = int(np.argmin(f_p))
    if state.g is None or f_p[i_star] < state.f_g:
        state.g = P[i_star].copy()
        state.f_g = float(f_p[i_star])
    return state.g, state.f_g


def neighbour_manager_step(topology: InfoTopology, P: np.ndarray) -> np.ndarray:
    """Group best positions by neighbourhood.

    Returns the (m, d, n) position tensor; slice i lists unit i's neighbours in
    ascending index order, and short neighbourhoods are padded with the unit's
    own entry.
    """
    # one gather gives (m, n, d), returned as an (m, d, n) view with no copy
    return P[topology.index.T].transpose(0, 2, 1)


def build_ring(n: int) -> SpikeTopology:
    """Bidirectional ring: unit i synapses with i-1 and i+1, modulo n."""
    if n < 3:
        raise ValueError("a ring needs at least 3 units")
    W = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    W[idx, (idx + 1) % n] = True
    W[idx, (idx - 1) % n] = True
    return SpikeTopology(W_s=W)


def build_full_spike(n: int) -> SpikeTopology:
    """All-to-all synapses, no self-connection."""
    if n < 2:
        raise ValueError("a full graph needs at least 2 units")
    return SpikeTopology(W_s=~np.eye(n, dtype=bool))


def build_random_info(n: int, m: int, rng: np.random.Generator) -> InfoTopology:
    """Each unit gets exactly ``m`` distinct random neighbours (never itself)."""
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n - 1")
    W = np.zeros((n, n), dtype=bool)
    for i in range(n):
        candidates = np.delete(np.arange(n), i)
        W[i, rng.choice(candidates, size=m, replace=False)] = True
    return InfoTopology(W_x=W)


def build_full_info(n: int) -> InfoTopology:
    """Complete information graph minus the diagonal."""
    if n < 2:
        raise ValueError("a full graph needs at least 2 units")
    return InfoTopology(W_x=~np.eye(n, dtype=bool))
