"""Bidirectional mapping between position components and 2-component neuron states.

Encoding is linear in the position with gain ``alpha`` around a reference
point; the second state component mixes a retained uniform sample with the
reference point and is independent of the position. Decoding reads the
position back from the first component only, so encode/decode round-trips
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "SELF_GLOBAL_AVERAGE",
    "SELF_GLOBAL_NEIGHBOUR_AVERAGE",
    "XREF_STRATEGIES",
    "TransformParams",
    "compute_xref",
    "encode",
    "decode",
]

SELF_GLOBAL_AVERAGE = "self_global_average"
SELF_GLOBAL_NEIGHBOUR_AVERAGE = "self_global_neighbour_average"
XREF_STRATEGIES = (SELF_GLOBAL_AVERAGE, SELF_GLOBAL_NEIGHBOUR_AVERAGE)

_WEIGHT_TOL = 1e-12


@dataclass
class TransformParams:
    """Per-unit encoding parameters.

    ``retained_noise`` holds one uniform [0, 1) sample per dimension, drawn at
    initialisation and kept fixed for the whole run so that the encoding stays
    reversible and the internal dynamics stay consistent.
    """

    gain: float = 1.0
    retained_noise: np.ndarray = field(default_factory=lambda: np.zeros(0))
    reference_strategy: str = SELF_GLOBAL_AVERAGE
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.gain <= 0.0:
            raise ValueError("gain must be positive")
        self.retained_noise = np.asarray(self.retained_noise, dtype=float)
        if self.retained_noise.size and (
            np.any(self.retained_noise < 0.0) or np.any(self.retained_noise >= 1.0)
        ):
            raise ValueError("retained noise samples must lie in [0, 1)")
        if self.reference_strategy not in XREF_STRATEGIES:
            raise ValueError(f"unknown reference strategy {self.reference_strategy!r}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
                raise ValueError("weights must sum to 1")


def compute_xref(
    strategy: str,
    p: np.ndarray,
    g: np.ndarray,
    neighbours: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reference point as a normalised weighting of best-known positions.

    ``self_global_average`` mixes the unit's own best ``p`` with the global
    best ``g``; ``self_global_neighbour_average`` additionally folds in each
    row of the ``(m, d)`` neighbour bests. Weights default to uniform; the
    strategy and the weights' sum are checked by ``TransformParams``, and
    ``InfoTopology`` gives every unit at least one neighbour.
    """
    k = 2 if strategy == SELF_GLOBAL_AVERAGE else 2 + len(neighbours)
    if weights is None:
        weights = np.full(k, 1.0 / k)
    elif weights.size != k:
        # the neighbour count can change between steps, so build cannot check it
        raise ValueError(f"got {weights.size} weights for {k} reference sources")

    if k == 2:
        return weights[0] * p + weights[1] * g
    src = np.concatenate((p[None, :], g[None, :], neighbours))  # (2 + m, d)
    return np.sum(weights[:, None] * src, axis=0)  # BLAS-free, unlike ``weights @ src``


def encode(
    x_j: np.ndarray | float,
    x_ref_j: np.ndarray | float,
    params: TransformParams,
    r_j: np.ndarray | float,
) -> np.ndarray:
    """Map position component(s) to 2-component neuron state(s).

    ``v1 = alpha * (x - x_ref)`` carries the position; ``v2 = 2 r - (1 - x_ref)``
    carries the retained sample. Scalar inputs give shape (2,), vectors of
    length d give shape (d, 2).
    """
    v1 = params.gain * (x_j - x_ref_j)
    v2 = 2.0 * r_j - (1.0 - x_ref_j)
    out = np.empty(np.broadcast(v1, v2).shape + (2,))
    out[..., 0] = v1
    out[..., 1] = v2
    return out


def decode(
    v: np.ndarray,
    x_ref_j: np.ndarray | float,
    params: TransformParams,
) -> np.ndarray | float:
    """Read position component(s) back from state(s); only v1 carries position."""
    return v[..., 0] / params.gain + x_ref_j
