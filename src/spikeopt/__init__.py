"""spikeopt: a spike-driven, asynchronous population optimizer.

Candidate solutions live inside per-dimension 2-component neuron states.
Sub-threshold dynamics integrate a configurable vector field; threshold
crossings trigger perturbation rules (resets, directional moves, differential
mutations); greedy selectors keep the best positions; and all population
coordination happens through message-passing processes with no central loop.
"""

from .problem import (
    BENCHMARK_NAMES,
    ObjectiveFunction,
    SearchDomain,
    clip,
    default_domain,
    make_benchmark,
)
from .runtime import (
    PowerEstimate,
    RunAbort,
    RunConfig,
    RunTrace,
    ScalingResult,
    UnitSpec,
    estimate_power,
    measure_scaling,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_NAMES",
    "ObjectiveFunction",
    "SearchDomain",
    "clip",
    "default_domain",
    "make_benchmark",
    "PowerEstimate",
    "RunAbort",
    "RunConfig",
    "RunTrace",
    "ScalingResult",
    "UnitSpec",
    "estimate_power",
    "measure_scaling",
    "run",
    "__version__",
]
