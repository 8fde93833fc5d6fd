"""Execution substrate: run configurations, the two drivers, traces, and cost models.

A run wires n units to three coordination processes (tensor contraction,
neighbour manager, high-level selector). A unit is two processes, its spiking
core and its selector; both are stateless step functions, and the driver owns
every unit's position, best and activations. Configs are checked when they
load and when ``_build`` turns them into parameter objects; the step
functions trust what they are given.

Both drivers step units only through ``_sweep``: each listed unit's core,
then its selector, on the unit's rows of (n, d) population arrays. The
deterministic driver sweeps every unit in a fixed order once per step, so
equal seeds give bit-identical traces. At step t a core reads the
contraction of the spikes of step t-2, its own best from step t-1, and the
global best and neighbourhood computed from the selections of step t-2.

The concurrent driver runs W = min(n, 2) worker threads, each sweeping a
contiguous block of units on its private arrays and posting the block's
spike and best rows once per sweep, and two coordination threads, which
publish the activations and (global best, neighbourhood tensor) as
latest-wins broadcasts. Before each sweep after the first a worker waits
for an information broadcast newer than the one it last used.
"""

from __future__ import annotations

import math
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import coordination, dynamics, heuristics, transform, unit
from .channels import Closed, Mailbox, Slot
from .problem import (
    BENCHMARK_NAMES,
    ObjectiveFunction,
    SearchDomain,
    default_domain,
    make_benchmark,
)

__all__ = [
    "ConfigError",
    "RunAbort",
    "UnitSpec",
    "RunConfig",
    "RunTrace",
    "Snapshots",
    "PowerEstimate",
    "ScalingCell",
    "ScalingResult",
    "check_keys",
    "config_integer",
    "config_section",
    "run",
    "estimate_power",
    "measure_scaling",
]

MODES = ("det", "async")
LOG_LEVELS = ("summary", "trace", "full-state")
SPIKE_TOPOLOGIES = ("ring", "full")
INFO_TOPOLOGIES = ("random_m", "full")

# energy cost model: reported per-event costs for a digital neuromorphic chip,
# 23.6 pJ per synaptic event plus 89.7 pJ per neuron per step (update + spike)
_PJ_PER_SYNAPSE = 23.6
_PJ_PER_NEURON_STEP = 89.7


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class RunAbort(RuntimeError):
    """A process failed mid-run; carries the partial trace for diagnosis."""

    def __init__(self, diagnostic: str, trace: Optional["RunTrace"] = None):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic
        self.trace = trace


# ---------------------------------------------------------------------------
# configuration

_TOP_KEYS = ("problem", "n", "budget", "seed", "mode", "log", "topology", "units", "unit")
_PROBLEM_KEYS = ("name", "dimension")
_TOPOLOGY_KEYS = ("spike", "info", "m")
_UNIT_KEYS = ("dynamics", "transform", "spike")
_DYNAMICS_KEYS = ("model", "integrator", "dt", "params")
_TRANSFORM_KEYS = ("alpha", "xref", "weights")
_SPIKE_KEYS = ("condition", "condition_params", "threshold", "alpha_thr", "rule", "rule_params")
_MODEL_PARAMS = {
    "linear": ("A", "stability"),
    "izhikevich": ("a", "b", "c", "d", "i_syn"),
    "lif": ("tau_m", "v_rest", "i_syn"),
}


def config_section(data: dict, key: str, allowed: Sequence[str], where: str) -> dict:
    """``data[key]`` (empty if absent), an object holding only ``allowed`` keys."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{where}{key} must be an object")
    check_keys(value, allowed, f"{where}{key}")
    return value


def check_keys(data: dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(str(k) for k in data if k not in allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def config_integer(value, name: str) -> int:
    """A non-negative whole number; integral floats are accepted, booleans are not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """A finite number; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass
class UnitSpec:
    """Serializable description of one unit's behaviour."""

    model: str = "linear"
    integrator: str = "rk4"
    dt: float = 0.01
    model_params: dict = field(default_factory=dict)
    alpha: float = 1.0
    xref: str = transform.SELF_GLOBAL_AVERAGE
    xref_weights: Optional[list] = None
    condition: str = "weighted_minkowski"
    condition_params: dict = field(default_factory=dict)
    threshold: str = "global_self_gap"
    alpha_thr: float = 1.0
    rule: str = "de_rand"
    rule_params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("dt", "alpha", "alpha_thr"):
            setattr(self, name, _real(getattr(self, name), name))
        if self.model not in _MODEL_PARAMS:
            raise ConfigError(f"unknown dynamics model {self.model!r}")
        check_keys(self.model_params, _MODEL_PARAMS[self.model], f"{self.model} params")
        if self.xref_weights is not None:
            if self.xref != transform.SELF_GLOBAL_AVERAGE:
                raise ConfigError(
                    f"transform.weights applies only to {transform.SELF_GLOBAL_AVERAGE}; "
                    f"{self.xref} weighs its sources uniformly"
                )
            if not isinstance(self.xref_weights, list) or len(self.xref_weights) != 2:
                raise ConfigError("transform.weights must list 2 weights (self, global)")
            for w in self.xref_weights:
                _real(w, "transform.weights entry")

    def to_dict(self) -> dict:
        return {
            "dynamics": {
                "model": self.model,
                "integrator": self.integrator,
                "dt": self.dt,
                "params": dict(self.model_params),
            },
            "transform": {
                "alpha": self.alpha,
                "xref": self.xref,
                "weights": self.xref_weights,
            },
            "spike": {
                "condition": self.condition,
                "condition_params": dict(self.condition_params),
                "threshold": self.threshold,
                "alpha_thr": self.alpha_thr,
                "rule": self.rule,
                "rule_params": dict(self.rule_params),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnitSpec":
        if not isinstance(data, dict):
            raise ConfigError("a unit section must be an object")
        check_keys(data, _UNIT_KEYS, "unit")
        dyn = config_section(data, "dynamics", _DYNAMICS_KEYS, "unit.")
        tra = config_section(data, "transform", _TRANSFORM_KEYS, "unit.")
        spk = config_section(data, "spike", _SPIKE_KEYS, "unit.")
        try:
            return cls(
                model=dyn.get("model", "linear"),
                integrator=dyn.get("integrator", "rk4"),
                dt=dyn.get("dt", 0.01),
                model_params=dict(dyn.get("params", {})),
                alpha=tra.get("alpha", 1.0),
                xref=tra.get("xref", transform.SELF_GLOBAL_AVERAGE),
                xref_weights=tra.get("weights"),
                condition=spk.get("condition", "weighted_minkowski"),
                condition_params=dict(spk.get("condition_params", {})),
                threshold=spk.get("threshold", "global_self_gap"),
                alpha_thr=spk.get("alpha_thr", 1.0),
                rule=spk.get("rule", "de_rand"),
                rule_params=dict(spk.get("rule_params", {})),
            )
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed unit section: {exc}") from exc


@dataclass
class RunConfig:
    """Full description of one experiment run."""

    problem_name: str = "sphere"
    dimension: int = 2
    n: int = 30
    budget: int = 2000
    seed: int = 0
    mode: str = "det"
    log: str = "trace"
    spike_topology: str = "ring"
    info_topology: str = "random_m"
    info_m: Optional[int] = 10
    units: List[UnitSpec] = field(default_factory=lambda: [UnitSpec()])

    def __post_init__(self):
        if self.problem_name not in BENCHMARK_NAMES:
            raise ConfigError(f"unknown problem {self.problem_name!r}")
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if self.n < 2:
            raise ConfigError("need at least 2 units")
        if self.budget < 1:
            raise ConfigError("budget must be >= 1")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.log not in LOG_LEVELS:
            raise ConfigError(f"log must be one of {LOG_LEVELS}")
        if self.spike_topology not in SPIKE_TOPOLOGIES:
            raise ConfigError(f"spike topology must be one of {SPIKE_TOPOLOGIES}")
        if self.info_topology not in INFO_TOPOLOGIES:
            raise ConfigError(f"info topology must be one of {INFO_TOPOLOGIES}")
        if self.info_topology == "random_m" and self.info_m is None:
            raise ConfigError("topology.m must be set for the random_m info topology")
        if not self.units:
            raise ConfigError("at least one unit spec is required")

    def unit_spec_for(self, i: int) -> UnitSpec:
        """Hybrid populations cycle through the listed specs."""
        return self.units[i % len(self.units)]

    def to_dict(self) -> dict:
        return {
            "problem": {"name": self.problem_name, "dimension": self.dimension},
            "n": self.n,
            "budget": self.budget,
            "seed": self.seed,
            "mode": self.mode,
            "log": self.log,
            "topology": {
                "spike": self.spike_topology,
                "info": self.info_topology,
                "m": self.info_m,
            },
            "units": [u.to_dict() for u in self.units],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Load a config object; unknown keys and malformed values raise ``ConfigError``."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        check_keys(data, _TOP_KEYS, "config")
        problem = config_section(data, "problem", _PROBLEM_KEYS, "")
        topo = config_section(data, "topology", _TOPOLOGY_KEYS, "")
        if "units" in data:
            if not isinstance(data["units"], list):
                raise ConfigError("units must be a list")
            units = [UnitSpec.from_dict(u) for u in data["units"]]
        elif "unit" in data:
            units = [UnitSpec.from_dict(data["unit"])]
        else:
            units = [UnitSpec()]
        m = topo.get("m", 10)
        return cls(
            problem_name=problem.get("name", "sphere"),
            dimension=config_integer(problem.get("dimension", 2), "problem.dimension"),
            n=config_integer(data.get("n", 30), "n"),
            budget=config_integer(data.get("budget", 2000), "budget"),
            seed=config_integer(data.get("seed", 0), "seed"),
            mode=data.get("mode", "det"),
            log=data.get("log", "trace"),
            spike_topology=topo.get("spike", "ring"),
            info_topology=topo.get("info", "random_m"),
            info_m=None if m is None else config_integer(m, "topology.m"),
            units=units,
        )


# ---------------------------------------------------------------------------
# traces


@dataclass
class Snapshots:
    """Full-state capture for replaying firing decisions."""

    x: np.ndarray  # (budget+1, n, d)
    v_pre: np.ndarray  # (budget+1, n, d, 2), nan at step 0
    v_post: np.ndarray  # (budget+1, n, d, 2), nan at step 0
    theta: np.ndarray  # (budget+1, n, d), nan at step 0
    s: np.ndarray  # (budget+1, n, d) bool
    model_traces: np.ndarray  # (n,), nan for non-linear cores


@dataclass
class RunTrace:
    """Logged output of one run, indexed by logical step (0 .. budget).

    ``event_count`` is the number of (unit, dimension) firings whose
    differential rule fell back to a fixed reset. ``wall_ms[t]`` is the mean
    time of the core steps of step t in ms, in both drivers (0 at step 0).
    """

    config: dict
    mode: str
    f_g: np.ndarray
    eps_f: np.ndarray
    unit_best: np.ndarray
    spikes: np.ndarray
    wall_ms: np.ndarray
    evaluations: int
    optimum_value: Optional[float]
    event_count: int = 0
    snapshots: Optional[Snapshots] = None

    @property
    def steps(self) -> int:
        return self.f_g.size - 1

    @property
    def final_f_g(self) -> float:
        return float(self.f_g[-1])

    @property
    def final_eps(self) -> float:
        return float(self.eps_f[-1])


class _Tracer:
    """Collects per-(unit, step) records."""

    # no lock: each [t, i] cell and fallbacks[i] has one writer, the thread that
    # steps unit i, and build runs after the drivers' threads are joined

    def __init__(self, built: "_Built"):
        n, d, budget = built.cfg.n, built.cfg.dimension, built.cfg.budget
        self.unit_best = np.full((budget + 1, n), np.nan)
        self.spikes = np.zeros((budget + 1, n), dtype=np.int64)
        self.wall = np.zeros((budget + 1, n))
        self.fallbacks = np.zeros(n, dtype=np.int64)
        self.snapshots: Optional[Snapshots] = None
        if built.cfg.log == "full-state":
            shape = (budget + 1, n, d)
            self.snapshots = Snapshots(
                x=np.full(shape, np.nan),
                v_pre=np.full(shape + (2,), np.nan),
                v_post=np.full(shape + (2,), np.nan),
                theta=np.full(shape, np.nan),
                s=np.zeros(shape, dtype=bool),
                model_traces=np.array(
                    [np.nan if u.model_trace is None else u.model_trace for u in built.units]
                ),
            )
            self.snapshots.x[0] = built.x0

    def record_core(self, i: int, t: int, step: unit.CoreStep, wall_s: float) -> None:
        self.spikes[t, i] = int(step.s.sum())
        self.wall[t, i] = wall_s * 1000.0
        self.fallbacks[i] += step.fallbacks
        if self.snapshots is not None:
            self.snapshots.x[t, i] = step.x
            self.snapshots.s[t, i] = step.s
            self.snapshots.v_pre[t, i] = step.v_pre
            self.snapshots.v_post[t, i] = step.v_post
            self.snapshots.theta[t, i] = step.theta

    def build(self, cfg: RunConfig, objective: ObjectiveFunction) -> RunTrace:
        filled = self.unit_best.copy()
        # per-unit running best, then the population running minimum per step
        for t in range(1, filled.shape[0]):
            stale = np.isnan(filled[t])
            filled[t, stale] = filled[t - 1, stale]
        with warnings.catch_warnings():
            # partial traces may hold all-nan rows; the nan simply propagates
            warnings.simplefilter("ignore", RuntimeWarning)
            f_g = np.fmin.accumulate(np.nanmin(filled, axis=1))
        opt = objective.optimum_value
        eps = f_g - opt if opt is not None else np.full_like(f_g, np.nan)
        return RunTrace(
            config=cfg.to_dict(),
            mode=cfg.mode,
            f_g=f_g,
            eps_f=eps,
            unit_best=filled,
            spikes=self.spikes,
            wall_ms=self.wall.mean(axis=1),
            evaluations=objective.evaluation_count,
            optimum_value=opt,
            event_count=int(self.fallbacks.sum()),
            snapshots=self.snapshots,
        )


# ---------------------------------------------------------------------------
# materialisation


@dataclass
class _Built:
    cfg: RunConfig
    domain: SearchDomain
    objective: ObjectiveFunction
    spike_topology: coordination.SpikeTopology
    info_topology: coordination.InfoTopology
    units: List[unit.UnitParams]
    x0: np.ndarray  # (n, d) initial positions
    streams: List[np.random.Generator]  # unit i's stream; stepping a built run consumes it


def _build_model(spec: UnitSpec, rng: np.random.Generator) -> dynamics.DynamicsModel:
    params = spec.model_params
    if spec.model == "linear":
        if "A" in params:
            return dynamics.LinearModel(A=np.asarray(params["A"], dtype=float))
        return dynamics.random_linear_model(rng, params.get("stability", "random"))
    if spec.model == "izhikevich":
        base = dynamics.REGULAR_SPIKING
        return dynamics.IzhikevichModel(
            a=params.get("a", base.a),
            b=params.get("b", base.b),
            c=params.get("c", base.c),
            d=params.get("d", base.d),
            i_syn=params.get("i_syn", base.i_syn),
        )
    return dynamics.LIFModel(
        tau_m=params.get("tau_m", 10.0),
        v_rest=params.get("v_rest", -65.0),
        i_syn=params.get("i_syn", 0.0),
    )


def _build_heuristics(spec: UnitSpec, domain: SearchDomain) -> tuple:
    """The spec's threshold rule, spike condition and spike rule, shared by its units."""
    rule_kwargs = dict(spec.rule_params)
    rule_kwargs.setdefault("sigma", 0.05 * float(np.mean(domain.width)))
    return (
        heuristics.ThresholdRule(variant=spec.threshold, alpha_thr=spec.alpha_thr),
        heuristics.SpikeCondition(variant=spec.condition, **spec.condition_params),
        heuristics.SpikeRule(variant=spec.rule, **rule_kwargs),
    )


def _build_unit(
    i: int, spec: UnitSpec, shared: tuple, rng: np.random.Generator, domain: SearchDomain
) -> Tuple[np.ndarray, unit.UnitParams]:
    """Unit i's initial position and parameters: the first draws of its stream."""
    x0 = rng.uniform(domain.lower, domain.upper)
    tp = transform.TransformParams(
        gain=spec.alpha,
        retained_noise=rng.uniform(size=domain.dimension),
        reference_strategy=spec.xref,
        weights=None if spec.xref_weights is None else np.asarray(spec.xref_weights),
    )
    thr, cond, rule = shared
    try:
        params = unit.UnitParams(
            model=_build_model(spec, rng),
            integrator=spec.integrator,
            dt=spec.dt,
            transform=tp,
            threshold_rule=thr,
            condition=cond,
            rule=rule,
        )
    except ValueError as exc:
        raise ConfigError(f"unit {i}: {exc}") from exc
    return x0, params


def _build(cfg: RunConfig) -> _Built:
    """Materialise a config; unit i's stream is child i of ``SeedSequence(seed)``."""
    domain = default_domain(cfg.dimension)
    objective = make_benchmark(cfg.problem_name, cfg.dimension, seed=cfg.seed)

    try:
        if cfg.spike_topology == "ring":
            spike_topo = coordination.build_ring(cfg.n)
        else:
            spike_topo = coordination.build_full_spike(cfg.n)
        if cfg.info_topology == "full":
            info_topo = coordination.build_full_info(cfg.n)
        else:
            topo_rng = np.random.default_rng([cfg.seed, 3])
            info_topo = coordination.build_random_info(cfg.n, cfg.info_m, topo_rng)
    except ValueError as exc:
        raise ConfigError(f"topology: {exc}") from exc

    try:
        shared = [_build_heuristics(spec, domain) for spec in cfg.units]
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n)]
        x0, units = zip(
            *(
                _build_unit(i, cfg.unit_spec_for(i), shared[i % len(shared)], streams[i], domain)
                for i in range(cfg.n)
            )
        )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return _Built(
        cfg=cfg,
        domain=domain,
        objective=objective,
        spike_topology=spike_topo,
        info_topology=info_topo,
        units=list(units),
        x0=np.array(x0),
        streams=streams,
    )


# ---------------------------------------------------------------------------
# deterministic driver


class _UnitFailure(RuntimeError):
    """A unit's core or selector raised; the message names the unit."""


def _sweep(built, tracer, units, t, X, P, f, g, a, nm, S) -> None:
    """Step the listed units at step t: each unit's core (if t > 0), then its selector.

    Reads and writes the units' rows of the population arrays ``X``, ``P``, ``f`` and ``S`` in
    place, a unit's core before its selector; ``g`` and ``nm`` of ``None`` mean no broadcast yet.
    """
    params, streams, domain, objective = built.units, built.streams, built.domain, built.objective
    d = X.shape[1]
    for i in units:
        try:
            if t > 0:
                P_n = None if nm is None else nm[:, :, i]
                t0 = time.perf_counter()
                z, u = heuristics.step_variates(streams[i], d)
                step = unit.spiking_core_step(params[i], domain, t - 1, X[i], P[i], g, a[i], P_n, z, u)
                tracer.record_core(i, t, step, time.perf_counter() - t0)
                S[i], X[i] = step.s, step.x
            P[i], f[i] = unit.selector_step(X[i], P[i] if t > 0 else None, f[i], objective)
            tracer.unit_best[t, i] = f[i]
        except Exception as exc:  # noqa: BLE001 - the driver aborts the run
            raise _UnitFailure(f"unit {i}: {exc!r}") from exc


def _run_deterministic(built: _Built) -> RunTrace:
    cfg, objective = built.cfg, built.objective
    n, d = cfg.n, cfg.dimension
    tracer = _Tracer(built)

    gbest = coordination.GlobalBest()
    # what the cores read at step t: `X` and `P`/`f` as step t-1 left them, `a`
    # from the spikes of step t-2, `g` and `nm` from the selections of step t-2
    X = built.x0.copy()
    P = np.zeros((n, d))
    f = np.full(n, np.inf)
    g = nm = a = None  # nothing delivered yet
    A = np.zeros((n, d), dtype=bool)  # contraction of the spikes of step t-1
    S = np.zeros((n, d), dtype=bool)  # spikes of step t; none before the first step

    try:
        for t in range(cfg.budget + 1):
            if t > 0:
                # from the selections of step t-1; both are copies (a gather and
                # `P[i].copy()`), so the sweep's in-place writes leave them alone
                nm_next = coordination.neighbour_manager_step(built.info_topology, P)
                g_next, _ = coordination.high_level_selector_step(gbest, P, f)
            _sweep(built, tracer, range(n), t, X, P, f, g, a, nm, S)
            a, A = A, coordination.tensor_contract(built.spike_topology, S)
            if t > 0:
                nm, g = nm_next, g_next
    except Exception as exc:  # noqa: BLE001 - any process failure aborts the run
        raise RunAbort(str(exc), tracer.build(cfg, objective)) from exc
    return tracer.build(cfg, objective)


# ---------------------------------------------------------------------------
# concurrent driver


# workers of the concurrent driver, whatever the host offers: under the GIL more
# workers do not step units in parallel, they only drift further apart
_WORKERS = 2


class _AsyncRun:
    """Owns the channels, threads, and failure handling of one concurrent run.

    W workers each step a contiguous block of units; two coordination loops
    turn the blocks' spike rows into activations, and their best rows into
    the global best and the neighbourhood tensor.
    """

    def __init__(self, built: _Built):
        self.built = built
        cfg = built.cfg
        n, d = cfg.n, cfg.dimension
        self.tracer = _Tracer(built)
        self.stop = threading.Event()
        self.done = threading.Event()
        self.errors: List[str] = []
        self._err_lock = threading.Lock()
        # blocks differ in size by at most one and keep hybrid specs interleaved
        workers = min(n, _WORKERS)
        self.blocks = [b.tolist() for b in np.array_split(np.arange(n), workers)]
        self._workers_left = workers

        self.spike_mailbox = Mailbox("spikes")
        self.best_mailbox = Mailbox("bests")
        self.A_bcast = Slot("A")
        # no unit is activated before the first contraction arrives
        self.A_bcast.put(np.zeros((n, d), dtype=bool))
        self.info_bcast = Slot("g, Pn")
        self.gbest = coordination.GlobalBest()

    # -- failure plumbing

    def fail(self, diagnostic: str) -> None:
        with self._err_lock:
            self.errors.append(diagnostic)
        self.stop.set()
        self.done.set()

    def _worker_finished(self) -> None:
        with self._err_lock:
            self._workers_left -= 1
            if self._workers_left == 0:
                self.done.set()

    # -- threads

    def worker_loop(self, w: int) -> None:
        """Sweep worker ``w``'s block of its private arrays once per step, then post its rows.

        Waiting for a fresher information broadcast before each sweep after the
        first paces the worker and leaves the coordination loops their share.
        """
        built = self.built
        n, d = built.cfg.n, built.cfg.dimension
        block = self.blocks[w]
        X = built.x0.copy()
        P = np.zeros((n, d))
        f = np.full(n, np.inf)
        S = np.zeros((n, d), dtype=bool)  # no spikes before the first step
        g = nm = a = None  # no core reads them at step 0
        try:
            info_version = 0
            for t in range(built.cfg.budget + 1):
                if t > 0:
                    (g, nm), info_version = self.info_bcast.get_fresh(info_version)
                A, _ = self.A_bcast.peek()
                _sweep(built, self.tracer, block, t, X, P, f, g, a, nm, S)
                a = A
                # indexing by the block's list copies its rows
                self.spike_mailbox.put(w, (S[block],))
                self.best_mailbox.put(w, (P[block], f[block]))
                if self.stop.is_set():
                    return
            self._worker_finished()
        except Closed:
            pass
        except Exception as exc:  # noqa: BLE001 - reported as run abort
            self.fail(str(exc) if isinstance(exc, _UnitFailure) else f"worker {w}: {exc!r}")

    def coordination_loop(self, mailbox: Mailbox, publish: Callable[..., None], where: str) -> None:
        """Keep every worker's latest block rows from ``mailbox``; once all have reported, publish."""
        # by worker, not by arrival: contiguous ascending blocks make worker order unit order
        latest: list = [None] * len(self.blocks)
        try:
            while not self.stop.is_set():
                for w, rows in mailbox.drain():
                    latest[w] = rows
                if None not in latest:
                    publish(*(np.concatenate(column) for column in zip(*latest)))
        except Closed:
            pass
        except Exception as exc:  # noqa: BLE001
            self.fail(f"{where}: {exc!r}")

    def publish_activations(self, S: np.ndarray) -> None:
        self.A_bcast.put(coordination.tensor_contract(self.built.spike_topology, S))

    def publish_information(self, P: np.ndarray, f: np.ndarray) -> None:
        """The global best and the neighbourhood tensor, from the same bests."""
        nm = coordination.neighbour_manager_step(self.built.info_topology, P)
        g, _ = coordination.high_level_selector_step(self.gbest, P, f)
        self.info_bcast.put((g, nm))

    # -- orchestration

    def execute(self, timeout_s: Optional[float]) -> RunTrace:
        # W workers plus two coordination loops, whatever n is
        jobs = [(self.worker_loop, (w,)) for w in range(len(self.blocks))] + [
            (self.coordination_loop, (self.spike_mailbox, self.publish_activations, "tensor contraction")),
            (self.coordination_loop, (self.best_mailbox, self.publish_information, "information exchange")),
        ]
        threads = [threading.Thread(target=fn, args=args, daemon=True) for fn, args in jobs]
        for th in threads:
            th.start()

        timed_out = not self.done.wait(timeout_s)
        self.stop.set()
        for channel in (self.A_bcast, self.info_bcast, self.spike_mailbox, self.best_mailbox):
            channel.close()
        for th in threads:
            th.join(timeout=5.0)

        trace = self.tracer.build(self.built.cfg, self.built.objective)
        if timed_out:
            raise RunAbort(f"concurrent run timed out after {timeout_s} s", trace)
        if self.errors:
            raise RunAbort("; ".join(self.errors), trace)
        return trace


# ---------------------------------------------------------------------------
# public entry points


def run(config: RunConfig, timeout_s: Optional[float] = None) -> RunTrace:
    """Execute a configured run and return its trace.

    ``timeout_s`` only applies to the concurrent mode; expiry aborts the run
    with the partial trace attached to the raised ``RunAbort``.
    """
    return _step(_build(config), timeout_s)


def _step(built: _Built, timeout_s: Optional[float] = None) -> RunTrace:
    """Step a built run to the end of its budget with its configured driver."""
    if built.cfg.mode == "det":
        return _run_deterministic(built)
    return _AsyncRun(built).execute(timeout_s)


@dataclass(frozen=True)
class PowerEstimate:
    """Per-step energy and average power under the event-cost model."""

    n_syn: int
    e_step_joules: float
    p_avg_watts: float


def estimate_power(n: int, d: int, m: int, dt_sim_s: float) -> PowerEstimate:
    """Upper-bound energy/power for one step of an n-unit, d-dimension run.

    Counts ``n (n-1) m d`` synaptic events plus one update-and-spike budget per
    unit, then averages the per-step energy over the simulation time step.
    """
    if n < 1 or d < 1 or m < 0 or dt_sim_s <= 0.0:
        raise ValueError("n, d must be >= 1, m >= 0, dt_sim_s > 0")
    n_syn = n * (n - 1) * m * d
    e_step = (_PJ_PER_SYNAPSE * n_syn + _PJ_PER_NEURON_STEP * n) * 1e-12
    return PowerEstimate(n_syn=n_syn, e_step_joules=e_step, p_avg_watts=e_step / dt_sim_s)


@dataclass
class ScalingCell:
    """Aggregated per-step-per-unit runtime for one (n, d) configuration."""

    n: int
    d: int
    samples_ms: List[float]

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.samples_ms))

    @property
    def std_ms(self) -> float:
        return float(np.std(self.samples_ms))

    @property
    def cv(self) -> float:
        mean = self.mean_ms
        return self.std_ms / mean if mean > 0 else np.inf


@dataclass
class ScalingResult:
    cells: List[ScalingCell]
    slope_vs_n: float
    slope_vs_d: float

    def as_rows(self) -> List[dict]:
        return [
            {
                "n": c.n,
                "d": c.d,
                "mean_ms": c.mean_ms,
                "std_ms": c.std_ms,
                "cv": c.cv,
            }
            for c in self.cells
        ]


def measure_scaling(configs: Sequence[RunConfig], repeats: int = 7) -> ScalingResult:
    """Time each configuration ``repeats`` times and fit runtime against n and d.

    The metric is mean wall-clock per step per unit, timing the stepping only:
    each run is built before its clock starts. Repeats are interleaved across
    configurations so slow machine phases spread evenly over cells.
    """
    if len(configs) < 2:
        raise ValueError("need at least two configurations to compare")
    cells = [ScalingCell(n=c.n, d=c.dimension, samples_ms=[]) for c in configs]
    for _ in range(repeats):
        for cfg, cell in zip(configs, cells):
            built = _build(cfg)
            t0 = time.perf_counter()
            trace = _step(built)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            cell.samples_ms.append(elapsed_ms / (trace.steps * cfg.n))
    means = np.array([c.mean_ms for c in cells])
    ns = np.array([c.n for c in cells], dtype=float)
    ds = np.array([c.d for c in cells], dtype=float)
    slope_n = float(np.polyfit(ns, means, 1)[0]) if np.unique(ns).size > 1 else 0.0
    slope_d = float(np.polyfit(ds, means, 1)[0]) if np.unique(ds).size > 1 else 0.0
    return ScalingResult(cells=cells, slope_vs_n=slope_n, slope_vs_d=slope_d)
