"""Correctness checks on one run's outputs, computed apart from the program.

Every check raises ``CheckFailed`` with a message naming what disagreed. The
checks rest on properties the method must have (greedy selection, an
evaluation per unit and step, a non-negative error against a zero optimum)
or on the benchmark's own re-computation of objective values and firing
decisions from a full-state trace. None compares against stored output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional

import numpy as np

BOX = (-5.0, 5.0)


class CheckFailed(Exception):
    """The program's output violates a property the method guarantees."""


def _fail_if(bad, message: str) -> None:
    if bad:
        raise CheckFailed(message)


def check_evaluations(trace, n: int, budget: int) -> None:
    expected = n * (budget + 1)
    _fail_if(
        trace.evaluations != expected,
        f"evaluations {trace.evaluations} != n*(budget+1) = {expected}",
    )
    _fail_if(trace.steps != budget, f"trace has {trace.steps} steps, budget is {budget}")


def check_monotone(trace) -> None:
    ub = np.asarray(trace.unit_best)
    _fail_if(np.isnan(ub).any(), "unit_best holds unrecorded (nan) entries")
    rises = np.flatnonzero(np.diff(trace.f_g) > 0.0)
    _fail_if(rises.size, f"global best increased at step {rises[:1] + 1}")
    steps, units = np.nonzero(np.diff(ub, axis=0) > 0.0)
    _fail_if(steps.size, f"unit {units[:1]} best increased at step {steps[:1] + 1}")


def check_global_is_min_of_units(trace) -> None:
    expected = np.minimum.accumulate(np.min(trace.unit_best, axis=1))
    bad = np.flatnonzero(expected != trace.f_g)
    _fail_if(bad.size, f"f_g[t] != min(unit_best[:t+1]) at steps {bad[:5]}")


def check_eps_nonnegative(trace) -> None:
    eps = np.asarray(trace.eps_f)
    bad = np.flatnonzero(~(eps >= 0.0))
    _fail_if(bad.size, f"eps_f < 0 (or nan) at steps {bad[:5]}: {eps[bad[:5]]}")


def check_reaches(trace, target_eps: float) -> None:
    _fail_if(
        not np.min(trace.eps_f) <= target_eps,
        f"eps_f never reached {target_eps:g} (final {trace.final_eps:g})",
    )


def check_same_f_g(a: np.ndarray, b: np.ndarray) -> None:
    """Two det runs with equal seeds give identical ``f_g`` (over the shared prefix)."""
    k = min(a.size, b.size)
    bad = np.flatnonzero(a[:k] != b[:k])
    _fail_if(bad.size, f"equal-seed det runs differ in f_g from step {bad[:1]}")


def check_written_files(trace, config_echo: dict, out_dir: Path) -> None:
    """``trace.csv``, ``spikes.csv`` and ``summary.json`` agree with the run."""
    with open(out_dir / "trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _fail_if(len(rows) != trace.steps + 1, f"trace.csv has {len(rows)} rows")
    f_g = np.array([float(r["f_g"]) for r in rows])
    eps = np.array([float(r["eps_f"]) for r in rows])
    spikes_total = np.array([int(r["spikes_total"]) for r in rows])
    _fail_if(np.any(f_g != trace.f_g), "trace.csv f_g differs from the run")
    _fail_if(np.any(eps != trace.eps_f), "trace.csv eps_f differs from the run")
    _fail_if(
        np.any(spikes_total != trace.spikes.sum(axis=1)),
        "trace.csv spikes_total differs from the run",
    )

    with open(out_dir / "spikes.csv", newline="", encoding="utf-8") as fh:
        spikes = np.array([[int(c) for c in row[1:]] for row in list(csv.reader(fh))[1:]])
    _fail_if(
        spikes.shape != trace.spikes.shape or np.any(spikes != trace.spikes),
        "spikes.csv differs from the run",
    )

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    _fail_if(summary["evaluations"] != trace.evaluations, "summary.json evaluations differ")
    _fail_if(summary["steps"] != trace.steps, "summary.json steps differ")
    _fail_if(summary["final_eps"] != trace.final_eps, "summary.json final_eps differs")
    _fail_if(summary["config"] != config_echo, "summary.json does not echo the config")


# -- full-state replays ------------------------------------------------------


def objective_values(name: str, x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The benchmark's own sphere and rastrigin, over the last axis of ``x``."""
    z = x - shift
    if name == "sphere":
        return np.sum(z * z, axis=-1)
    if name == "rastrigin":
        d = z.shape[-1]
        return 10.0 * (d - np.sum(np.cos(2.0 * np.pi * z), axis=-1)) + np.sum(z * z, axis=-1)
    raise ValueError(f"no independent formula for {name!r}")


def check_positions_in_box(snapshots) -> None:
    x = snapshots.x
    _fail_if(np.isnan(x).any(), "full-state trace misses positions")
    lo, hi = BOX
    bad = np.argwhere((x < lo) | (x > hi))
    _fail_if(bad.size, f"positions outside [{lo}, {hi}]^d at (step, unit, dim) {bad[:3].tolist()}")


def check_unit_best_replay(trace, problem: str, shift: np.ndarray) -> None:
    """``unit_best[t, i]`` is the running minimum of f over unit i's positions."""
    f = objective_values(problem, trace.snapshots.x, shift)  # (budget+1, n)
    expected = np.minimum.accumulate(f, axis=0)
    ok = np.isclose(trace.unit_best, expected, rtol=1e-12, atol=0.0)
    bad = np.argwhere(~ok)
    _fail_if(
        bad.size,
        f"unit_best differs from the replayed running minimum at (step, unit) "
        f"{bad[:3].tolist()}",
    )


def _self_spikes(spec: dict, v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    spike = spec.get("spike", {})
    condition = spike.get("condition", "weighted_minkowski")
    params = spike.get("condition_params", {})
    if condition == "abs_threshold":
        return np.abs(v[..., 0]) >= theta
    if condition == "weighted_minkowski" and float(params.get("q", 2.0)) == 2.0:
        w = np.asarray(params.get("weights", [2.0**-0.5, 2.0**-0.5]), dtype=float)
        wv = w * v
        return np.sqrt(wv[..., 0] ** 2 + wv[..., 1] ** 2) > theta
    raise ValueError(f"no independent predicate for condition {condition!r} {params}")


def check_spike_replay(snapshots, cfg_dict: dict) -> None:
    """Each recorded self-spike equals the predicate on the pre-step state."""
    units = cfg_dict["units"] if "units" in cfg_dict else [cfg_dict["unit"]]
    n = snapshots.s.shape[1]
    for i in range(n):
        v = snapshots.v_pre[1:, i]
        theta = snapshots.theta[1:, i]
        _fail_if(np.isnan(v).any() or np.isnan(theta).any(), f"unit {i}: missing pre-step state")
        expected = _self_spikes(units[i % len(units)], v, theta)
        bad = np.argwhere(expected != snapshots.s[1:, i])
        _fail_if(
            bad.size,
            f"unit {i}: recorded self-spikes disagree with the predicate at "
            f"(step, dim) {(bad[:3] + [1, 0]).tolist()}",
        )


def check_run(trace, cfg_dict: dict, target_eps: Optional[float]) -> None:
    """The checks every run gets, whatever its log level."""
    check_evaluations(trace, cfg_dict["n"], cfg_dict["budget"])
    check_monotone(trace)
    check_global_is_min_of_units(trace)
    check_eps_nonnegative(trace)
    if target_eps is not None:
        check_reaches(trace, target_eps)


def check_full_state(trace, cfg_dict: dict, shift: np.ndarray) -> None:
    """The replays that need ``log: full-state``."""
    check_positions_in_box(trace.snapshots)
    check_unit_best_replay(trace, cfg_dict["problem"]["name"], shift)
    check_spike_replay(trace.snapshots, cfg_dict)
