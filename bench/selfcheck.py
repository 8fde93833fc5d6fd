"""Tests of the benchmark itself: every check can fail, and tracing leaves no trace.

Run from the root of a checkout with ``python3 -m pytest bench/selfcheck.py``.
Each check first passes on a real run, then fails on a copy of that run with
one field deliberately corrupted.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
from run import END_TO_END_UNITS, layer_unit, run_once  # noqa: E402
from workloads import BENCH_DIR, WORKLOADS, import_spikeopt, workload_config  # noqa: E402

sp = import_spikeopt()


def small_config(name: str, budget: int, log: str = "full-state") -> dict:
    data = workload_config(name, 3)
    data.update(budget=budget, log=log)
    if data["problem"]["dimension"] > 2:
        data.update(n=8)
        data["problem"]["dimension"] = 5
    return data


@pytest.fixture(scope="module")
def sphere_run(tmp_path_factory):
    data = small_config("det-linear-sphere-d2", budget=80)
    out = tmp_path_factory.mktemp("sphere")
    return data, run_once(sp, data, out), out


@pytest.fixture(scope="module")
def rastrigin_run(tmp_path_factory):
    data = small_config("det-hybrid-rastrigin-d40", budget=15)
    out = tmp_path_factory.mktemp("rastrigin")
    return data, run_once(sp, data, out), out


def shift_of(data: dict) -> np.ndarray:
    problem = data["problem"]
    return sp.problem.make_benchmark(
        problem["name"], problem["dimension"], seed=data["seed"]
    ).optimum_position


def corrupted(trace, **arrays):
    """A copy of ``trace`` with the named fields replaced."""
    return dataclasses.replace(trace, **arrays)


def corrupted_snapshots(trace, **arrays):
    return corrupted(trace, snapshots=dataclasses.replace(trace.snapshots, **arrays))


def test_checks_pass_on_real_runs(sphere_run, rastrigin_run):
    for data, sample, out in (sphere_run, rastrigin_run):
        target = 1e-6 if data["problem"]["name"] == "sphere" else None
        checks.check_run(sample.trace, data, target)
        checks.check_full_state(sample.trace, data, shift_of(data))
        checks.check_written_files(sample.trace, sample.trace.config, out)


def test_evaluation_count_can_fail(sphere_run):
    data, sample, _ = sphere_run
    with pytest.raises(checks.CheckFailed, match="evaluations"):
        checks.check_evaluations(
            corrupted(sample.trace, evaluations=sample.trace.evaluations - 1),
            data["n"],
            data["budget"],
        )


def test_monotone_global_best_can_fail(sphere_run):
    trace = sphere_run[1].trace
    f_g = trace.f_g.copy()
    f_g[-1] = f_g[0] + 1.0
    with pytest.raises(checks.CheckFailed, match="global best increased"):
        checks.check_monotone(corrupted(trace, f_g=f_g))


def test_monotone_unit_best_can_fail(sphere_run):
    trace = sphere_run[1].trace
    ub = trace.unit_best.copy()
    ub[5, 2] = ub[4, 2] + 1.0
    with pytest.raises(checks.CheckFailed, match="best increased"):
        checks.check_monotone(corrupted(trace, unit_best=ub))


def test_global_is_min_of_units_can_fail(sphere_run):
    trace = sphere_run[1].trace
    f_g = trace.f_g.copy()
    f_g[10:] = f_g[10:] * 0.5 - 1e-3
    with pytest.raises(checks.CheckFailed, match="min"):
        checks.check_global_is_min_of_units(corrupted(trace, f_g=f_g))


def test_eps_nonnegative_can_fail(sphere_run):
    trace = sphere_run[1].trace
    eps = trace.eps_f.copy()
    eps[-1] = -3.41e-13
    with pytest.raises(checks.CheckFailed, match="eps_f < 0"):
        checks.check_eps_nonnegative(corrupted(trace, eps_f=eps))


def test_sphere_target_can_fail(sphere_run):
    trace = sphere_run[1].trace
    with pytest.raises(checks.CheckFailed, match="never reached"):
        checks.check_reaches(corrupted(trace, eps_f=np.maximum(trace.eps_f, 1e-3)), 1e-6)


def test_equal_seed_f_g_can_fail(sphere_run):
    f_g = sphere_run[1].trace.f_g
    checks.check_same_f_g(f_g, f_g[:20].copy())
    other = f_g.copy()
    other[7] = np.nextafter(other[7], np.inf)
    with pytest.raises(checks.CheckFailed, match="differ"):
        checks.check_same_f_g(f_g, other)


def test_written_files_can_fail(sphere_run, tmp_path):
    _, sample, out = sphere_run
    for name in ("trace.csv", "spikes.csv", "summary.json"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    step, f_g, rest = lines[3].split(",", 2)
    lines[3] = ",".join([step, repr(float(f_g) * 2.0 + 1.0), rest])
    (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="trace.csv f_g"):
        checks.check_written_files(sample.trace, sample.trace.config, tmp_path)


def test_positions_in_box_can_fail(rastrigin_run):
    trace = rastrigin_run[1].trace
    x = trace.snapshots.x.copy()
    x[4, 1, 2] = 5.0 + 1e-9
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_positions_in_box(corrupted_snapshots(trace, x=x).snapshots)


@pytest.mark.parametrize("fixture", ["sphere_run", "rastrigin_run"])
def test_unit_best_replay_can_fail(fixture, request):
    data, sample, _ = request.getfixturevalue(fixture)
    trace = sample.trace
    x = trace.snapshots.x.copy()
    x[0, 0] += 0.5  # unit 0 started from another point than the one evaluated
    with pytest.raises(checks.CheckFailed, match="running minimum"):
        checks.check_unit_best_replay(
            corrupted_snapshots(trace, x=x), data["problem"]["name"], shift_of(data)
        )


@pytest.mark.parametrize("fixture", ["sphere_run", "rastrigin_run"])
def test_spike_replay_can_fail(fixture, request):
    data, sample, _ = request.getfixturevalue(fixture)
    snaps = sample.trace.snapshots
    s = snaps.s.copy()
    s[6, 1, 0] = ~s[6, 1, 0]
    with pytest.raises(checks.CheckFailed, match="self-spikes disagree"):
        checks.check_spike_replay(dataclasses.replace(snaps, s=s), data)


def wrapped_targets():
    targets = [(sp.unit, name) for name in layers.UNIT_FUNCTIONS]
    targets += [(sp.coordination, name) for name in layers.COORDINATION_FUNCTIONS]
    targets += [(cls, name) for cls, name, _ in layers._class_methods(sp)]
    targets += [(sp.runtime, "_build")]
    return targets


def test_traced_run_reports_every_layer_and_restores_all(tmp_path):
    before = {(id(owner), name): vars(owner)[name] for owner, name in wrapped_targets()}
    integrators = dict(sp.dynamics.INTEGRATORS)
    data = small_config("det-hybrid-rastrigin-d40", budget=5, log="trace")
    tracer = layers.LayerTracer()
    sample = run_once(sp, data, tmp_path, tracer)
    for owner, name in wrapped_targets():
        assert vars(owner)[name] is before[(id(owner), name)], name
    assert sp.dynamics.INTEGRATORS == integrators
    assert all(fn is integrators[k] for k, fn in sp.dynamics.INTEGRATORS.items())

    n, d, budget = data["n"], data["problem"]["dimension"], data["budget"]
    metrics = layers.layer_metrics(
        tracer, sample.step_s, n * d * budget, sample.trace.event_count,
        sample.write_s, sample.write_bytes,
    )
    assert metrics["unit.core_step.calls"] == n * budget
    assert metrics["problem.evaluate.calls"] == n * (budget + 1)
    # the selector's evaluation nests inside it; the core's children inside the core
    assert metrics["unit.selector_step.s"] >= metrics["problem.evaluate.s"]
    assert 0 < metrics["unit.core_step.self_s"] < metrics["unit.core_step.s"]
    assert metrics["dynamics.integrator.rows"] + metrics["heuristics.rule.calls"] == n * d * budget


def test_benchmark_json_names_every_reported_metric(tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    data = small_config("det-linear-sphere-d2", budget=5, log="trace")
    tracer = layers.LayerTracer()
    sample = run_once(sp, data, tmp_path, tracer)
    reported = layers.layer_metrics(tracer, sample.step_s, 10, 0, 0.0, 0)
    reported = {name: layer_unit(name) for name in [*reported, "trace.overhead_s"]}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported


def test_async_traced_run_reports_channels(tmp_path):
    data = workload_config("async-hybrid-sphere-d2", 3)
    data.update(n=4, budget=5)
    tracer = layers.LayerTracer()
    sample = run_once(sp, data, tmp_path, tracer)
    metrics = layers.layer_metrics(
        tracer, sample.step_s, 4 * 2 * 5, sample.trace.event_count,
        sample.write_s, sample.write_bytes,
    )
    assert metrics["unit.core_step.calls"] == 4 * 5
    assert metrics["channels.put.calls"] > 0
    assert metrics["channels.get_fresh.calls"] > 0
    assert metrics["channels.drain.calls"] > 0
    assert vars(sp.channels.Slot)["put"] is sp.channels.Slot.put
    assert not hasattr(sp.channels.Slot.put, "__wrapped__")


def test_benchmark_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "det-linear-sphere-d2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
