"""Run drivers, trace contracts, the energy model, and scaling measurement."""

import copy
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import CONFIG_DIR, assert_trace_monotone, load_config
from spikeopt.heuristics import phi_s, SpikeCondition, step_variates
from spikeopt.problem import default_domain
from spikeopt.runtime import (
    ConfigError,
    RunAbort,
    RunConfig,
    UnitSpec,
    estimate_power,
    measure_scaling,
    run,
)


def small_config(**overrides) -> RunConfig:
    base = dict(
        problem_name="sphere",
        dimension=2,
        n=4,
        budget=20,
        seed=5,
        mode="det",
        info_m=2,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestDeterministicRuns:
    def test_budget_one_smoke(self):
        trace = run(small_config(n=3, budget=1))
        assert trace.steps == 1
        assert trace.f_g.shape == (2,)
        assert np.isfinite(trace.final_f_g)
        assert trace.evaluations == 3 * 2

    def test_trace_row_count_is_budget_plus_one(self):
        trace = run(small_config(budget=13))
        assert trace.f_g.shape == (14,)
        assert trace.spikes.shape == (14, 4)

    def test_wall_ms_is_mean_core_time(self):
        # as in async: no core steps at step 0, a positive mean at every later step
        trace = run(small_config(budget=6))
        assert trace.wall_ms.shape == (7,)
        assert trace.wall_ms[0] == 0.0
        assert np.all(trace.wall_ms[1:] > 0.0)

    def test_identical_seeds_give_identical_traces(self):
        a = run(small_config(problem_name="rastrigin", budget=40))
        b = run(small_config(problem_name="rastrigin", budget=40))
        assert np.array_equal(a.f_g, b.f_g)
        assert np.array_equal(a.eps_f, b.eps_f)
        assert np.array_equal(a.unit_best, b.unit_best)
        assert np.array_equal(a.spikes, b.spikes)
        assert a.evaluations == b.evaluations

    def test_different_seeds_differ(self):
        a = run(small_config(seed=1, budget=30))
        b = run(small_config(seed=2, budget=30))
        assert not np.array_equal(a.f_g, b.f_g)

    def test_monotone_and_error_floor(self):
        trace = run(small_config(budget=60))
        assert_trace_monotone(trace)
        assert np.all(trace.eps_f >= -1e-12)

    def test_evaluation_accounting(self):
        cfg = small_config(budget=25)
        trace = run(cfg)
        assert trace.evaluations == cfg.n * (cfg.budget + 1)

    @pytest.mark.parametrize("model", ["linear", "izhikevich", "lif"])
    def test_all_core_models_run(self, model):
        cfg = small_config(units=[UnitSpec(model=model)], budget=15)
        trace = run(cfg)
        assert np.isfinite(trace.final_f_g)
        assert_trace_monotone(trace)

    @pytest.mark.parametrize(
        "condition,params",
        [
            ("abs_threshold", {}),
            ("weighted_minkowski", {"q": 2.0}),
            ("shrinking_ball", {"epsilon_spk": 2.0}),
            ("disc", {"theta_attractor": 0.5, "theta_repeller": 1.5}),
        ],
    )
    def test_all_conditions_run(self, condition, params):
        cfg = small_config(
            units=[UnitSpec(condition=condition, condition_params=params)], budget=15
        )
        trace = run(cfg)
        assert_trace_monotone(trace)

    @pytest.mark.parametrize(
        "rule,params",
        [
            ("random_reset", {}),
            ("fixed_reset", {"sigma": 0.1}),
            ("directional", {"alpha_d": 0.7, "sigma": 0.05, "target": "blend"}),
            ("de_current_to_best", {"F": 0.6}),
            ("de_rand", {"F": 0.5, "p_cr": 0.4}),
        ],
    )
    def test_all_rules_run(self, rule, params):
        cfg = small_config(units=[UnitSpec(rule=rule, rule_params=params)], budget=15)
        trace = run(cfg)
        assert_trace_monotone(trace)

    def test_hybrid_population_cycles_specs(self):
        cfg = small_config(
            units=[UnitSpec(model="linear"), UnitSpec(model="izhikevich")], budget=10
        )
        trace = run(cfg)
        assert_trace_monotone(trace)

    def test_spike_counts_bounded_by_dimension(self):
        trace = run(small_config(budget=40))
        assert trace.spikes.max() <= 2

    def test_full_state_replay_of_spike_decisions(self):
        cfg = small_config(budget=25, log="full-state")
        trace = run(cfg)
        snaps = trace.snapshots
        assert snaps is not None
        cond = SpikeCondition("weighted_minkowski", q=2.0)
        n = cfg.n
        for t in range(1, trace.steps + 1):
            for i in range(n):
                expected = phi_s(
                    cond,
                    snaps.v_pre[t, i],
                    t - 1,
                    snaps.theta[t, i],
                    snaps.model_traces[i],
                )
                assert np.array_equal(snaps.s[t, i], np.asarray(expected, dtype=bool))

    def test_full_state_positions_in_bounds(self):
        trace = run(small_config(budget=20, log="full-state"))
        assert np.nanmax(np.abs(trace.snapshots.x)) <= 5.0

    def test_trace_bytes_do_not_depend_on_the_blas_kernel(self):
        # the scale-grid base runs linear cores around a neighbour-average
        # reference; a forced OpenBLAS kernel must not change a single bit.
        # Before the det path went BLAS-free, Nehalem and Sandybridge gave two
        # different digests, so on any host one of them differs from the default
        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from spikeopt import runtime\n"
            "data = json.loads(open(sys.argv[1]).read())['base']\n"
            "data.update(log='full-state')\n"
            "trace = runtime.run(runtime.RunConfig.from_dict(data))\n"
            "snaps, h = trace.snapshots, hashlib.sha256()\n"
            "for array in (trace.unit_best, snaps.x, snaps.v_pre, snaps.v_post, snaps.theta):\n"
            "    h.update(np.ascontiguousarray(array).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        config = str(CONFIG_DIR / "scale_grid.json")
        src = str(CONFIG_DIR.parent / "src")

        def digest(**env):
            env = {**os.environ, "PYTHONPATH": src, **env}
            proc = subprocess.run(
                [sys.executable, "-c", script, config],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            return proc.stdout.strip()

        default = digest()
        assert digest(OPENBLAS_CORETYPE="Nehalem") == default
        assert digest(OPENBLAS_CORETYPE="Sandybridge") == default


class TestConcurrentRuns:
    def test_smoke_and_monotone(self):
        trace = run(small_config(mode="async", budget=30), timeout_s=60)
        assert trace.steps == 30
        assert trace.evaluations == 4 * 31
        assert_trace_monotone(trace)

    @staticmethod
    def count_thread_starts(monkeypatch) -> list:
        started = []
        real_start = threading.Thread.start

        def counting_start(self):
            started.append(self)
            real_start(self)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        return started

    def test_thread_bound(self, monkeypatch):
        # W = min(n, 2) workers plus the contraction and information loops,
        # whatever n is; none outlives the run
        started = self.count_thread_starts(monkeypatch)
        for n in (4, 64):
            started.clear()
            cfg = small_config(mode="async", n=n, budget=20)
            run(cfg, timeout_s=60)
            assert len(started) == min(n, 2) + 2
            assert not any(th.is_alive() for th in started)

    def test_many_workers_lose_nothing(self, monkeypatch):
        # eight workers on however few cores, switching threads often: no
        # evaluation, best or step of any unit may be lost
        import spikeopt.runtime as rt

        monkeypatch.setattr(rt, "_WORKERS", 8)
        started = self.count_thread_starts(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            trace = run(small_config(mode="async", n=64, budget=5), timeout_s=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 8 + 2
        assert trace.evaluations == 64 * 6
        assert not np.isnan(trace.unit_best).any()
        assert_trace_monotone(trace)

    def test_uneven_blocks(self, monkeypatch):
        # three workers over four units: blocks of two, one and one
        import spikeopt.runtime as rt

        monkeypatch.setattr(rt, "_WORKERS", 3)
        started = self.count_thread_starts(monkeypatch)
        cfg = small_config(mode="async", budget=30)
        assert rt._AsyncRun(rt._build(cfg)).blocks == [[0, 1], [2], [3]]
        trace = run(cfg, timeout_s=60)
        assert len(started) == 3 + 2
        assert trace.steps == 30
        assert trace.evaluations == cfg.n * (cfg.budget + 1)
        assert_trace_monotone(trace)

    def test_final_no_worse_than_start(self):
        trace = run(small_config(mode="async", budget=50), timeout_s=60)
        assert trace.final_f_g <= trace.f_g[0]

    def test_timeout_aborts_with_partial_trace(self):
        cfg = small_config(mode="async", budget=200000)
        with pytest.raises(RunAbort) as info:
            run(cfg, timeout_s=0.3)
        assert info.value.trace is not None

    def test_actor_failure_aborts(self, monkeypatch):
        import spikeopt.runtime as rt

        real = rt.make_benchmark

        def flaky(name, dimension, seed=0, shift=None):
            f = real(name, dimension, seed=seed, shift=shift)
            inner = f.evaluator

            def evaluator(x, _count=[0]):
                _count[0] += 1
                if _count[0] > 10:
                    raise RuntimeError("objective exploded")
                return inner(x)

            f.evaluator = evaluator
            return f

        monkeypatch.setattr(rt, "make_benchmark", flaky)
        with pytest.raises(RunAbort) as info:
            run(small_config(mode="async", budget=50), timeout_s=30)
        assert "objective exploded" in info.value.diagnostic
        assert info.value.trace is not None

    def test_deterministic_driver_failure_aborts(self, monkeypatch):
        import spikeopt.runtime as rt

        real = rt.make_benchmark

        def flaky(name, dimension, seed=0, shift=None):
            f = real(name, dimension, seed=seed, shift=shift)

            def evaluator(x):
                raise RuntimeError("boom")

            f.evaluator = evaluator
            return f

        monkeypatch.setattr(rt, "make_benchmark", flaky)
        with pytest.raises(RunAbort) as info:
            run(small_config(budget=5))
        # the first selector to evaluate is unit 0's, and the abort names it
        assert info.value.diagnostic.startswith("unit 0: ")
        assert "boom" in info.value.diagnostic

    def test_deterministic_core_failure_names_its_unit(self, monkeypatch):
        import spikeopt.runtime as rt

        built = rt._build(small_config(budget=5))
        real = rt.unit.spiking_core_step

        def melting(params, *args):
            if params is built.units[2]:
                raise rt.unit.UnitAbortError("core melted")
            return real(params, *args)

        monkeypatch.setattr(rt.unit, "spiking_core_step", melting)
        with pytest.raises(RunAbort) as info:
            rt._step(built)
        assert info.value.diagnostic.startswith("unit 2: ")
        assert "core melted" in info.value.diagnostic


class TestConfig:
    def test_round_trip_homogeneous(self):
        cfg = small_config()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_hybrid(self):
        cfg = load_config("hybrid_full_2d.json")
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unit_dict_round_trip(self):
        spec = UnitSpec(model="izhikevich", rule="fixed_reset", rule_params={"sigma": 0.2})
        assert UnitSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "overrides",
        [
            {"problem_name": "nope"},
            {"mode": "sometimes"},
            {"budget": 0},
            {"n": 1},
            {"log": "chatty"},
            {"spike_topology": "torus"},
            {"info_m": None},
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    def test_ring_needs_three_units(self):
        with pytest.raises(ConfigError):
            run(small_config(n=2, spike_topology="ring"))

    def test_info_m_out_of_range(self):
        with pytest.raises(ConfigError):
            run(small_config(info_m=4))

    def test_disc_condition_requires_linear_core(self):
        cfg = small_config(
            units=[UnitSpec(model="izhikevich", condition="disc", condition_params={})]
        )
        with pytest.raises(ConfigError):
            run(cfg)

    def test_canonical_configs_parse(self):
        for name in (
            "linear_sphere_2d.json",
            "izhikevich_sphere_2d.json",
            "hybrid_full_2d.json",
            "smoke.json",
        ):
            cfg = load_config(name)
            assert cfg.n >= 3


class TestSeedDerivation:
    def test_same_seed_same_initial_population(self):
        a = run(small_config(budget=1))
        b = run(small_config(budget=1))
        assert np.array_equal(a.unit_best[0], b.unit_best[0])

    def test_units_get_distinct_streams(self):
        trace = run(small_config(budget=1))
        assert np.unique(trace.unit_best[0]).size > 1

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_unit_stream_is_not_the_topology_stream(self, seed):
        # a zero-padded key [seed, 3, 0] would replay the random_m stream [seed, 3]
        import spikeopt.runtime as rt

        cfg = small_config(n=8, seed=seed)
        domain = default_domain(cfg.dimension)
        topology_draws = np.random.default_rng([seed, 3]).random(cfg.dimension)
        x0 = rt._build(cfg).x0[3]
        assert not np.allclose(x0, domain.lower + domain.width * topology_draws)

    @pytest.mark.parametrize("mode", ["det", "async"])
    def test_each_core_step_draws_one_block(self, mode):
        # whatever fires, each unit's stream ends exactly `budget` blocks past
        # where the build left it
        import spikeopt.runtime as rt

        cfg = load_config("smoke.json", mode=mode)
        built = rt._build(cfg)
        replicas = copy.deepcopy(built.streams)
        trace = rt._step(built, timeout_s=60)
        assert trace.spikes[1:].any() and not trace.spikes[1:].all()
        for stream, replica in zip(built.streams, replicas):
            for _ in range(cfg.budget):
                step_variates(replica, cfg.dimension)
            assert stream.bit_generator.state == replica.bit_generator.state


class TestPowerModel:
    def test_worst_case_configuration(self):
        est = estimate_power(90, 40, 89, 0.5e-3)
        assert est.e_step_joules == pytest.approx(0.67e-3, rel=0.01)
        assert est.p_avg_watts == pytest.approx(1.35, rel=0.01)

    def test_single_unit_has_no_synapses(self):
        est = estimate_power(1, 10, 0, 0.5e-3)
        assert est.n_syn == 0
        assert est.e_step_joules == pytest.approx(89.7e-12)

    def test_hand_arithmetic_small_configuration(self):
        est = estimate_power(30, 2, 10, 0.5e-3)
        assert est.n_syn == 17_400
        assert est.e_step_joules == pytest.approx(413_331e-12)
        assert est.p_avg_watts == pytest.approx(0.826662e-3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            estimate_power(0, 2, 1, 0.5e-3)
        with pytest.raises(ValueError):
            estimate_power(2, 2, 1, 0.0)


class TestScaling:
    def _cfg(self, n, d):
        return small_config(
            n=n,
            dimension=d,
            budget=8,
            info_topology="full",
            info_m=None,
            spike_topology="full",
            log="summary",
        )

    def test_identical_configs_indistinguishable(self):
        result = measure_scaling([self._cfg(4, 2), self._cfg(4, 2)], repeats=3)
        a, b = result.cells
        spread = 3.0 * np.sqrt(a.std_ms**2 + b.std_ms**2) + 0.05 * max(a.mean_ms, b.mean_ms)
        assert abs(a.mean_ms - b.mean_ms) <= max(spread, 0.05)

    def test_runtime_grows_with_dimension(self):
        result = measure_scaling([self._cfg(4, 2), self._cfg(4, 24)], repeats=3)
        assert result.slope_vs_d > 0
        assert result.cells[0].mean_ms <= result.cells[1].mean_ms

    def test_needs_two_configs(self):
        with pytest.raises(ValueError):
            measure_scaling([self._cfg(4, 2)], repeats=2)

    def test_set_up_is_not_timed(self, monkeypatch):
        import spikeopt.runtime as rt

        real_build = rt._build

        def slow_build(cfg):
            time.sleep(0.2)
            return real_build(cfg)

        monkeypatch.setattr(rt, "_build", slow_build)
        result = measure_scaling([self._cfg(4, 2), self._cfg(4, 3)], repeats=1)
        for cell in result.cells:
            # whole stepping time of an 8-step run of 4 units, below the build's sleep
            assert cell.mean_ms * 4 * 8 < 200.0
