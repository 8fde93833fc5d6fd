"""Spiking core, selector, and peripheral step behaviour."""

import warnings

import numpy as np
import pytest

from spikeopt.dynamics import LinearModel, rk4_step
from spikeopt.heuristics import SpikeCondition, SpikeRule, ThresholdRule, phi_s, step_variates
from spikeopt.problem import default_domain, make_benchmark, clip
from spikeopt.transform import TransformParams, compute_xref, decode, encode
from spikeopt.runtime import RunConfig, UnitSpec, _build
from spikeopt.unit import (
    UnitAbortError,
    UnitParams,
    receiver_step,
    selector_step,
    sender_step,
    spiking_core_step,
    spiking_handler_step,
)

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def make_params(
    model=None,
    condition=None,
    threshold_rule=None,
    rule=None,
    alpha=1.0,
    integrator="rk4",
    dt=0.01,
    noise=(0.25, 0.75),
):
    return UnitParams(
        model=model if model is not None else LinearModel(A=ROTATION),
        integrator=integrator,
        dt=dt,
        transform=TransformParams(gain=alpha, retained_noise=np.asarray(noise, dtype=float)),
        threshold_rule=threshold_rule
        if threshold_rule is not None
        else ThresholdRule("fixed", 1e9),
        condition=condition if condition is not None else SpikeCondition("abs_threshold"),
        rule=rule if rule is not None else SpikeRule("fixed_reset", sigma=0.0),
    )


def core_step(params, x=(1.0, -2.0), p=(0.5, 0.5), g=None, a=None, P_n=None, t=0, variates=None):
    """One core step; ``variates`` of ``None`` draws a block seeded by ``t``."""
    x = np.asarray(x, dtype=float)
    a = np.zeros(x.size, dtype=bool) if a is None else np.asarray(a, dtype=bool)
    if variates is None:
        variates = step_variates(np.random.default_rng(t), x.size)
    return spiking_core_step(
        params, default_domain(x.size), t, x, np.asarray(p, dtype=float), g, a, P_n, *variates
    )


class TestSpikingCore:
    def test_frozen_dynamics_keeps_position(self):
        params = make_params(model=LinearModel(A=np.zeros((2, 2))))
        step = core_step(params, x=(1.0, -2.0))
        assert not step.s.any()
        assert np.array_equal(step.x, [1.0, -2.0])

    def test_forced_activation_reset_returns_to_best(self):
        params = make_params(rule=SpikeRule("fixed_reset", sigma=0.0))
        step = core_step(params, x=(1.0, -2.0), p=(0.5, 0.5), a=(True, True))
        assert not step.s.any()  # self condition never met; jump came from activation
        assert np.array_equal(step.x, [0.5, 0.5])

    def test_one_step_matches_transform_plus_integrator(self):
        x = np.array([1.0, -2.0])
        p = np.array([0.5, 0.5])
        g = np.array([-0.5, 1.5])
        params = make_params(alpha=2.0)
        domain = default_domain(2)

        x_ref = compute_xref("self_global_average", p, g)
        v = encode(x, x_ref, params.transform, params.transform.retained_noise)
        expected = clip(
            domain,
            decode(rk4_step(params.model, v, 0.01), x_ref, params.transform),
        )

        step = core_step(params, x=x, p=p, g=g)
        assert np.array_equal(step.x, expected)
        assert np.array_equal(step.v_pre, v)

    def test_missing_global_best_falls_back_to_own(self):
        params = make_params(rule=SpikeRule("fixed_reset", sigma=0.0))
        step = core_step(params, x=(0.5, 0.5), p=(0.5, 0.5), a=(True, True))
        # x_ref collapses to p, so the reset lands exactly on p
        assert np.array_equal(step.x, [0.5, 0.5])

    def test_emitted_positions_respect_bounds(self, rng):
        domain = default_domain(2)
        params = make_params(
            rule=SpikeRule("random_reset"),
            condition=SpikeCondition("abs_threshold"),
            threshold_rule=ThresholdRule("fixed", 1e-6),
            alpha=0.05,  # wide decoding swing to provoke clipping
        )
        x = np.array([4.9, -4.9])
        for t in range(50):
            x = core_step(params, x=x, p=(4.5, -4.5), t=t).x
            assert np.all(x >= domain.lower) and np.all(x <= domain.upper)

    def test_spike_vector_replays_from_pre_state(self, rng):
        params = make_params(
            condition=SpikeCondition("shrinking_ball", epsilon_spk=3.0),
            rule=SpikeRule("fixed_reset", sigma=0.2),
        )
        x = np.array([2.0, -1.0])
        for t in range(20):
            step = core_step(params, x=x, p=(0.4, 0.1), t=t)
            replay = phi_s(params.condition, step.v_pre, t, step.theta, params.model_trace)
            assert np.array_equal(step.s, np.asarray(replay, dtype=bool))
            x = step.x

    def test_step_counter_advances(self):
        # the step index reaches the condition: the shrinking ball that holds
        # this state at step 0 has shrunk past it by step 9
        params = make_params(condition=SpikeCondition("shrinking_ball", epsilon_spk=5.0))
        assert core_step(params, x=(1.0, 1.0), p=(1.0, 1.0), t=0).s.all()
        assert not core_step(params, x=(1.0, 1.0), p=(1.0, 1.0), t=9).s.any()

    def test_fallbacks_counted_per_firing_dimension(self):
        params = make_params(rule=SpikeRule("de_rand", F=0.5))
        P_n = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        # dimension 0 has one distinct neighbour value and falls back, dimension 1 has three
        step = core_step(params, a=(True, True), P_n=P_n, g=np.zeros(2))
        assert step.fallbacks == 1

    def test_dimension_permutation_symmetry(self):
        x = np.array([1.2, -3.4])
        p = np.array([0.3, 0.9])
        g = np.array([-1.0, 2.0])
        noise = np.array([0.2, 0.6])
        a = np.array([True, False])
        P_n = np.array([[0.5, -0.5], [2.5, 1.5], [-2.0, 0.25]])
        z, u = step_variates(np.random.default_rng(101), 2)
        swap = np.array([1, 0])

        def step(order):
            params = make_params(
                condition=SpikeCondition("weighted_minkowski", q=2.0),
                threshold_rule=ThresholdRule("global_self_gap", 0.8),
                rule=SpikeRule("de_rand", F=0.5),
                noise=noise[order],
            )
            return core_step(
                params, x=x[order], p=p[order], g=g[order], a=a[order], P_n=P_n[:, order],
                variates=(z[order], u[order]),
            )

        fwd = step(np.array([0, 1]))
        rev = step(swap)
        assert fwd.fallbacks == 0  # the activated dimension takes a de_rand jump
        assert np.array_equal(rev.s, fwd.s[swap])
        assert np.array_equal(rev.x, fwd.x[swap])

    def test_nonfinite_state_aborts(self):
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            params = make_params(
                model=LinearModel(A=np.full((2, 2), 1e308)),
                integrator="euler",
                dt=1.0,
            )
            with pytest.raises(UnitAbortError):
                x = np.array([1.0, 1.0])
                for t in range(10):
                    x = core_step(params, x=x, p=(1.0, 1.0), t=t).x


class TestSelector:
    def test_first_call_always_accepts(self):
        f = make_benchmark("sphere", 2, shift=np.zeros(2))
        p, f_p = selector_step(np.array([3.0, 4.0]), None, np.inf, f)
        assert f_p == 25.0 and np.array_equal(p, [3.0, 4.0])
        # no best yet: even a non-finite value is kept
        _, f_p = selector_step(np.array([np.inf, 0.0]), None, np.inf, f)
        assert f_p == np.inf

    def test_exact_tie_is_rejected(self):
        f = make_benchmark("sphere", 2, shift=np.zeros(2))
        p, f_p = selector_step(np.array([3.0, 4.0]), None, np.inf, f)
        p, f_p = selector_step(np.array([4.0, 3.0]), p, f_p, f)  # also 25
        assert f_p == 25.0 and np.array_equal(p, [3.0, 4.0])

    def test_improvement_accepted(self):
        f = make_benchmark("sphere", 2, shift=np.zeros(2))
        p, f_p = selector_step(np.array([1.0, 1.0]), None, np.inf, f)
        p, f_p = selector_step(np.array([1.0, 0.0]), p, f_p, f)
        assert f_p == 1.0 and np.array_equal(p, [1.0, 0.0])

    def test_best_fitness_never_increases(self, rng):
        f = make_benchmark("rastrigin", 3, seed=4)
        p, f_p = None, np.inf
        history = []
        for _ in range(100):
            p, f_p = selector_step(rng.uniform(-5, 5, size=3), p, f_p, f)
            history.append(f_p)
        assert np.all(np.diff(history) <= 0.0)

    def test_one_evaluation_per_step(self):
        f = make_benchmark("sphere", 2, shift=np.zeros(2))
        p, f_p = None, np.inf
        for k in range(5):
            p, f_p = selector_step(np.array([1.0, float(k)]), p, f_p, f)
        assert f.evaluation_count == 5


class TestHandler:
    def test_activation_extraction(self):
        A = np.zeros((3, 2), dtype=bool)
        _, a = spiking_handler_step(1, np.zeros(2, dtype=bool), A)
        assert not a.any()
        A[1] = True
        _, a = spiking_handler_step(1, np.zeros(2, dtype=bool), A)
        assert a.all()

    def test_row_update_encoding(self):
        row, _ = spiking_handler_step(2, np.array([True, False]), np.zeros((3, 2), dtype=bool))
        assert row[0] == 2 and np.array_equal(row[1], [True, False])

    def test_shape_mismatch_is_hard_error(self):
        with pytest.raises(IndexError):
            spiking_handler_step(5, np.zeros(2, dtype=bool), np.zeros((3, 2), dtype=bool))


class TestSender:
    @pytest.mark.parametrize("unit_id", [0, 1, 2])
    def test_identity_placement(self, unit_id):
        sender, (p, f_p) = sender_step(unit_id, np.array([1.0, 2.0]), 0.25)
        assert sender == unit_id and np.array_equal(p, [1.0, 2.0]) and f_p == 0.25


class TestReceiver:
    def test_zero_tensor(self):
        assert not receiver_step(0, np.zeros((2, 2, 3))).any()

    def test_known_slice_roundtrip(self, rng):
        M = rng.uniform(size=(4, 2))
        tensor = np.zeros((4, 2, 3))
        tensor[:, :, 1] = M
        assert np.array_equal(receiver_step(1, tensor), M)

    def test_brute_force_index_check(self, rng):
        n, m, d = 2, 1, 3
        tensor = rng.uniform(size=(m, d, n))
        for i in range(n):
            P_n = receiver_step(i, tensor)
            for slot in range(m):
                for j in range(d):
                    assert P_n[slot, j] == tensor[slot, j, i]

    def test_shape_mismatch_is_hard_error(self):
        with pytest.raises(IndexError):
            receiver_step(3, np.zeros((2, 2, 3)))


class TestInitState:
    def test_initial_position_in_bounds_and_seeded(self):
        cfg = RunConfig(dimension=4, n=5, seed=9, info_m=2)
        a, b = _build(cfg), _build(cfg)
        domain = default_domain(4)
        assert np.array_equal(a.x0, b.x0)
        assert np.all((a.x0 >= domain.lower) & (a.x0 <= domain.upper))
        assert np.unique(a.x0[:, 0]).size == cfg.n
        for ua, ub in zip(a.units, b.units):
            noise = ua.transform.retained_noise
            assert np.array_equal(noise, ub.transform.retained_noise)
            assert noise.shape == (4,) and np.all((noise >= 0) & (noise < 1))

    def test_spec_objects_shared_by_units(self):
        cfg = RunConfig(n=4, info_m=2, units=[UnitSpec(), UnitSpec(model="izhikevich")])
        units = _build(cfg).units
        assert units[0].rule is units[2].rule and units[1].rule is units[3].rule
        assert units[0].condition is units[2].condition
        assert units[0].threshold_rule is units[2].threshold_rule
        assert units[0].rule is not units[1].rule
        assert units[0].transform is not units[2].transform
