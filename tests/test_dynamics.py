"""Vector fields, integrator accuracy orders, and reset behaviour."""

import numpy as np
import pytest

from spikeopt.dynamics import (
    IzhikevichModel,
    LIFModel,
    LinearModel,
    euler_step,
    izhikevich_reset,
    random_linear_model,
    rk4_step,
    vector_field,
)
from spikeopt.runtime import ConfigError, RunConfig, UnitSpec, run

ROTATION = LinearModel(A=np.array([[0.0, 1.0], [-1.0, 0.0]]))


def integrate_to(model, v, t_end, dt, stepper=rk4_step):
    steps = int(t_end / dt)
    for _ in range(steps):
        v = stepper(model, v, dt)
    remainder = t_end - steps * dt
    if remainder > 1e-12:
        v = stepper(model, v, remainder)
    return v


class TestVectorField:
    def test_zero_matrix_gives_zero_field(self):
        model = LinearModel(A=np.zeros((2, 2)))
        assert np.array_equal(vector_field(model, np.array([3.0, -4.0])), [0.0, 0.0])

    def test_izhikevich_hand_value(self):
        model = IzhikevichModel(a=0.02, b=0.2, c=-65.0, d=8.0, i_syn=0.0)
        dv = vector_field(model, np.array([-65.0, -13.0]))
        assert np.allclose(dv, [-3.0, 0.0])

    def test_lif_equilibrium(self):
        model = LIFModel(tau_m=10.0, v_rest=-65.0, i_syn=0.0)
        dv = vector_field(model, np.array([-65.0, 0.0]))
        assert np.array_equal(dv, [0.0, 0.0])

    def test_lif_second_component_inert(self):
        model = LIFModel()
        dv = vector_field(model, np.array([[0.0, 5.0], [1.0, -2.0]]))
        assert np.all(dv[:, 1] == 0.0)

    def test_broadcasts_over_batches(self, rng):
        model = ROTATION
        batch = rng.uniform(-1, 1, size=(7, 2))
        out = vector_field(model, batch)
        for k in range(7):
            assert np.array_equal(out[k], vector_field(model, batch[k]))


class TestEuler:
    def test_frozen_field_keeps_state(self):
        model = LinearModel(A=np.zeros((2, 2)))
        v = np.array([1.2, -0.7])
        assert np.array_equal(euler_step(model, v, 0.5), v)

    def test_rotation_hand_step(self):
        v = euler_step(ROTATION, np.array([1.0, 0.0]), 0.01)
        assert np.allclose(v, [1.0, -0.01], atol=1e-15)

    def test_zero_dt_rejected(self):
        # the integrators trust dt; the unit's parameters reject it at build
        with pytest.raises(ConfigError):
            run(RunConfig(n=4, budget=1, info_m=2, units=[UnitSpec(dt=0.0)]))


class TestRK4:
    def test_frozen_field_keeps_state(self):
        model = LinearModel(A=np.zeros((2, 2)))
        v = np.array([0.3, 0.4])
        assert np.array_equal(rk4_step(model, v, 0.1), v)

    def test_period_return_within_tolerance(self):
        start = np.array([1.0, 0.0])
        v = integrate_to(ROTATION, start, 2.0 * np.pi, 0.01)
        assert np.linalg.norm(v - start) <= 1e-6

    def test_fourth_order_error_scaling(self):
        start = np.array([1.0, 0.0])
        err = {
            dt: np.linalg.norm(integrate_to(ROTATION, start, 2.0 * np.pi, dt) - start)
            for dt in (0.01, 0.005)
        }
        ratio = err[0.01] / err[0.005]
        assert 8.0 <= ratio <= 32.0

    def test_first_order_agreement_with_euler(self):
        v0 = np.array([1.0, 0.0])
        gap = {
            dt: np.linalg.norm(rk4_step(ROTATION, v0, dt) - euler_step(ROTATION, v0, dt))
            for dt in (0.01, 0.005)
        }
        ratio = gap[0.01] / gap[0.005]
        assert 3.0 <= ratio <= 5.0

    def test_contraction_decreases_norm_over_windows(self, rng):
        model = LinearModel(A=-np.eye(2))
        v = rng.uniform(-2, 2, size=2)
        norms = [np.linalg.norm(v)]
        for _ in range(300):
            v = rk4_step(model, v, 0.01)
            norms.append(np.linalg.norm(v))
        for k in range(len(norms) - 100):
            assert norms[k + 100] < norms[k]


class TestIzhikevichReset:
    def test_hand_value(self):
        model = IzhikevichModel(c=-65.0, d=8.0)
        assert np.array_equal(
            izhikevich_reset(model, np.array([35.0, -10.0])), [-65.0, -2.0]
        )

    def test_zero_d_preserves_recovery(self):
        model = IzhikevichModel(c=-60.0, d=0.0)
        out = izhikevich_reset(model, np.array([31.0, -12.5]))
        assert out[1] == -12.5

    def test_double_reset_accumulates(self):
        model = IzhikevichModel(c=-65.0, d=8.0)
        v = izhikevich_reset(model, izhikevich_reset(model, np.array([40.0, -10.0])))
        assert np.array_equal(v, [-65.0, 6.0])


class TestRegularSpiking:
    def _first_crossing(self, dt):
        model = IzhikevichModel(a=0.02, b=0.2, c=-65.0, d=8.0, i_syn=10.0)
        v = np.array([-65.0, -13.0])
        t = 0.0
        while t <= 50.0:
            if v[0] >= 30.0:
                return t
            v = rk4_step(model, v, dt)
            t += dt
        return None

    def test_threshold_crossing_matches_fine_reference(self):
        coarse = self._first_crossing(0.01)
        reference = self._first_crossing(0.001)
        assert coarse is not None and reference is not None
        assert abs(coarse - reference) < 0.5


class TestRandomLinearModel:
    def test_seeded_and_bounded(self):
        a = random_linear_model(np.random.default_rng(5))
        b = random_linear_model(np.random.default_rng(5))
        assert np.array_equal(a.A, b.A)
        assert np.all(np.abs(a.A) <= 2.0)

    @pytest.mark.parametrize(
        "stability,trace_sign,imag",
        [
            ("stable_node", -1, False),
            ("unstable_node", 1, False),
            ("stable_spiral", -1, True),
            ("unstable_spiral", 1, True),
            ("center", 0, True),
        ],
    )
    def test_stability_classes(self, stability, trace_sign, imag, rng):
        model = random_linear_model(rng, stability)
        eig = np.linalg.eigvals(model.A)
        if trace_sign:
            assert np.sign(model.trace) == trace_sign
        else:
            assert model.trace == 0.0
        assert np.any(np.abs(eig.imag) > 0) == imag

    def test_unknown_class_rejected(self, rng):
        with pytest.raises(ValueError):
            random_linear_model(rng, "saddle_point")
