"""Encoding round-trips and reference-point arithmetic."""

import numpy as np
import pytest

from spikeopt.transform import (
    SELF_GLOBAL_AVERAGE,
    SELF_GLOBAL_NEIGHBOUR_AVERAGE,
    TransformParams,
    compute_xref,
    decode,
    encode,
)


def params(gain=1.0, d=1):
    return TransformParams(gain=gain, retained_noise=np.zeros(d))


class TestEncode:
    def test_direct_substitution(self):
        v = encode(0.5, 0.0, params(), 0.25)
        assert np.allclose(v, [0.5, -0.5])

    def test_centring(self):
        v = encode(1.7, 1.7, params(), 0.9)
        assert v[0] == 0.0

    def test_gain_two_example(self):
        v = encode(1.5, 1.0, params(gain=2.0), 0.5)
        assert np.allclose(v, [1.0, 1.0])

    def test_affine_with_slope_gain(self, rng):
        for gain in (0.5, 1.0, 2.0, 10.0):
            p = params(gain=gain)
            x, x_ref, r = rng.uniform(-5, 5, size=3)
            delta = 0.37
            v0 = encode(x, x_ref, p, r)
            v1 = encode(x + delta, x_ref, p, r)
            assert v1[0] - v0[0] == pytest.approx(gain * delta, rel=1e-12)
            assert v1[1] == v0[1]

    def test_vectorised_matches_scalar(self, rng):
        p = params(gain=1.5)
        x = rng.uniform(-5, 5, size=4)
        x_ref = rng.uniform(-5, 5, size=4)
        r = rng.uniform(size=4)
        batch = encode(x, x_ref, p, r)
        assert batch.shape == (4, 2)
        for j in range(4):
            assert np.array_equal(batch[j], encode(x[j], x_ref[j], p, r[j]))


class TestDecode:
    def test_round_trip(self, rng):
        for gain in (0.5, 1.0, 2.0, 10.0):
            p = params(gain=gain)
            for _ in range(100):
                x, x_ref = rng.uniform(-5, 5, size=2)
                r = rng.uniform()
                back = decode(encode(x, x_ref, p, r), x_ref, p)
                assert abs(back - x) <= 4 * np.finfo(float).eps * max(1.0, abs(x))

    def test_zero_first_component_decodes_to_reference(self):
        assert decode(np.array([0.0, 0.7]), 3.25, params()) == 3.25

    def test_inverse_of_gain_two_example(self):
        assert decode(np.array([1.0, 1.0]), 1.0, params(gain=2.0)) == 1.5


class TestReferencePoint:
    def test_self_global_mean(self):
        x_ref = compute_xref(
            SELF_GLOBAL_AVERAGE, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            weights=np.array([0.5, 0.5]),
        )
        assert np.allclose(x_ref, [0.5, 0.5])

    def test_fixed_point_when_bests_agree(self, rng):
        p = np.array([2.0, 2.0])
        w = rng.uniform(0.1, 1.0, size=2)
        w = w / w.sum()
        assert np.allclose(compute_xref(SELF_GLOBAL_AVERAGE, p, p, weights=w), p)

    def test_neighbour_average_thirds(self):
        x_ref = compute_xref(
            SELF_GLOBAL_NEIGHBOUR_AVERAGE,
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            neighbours=np.array([[1.0, 1.0]]),
        )
        assert np.allclose(x_ref, [2.0 / 3.0, 2.0 / 3.0])

    def test_uniform_weights_default(self):
        p, g = np.array([4.0]), np.array([0.0])
        assert compute_xref(SELF_GLOBAL_AVERAGE, p, g)[0] == 2.0

    def test_convex_hull_containment(self, rng):
        for _ in range(50):
            p = rng.uniform(-5, 5, size=3)
            g = rng.uniform(-5, 5, size=3)
            nbs = rng.uniform(-5, 5, size=(4, 3))
            w = rng.uniform(0.01, 1.0, size=6)
            w = w / w.sum()
            x_ref = compute_xref(SELF_GLOBAL_NEIGHBOUR_AVERAGE, p, g, nbs, w)
            stackmin = np.min(np.vstack((p, g, nbs)), axis=0)
            stackmax = np.max(np.vstack((p, g, nbs)), axis=0)
            assert np.all(x_ref >= stackmin - 1e-12)
            assert np.all(x_ref <= stackmax + 1e-12)

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            compute_xref(
                SELF_GLOBAL_AVERAGE, np.zeros(2), np.zeros(2),
                weights=np.array([0.3, 0.3, 0.4]),
            )


class TestParams:
    def test_gain_must_be_positive(self):
        with pytest.raises(ValueError):
            TransformParams(gain=0.0)

    def test_retained_noise_range(self):
        with pytest.raises(ValueError):
            TransformParams(retained_noise=np.array([0.2, 1.0]))

    def test_weights_must_normalise(self):
        with pytest.raises(ValueError):
            TransformParams(weights=np.array([0.6, 0.6]))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            TransformParams(reference_strategy="nearest")
