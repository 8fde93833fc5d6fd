"""Firing predicates, threshold schedules, and spike-triggered rules."""

import itertools

import numpy as np
import pytest

from spikeopt.heuristics import (
    SpikeCondition,
    SpikeRule,
    ThresholdRule,
    _donors,
    apply_spike_rule,
    phi_s,
    threshold,
)

# uniforms that pick donors (0, 1, 2) from any neighbourhood, then a crossover mask
FIRST_DONORS = (0.1, 0.1, 0.1)


def make_ctx(
    nb, z=(0.0, 0.0), u=FIRST_DONORS + (0.5, 0.5), v_self=(0.0, 0.0), v_glob=(0.0, 0.0),
    distinct_count=None,
):
    nb = np.asarray(nb, dtype=float)
    if distinct_count is None:
        distinct_count = np.unique(nb, axis=0).shape[0]
    return dict(
        v_self_best=np.asarray(v_self, dtype=float),
        v_global_best=np.asarray(v_glob, dtype=float),
        neighbour_best_states=nb,
        distinct_count=distinct_count,
        z=np.asarray(z, dtype=float),
        u=np.asarray(u, dtype=float),
    )


def random_variates(rng):
    return dict(z=rng.standard_normal(2), u=rng.random(5))


def spike(rule, v, ctx):
    out, fell_back = apply_spike_rule(rule, v, **ctx)
    assert not fell_back
    return out


class TestThreshold:
    def test_fixed(self):
        assert threshold(ThresholdRule("fixed", 30.0), 1.0, 2.0, 3.0) == 30.0

    def test_gap_collapses_when_bests_agree(self):
        rule = ThresholdRule("global_self_gap", 1.0)
        assert threshold(rule, 2.0, 2.0, 0.0) == 0.0

    def test_gap_substitution(self):
        rule = ThresholdRule("global_self_gap", 0.5)
        assert threshold(rule, 2.0, -1.0, 0.0) == 1.5

    def test_ref_gap(self):
        rule = ThresholdRule("ref_self_gap", 2.0)
        assert threshold(rule, 0.0, 1.0, 4.0) == 6.0

    def test_vectorised(self):
        rule = ThresholdRule("global_self_gap", 1.0)
        out = threshold(rule, np.array([1.0, 5.0]), np.array([0.0, 2.0]), np.zeros(2))
        assert np.array_equal(out, [1.0, 3.0])

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            ThresholdRule("fixed", 0.0)


class TestPhiS:
    def test_abs_threshold_boundary_inclusive(self):
        cond = SpikeCondition("abs_threshold")
        assert phi_s(cond, np.array([30.0, 0.0]), 0, 30.0) is True
        assert phi_s(cond, np.array([29.999, 0.0]), 0, 30.0) is False

    def test_minkowski_is_strict(self):
        cond = SpikeCondition("weighted_minkowski", q=2.0, weights=np.array([1.0, 0.0]))
        assert phi_s(cond, np.array([2.0, 5.0]), 0, 2.0) is False
        assert phi_s(cond, np.array([2.0 + 1e-9, 5.0]), 0, 2.0) is True

    def test_shrinking_ball_tightens_with_time(self):
        cond = SpikeCondition("shrinking_ball", epsilon_spk=1.0)
        v = np.array([0.5, 0.5])  # norm ~ 0.707
        assert phi_s(cond, v, 0, 0.0) is True
        assert phi_s(cond, v, 1, 0.0) is False

    def test_disc_attractor_and_repeller(self):
        cond = SpikeCondition("disc", theta_attractor=0.5, theta_repeller=1.5)
        v_in = np.array([0.3, 0.3])  # norm ~ 0.424
        assert phi_s(cond, v_in, 0, 0.0, model_trace=-2.0) is True
        assert phi_s(cond, v_in, 0, 0.0, model_trace=1.0) is False
        assert phi_s(cond, np.array([1.2, 1.2]), 0, 0.0, model_trace=1.0) is True

    def test_shrinking_threshold_never_unfires(self, rng):
        cond = SpikeCondition("abs_threshold")
        for _ in range(100):
            v = rng.uniform(-3, 3, size=2)
            big, small = 2.0, 0.5
            if phi_s(cond, v, 0, big):
                assert phi_s(cond, v, 0, small)

    def test_vectorised_over_dimensions(self):
        cond = SpikeCondition("abs_threshold")
        v = np.array([[0.5, 0.0], [3.0, 0.0]])
        out = phi_s(cond, v, 0, np.array([1.0, 1.0]))
        assert np.array_equal(out, [False, True])


class TestSpikeRules:
    def test_random_reset_draws_standard_normal(self):
        out = spike(SpikeRule("random_reset"), np.zeros(2), make_ctx(np.zeros((3, 2)), z=(0.3, -0.4)))
        assert np.array_equal(out, [0.3, -0.4])

    def test_fixed_reset_sigma_zero_hits_best_exactly(self):
        rule = SpikeRule("fixed_reset", sigma=0.0)
        ctx = make_ctx(np.zeros((3, 2)), z=(1.5, -2.5), v_self=(1.25, -0.5))
        assert np.array_equal(spike(rule, np.array([9.0, 9.0]), ctx), [1.25, -0.5])

    def test_noise_is_sigma_times_normals(self):
        ctx = make_ctx(np.zeros((3, 2)), z=(1.0, -2.0), v_self=(1.0, 1.0), v_glob=(3.0, 3.0))
        out = spike(SpikeRule("fixed_reset", sigma=0.25), np.zeros(2), ctx)
        assert np.array_equal(out, [1.25, 0.5])
        out = spike(SpikeRule("directional", alpha_d=0.5, sigma=0.25), np.zeros(2), ctx)
        assert np.array_equal(out, [1.75, 1.0])

    @pytest.mark.parametrize(
        "target,expected",
        [("self_best", [1.0, 2.0]), ("global_best", [3.0, 4.0]), ("blend", [2.0, 3.0])],
    )
    def test_directional_unit_step_reaches_target(self, target, expected):
        rule = SpikeRule("directional", alpha_d=1.0, sigma=0.0, target=target)
        ctx = make_ctx(np.zeros((3, 2)), v_self=(1.0, 2.0), v_glob=(3.0, 4.0))
        out = spike(rule, np.array([-7.0, 7.0]), ctx)
        assert np.allclose(out, expected)

    def test_de_current_to_best_hand_value(self):
        rule = SpikeRule("de_current_to_best", F=1.0)
        ctx = make_ctx([[2.0, 0.0], [0.0, 2.0]], v_glob=(1.0, 1.0))
        out = spike(rule, np.zeros(2), ctx)
        assert np.array_equal(out, [3.0, -1.0])

    def test_de_rand_hand_value(self):
        rule = SpikeRule("de_rand", F=0.5)
        ctx = make_ctx([[2.0, 0.0], [0.0, 2.0], [4.0, 4.0]])
        out = spike(rule, np.array([1.0, 1.0]), ctx)
        assert np.array_equal(out, [-0.5, -0.5])

    def test_de_rand_donors_follow_the_uniforms(self):
        # the last cell of each draw picks donors (2, 1, 0), the reverse order
        rule = SpikeRule("de_rand", F=0.5)
        ctx = make_ctx([[2.0, 0.0], [0.0, 2.0], [4.0, 4.0]], u=(0.9, 0.9, 0.9, 0.5, 0.5))
        out = spike(rule, np.array([1.0, 1.0]), ctx)
        assert np.array_equal(out, [1.5, 3.5])

    @pytest.mark.parametrize("variant", ["de_current_to_best", "de_rand"])
    def test_zero_f_is_identity(self, variant, rng):
        rule = SpikeRule(variant, F=0.0)
        for _ in range(25):
            v = rng.uniform(-3, 3, size=2)
            nb = rng.uniform(-3, 3, size=(5, 2))
            ctx = make_ctx(nb, v_glob=rng.uniform(size=2), **random_variates(rng))
            assert np.allclose(spike(rule, v, ctx), v)

    @pytest.mark.parametrize("variant", ["de_current_to_best", "de_rand"])
    def test_zero_f_zero_pcr_is_identity(self, variant, rng):
        rule = SpikeRule(variant, F=0.0, p_cr=0.0)
        v = rng.uniform(-3, 3, size=2)
        out = spike(rule, v, make_ctx(rng.uniform(size=(4, 2)), **random_variates(rng)))
        assert np.array_equal(out, v)

    def test_de_fallback_on_duplicate_neighbours(self):
        nb = np.tile([[1.0, 1.0]], (5, 1))
        rule = SpikeRule("de_rand", F=0.5)
        ctx = make_ctx(nb, z=(0.1, -0.2), v_self=(2.0, 2.0))
        out, fell_back = apply_spike_rule(rule, np.zeros(2), **ctx)
        assert np.allclose(out, [2.01, 1.98])
        assert fell_back

    def test_de_fallback_on_short_list(self):
        rule = SpikeRule("de_current_to_best", F=0.5)
        ctx = make_ctx(np.array([[1.0, 2.0]]), v_self=(0.5, 0.5))
        out, fell_back = apply_spike_rule(rule, np.zeros(2), **ctx)
        assert np.array_equal(out, [0.5, 0.5])
        assert fell_back

    def test_distinct_count_override_skips_fallback(self):
        # the caller's count decides: three distinct rows pass, but a count of
        # two for the same rows falls back
        nb = np.arange(6.0).reshape(3, 2)
        rule = SpikeRule("de_rand", F=1.0)
        out, fell_back = apply_spike_rule(rule, np.zeros(2), **make_ctx(nb, distinct_count=3))
        assert np.all(np.isfinite(out)) and not fell_back
        _, fell_back = apply_spike_rule(rule, np.zeros(2), **make_ctx(nb, distinct_count=2))
        assert fell_back

    def test_outputs_finite_for_finite_inputs(self, rng):
        for variant in ("random_reset", "fixed_reset", "directional", "de_current_to_best", "de_rand"):
            rule = SpikeRule(variant, F=1.7, sigma=0.3, alpha_d=0.8)
            for _ in range(20):
                out = spike(
                    rule,
                    rng.uniform(-50, 50, size=2),
                    make_ctx(
                        rng.uniform(-50, 50, size=(6, 2)),
                        v_self=rng.uniform(-50, 50, size=2),
                        v_glob=rng.uniform(-50, 50, size=2),
                        **random_variates(rng),
                    ),
                )
                assert np.all(np.isfinite(out))


class TestDonors:
    @pytest.mark.parametrize("m,k", [(m, k) for m in range(2, 7) for k in (2, 3) if k <= m])
    def test_cell_centres_give_every_ordered_tuple_once(self, m, k):
        cells = itertools.product(*(range(m - i) for i in range(k)))
        tuples = [
            tuple(_donors([(a + 0.5) / (m - i) for i, a in enumerate(cell)], m, k))
            for cell in cells
        ]
        assert sorted(tuples) == sorted(itertools.permutations(range(m), k))

    def test_extreme_uniforms_stay_in_range(self):
        below_one = np.nextafter(1.0, 0.0)
        for m in range(3, 50):
            assert _donors([0.0, 0.0, 0.0], m, 3) == [0, 1, 2]
            assert _donors([below_one] * 3, m, 3) == [m - 1, m - 2, m - 3]


class TestCrossover:
    @staticmethod
    def crossed(p_cr, mask_uniforms):
        rule = SpikeRule("fixed_reset", sigma=0.0, p_cr=p_cr)
        ctx = make_ctx(np.zeros((3, 2)), u=FIRST_DONORS + tuple(mask_uniforms), v_self=(1.0, 2.0))
        return spike(rule, np.array([-1.0, -2.0]), ctx)

    def test_pcr_one_keeps_new(self):
        below_one = np.nextafter(1.0, 0.0)
        assert np.array_equal(self.crossed(1.0, (0.0, below_one)), [1.0, 2.0])

    def test_pcr_zero_keeps_old(self):
        assert np.array_equal(self.crossed(0.0, (0.0, 0.5)), [-1.0, -2.0])

    def test_mask_mixes_components(self):
        assert np.array_equal(self.crossed(0.5, (0.1, 0.9)), [1.0, -2.0])

    def test_rule_post_composition(self):
        # crossover with p_cr=1 applied on a fixed reset leaves the reset intact
        rule = SpikeRule("fixed_reset", sigma=0.0, p_cr=1.0)
        ctx = make_ctx(np.zeros((3, 2)), u=FIRST_DONORS + (0.0, 0.0), v_self=(0.7, -0.7))
        assert np.array_equal(spike(rule, np.zeros(2), ctx), [0.7, -0.7])

    def test_mask_reads_the_last_two_uniforms(self):
        # the donor uniforms do not reach the mask
        rule = SpikeRule("de_rand", F=0.0, p_cr=0.5)
        v = np.array([3.0, 4.0])
        ctx = make_ctx(np.arange(6.0).reshape(3, 2), u=(0.9, 0.9, 0.9, 0.9, 0.9))
        assert np.array_equal(spike(rule, v, ctx), v)


class TestValidation:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            SpikeRule("teleport")

    def test_f_range(self):
        with pytest.raises(ValueError):
            SpikeRule("de_rand", F=2.5)

    def test_pcr_range(self):
        with pytest.raises(ValueError):
            SpikeRule("de_rand", p_cr=1.5)

    def test_minkowski_weights_must_be_unit(self):
        with pytest.raises(ValueError):
            SpikeCondition("weighted_minkowski", weights=np.array([1.0, 1.0]))

    def test_minkowski_q_at_least_one(self):
        with pytest.raises(ValueError):
            SpikeCondition("weighted_minkowski", q=0.5)

    def test_disc_threshold_ordering(self):
        with pytest.raises(ValueError):
            SpikeCondition("disc", theta_attractor=1.5, theta_repeller=0.5)

    def test_shrinking_ball_epsilon(self):
        with pytest.raises(ValueError):
            SpikeCondition("shrinking_ball", epsilon_spk=0.0)
