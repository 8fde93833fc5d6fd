"""Benchmark suite, bound handling, and evaluation-counter contracts."""

import sys
import threading

import numpy as np
import pytest

from spikeopt.problem import (
    BENCHMARK_NAMES,
    ObjectiveFunction,
    SearchDomain,
    clip,
    default_domain,
    make_benchmark,
)


def zero_shifted(name, d):
    return make_benchmark(name, d, shift=np.zeros(d))


class TestEvaluate:
    def test_sphere_at_origin(self):
        assert zero_shifted("sphere", 2).evaluate(np.array([0.0, 0.0])) == 0.0

    def test_sphere_three_four(self):
        assert zero_shifted("sphere", 2).evaluate(np.array([3.0, 4.0])) == 25.0

    def test_rastrigin_at_optimum(self):
        f = zero_shifted("rastrigin", 4)
        assert f.evaluate(np.zeros(4)) == 0.0

    def test_bent_cigar_hand_values(self):
        f = zero_shifted("bent_cigar", 2)
        assert f.evaluate(np.array([1.0, 0.0])) == 1.0
        assert f.evaluate(np.array([0.0, 1.0])) == 1.0e6

    def test_ellipsoid_separable_hand_value(self):
        f = zero_shifted("ellipsoid_separable", 2)
        assert f.evaluate(np.array([1.0, 1.0])) == pytest.approx(1.0 + 1.0e6)

    def test_rosenbrock_at_optimum(self):
        f = make_benchmark("rosenbrock", 3, seed=5)
        assert f.evaluate(f.optimum_position) == pytest.approx(0.0, abs=1e-12)

    def test_counter_increments_once_per_call(self):
        f = zero_shifted("sphere", 2)
        assert f.evaluation_count == 0
        f.evaluate(np.array([1.0, 2.0]))
        f.evaluate(np.array([1.0, 2.0]))
        assert f.evaluation_count == 2

    def test_concurrent_evaluations_overlap(self):
        # each evaluator call waits for the other one, so the calls must run
        # at the same time: holding the counter lock around them deadlocks
        barrier = threading.Barrier(2, timeout=2)

        def evaluator(x):
            barrier.wait()
            return float(np.sum(x))

        f = ObjectiveFunction(identifier="meet", evaluator=evaluator, dimension=2)
        errors = []

        def call():
            try:
                f.evaluate(np.zeros(2))
            except threading.BrokenBarrierError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        assert f.evaluation_count == 2

    def test_concurrent_counts_are_not_lost(self):
        f = zero_shifted("sphere", 2)
        x = np.array([1.0, 2.0])

        def calls():
            for _ in range(500):
                f.evaluate(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert f.evaluation_count == 8 * 500

    def test_pure_for_fixed_input(self):
        f = make_benchmark("rastrigin", 3, seed=9)
        x = np.array([0.3, -1.2, 2.5])
        assert f.evaluate(x) == f.evaluate(x)

    def test_dimension_mismatch_is_hard_error(self):
        f = zero_shifted("sphere", 2)
        with pytest.raises(ValueError):
            f.evaluate(np.zeros(3))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_benchmark("not_a_function", 2)


class TestBenchmarkConstruction:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("d", [2, 3, 10])
    def test_optimum_is_zero_at_shift(self, name, d):
        f = make_benchmark(name, d, seed=3)
        assert f.optimum_value == 0.0
        assert np.all(np.abs(f.optimum_position) <= 4.0)
        assert abs(f.evaluate(f.optimum_position)) <= 1e-12

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_never_below_optimum(self, name, rng):
        d = 3
        f = make_benchmark(name, d, seed=11)
        domain = default_domain(d)
        for _ in range(200):
            x = rng.uniform(domain.lower, domain.upper)
            assert f.evaluate(x) >= f.evaluate(f.optimum_position) - 1e-12
        # next to the shift (|offset| from 1e-12 to 1e-6) the fitness must not
        # dip below the declared optimum, not even by rounding
        for _ in range(200):
            radius = 10.0 ** rng.uniform(-12.0, -6.0)
            x = f.optimum_position + radius * rng.uniform(-1.0, 1.0, size=d)
            assert f.evaluate(x) >= f.optimum_value

    def test_shift_is_seeded(self):
        a = make_benchmark("sphere", 4, seed=1)
        b = make_benchmark("sphere", 4, seed=1)
        c = make_benchmark("sphere", 4, seed=2)
        assert np.array_equal(a.optimum_position, b.optimum_position)
        assert not np.array_equal(a.optimum_position, c.optimum_position)


class TestDomain:
    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            SearchDomain(dimension=2, lower=np.zeros(2), upper=np.zeros(2))

    def test_bound_length_must_match_dimension(self):
        with pytest.raises(ValueError):
            SearchDomain(dimension=3, lower=np.zeros(2), upper=np.ones(2))

    def test_clip_examples(self):
        domain = default_domain(1)
        assert clip(domain, np.array([7.0]))[0] == 5.0
        assert clip(domain, np.array([-9.0]))[0] == -5.0
        inside = np.array([1.5])
        assert np.array_equal(clip(domain, inside), inside)

    def test_clip_idempotent(self, rng):
        domain = default_domain(4)
        for _ in range(50):
            x = rng.uniform(-20, 20, size=4)
            once = clip(domain, x)
            assert np.array_equal(clip(domain, once), once)

    def test_clip_length_mismatch(self):
        with pytest.raises(ValueError):
            clip(default_domain(2), np.zeros(3))
