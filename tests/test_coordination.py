"""Spike propagation, topology builders, and population-level selection."""

import numpy as np
import pytest

from spikeopt.coordination import (
    GlobalBest,
    InfoTopology,
    SpikeTopology,
    build_full_info,
    build_full_spike,
    build_random_info,
    build_ring,
    high_level_selector_step,
    neighbour_manager_step,
    tensor_contract,
)


def brute_force_contract(W_s: np.ndarray, S: np.ndarray) -> np.ndarray:
    n, d = S.shape
    A = np.zeros((n, d), dtype=bool)
    for i in range(n):
        for j in range(d):
            acc = False
            for k in range(n):
                acc = acc or (W_s[i, k] and S[k, j])
            A[i, j] = acc
    return A


def random_topology(rng, n):
    W = rng.uniform(size=(n, n)) < 0.4
    np.fill_diagonal(W, False)
    return SpikeTopology(W_s=W)


class TestTensorContract:
    def test_all_false_spikes_absorb(self):
        topo = build_ring(5)
        assert not tensor_contract(topo, np.zeros((5, 3), dtype=bool)).any()

    def test_full_graph_single_spike(self):
        n, d = 5, 2
        topo = build_full_spike(n)
        S = np.zeros((n, d), dtype=bool)
        S[2, 1] = True
        A = tensor_contract(topo, S)
        expected = np.zeros((n, d), dtype=bool)
        expected[:, 1] = True
        expected[2, 1] = False  # no self-synapse
        assert np.array_equal(A, expected)
        assert np.array_equal(A, brute_force_contract(topo.W_s, S))

    def test_ring_neighbours_only(self):
        topo = build_ring(4)
        S = np.zeros((4, 2), dtype=bool)
        S[0, 0] = True
        A = tensor_contract(topo, S)
        assert np.array_equal(np.flatnonzero(A[:, 0]), [1, 3])
        assert not A[:, 1].any()
        assert np.array_equal(A, brute_force_contract(topo.W_s, S))

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            topo = random_topology(rng, n)
            S = rng.uniform(size=(n, d)) < 0.3
            assert np.array_equal(
                tensor_contract(topo, S), brute_force_contract(topo.W_s, S)
            )

    def test_monotone_in_spikes(self, rng):
        for _ in range(25):
            n, d = 6, 3
            topo = random_topology(rng, n)
            S = rng.uniform(size=(n, d)) < 0.2
            A_before = tensor_contract(topo, S)
            S_more = S.copy()
            free = np.argwhere(~S_more)
            if free.size == 0:
                continue
            k, j = free[rng.integers(len(free))]
            S_more[k, j] = True
            A_after = tensor_contract(topo, S_more)
            assert not np.any(A_before & ~A_after)

    def test_shape_mismatch_is_hard_error(self):
        with pytest.raises(ValueError):
            tensor_contract(build_ring(4), np.zeros((5, 2), dtype=bool))

    def test_256_spiking_neighbours_still_activate(self):
        # every unit of a full 257-unit graph has exactly 256 spiking neighbours;
        # a count kept in 8 bits wraps to 0 there
        S = np.ones((257, 2), dtype=bool)
        assert np.all(tensor_contract(build_full_spike(257), S))


class TestTopologyBuilders:
    def test_ring_row_sums(self):
        assert np.all(build_ring(3).W_s.sum(axis=1) == 2)
        W = build_ring(4).W_s
        assert np.array_equal(np.flatnonzero(W[0]), [1, 3])
        assert np.all(W.sum(axis=1) == 2)

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            build_ring(2)

    def test_self_synapse_rejected(self):
        with pytest.raises(ValueError):
            SpikeTopology(W_s=np.eye(3, dtype=bool))

    def test_random_info_row_sums(self):
        topo = build_random_info(30, 10, np.random.default_rng(0))
        assert np.all(topo.W_x.sum(axis=1) == 10)
        assert topo.m == 10

    def test_random_info_seeded(self):
        a = build_random_info(12, 4, np.random.default_rng(7))
        b = build_random_info(12, 4, np.random.default_rng(7))
        assert np.array_equal(a.W_x, b.W_x)

    def test_random_info_complete_when_m_is_max(self):
        topo = build_random_info(6, 5, np.random.default_rng(1))
        assert np.array_equal(topo.W_x, ~np.eye(6, dtype=bool))

    def test_random_info_m_out_of_range(self):
        with pytest.raises(ValueError):
            build_random_info(5, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_random_info(5, 0, np.random.default_rng(0))

    def test_zero_row_rejected(self):
        W = np.zeros((3, 3), dtype=bool)
        W[0, 1] = W[1, 0] = True
        with pytest.raises(ValueError):
            InfoTopology(W_x=W)

    def test_full_info(self):
        topo = build_full_info(4)
        assert topo.m == 3
        assert np.all(topo.W_x.sum(axis=1) == 3)


class TestHighLevelSelector:
    def test_argmin_selection(self):
        state = GlobalBest()
        P = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        g, f_g = high_level_selector_step(state, P, np.array([3.0, 1.0, 2.0]))
        assert f_g == 1.0 and np.array_equal(g, [2.0, 2.0])

    def test_tie_breaks_to_lowest_index(self):
        state = GlobalBest()
        P = np.array([[0.0, 0.0], [9.0, 9.0]])
        g, _ = high_level_selector_step(state, P, np.array([1.0, 1.0]))
        assert np.array_equal(g, [0.0, 0.0])

    def test_incumbent_retained(self):
        state = GlobalBest(g=np.array([5.0]), f_g=0.5)
        g, f_g = high_level_selector_step(state, np.array([[1.0]]), np.array([0.7]))
        assert f_g == 0.5 and g[0] == 5.0

    def test_first_call_always_initialises(self):
        state = GlobalBest()
        _, f_g = high_level_selector_step(state, np.array([[1.0]]), np.array([42.0]))
        assert f_g == 42.0 and state.g is not None

    @pytest.mark.parametrize("f_first", [np.inf, np.nan])
    def test_non_finite_first_population_initialises(self, f_first):
        # no incumbent yet, so g is set even though nothing beats f_g = inf
        state = GlobalBest()
        g, f_g = high_level_selector_step(state, np.array([[1.0], [2.0]]), np.full(2, f_first))
        assert np.array_equal(g, [1.0]) and np.array_equal(f_g, f_first, equal_nan=True)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            high_level_selector_step(GlobalBest(), np.zeros((0, 2)), np.zeros(0))

    def test_matches_history_minimum(self, rng):
        state = GlobalBest()
        seen = []
        for _ in range(30):
            P = rng.uniform(-5, 5, size=(4, 2))
            f = rng.uniform(0, 10, size=4)
            seen.extend(f.tolist())
            _, f_g = high_level_selector_step(state, P, f)
            assert f_g == min(seen)


class TestNeighbourManager:
    def test_ring_assembly_by_hand(self):
        W = np.array(
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=bool
        )
        topo = InfoTopology(W_x=W)
        P = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        pos = neighbour_manager_step(topo, P)
        assert pos.shape == (2, 2, 3)
        # unit 0 sees units 1 and 2 in ascending order
        assert np.array_equal(pos[:, :, 0], [[1.0, 1.0], [2.0, 2.0]])
        # unit 2 sees units 0 and 1
        assert np.array_equal(pos[:, :, 2], [[0.0, 0.0], [1.0, 1.0]])

    def test_full_neighbourhood_excludes_self(self, rng):
        n, d = 5, 3
        topo = build_full_info(n)
        P = rng.uniform(size=(n, d))
        pos = neighbour_manager_step(topo, P)
        for i in range(n):
            expected = np.delete(P, i, axis=0)
            assert np.array_equal(pos[:, :, i], expected)

    def test_ragged_rows_padded_with_self(self):
        W = np.array(
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool
        )
        topo = InfoTopology(W_x=W)
        P = np.array([[0.0], [1.0], [2.0]])
        pos = neighbour_manager_step(topo, P)
        assert topo.m == 2
        # unit 0 has one neighbour; slot 1 repeats its own entry
        assert pos[0, 0, 0] == 1.0 and pos[1, 0, 0] == 0.0

    def test_slices_contain_only_population_rows(self, rng):
        n, d = 6, 2
        topo = build_random_info(n, 3, rng)
        P = rng.uniform(size=(n, d))
        pos = neighbour_manager_step(topo, P)
        rows = {tuple(row) for row in P}
        for i in range(n):
            for slot in range(topo.m):
                assert tuple(pos[slot, :, i]) in rows
