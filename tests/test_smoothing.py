import math

import numpy as np
import pytest

from smoothsum.errors import ConfigurationError
from smoothsum.rng import Rng
from smoothsum.smoothing import (cross_entropy, loss_floor,
                                 smooth_target_matrix, smooth_targets)


class TestSmoothTargets:
    def test_worked_example(self):
        t = smooth_targets(2, 5, 0.1)
        np.testing.assert_allclose(t.probs, [0.025, 0.025, 0.9, 0.025, 0.025],
                                   atol=1e-15)

    def test_zero_epsilon_is_one_hot(self):
        t = smooth_targets(3, 7, 0.0)
        expected = np.zeros(7)
        expected[3] = 1.0
        np.testing.assert_array_equal(t.probs, expected)

    def test_first_index(self):
        np.testing.assert_allclose(smooth_targets(0, 3, 0.4).probs,
                                   [0.6, 0.2, 0.2], atol=1e-15)

    def test_matches_formula_elementwise(self):
        rng = Rng(2)
        for _ in range(300):
            n = 2 + rng.randint(400)
            y = rng.randint(n)
            eps = rng.random()
            probs = smooth_targets(y, n, eps).probs
            for k in (0, y, n - 1, rng.randint(n)):
                delta = 1.0 if k == y else 0.0
                expected = (1 - eps) * delta + (1 - delta) * eps / (n - 1)
                assert abs(probs[k] - expected) < 1e-12

    def test_normalization(self):
        rng = Rng(3)
        for _ in range(200):
            n = 2 + rng.randint(100000)
            t = smooth_targets(rng.randint(n), n, rng.random())
            assert abs(t.probs.sum() - 1.0) < 1e-9

    def test_argmax_preserved_exactly_below_threshold(self):
        for n in (2, 3, 10, 1000):
            threshold = (n - 1) / n
            y = 1 % n
            below = smooth_targets(y, n, threshold - 1e-6)
            assert int(np.argmax(below.probs)) == y
            above = smooth_targets(y, n, min(1.0, threshold + 1e-6))
            if n > 1:
                assert above.probs[y] < above.probs[(y + 1) % n]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            smooth_targets(5, 5, 0.1)
        with pytest.raises(ConfigurationError):
            smooth_targets(0, 1, 0.1)
        with pytest.raises(ConfigurationError):
            smooth_targets(0, 5, 1.5)

    def test_matrix_matches_vector(self):
        ids = np.array([[0, 2], [1, 1]])
        mat = smooth_target_matrix(ids, 4, 0.3)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(
                    mat[i, j], smooth_targets(ids[i, j], 4, 0.3).probs)


class TestCrossEntropy:
    def test_at_target_equals_floor(self):
        t = smooth_targets(2, 5, 0.1)
        assert abs(cross_entropy(t.probs, t) - 0.463712) < 1e-6

    def test_one_hot_perfect_prediction(self):
        t = smooth_targets(1, 4, 0.0)
        assert cross_entropy(t.probs, t) == 0.0

    def test_zero_epsilon_reduces_to_nll(self):
        rng = Rng(4)
        for _ in range(50):
            n = 2 + rng.randint(20)
            y = rng.randint(n)
            p = rng.uniform_array((n,)) + 1e-3
            p /= p.sum()
            t = smooth_targets(y, n, 0.0)
            assert abs(cross_entropy(p, t) + math.log(p[y])) < 1e-12

    def test_decomposition_identity(self):
        # CE(p, t_eps) = (1-eps) * (-ln p_y) + eps/(N-1) * sum_{k!=y} -ln p_k
        rng = Rng(5)
        for _ in range(50):
            n = 3 + rng.randint(20)
            y = rng.randint(n)
            eps = rng.random()
            p = rng.uniform_array((n,)) + 1e-3
            p /= p.sum()
            ce = cross_entropy(p, smooth_targets(y, n, eps))
            rest = -sum(math.log(p[k]) for k in range(n) if k != y)
            expected = (1 - eps) * -math.log(p[y]) + eps / (n - 1) * rest
            assert abs(ce - expected) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            cross_entropy(np.array([0.5, 0.5]), smooth_targets(0, 3, 0.1))

    def test_rejects_unnormalized(self):
        with pytest.raises(ConfigurationError):
            cross_entropy(np.array([0.9, 0.9, 0.9]), smooth_targets(0, 3, 0.1))


class TestLossFloor:
    def test_worked_values(self):
        assert abs(loss_floor(0.1, 5) - 0.463712) < 1e-6
        assert abs(loss_floor(0.4, 3) - 0.950271) < 1e-6
        assert loss_floor(0.0, 1000) == 0.0

    def test_matches_cross_entropy_at_target(self):
        rng = Rng(6)
        for _ in range(100):
            n = 2 + rng.randint(1000)
            eps = rng.random()
            t = smooth_targets(rng.randint(n), n, eps)
            assert abs(loss_floor(eps, n) - cross_entropy(t.probs, t)) < 1e-9

    def test_monotone_in_epsilon(self):
        for n in (2, 5, 50, 5000):
            top = (n - 1) / n
            grid = np.linspace(0.0, top, 60)
            values = [loss_floor(e, n) for e in grid]
            assert all(b > a for a, b in zip(values, values[1:]))
