import numpy as np
import pytest

from crossmpt import autodiff as ad
from crossmpt.optim import AdamState, adam_step, clip_global_norm, cosine_lr


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        params = {"p": p}
        adam_step(params, AdamState.for_params(params), lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        g = np.array([0.3, -2.0, 5.0])
        p = ad.parameter(np.zeros(3))
        p.grad = g.copy()
        params = {"p": p}
        adam_step(params, AdamState.for_params(params), lr=1e-2)
        # after bias correction at t=1: step = -lr * g / (|g| + eps)
        expected = -1e-2 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_converges_on_1d_quadratic(self):
        # oracle: minimum of (x - 3)^2 is x = 3
        p = ad.parameter(np.array([-4.0]))
        params = {"p": p}
        state = AdamState.for_params(params)
        for _ in range(600):
            p.grad = 2.0 * (p.data - 3.0)
            adam_step(params, state, lr=0.05)
        assert abs(p.data[0] - 3.0) < 1e-3


class TestCosineLr:
    def test_start_is_lr0(self):
        assert cosine_lr(0, 1000, 1e-4, 5e-7) == pytest.approx(1e-4, rel=1e-12)

    def test_end_is_lr_min(self):
        assert cosine_lr(1000, 1000, 1e-4, 5e-7) == pytest.approx(5e-7, rel=1e-12)

    def test_midpoint_is_mean(self):
        assert cosine_lr(500, 1000, 1e-4, 5e-7) == pytest.approx((1e-4 + 5e-7) / 2, rel=1e-12)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 100, 1e-4, 5e-7) for s in range(101)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 1e-4, 5e-7)
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 1e-4, 5e-7)


class TestClip:
    def test_large_gradients_rescaled_to_max_norm(self):
        p = ad.parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        params = {"p": p}
        norm = clip_global_norm(params)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-12)

    def test_small_gradients_untouched(self):
        p = ad.parameter(np.zeros(4))
        p.grad = np.full(4, 0.01)
        clip_global_norm({"p": p})
        assert np.array_equal(p.grad, np.full(4, 0.01))
