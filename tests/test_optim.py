import numpy as np
import pytest

from dbgae import autodiff as ad
from dbgae.errors import TrainingError
from dbgae.optim import BETA1, BETA2, EPS, AdamState, adam_step


def make_param(value):
    return {"w": ad.parameter(np.asarray(value, dtype=np.float64))}


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = make_param([[1.0, -2.0]])
        state = AdamState.for_params(params)
        before = params["w"].value.copy()
        adam_step(params, {"w": np.zeros((1, 2))}, state)
        np.testing.assert_array_equal(params["w"].value, before)

    def test_step_count_increments_once_per_call(self):
        params = make_param([[0.0]])
        state = AdamState.for_params(params)
        for expected in (1, 2, 3):
            adam_step(params, {"w": np.ones((1, 1))}, state)
            assert state.step == expected

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        # with m_hat = g and v_hat = g^2 the update tends to lr * sign(g)
        params = make_param([[0.0]])
        state = AdamState.for_params(params, lr=1e-3)
        previous = params["w"].value.copy()
        delta = None
        for _ in range(400):
            adam_step(params, {"w": np.full((1, 1), 3.7)}, state)
            delta = abs(params["w"].value - previous)[0, 0]
            previous = params["w"].value.copy()
        assert delta == pytest.approx(1e-3, rel=1e-4)

    def test_nan_gradient_aborts_with_diagnostics(self):
        params = make_param([[0.0]])
        state = AdamState.for_params(params)
        with pytest.raises(TrainingError, match="non-finite gradient.*'w'"):
            adam_step(params, {"w": np.full((1, 1), np.nan)}, state)

    def test_shape_mismatch_rejected(self):
        params = make_param([[0.0, 1.0]])
        state = AdamState.for_params(params)
        with pytest.raises(TrainingError, match="shape"):
            adam_step(params, {"w": np.zeros((2, 1))}, state)

    def test_bias_correction_first_step(self):
        # first step of Adam moves by exactly lr * g / (|g| + eps * sqrt(1-b2))
        params = make_param([[0.0]])
        state = AdamState.for_params(params, lr=0.01)
        adam_step(params, {"w": np.full((1, 1), 0.5)}, state)
        m_hat = (1 - BETA1) * 0.5 / (1 - BETA1)
        v_hat = (1 - BETA2) * 0.25 / (1 - BETA2)
        expected = -0.01 * m_hat / (np.sqrt(v_hat) + EPS)
        assert params["w"].value[0, 0] == pytest.approx(expected)
