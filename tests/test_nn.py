import math

import numpy as np
import pytest

from smoothcert import rng
from smoothcert.nn import (
    MlpModel,
    backward_batch,
    cross_entropy_batch,
    forward_batch,
    init_model,
    plain_step,
    sgd_step,
)
from smoothcert.sigma_select import SigmaSearchConfig, select_sigma
from smoothcert.smoothing import NoiseConfig, empirical_margin_loss
from smoothcert.train import TrainConfig, train

from conftest import central_diff, loop_forward, rand_model, relative_error


def model_of(*mats):
    return MlpModel(tuple(np.asarray(m, dtype=float) for m in mats))


def logits_of(model, x):
    """Logits of one input, as a batch of one."""
    return forward_batch(model, np.asarray(x, dtype=float)[None, :])[0][0]


# ---------------------------------------------------------------- forward

def test_forward_single_layer_is_linear():
    m = model_of([[2.0, 0.0], [0.0, 3.0]])
    assert np.allclose(logits_of(m, [1.0, 1.0]), [2.0, 3.0])


def test_forward_relu_kills_negative_hidden_coordinate():
    m = model_of(np.eye(2), np.eye(2))
    assert np.allclose(logits_of(m, [-1.0, 2.0]), [0.0, 2.0])


def test_forward_no_relu_on_output_layer():
    m = model_of([[1.0, 0.0], [0.0, 1.0]])
    out = logits_of(m, [-5.0, 1.0])
    assert out[0] == -5.0  # stays negative


def test_forward_matches_loop_oracle(tiny_model):
    g = rng.stream(1, 98)
    for _ in range(20):
        x = g.standard_normal(6)
        got = logits_of(tiny_model, x)
        want = loop_forward(tiny_model, x)
        assert relative_error(got, want) < 1e-12


def test_forward_dimension_mismatch():
    m = model_of([[1.0, 2.0]])
    with pytest.raises(ValueError):
        forward_batch(m, [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        forward_batch(m, [1.0, 2.0])  # a single vector, not a batch


def test_forward_batch_matches_single(tiny_model):
    X = rng.stream(2, 98).standard_normal((9, 6))
    logits, _ = forward_batch(tiny_model, X)
    for i in range(9):
        assert np.allclose(logits[i], logits_of(tiny_model, X[i]), atol=0, rtol=1e-14)
        assert relative_error(logits[i], loop_forward(tiny_model, X[i])) < 1e-12


def test_row_basis_spans_first_layer_rows():
    m = rand_model((9, 4, 3), seed=5)
    q, p = m.row_basis
    w = m.layers[0]
    assert q.shape == (9, 4) and p.shape == (4, 5)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-14)
    assert np.allclose(w @ q @ q.T, w, atol=1e-14)  # W0 sees only Q.T z
    assert np.allclose(p[:, :4], w @ q, atol=0) and not p[:, 4].any()
    assert m.row_basis is m.row_basis  # computed once per model
    assert rand_model((4, 4, 3)).row_basis is None
    assert rand_model((3, 5)).row_basis is None


@pytest.mark.parametrize("layer", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_weights(layer, bad):
    # train, select_sigma, spectral_report and the vote loop trust every
    # model to be finite, so this is the one check of the weights
    layers = [w.copy() for w in rand_model((4, 3, 3, 2), seed=1).layers]
    layers[layer][-1, 1] = bad
    with pytest.raises(ValueError, match=f"non-finite weights in layer {layer}"):
        MlpModel(tuple(layers))


# ---------------------------------------------------------------- backward

def test_backward_zero_upstream_gives_zero_grads(tiny_model):
    x = rng.stream(3, 98).standard_normal(6)
    _, inputs = forward_batch(tiny_model, x[None, :])
    grads = backward_batch(tiny_model, inputs, np.zeros((1, 3)))
    for g in grads:
        assert np.all(g == 0.0)


def test_backward_finite_difference():
    model = rand_model((5, 4, 4, 3), seed=11)
    g = rng.stream(4, 98)
    x = g.standard_normal(5)
    target = g.standard_normal(3)

    def loss_of(model_):
        out = logits_of(model_, x)
        return float(out @ target)

    _, inputs = forward_batch(model, x[None, :])
    grads = backward_batch(model, inputs, target[None, :])
    for li in range(len(model.layers)):
        def f(w, li=li):
            layers = list(model.layers)
            layers[li] = w
            return loss_of(MlpModel(tuple(layers)))

        fd = central_diff(f, model.layers[li].copy(), step=1e-5)
        assert relative_error(grads[li], fd) < 1e-6


def test_backward_batch_sums_per_sample_grads():
    model = rand_model((4, 3, 2), seed=5)
    X = rng.stream(6, 98).standard_normal((7, 4))
    U = rng.stream(7, 98).standard_normal((7, 2))
    _, inputs = forward_batch(model, X)
    got = backward_batch(model, inputs, U)
    want = [np.zeros_like(L) for L in model.layers]
    for i in range(7):
        _, ii = forward_batch(model, X[i : i + 1])
        gi = backward_batch(model, ii, U[i : i + 1])
        for j, gl in enumerate(gi):
            want[j] += gl
    for j in range(len(want)):
        assert np.allclose(got[j], want[j], rtol=1e-12, atol=1e-12)


def test_backward_relu_derivative_at_zero_is_zero():
    # for x = (1, 2) the hidden pre-activations are 1 - 0.5*2 = 0.0 exactly,
    # a zero from all-(-0.0) weights, and 3
    x = np.array([[1.0, 2.0]])
    model = model_of([[1.0, -0.5], [-0.0, -0.0], [1.0, 1.0]],
                     [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    logits, inputs = forward_batch(model, x)
    assert np.array_equal(logits, [[9.0, 18.0]])
    # a BLAS sum may turn -0.0 into 0.0, so the exact zeros are also given
    # by hand, raw and through the ReLU
    preacts = np.array([[0.0, -0.0, 3.0]])
    for hidden in (inputs[1], np.maximum(preacts, 0.0), preacts):
        grads = backward_batch(model, (x, hidden), np.array([[1.0, -1.0]]))
        # upstream @ W1 = (-3, -3, -3) reaches layer 0 through unit 2 only
        assert np.array_equal(grads[0], [[0.0, 0.0], [0.0, 0.0], [-3.0, -6.0]])
        assert np.array_equal(grads[1], [[0.0, 0.0, 3.0], [0.0, 0.0, -3.0]])


# ---------------------------------------------------------------- optimizer

def test_sgd_single_step_plain():
    m = model_of([[1.0]])
    vs = [np.zeros((1, 1))]
    g = (np.array([[1.0]]),)
    out = sgd_step(m, g, vs, lr=0.1, momentum=0.0, weight_decay=0.0)
    assert out.layers[0][0, 0] == pytest.approx(0.9, abs=0)


def test_sgd_two_steps_momentum_hand_recurrence():
    # v1 = 1, w1 = -0.1 ; v2 = 0.9 + 1 = 1.9, w2 = -0.1 - 0.19 = -0.29
    m = model_of([[0.0]])
    vs = [np.zeros((1, 1))]
    g = (np.array([[1.0]]),)
    m = sgd_step(m, g, vs, lr=0.1, momentum=0.9)
    m = sgd_step(m, g, vs, lr=0.1, momentum=0.9)
    assert m.layers[0][0, 0] == pytest.approx(-0.29, abs=1e-15)


def test_sgd_lr_zero_leaves_model_unchanged(tiny_model):
    vs = [np.zeros_like(L) for L in tiny_model.layers]
    g = tuple(np.ones_like(L) for L in tiny_model.layers)
    out = sgd_step(tiny_model, g, vs, lr=0.0, momentum=0.9)
    for a, b in zip(out.layers, tiny_model.layers):
        assert np.array_equal(a, b)


def test_sgd_weight_decay_shrinks_weights():
    m = model_of([[2.0]])
    vs = [np.zeros((1, 1))]
    g = (np.array([[0.0]]),)
    out = sgd_step(m, g, vs, lr=0.1, momentum=0.0, weight_decay=0.5)
    # v = 0 + 0 + 0.5*2 = 1 ; w = 2 - 0.1
    assert out.layers[0][0, 0] == pytest.approx(1.9, abs=1e-15)


def test_sgd_rejects_nonfinite_gradient():
    m = model_of([[1.0]])
    vs = [np.zeros((1, 1))]
    g = (np.array([[np.nan]]),)
    with pytest.raises(FloatingPointError):
        sgd_step(m, g, vs, lr=0.1)


def test_plain_step():
    m = model_of([[1.0, 2.0]])
    g = (np.array([[1.0, -1.0]]),)
    out = plain_step(m, g, 0.5)
    assert np.allclose(out.layers[0], [[0.5, 2.5]])


# ---------------------------------------------------------------- loss

def cross_entropy_one(logits, label):
    """Loss and logit gradient of a single example, as a batch of one."""
    loss, grad = cross_entropy_batch(np.asarray(logits)[None, :], np.array([label]))
    return loss, grad[0]


def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy_one(np.zeros(10), 3)
    assert loss == pytest.approx(math.log(10.0), rel=1e-15)


def test_cross_entropy_gradient_finite_difference():
    z = rng.stream(8, 98).standard_normal(6)
    _, grad = cross_entropy_one(z, 2)

    def f(z_):
        return cross_entropy_one(z_, 2)[0]

    fd = central_diff(f, z.copy(), step=1e-6)
    assert relative_error(grad, fd) < 1e-6


def test_cross_entropy_gradient_sums_to_zero():
    z = rng.stream(9, 98).standard_normal(4)
    _, grad = cross_entropy_one(z, 0)
    assert abs(grad.sum()) < 1e-14


def test_cross_entropy_shift_invariance():
    z = rng.stream(10, 98).standard_normal(5)
    a, _ = cross_entropy_one(z, 1)
    b, _ = cross_entropy_one(z + 1000.0, 1)
    assert a == pytest.approx(b, rel=1e-12)


def test_cross_entropy_batch_is_mean_of_singles():
    Z = rng.stream(11, 98).standard_normal((6, 4))
    y = np.array([0, 1, 2, 3, 0, 1])
    loss, grad = cross_entropy_batch(Z, y)
    singles = [cross_entropy_one(Z[i], int(y[i])) for i in range(6)]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-14)
    want = np.stack([s[1] for s in singles]) / 6.0
    assert np.allclose(grad, want, rtol=1e-14, atol=1e-16)


# ---------------------------------------------------------------- init

def test_init_model_deterministic():
    a = init_model((8, 5, 3), seed=4)
    b = init_model((8, 5, 3), seed=4)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la, lb)
    c = init_model((8, 5, 3), seed=5)
    assert not np.array_equal(a.layers[0], c.layers[0])


def test_init_model_shapes_and_scale():
    m = init_model((100, 50, 10), seed=0)
    assert [L.shape for L in m.layers] == [(50, 100), (10, 50)]
    # He init: std ~ sqrt(2/fan_in)
    assert np.std(m.layers[0]) == pytest.approx(math.sqrt(2.0 / 100.0), rel=0.1)


def test_init_model_needs_two_dims():
    with pytest.raises(ValueError):
        init_model((5,))


# ------------------------------------------------------------ labelled sets

def _nan_entry(X, y):
    X = X.copy()
    X[1, 2] = np.nan
    return X, y


def _label(bad):
    def edit(X, y):
        y = y.copy()
        y[2] = bad
        return X, y
    return edit


_BAD_SETS = {
    "empty": lambda X, y: (X[:0], y[:0]),
    "1-D inputs": lambda X, y: (X[:, 0], y),
    "labels one short": lambda X, y: (X, y[:-1]),
    "wrong input dim": lambda X, y: (X[:, :2], y),
    "NaN entry": _nan_entry,
    "label -1": _label(-1),
    "label k": _label(2),
}

_LABELLED_CALLERS = {
    "train": lambda model, X, y: train(model, X, y, TrainConfig(epochs=1, batch_size=4)),
    "select_sigma": lambda model, X, y: select_sigma(model, X, y, SigmaSearchConfig(
        grid_start=0.01, grid_stop=0.01, n_samples=1)),
    "empirical_margin_loss": lambda model, X, y: empirical_margin_loss(
        model, X, y, 0.1, NoiseConfig(sigma_input=0.1), 4),
}


@pytest.mark.parametrize("bad", _BAD_SETS)
@pytest.mark.parametrize("caller", _LABELLED_CALLERS)
def test_labelled_set_checks(caller, bad):
    # every function that takes a labelled set refuses the same bad ones;
    # an empty margin set once divided by zero, and select_sigma took a
    # NaN row and a label the model has no class for
    model = init_model((3, 4, 2), seed=0)
    X = np.full((4, 3), 0.5)
    y = np.array([0, 1, 0, 1])
    _LABELLED_CALLERS[caller](model, X, y)  # the good set passes
    with pytest.raises(ValueError):
        _LABELLED_CALLERS[caller](model, *_BAD_SETS[bad](X, y))
