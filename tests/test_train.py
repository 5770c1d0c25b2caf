import math

import numpy as np
import pytest

from smoothcert import data
from smoothcert.nn import init_model
from smoothcert.spectral import regularizer_and_gradient, spectral_report
from smoothcert.train import EpochMetrics, TrainConfig, TrainingDiverged, evaluate, train


def toy_problem(m=300, d=8, k=3, seed=6):
    ds = data.synth_blobs(k, d, m, spread=0.05, seed=seed)
    return data.augment(ds.inputs), ds.labels


def quick_cfg(**kw):
    base = dict(epochs=3, batch_size=64, lr=0.05, lr_drops=(), momentum=0.9,
                noise_variance=0.01, alpha=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_training_learns_separable_blobs():
    X, y = toy_problem()
    model = init_model((9, 16, 3), seed=0)
    model, metrics = train(model, X, y, quick_cfg(epochs=8))
    assert evaluate(model, X, y) > 0.95
    assert metrics[-1].loss < metrics[0].loss


def test_training_deterministic_given_seed():
    X, y = toy_problem()
    a, _ = train(init_model((9, 12, 3), seed=1), X, y, quick_cfg())
    b, _ = train(init_model((9, 12, 3), seed=1), X, y, quick_cfg())
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la, lb)
    c, _ = train(init_model((9, 12, 3), seed=1), X, y, quick_cfg(seed=5))
    assert not np.array_equal(a.layers[0], c.layers[0])


def test_alpha_changes_the_trajectory():
    X, y = toy_problem()
    a, _ = train(init_model((9, 12, 3), seed=1), X, y, quick_cfg())
    b, _ = train(init_model((9, 12, 3), seed=1), X, y, quick_cfg(alpha=0.1))
    assert not np.array_equal(a.layers[0], b.layers[0])


def test_metrics_shape_and_lr_schedule():
    X, y = toy_problem(m=150)
    cfg = quick_cfg(epochs=4, lr=0.1, lr_drops=((2, 10.0), (4, 2.0)))
    _, metrics = train(init_model((9, 8, 3), seed=0), X, y, cfg)
    assert [m.epoch for m in metrics] == [1, 2, 3, 4]
    assert [m.lr for m in metrics] == [0.1, 0.01, 0.01, 0.005]
    assert all(isinstance(m, EpochMetrics) and m.seconds > 0.0 for m in metrics)
    assert all(0.0 <= m.train_acc <= 1.0 for m in metrics)


def test_logged_reg_value_matches_recomputation_on_final_weights():
    X, y = toy_problem(m=150)
    model, metrics = train(init_model((9, 8, 3), seed=0), X, y,
                           quick_cfg(epochs=1, alpha=0.2))
    want, _ = regularizer_and_gradient(model)
    assert metrics[-1].reg_value == pytest.approx(want, rel=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_last_checkpoint():
    # lr * weight_decay > 2 makes the weight recursion oscillate with an
    # exponentially growing envelope until the forward pass overflows
    X, y = toy_problem(m=150)
    model = init_model((9, 8, 3), seed=0)
    with pytest.raises(TrainingDiverged) as exc:
        train(model, X, y, quick_cfg(epochs=200, lr=100.0,
                                     momentum=0.0, weight_decay=1.0))
    err = exc.value
    assert err.epoch >= 1
    assert err.model is not None
    assert len(err.metrics) == err.epoch - 1


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(lr_drops=((0, 10.0),))


@pytest.mark.parametrize("field", ["lr", "weight_decay", "noise_variance", "alpha", "lr_drops"])
def test_config_rejects_non_finite(field):
    # NaN fails every comparison, so noise_variance=nan trained without noise
    for bad in (math.nan, math.inf):
        value = ((5, bad),) if field == "lr_drops" else bad
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})


def test_lr_at_applies_all_reached_drops():
    cfg = TrainConfig(lr=1.0, lr_drops=((10, 10.0), (20, 10.0)))
    assert cfg.lr_at(1) == 1.0
    assert cfg.lr_at(10) == 0.1
    assert cfg.lr_at(19) == 0.1
    assert cfg.lr_at(20) == pytest.approx(0.01)


def test_train_validates_shapes():
    X, y = toy_problem(m=100)
    with pytest.raises(ValueError):
        train(init_model((5, 3), seed=0), X, y, quick_cfg())  # wrong in_dim
    with pytest.raises(ValueError):
        train(init_model((9, 3), seed=0), X, y[:-1], quick_cfg())
    with pytest.raises(ValueError, match="at least one"):
        train(init_model((9, 3), seed=0), X[:0], y[:0], quick_cfg())


def test_regularized_training_decorrelates_rows():
    # the decorrelation step should push the mean off-diagonal |cos| down
    # relative to the baseline on an easy problem
    X, y = toy_problem(m=400, d=12, k=4, seed=9)
    base, _ = train(init_model((13, 16, 16, 4), seed=0), X, y,
                    quick_cfg(epochs=10, alpha=0.0))
    reg, _ = train(init_model((13, 16, 16, 4), seed=0), X, y,
                   quick_cfg(epochs=10, alpha=0.2))

    def offdiag_mean(model):
        c = np.asarray(spectral_report(model).cosine_matrix)
        mask = ~np.eye(c.shape[0], dtype=bool)
        return float(np.abs(c[mask]).mean())

    assert offdiag_mean(reg) < offdiag_mean(base)
