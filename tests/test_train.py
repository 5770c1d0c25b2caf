import inspect
import math
import os
import sys
import threading

import numpy as np
import pytest

import smoothcert
from smoothcert import data, rng
from smoothcert.nn import (
    SgdState,
    backward_batch,
    cross_entropy_batch,
    forward_batch,
    init_model,
    plain_step,
    sgd_step,
)
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


def serial_train(model, X, y, cfg):
    """The training loop written out serially from the public functions:
    each batch's noise is drawn in line, just before its SGD step."""
    m = X.shape[0]
    sigma = float(np.sqrt(cfg.noise_variance))
    state = SgdState.zeros_like(model)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.lr_at(epoch)
        perm = rng.stream(cfg.seed, rng.PHASE_SHUFFLE, epoch).permutation(m)
        loss_sum, hit_sum = 0.0, 0
        for b, start in enumerate(range(0, m, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            if b == 0 and cfg.alpha > 0.0:
                _, reg_grads = regularizer_and_gradient(model)
                model = plain_step(model, reg_grads, lr * cfg.alpha)
            Xb = X[idx]
            if sigma > 0.0:
                g = rng.stream(cfg.seed, rng.PHASE_TRAIN_NOISE, epoch, b)
                Xb = Xb + sigma * g.standard_normal(Xb.shape)
            logits, cache = forward_batch(model, Xb)
            loss, dlogits = cross_entropy_batch(logits, y[idx])
            grads = backward_batch(model, cache, dlogits)
            model = sgd_step(model, grads, state, lr, cfg.momentum, cfg.weight_decay)
            loss_sum += loss * idx.shape[0]
            hit_sum += int(np.sum(np.argmax(logits, axis=1) == y[idx]))
        reg_value, _ = regularizer_and_gradient(model)
        history.append((loss_sum / m, hit_sum / m, reg_value, lr))
    return model, history


# (m, d, batch): 256 x 300 noise values per batch is above the 1 << 16 at
# which batches are drawn ahead on threads (the last batch of 600 is
# ragged); 64 x 9 is below it
SHAPES = [(600, 300, 256), (300, 9, 64)]


def shaped_problem(m, d, seed=3):
    ds = data.synth_blobs(4, d - 1, m, spread=0.3, seed=seed)
    return data.augment(ds.inputs), ds.labels


@pytest.mark.parametrize("m, d, batch", SHAPES)
def test_training_matches_serial_loop_bit_for_bit(m, d, batch):
    X, y = shaped_problem(m, d)
    cfg = quick_cfg(epochs=4, batch_size=batch, lr=0.1, lr_drops=((2, 10.0), (4, 2.0)),
                    weight_decay=1e-4, noise_variance=0.12, alpha=0.1, seed=4)
    model = init_model((d, 16, 16, 4), seed=2)
    got, metrics = train(model, X, y, cfg)
    want, history = serial_train(model, X, y, cfg)
    for lg, lw in zip(got.layers, want.layers, strict=True):
        assert np.array_equal(lg, lw)
    assert [(e.loss, e.train_acc, e.reg_value, e.lr) for e in metrics] == history
    assert [e.lr for e in metrics] == [0.1, 0.01, 0.01, 0.005]


def _record_threads(monkeypatch):
    """Wrap every public smoothcert function wherever a smoothcert module
    binds it, as perfbench's tracer does; returns the set of thread ids the
    wrappers ran on and the most threads seen alive inside one."""
    seen = {"ids": set(), "alive": 0}

    def wrap(fn):
        def wrapper(*args, **kwargs):
            seen["ids"].add(threading.get_ident())
            seen["alive"] = max(seen["alive"], threading.active_count())
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "smoothcert" or n.startswith("smoothcert."))]
    wrappers = {fn: wrap(fn) for m in modules for name, fn in vars(m).items()
                if inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__.startswith("smoothcert.")}
    for m in modules:
        for attr, value in list(vars(m).items()):
            if inspect.isfunction(value) and value in wrappers:
                monkeypatch.setattr(m, attr, wrappers[value])
    return seen


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("m, d, batch", SHAPES)
def test_no_thread_outlives_training(monkeypatch, m, d, batch):
    X, y = shaped_problem(m, d)
    model = init_model((d, 8, 4), seed=0)
    seen = _record_threads(monkeypatch)
    before = threading.active_count()

    # called through the package, where the wrapper is bound
    smoothcert.train(model, X, y, quick_cfg(batch_size=batch))
    assert threading.active_count() == before
    # lr * weight_decay > 2 diverges (see test_divergence_raises_with_last_checkpoint)
    with pytest.raises(TrainingDiverged):
        smoothcert.train(model, X, y, quick_cfg(epochs=200, batch_size=batch, lr=100.0,
                                                momentum=0.0, weight_decay=1.0))
    assert threading.active_count() == before

    # rng.stream and the nn/spectral steps run on the calling thread only
    assert seen["ids"] == {threading.get_ident()}
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    pooled = batch * d >= 1 << 16 and cores > 1
    assert (seen["alive"] > before) == pooled
