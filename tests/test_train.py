import inspect
import math
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import smoothcert
from smoothcert import data, rng, sigma_select, smoothing
from smoothcert.nn import (
    backward_batch,
    cross_entropy_batch,
    forward_batch,
    init_model,
    plain_step,
    sgd_step,
)
from smoothcert.sigma_select import SigmaSearchConfig, select_sigma
from smoothcert.smoothing import NoiseConfig, certify, empirical_margin_loss
from smoothcert.spectral import regularizer_and_gradient, spectral_report
from smoothcert.train import EpochMetrics, TrainConfig, TrainingDiverged, ahead, train

from conftest import accuracy, meet_on_two_threads, train_module


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
    assert accuracy(model, X, y) > 0.95
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


def test_regularized_divergence_raises_with_finite_checkpoint():
    # with alpha > 0 the weights overflow while the loss of the epoch is still
    # finite; the end-of-epoch regularizer meets them first
    ds = data.synth_blobs(3, 6, 150, 0.05, 1)
    model = init_model((7, 8, 3), seed=0)
    with pytest.raises(TrainingDiverged) as exc:
        train(model, data.augment(ds.inputs), ds.labels,
              TrainConfig(epochs=3, lr=1e100, alpha=0.1))
    err = exc.value
    assert len(err.metrics) == err.epoch - 1
    assert all(np.isfinite(w).all() for w in err.model.layers)


def test_regularizer_runs_once_per_epoch_boundary(monkeypatch):
    # one call on the initial weights, then one at the end of every epoch
    calls = []

    def counted(model):
        calls.append(model)
        return regularizer_and_gradient(model)

    # the package's ``train`` function hides the module of the same name
    monkeypatch.setattr(sys.modules["smoothcert.train"], "regularizer_and_gradient", counted)
    X, y = toy_problem(m=100)
    train(init_model((9, 8, 3), seed=0), X, y, quick_cfg(epochs=4, alpha=0.1))
    assert len(calls) == 5
    train(init_model((9, 8, 3), seed=0), X, y, quick_cfg(epochs=4, alpha=0.0))
    assert len(calls) == 9


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
    velocities = [np.zeros_like(w) for w in model.layers]
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
            logits, inputs = forward_batch(model, Xb)
            loss, dlogits = cross_entropy_batch(logits, y[idx])
            grads = backward_batch(model, inputs, dlogits)
            model = sgd_step(model, grads, velocities, lr, cfg.momentum, cfg.weight_decay)
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


# ------------------------------------------------------------ thread rule

def test_threads_spread_items_of_2_16_normals_over_the_cores(monkeypatch):
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 4)
    assert train_module._threads((1 << 16) - 1, 10) == 1
    assert train_module._threads(1 << 16, 10) == 4
    assert train_module._threads(1 << 16, 3) == 3  # at most one thread per item
    assert train_module._threads(1 << 16, 1) == 1
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 1)
    assert train_module._threads(1 << 30, 10) == 1


DIGITS, BLOBS = (785, 32, 32, 32, 10), (17, 32, 32, 32, 3)  # the benchmark's models


@pytest.mark.parametrize("phase, dims, want", [
    ("train", DIGITS, [2]),        # a batch draws 256 x 785 = 200,960 normals
    ("train", BLOBS, [1]),         # 256 x 17 = 4,352
    ("sigma", DIGITS, [2]),        # a block of 16 perturbations, 16 x 27,488
    ("sigma", BLOBS, [1]),         # 16 perturbations a block, 16 x 2,688 = 43,008
    ("certify", DIGITS, [1, 2]),   # selection's 100 votes, then 512-vote chunks of
    ("certify", BLOBS, [1, 1]),    # 512 x 139 = 71,168 and 512 x 116 = 59,392 normals
    ("margin", DIGITS, [2]),       # 20 examples x 200 votes x 139 = 556,000
    ("margin", BLOBS, [2]),        # 20 x 200 x 116 = 464,000
    ("sigma", (17, 128, 128, 3), [2]),  # 4 perturbations a block, 4 x 18,944 = 75,776
])
def test_thread_rule_decides_each_phase_from_shapes(monkeypatch, phase, dims, want):
    # the thread count each phase hands ``ahead`` on two cores; the items
    # then run in line, so nothing here depends on timing
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 2)
    seen = []

    def recording(fn, items, threads):
        seen.append(threads)
        return ahead(fn, items, 1)

    module = {"train": train_module, "sigma": sigma_select}.get(phase, smoothing)
    monkeypatch.setattr(module, "ahead", recording)
    model = init_model(dims, seed=1)
    X = rng.stream(40, 98).standard_normal((512, dims[0]))
    y = np.arange(512) % dims[-1]
    noise = NoiseConfig(sigma_input=0.3)
    if phase == "train":  # two batches
        train(model, X, y, TrainConfig(epochs=1, lr=0.01, lr_drops=()))
    elif phase == "sigma":
        select_sigma(model, X, y, SigmaSearchConfig(grid_start=0.01, grid_stop=0.01,
                                                    eval_subset=40))
    elif phase == "certify":
        certify(model, X[0], noise, n_selection=100, n_estimation=2 * smoothing._CHUNK)
    else:  # two blocks
        empirical_margin_loss(model, X[:40], y[:40], 0.1, noise, 200)
    assert seen == want


# ------------------------------------------------------------ ahead

@pytest.mark.parametrize("threads", [2, 3])
def test_ahead_returns_results_in_order_under_random_delays(threads):
    delays = rng.stream(5, 1).uniform(0.0, 2e-3, 40)

    def slow(i):
        time.sleep(delays[i])
        return i * i

    with ahead(slow, zip(range(40)), threads) as results:
        assert list(results) == [i * i for i in range(40)]


def test_ahead_runs_each_item_once_under_frequent_thread_switches():
    # more threads than cores, and the interpreter switching threads as
    # often as it can: a lost or doubled hand-off shows as a wrong count
    runs = [0] * 300
    got = []

    def item(i):
        runs[i] += 1  # one thread per item, if each item is taken once
        return i

    def consume():
        with ahead(item, zip(range(300)), 4) as results:
            got.extend(results)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = threading.active_count()
        t = threading.Thread(target=consume)
        t.start()
        t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not t.is_alive()
    assert got == list(range(300)) and runs == [1] * 300
    assert threading.active_count() == before


def test_ahead_caller_runs_every_item_while_the_helper_is_stalled():
    # 2 threads draw all 4 items at once; the helper stalls on the first
    # item it takes, until the calling thread has run all the others
    caller = threading.get_ident()
    ran = {"caller": [], "helper": []}
    release = threading.Event()

    def item(i):
        if threading.get_ident() == caller:
            ran["caller"].append(i)
            if len(ran["caller"]) == 3:
                release.set()
        else:
            ran["helper"].append(i)
            assert release.wait(timeout=10.0)
        return i

    with ahead(item, zip(range(4)), 2) as results:
        assert list(results) == [0, 1, 2, 3]
    assert len(ran["helper"]) <= 1
    assert sorted(ran["caller"] + ran["helper"]) == [0, 1, 2, 3]


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_ahead_starts_one_thread_fewer_than_it_uses(threads):
    before = threading.active_count()
    alive = []

    def item(i):
        alive.append(threading.active_count())
        time.sleep(1e-3)
        return i

    with ahead(item, zip(range(20)), threads) as results:
        assert list(results) == list(range(20))
    assert max(alive) <= before + threads - 1
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [2, 3])
def test_ahead_draws_items_on_the_calling_thread_at_most_two_per_thread_ahead(threads):
    drawn, taken, drawers = [], [], set()

    def items():
        for i in range(30):
            drawers.add(threading.get_ident())
            drawn.append(i)
            yield (i,)

    with ahead(lambda i: i, items(), threads) as results:
        for r in results:
            taken.append(r)
            assert len(drawn) <= len(taken) + 2 * threads
    assert taken == list(range(30))
    assert drawers == {threading.get_ident()}


def test_ahead_holds_no_result_the_consumer_has_moved_past():
    # whichever thread ran the item, and while the pool still queues the
    # items the calling thread claimed: training's results are its batches
    class Box:
        pass

    refs = {}

    def item(i):
        box = Box()
        refs[i] = weakref.ref(box)
        return box

    met, threads = meet_on_two_threads(item)
    with ahead(met, zip(range(40)), 2) as results:
        for k, _ in enumerate(results):
            assert k == 0 or refs[k - 1]() is None
    assert threading.get_ident() in threads and len(set(threads)) == 2


@pytest.mark.parametrize("who", ["caller", "helper"])
def test_ahead_raises_an_item_error_in_order_and_joins_its_helper(who):
    # both threads run an item at once, then the first item that the
    # chosen thread runs fails
    caller = threading.get_ident()
    failed = []

    def item(i):
        if (threading.get_ident() == caller) == (who == "caller") and not failed:
            failed.append(i)
            raise ValueError(f"item {i}")
        return i

    met, threads = meet_on_two_threads(item)
    before = threading.active_count()
    got = []
    with pytest.raises(ValueError) as raised:
        with ahead(met, zip(range(10)), 2) as results:
            got.extend(results)
    assert (caller in threads) and len(set(threads)) == 2
    assert str(raised.value) == f"item {failed[0]}"
    assert got == list(range(failed[0]))
    assert threading.active_count() == before


class Halt(BaseException):
    """Not an ``Exception``, as ``KeyboardInterrupt`` and ``SystemExit``."""


@pytest.mark.parametrize("who", ["caller", "helper"])
def test_ahead_raises_a_base_exception_from_a_helper_in_turn_and_from_the_caller_at_once(who):
    # From the helper, the first item it runs fails and is raised in its
    # turn.  From the calling thread, the helper holds its first item until
    # the calling thread fails on an item after it, which is raised before
    # the helper's result is taken.  The map runs on a thread of its own,
    # so that an error that never arrives fails the test instead of hanging.
    caller, failed, held, finished = [], [], [], set()
    release = threading.Event()

    def item(i):
        on_caller = threading.get_ident() == caller[0]
        if who == "helper" and not on_caller and not failed:
            failed.append(i)
            raise Halt(i)
        if who == "caller" and not on_caller and not held:
            held.append(i)
            assert release.wait(timeout=10.0)
        if who == "caller" and on_caller and not set(range(i)) <= finished:
            failed.append(i)
            release.set()
            raise Halt(i)
        finished.add(i)
        return i

    met, threads = meet_on_two_threads(item)
    got, raised = [], []

    def consume():
        caller.append(threading.get_ident())
        try:
            with ahead(met, zip(range(10)), 2) as results:
                got.extend(results)
        except Halt as e:
            raised.append(e)

    before = threading.active_count()
    t = threading.Thread(target=consume, daemon=True)
    t.start()
    t.join(timeout=30.0)
    assert not t.is_alive()
    assert caller[0] in threads and len(set(threads)) == 2
    assert [e.args for e in raised] == [(failed[0],)]
    if who == "helper":
        assert got == list(range(failed[0]))
    else:
        assert held[0] < failed[0] and got == list(range(held[0]))
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [2, 3])
def test_ahead_early_exit_runs_no_unstarted_item(threads):
    # A helper holds each item but the first until the block is left, so
    # the drawn items still queued then would start late if the exit left
    # them to the helpers; on 3 threads more of them wait in the pool's queue
    caller = threading.get_ident()
    started, drawn, late = [], [], []
    leaving = threading.Event()

    def items():
        for i in range(100):
            drawn.append(i)
            yield (i,)

    def item(i):
        started.append(i)
        if leaving.is_set():
            late.append(i)
        if i > 0 and threading.get_ident() != caller:
            assert leaving.wait(timeout=10.0)
            time.sleep(0.05)
        return i

    met, _ = meet_on_two_threads(item)
    before = threading.active_count()
    with ahead(met, items(), threads) as results:
        assert next(results) == 0
        leaving.set()
    assert len(drawn) <= 1 + 2 * threads
    seen = list(started)
    time.sleep(0.05)
    assert started == seen and set(started) <= set(drawn)
    assert late == []
    assert threading.active_count() == before


def test_ahead_inside_an_item_runs_in_line_on_either_thread():
    before = threading.active_count()
    alive = []

    def item(i):
        ran = []

        def leaf(j):
            ran.append(threading.get_ident())
            alive.append(threading.active_count())
            return j

        with ahead(leaf, zip(range(6)), 2) as results:
            assert list(results) == list(range(6))
        assert ran == [threading.get_ident()] * 6  # in line, on the item's thread
        return ran[0]

    met, _ = meet_on_two_threads(item)
    with ahead(met, zip(range(6)), 2) as results:
        outer = list(results)
    assert threading.get_ident() in outer and len(set(outer)) == 2
    assert max(alive) <= before + 1
    assert threading.active_count() == before
    # outside any item the calling thread maps on two threads again
    met, threads = meet_on_two_threads(lambda i: i)
    with ahead(met, zip(range(4)), 2) as results:
        assert list(results) == list(range(4))
    assert len(set(threads)) == 2


def test_ahead_items_do_not_see_the_callers_error_state():
    met, threads = meet_on_two_threads(lambda i: np.geterr()["over"])
    with np.errstate(over="raise"), ahead(met, zip(range(4)), 2) as results:
        assert list(results) == ["warn"] * 4  # numpy's default, as on a new thread
    assert threading.get_ident() in threads and len(set(threads)) == 2
