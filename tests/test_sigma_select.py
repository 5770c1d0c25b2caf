import math
import threading

import numpy as np
import pytest

from smoothcert import data, rng, sigma_select
from smoothcert.nn import MlpModel, init_model
from smoothcert.sigma_select import SigmaSearchConfig, SigmaSearchResult, select_sigma
from smoothcert.train import TrainConfig, train

from conftest import accuracy, meet_on_two_threads, train_module


def trained_toy():
    ds = data.synth_blobs(3, 10, 400, spread=0.04, seed=3)
    X, y = data.augment(ds.inputs), ds.labels
    model = init_model((11, 16, 3), seed=0)
    model, _ = train(model, X, y, TrainConfig(
        epochs=8, batch_size=64, lr=0.05, lr_drops=(), momentum=0.9,
        noise_variance=0.0, alpha=0.0, seed=0))
    assert accuracy(model, X, y) > 0.97
    return model, X, y


def test_selected_variance_is_on_grid_and_flag_clear():
    model, X, y = trained_toy()
    cfg = SigmaSearchConfig(grid_start=0.01, grid_stop=0.25, grid_step=0.01,
                            n_samples=10, tolerance=0.05, eval_subset=200)
    res = select_sigma(model, X, y, cfg)
    assert not res.flagged_none_qualified
    assert any(abs(res.sigma2 - g) < 1e-12 for g in cfg.grid())
    assert res.base_accuracy > 0.97
    # every traced point at or below the winner qualified when scanned
    assert res.trace[-1][0] >= res.sigma2


def test_mean_drop_trend_is_monotone_up_to_mc_noise():
    # average the trace over 5 repetitions (independent base seeds), smooth
    # over 5 grid neighbours, then require a near-monotone rise
    model, X, y = trained_toy()
    traces = []
    for s in range(5):
        cfg = SigmaSearchConfig(grid_start=0.02, grid_stop=0.5, grid_step=0.02,
                                n_samples=8, tolerance=1.0, eval_subset=150,
                                full_scan=True, base_seed=s)
        traces.append([d for _, d in select_sigma(model, X, y, cfg).trace])
    drops = np.mean(traces, axis=0)
    sm = np.convolve(drops, np.ones(5) / 5.0, mode="valid")
    assert sm[-1] > 3.0 * sm[0]
    assert all(b >= a - 0.02 for a, b in zip(sm, sm[1:]))


def test_untrained_model_gets_flagged_minimum():
    # random weights: accuracy is chance everywhere, so no variance "drops"
    # little -- but the drop is also near zero, so force failure with a
    # negative-tolerance-like tiny tolerance and noisy model instead
    ds = data.synth_blobs(3, 10, 200, spread=0.04, seed=4)
    X, y = data.augment(ds.inputs), ds.labels
    model, _ = train(init_model((11, 16, 3), seed=0), X, y, TrainConfig(
        epochs=6, batch_size=64, lr=0.05, lr_drops=(), momentum=0.9,
        noise_variance=0.0, alpha=0.0, seed=0))
    cfg = SigmaSearchConfig(grid_start=2.0, grid_stop=3.0, grid_step=0.5,
                            n_samples=10, tolerance=0.01, eval_subset=150)
    res = select_sigma(model, X, y, cfg)
    assert res.flagged_none_qualified
    assert res.sigma2 == pytest.approx(2.0)


def test_tolerance_override_changes_selection():
    model, X, y = trained_toy()
    tight = select_sigma(model, X, y, SigmaSearchConfig(
        grid_start=0.01, grid_stop=0.6, grid_step=0.01, n_samples=8,
        tolerance=0.02, eval_subset=150))
    loose = select_sigma(model, X, y, SigmaSearchConfig(
        grid_start=0.01, grid_stop=0.6, grid_step=0.01, n_samples=8,
        tolerance=0.2, eval_subset=150))
    assert loose.sigma2 >= tight.sigma2


def test_deterministic_given_base_seed():
    model, X, y = trained_toy()
    cfg = SigmaSearchConfig(grid_start=0.01, grid_stop=0.2, grid_step=0.01,
                            n_samples=6, tolerance=0.05, eval_subset=100)
    a = select_sigma(model, X, y, cfg)
    b = select_sigma(model, X, y, cfg)
    assert a == b


def test_grid_and_config_validation():
    cfg = SigmaSearchConfig(grid_start=0.1, grid_stop=0.3, grid_step=0.1)
    assert np.allclose(cfg.grid(), [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        SigmaSearchConfig(grid_start=0.0)
    with pytest.raises(ValueError):
        SigmaSearchConfig(grid_start=0.5, grid_stop=0.1)
    with pytest.raises(ValueError):
        SigmaSearchConfig(grid_step=-1.0)
    with pytest.raises(ValueError):
        SigmaSearchConfig(tolerance=-0.01)
    with pytest.raises(ValueError):
        SigmaSearchConfig(n_samples=0)


@pytest.mark.parametrize("field", ["grid_start", "grid_stop", "grid_step", "tolerance"])
def test_config_rejects_non_finite(field):
    # grid_stop=inf overflowed in grid(); grid_step=inf gave an empty grid
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SigmaSearchConfig(**{field: bad})


def test_empty_evaluation_set_is_rejected():
    # an empty set would give base_accuracy NaN and silently select the grid top
    model = init_model((3, 2), seed=0)
    with pytest.raises(ValueError, match="at least one"):
        select_sigma(model, np.zeros((0, 3)), np.zeros(0, dtype=int), SigmaSearchConfig())


def test_result_trace_is_immutable_tuple():
    model, X, y = trained_toy()
    res = select_sigma(model, X, y, SigmaSearchConfig(
        grid_start=0.01, grid_stop=0.05, grid_step=0.01, n_samples=4,
        tolerance=0.5, eval_subset=80))
    assert isinstance(res, SigmaSearchResult)
    assert isinstance(res.trace, tuple)
    assert all(isinstance(t, tuple) and len(t) == 2 for t in res.trace)


def per_model_trace(model, X, y, cfg):
    """The search's full-scan trace the plain way: one perturbed ``MlpModel``
    per draw, scored by its argmax accuracy."""
    X, y = X[: cfg.eval_subset], y[: cfg.eval_subset]
    base = accuracy(model, X, y)
    trace = []
    for gi, sigma2 in enumerate(cfg.grid()):
        sig = float(np.sqrt(sigma2))
        accs = np.empty(cfg.n_samples)
        for j in range(cfg.n_samples):
            g = rng.stream(cfg.base_seed, rng.PHASE_SIGMA, gi, j)
            perturbed = MlpModel(tuple(w + sig * g.standard_normal(w.shape) for w in model.layers))
            accs[j] = accuracy(perturbed, X, y)
        trace.append((float(sigma2), max(0.0, base - float(accs.mean()))))
    return tuple(trace)


@pytest.mark.parametrize("dims, n_samples", [
    ((11, 3), 400),          # one layer, at most 170 a block: 3, 4 or 3 blocks on 1-3 cores
    ((150, 100, 7, 3), 12),  # 100 does not divide 512, at most 5 a block: 3, 4 or 3
    ((11, 16, 3), 5),        # h0 >= d, stacked as well: 1, 2 or 3 blocks on 1-3 cores
])
def test_block_evaluation_matches_per_model_loop(monkeypatch, dims, n_samples):
    ds = data.synth_blobs(3, dims[0] - 1, 300, spread=0.3, seed=5)
    X, y = data.augment(ds.inputs), ds.labels
    model, _ = train(init_model(dims, seed=1), X, y, TrainConfig(
        epochs=3, batch_size=64, lr=0.05, lr_drops=(), momentum=0.9,
        noise_variance=0.0, alpha=0.0, seed=0))
    cfg = SigmaSearchConfig(grid_start=0.02, grid_stop=0.3, grid_step=0.14,
                            n_samples=n_samples, tolerance=1.0, eval_subset=250,
                            full_scan=True, base_seed=2)
    expected = per_model_trace(model, X, y, cfg)
    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)  # thread these small models
    # the sample counts divide neither the block size nor the core count
    for cores in (1, 2, 3):
        monkeypatch.setattr(train_module, "_usable_cores", lambda: cores)
        res = select_sigma(model, X, y, cfg)
        assert res.trace == expected
        assert len(res.trace) == 3
        assert res.base_accuracy == accuracy(model, X[:250], y[:250])


def recording_blocks(monkeypatch, threaded, fail_at=None):
    """Patch the block scorer to record each call's thread and block size,
    raising on call ``fail_at``; when ``threaded``, the first blocks of two
    threads must run at once (see ``meet_on_two_threads``)."""
    sizes = []
    score = sigma_select._block_accuracies

    def recording(model, X, y, sig, gens):
        sizes.append(len(gens))
        if len(sizes) == fail_at:
            raise RuntimeError("block failed")
        return score(model, X, y, sig, gens)

    met, threads = meet_on_two_threads(recording, after=0 if threaded else math.inf)
    monkeypatch.setattr(sigma_select, "_block_accuracies", met)
    return sizes, threads


@pytest.mark.parametrize("dims, cores, sizes, threaded", [
    ((40, 32, 3), 2, [12, 13, 12, 13], True),   # at most 16 a block: 4 equal blocks
    ((40, 32, 3), 3, [8, 8, 9, 8, 8, 9], True),
    ((40, 32, 3), 1, [12, 13, 12, 13], False),
    ((11, 16, 3), 2, [25, 25], False),          # at most 32 a block, on the calling thread
])
def test_perturbations_run_in_equal_blocks_per_core(monkeypatch, dims, cores, sizes, threaded):
    model = init_model(dims, seed=4)
    X = rng.stream(19, 1).standard_normal((60, dims[0]))
    y = np.arange(60) % 3
    monkeypatch.setattr(train_module, "_usable_cores", lambda: cores)
    if threaded:  # a block of 16 draws 16 x 1,376 = 22,016 normals; 11 -> 16 -> 3's, 32 x 224
        monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)
    got, threads = recording_blocks(monkeypatch, threaded)
    start = threading.active_count()
    select_sigma(model, X, y, SigmaSearchConfig(grid_start=0.01, grid_stop=0.01, n_samples=50))
    assert sorted(got) == sorted(sizes)  # the caller may start a later block first
    if threaded:
        assert len(set(threads)) >= 2
    else:
        assert set(threads) == {threading.get_ident()}
    assert threading.active_count() == start


def test_sigma_search_joins_its_threads_also_when_a_block_raises(monkeypatch):
    model = init_model((40, 32, 3), seed=4)
    X = rng.stream(19, 1).standard_normal((60, 40))
    y = np.zeros(60, dtype=int)
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 2)
    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)  # thread this small model
    _, threads = recording_blocks(monkeypatch, threaded=True, fail_at=3)
    start = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        select_sigma(model, X, y, SigmaSearchConfig(n_samples=50))
    # two blocks ran at once, one on the calling thread
    assert threading.get_ident() in threads and len(set(threads)) == 2
    assert threading.active_count() == start
