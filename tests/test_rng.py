import threading

import numpy as np
import pytest

import oracles
from conftest import meet_on_two_threads, train_module
from smoothcert import data, nn, rng, smoothing
from smoothcert.sigma_select import SigmaSearchConfig, select_sigma
from smoothcert.smoothing import NoiseConfig
from smoothcert.train import TrainConfig, train


def test_same_path_same_draws():
    a = rng.stream(42, 3, 1).standard_normal(100)
    b = rng.stream(42, 3, 1).standard_normal(100)
    assert np.array_equal(a, b)


def test_different_paths_differ():
    a = rng.stream(42, 3, 1).standard_normal(100)
    b = rng.stream(42, 3, 2).standard_normal(100)
    c = rng.stream(42, 4, 1).standard_normal(100)
    d = rng.stream(43, 3, 1).standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_path_order_matters():
    a = rng.stream(0, 1, 2).standard_normal(8)
    b = rng.stream(0, 2, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_returns_numpy_generator():
    g = rng.stream(0)
    assert isinstance(g, np.random.Generator)


def test_order_independence_across_streams():
    # drawing from stream A never perturbs stream B
    a1 = rng.stream(5, 1)
    b1 = rng.stream(5, 2)
    _ = a1.standard_normal(1000)
    got_b_after = b1.standard_normal(10)
    got_b_fresh = rng.stream(5, 2).standard_normal(10)
    assert np.array_equal(got_b_after, got_b_fresh)


def test_phase_constants_distinct():
    names = [n for n in dir(rng) if n.startswith("PHASE_")]
    values = [getattr(rng, n) for n in names]
    assert len(names) >= 8
    assert len(set(values)) == len(values)


def test_rejects_negative_seed():
    with pytest.raises(ValueError):
        rng.stream(-1)
    # and every other negative component, numpy integers included
    for bad in (-1, np.int64(-1)):
        with pytest.raises(ValueError):
            rng.stream(0, bad)
        with pytest.raises(ValueError):
            rng.stream(bad, 0)
        with pytest.raises(ValueError):
            rng.vote_stream((0, rng.PHASE_MARGIN, 0), bad)


def test_non_integer_key_components_are_refused():
    # the keys were once truncated by int(): stream(0, 1.7) was stream(0, 1),
    # and certify at sample_index=1.9 reused sample 1's votes
    with pytest.raises(TypeError):
        rng.stream(0, 1.7)
    with pytest.raises(TypeError):
        rng.vote_stream((0.9, rng.PHASE_ESTIMATION, 1), 0)
    with pytest.raises(TypeError):
        smoothing.certify(nn.init_model((3, 2), seed=0), np.ones(3), NoiseConfig(0.5),
                          n_selection=10, n_estimation=10, sample_index=1.9)
    # SeedSequence would fill a None seed from the OS
    with pytest.raises(TypeError):
        rng.stream(None, 1)
    with pytest.raises(TypeError):
        rng.vote_stream((None, rng.PHASE_ESTIMATION, 1), 0)


def test_numpy_integer_components_key_the_python_int_streams():
    want = rng.stream(3, 4, 5).standard_normal(8)
    got = rng.stream(np.int64(3), np.uint32(4), np.int64(5)).standard_normal(8)
    assert np.array_equal(got, want)
    key = (np.uint32(3), np.int64(rng.PHASE_MARGIN), np.uint32(2))
    want = rng.vote_stream((3, rng.PHASE_MARGIN, 2), 1).standard_normal(8)
    assert np.array_equal(rng.vote_stream(key, np.int64(1)).standard_normal(8), want)


def test_vote_stream_is_sfc64_keyed_by_chunk():
    a = rng.vote_stream((42, rng.PHASE_ESTIMATION, 3), 0)
    assert isinstance(a.bit_generator, np.random.SFC64)
    assert a.bit_generator.seed_seq.spawn_key == (rng.PHASE_ESTIMATION, 3, 0)
    same = rng.vote_stream((42, rng.PHASE_ESTIMATION, 3), 0).standard_normal(100)
    other = rng.vote_stream((42, rng.PHASE_ESTIMATION, 3), 1).standard_normal(100)
    first = a.standard_normal(100)
    assert np.array_equal(first, same)
    assert not np.array_equal(first, other)
    with pytest.raises(ValueError):
        rng.vote_stream((0, rng.PHASE_ESTIMATION, -1), 0)
    with pytest.raises(ValueError):
        rng.vote_stream((-1, rng.PHASE_ESTIMATION, 0), 0)


def _record_keys(monkeypatch) -> list:
    """Make every ``rng`` stream append its ``(base_seed, *spawn_key)`` path
    to the returned list, whichever bit generator the path feeds."""
    keys = []
    stream, vote_stream = rng.stream, rng.vote_stream

    def record_stream(base_seed, *path):
        keys.append((base_seed, *path))
        return stream(base_seed, *path)

    def record_vote(key, chunk):
        keys.append((*key, chunk))
        return vote_stream(key, chunk)

    monkeypatch.setattr(rng, "stream", record_stream)
    monkeypatch.setattr(rng, "vote_stream", record_vote)
    return keys


def test_no_two_consumers_share_a_stream_key(monkeypatch):
    # every consumer in the package and in the test oracles, all at base seed
    # 0 over small indices: no path may repeat, whichever bit generator it
    # feeds, and every phase tag must show up
    keys = _record_keys(monkeypatch)
    ds = data.synth_blobs(3, 2, 60, 0.1, 0)
    data.synth_digits(3, 4, 6, 0)
    X = data.augment(ds.inputs)
    model = nn.init_model((3, 6, 3), seed=0)
    model, _ = train(model, X, ds.labels, TrainConfig(epochs=7, batch_size=16, seed=0))
    select_sigma(model, X, ds.labels, SigmaSearchConfig(
        grid_start=0.01, grid_stop=0.03, grid_step=0.01, n_samples=3, full_scan=True))
    noise = NoiseConfig(sigma_input=0.3, sigma_weight=0.1, base_seed=0)
    num = 2 * smoothing._CHUNK + 1
    for i in range(6):
        smoothing.certify(model, X[i], noise, n_selection=10, n_estimation=num, sample_index=i)
    smoothing.empirical_margin_loss(model, X[:6], ds.labels[:6], 0.1, noise, num)
    oracles.mc_correlation(model, 10, 1.0, seed=0)
    oracles.grid_attack(model, X[0], 0, 0.0, 0.2, noise, grid_density=3,
                        votes_per_probe=num, sample_index=2)
    assert len(set(keys)) == len(keys)
    assert {k[0] for k in keys} == {0}
    phases = {v for n, v in vars(rng).items() if n.startswith("PHASE_")}
    assert {k[1] for k in keys} == phases


# 1024 votes are two whole chunks in blocks of 4 examples, 1500 are three
# chunks in blocks of 2, and 2049 four chunks and a bit, one example a block
@pytest.mark.parametrize("num", [7, 200, 1024, 1500, 2049])
def test_margin_loss_keys_one_stream_per_example_and_chunk_in_order(monkeypatch, num):
    # many examples share a block when num <= _BLOCK_VOTES // 2, yet
    # example i still draws chunk c from its own key, and the keys come
    # block by block, each block's chunks in order, and within a chunk in
    # example order
    model = nn.init_model((5, 4, 3), seed=0)
    m = 11
    X = rng.stream(0, 99).standard_normal((m, 5))
    keys = _record_keys(monkeypatch)
    smoothing.empirical_margin_loss(model, X, np.arange(m) % 3, 0.1,
                                    NoiseConfig(sigma_input=0.3, base_seed=4), num)
    chunks = -(-num // smoothing._CHUNK)
    per_block = max(1, smoothing._BLOCK_VOTES // num)
    assert keys == [(4, rng.PHASE_MARGIN, i, c)
                    for start in range(0, m, per_block) for c in range(chunks)
                    for i in range(start, min(start + per_block, m))]


def test_certify_builds_its_chunk_generators_on_the_calling_thread_in_order(monkeypatch):
    # the chunks are tallied on two threads, but every generator is built on
    # the calling thread, selection's and then estimation's chunks in order.
    # After selection's two products, two threads must run estimation chunks
    # at once (see ``meet_on_two_threads``), so the check of the workers
    # below does not hang on scheduling luck
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 2)
    monkeypatch.setattr(train_module, "_ITEM_MIN_NORMALS", 0)
    built = []
    vote_stream = rng.vote_stream

    def record_vote(key, chunk):
        built.append((threading.get_ident(), (*key, chunk)))
        return vote_stream(key, chunk)

    record_product, calls = meet_on_two_threads(smoothing._product, after=2)
    monkeypatch.setattr(rng, "vote_stream", record_vote)
    monkeypatch.setattr(smoothing, "_product", record_product)
    model = nn.init_model((3, 4, 2), seed=0)
    noise = NoiseConfig(sigma_input=0.5, base_seed=0)
    smoothing.certify(model, np.ones(3), noise, n_selection=10,
                      n_estimation=6 * smoothing._CHUNK + 1, sample_index=2)
    me = threading.get_ident()
    assert built == [(me, (0, rng.PHASE_SELECTION, 2, 0))] + [
        (me, (0, rng.PHASE_ESTIMATION, 2, c)) for c in range(7)]
    assert set(calls) - {me}  # some chunks ran on the workers


def test_certify_estimation_misses_the_shuffle_stream(monkeypatch):
    # vote keys were once (seed, index, phase), so at seed 0 sample 2's
    # estimation votes drew from stream(0, PHASE_SHUFFLE, 5): the stream that
    # ordered training epoch 5's minibatches
    shuffle = rng.stream(0, rng.PHASE_SHUFFLE, 5).bit_generator.seed_seq.generate_state(8)
    model = nn.init_model((3, 4, 2), seed=0)
    noise = NoiseConfig(sigma_input=0.5, base_seed=0)
    keys = _record_keys(monkeypatch)
    smoothing.certify(model, np.ones(3), noise, n_selection=10,
                      n_estimation=2 * smoothing._CHUNK, sample_index=2)
    est = [k for k in keys if k[:3] == (0, rng.PHASE_ESTIMATION, 2)]
    assert len(est) == 2
    for base_seed, *path in est:
        seq = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(path))
        assert not np.array_equal(seq.generate_state(8), shuffle)
    assert (0, rng.PHASE_SHUFFLE, 5) not in {k[:3] for k in keys}
