"""Shared helpers: random models, argmax accuracy, loop-based reference
forward pass, finite differences, a minimal IDX writer, a checkpoint
weight patcher, the joint-noise test case and a two-thread meeting point
for threaded maps.  The
reference implementations here stay deliberately dumb (python loops, no
shortcuts) so they can serve as independent oracles."""

import struct
import threading

import numpy as np
import pytest

from smoothcert import data, rng
from smoothcert.nn import MlpModel, forward_batch


def write_idx_pair(tmp_path, images, labels, rows, cols, stem="set"):
    """Write a minimal big-endian IDX image/label pair."""
    img = tmp_path / f"{stem}-img.idx"
    lab = tmp_path / f"{stem}-lab.idx"
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", data.IMAGE_MAGIC, len(labels), rows, cols))
        f.write(np.asarray(images, dtype=np.uint8).tobytes())
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", data.LABEL_MAGIC, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return img, lab


def with_weight(raw: bytes, index: int, value: float) -> bytes:
    """A checkpoint's bytes with weight ``index`` (counted row-major across
    the layers) set to ``value``: the way a non-finite weight, which
    ``MlpModel`` refuses, gets into a file."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    at = 12 + hlen + 8 * index
    return raw[:at] + struct.pack("<d", value) + raw[at + 8:]


def joint_noise_case():
    """A two-class linear model whose first layer (2 rows, 6 inputs) takes
    the row-space path, and an input near its decision boundary."""
    g = np.random.default_rng(3)
    w = g.standard_normal((2, 6))
    return w, 0.3 * g.standard_normal(6)


def rand_model(dims, seed=0, scale=1.0):
    g = rng.stream(seed, 99)
    layers = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        layers.append(scale * g.standard_normal((n_out, n_in)) / np.sqrt(n_in))
    return MlpModel(layers=tuple(np.ascontiguousarray(L) for L in layers))


def accuracy(model, X, y):
    """Plain argmax accuracy (ties to the lowest class index)."""
    return float(np.mean(np.argmax(forward_batch(model, X)[0], axis=1) == y))


def loop_forward(model, x):
    # straight-line evaluator: explicit loops, ReLU between layers only
    h = [float(v) for v in x]
    n = len(model.layers)
    for li, W in enumerate(model.layers):
        out = []
        for i in range(W.shape[0]):
            s = 0.0
            for j in range(W.shape[1]):
                s += float(W[i, j]) * h[j]
            out.append(s)
        if li < n - 1:
            out = [v if v > 0.0 else 0.0 for v in out]
        h = out
    return np.array(h)


def central_diff(f, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = f(x)
        flat[i] = keep - step
        down = f(x)
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * step)
    return g


def relative_error(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = np.maximum(np.abs(want), 1e-300)
    return float(np.max(np.abs(got - want) / denom))


def meet_on_two_threads(fn, after=0):
    """Wrap ``fn`` so that, from call ``after`` on, the first call on each
    of the first two threads to arrive waits until the other has arrived
    too.  A threaded map passes only if two threads run its items at once;
    one that runs them all on one thread fails with
    ``threading.BrokenBarrierError`` after a 10 s timeout, not by scheduling
    luck.  Returns the wrapper and the thread id of every call, in order."""
    barrier = threading.Barrier(2, timeout=10.0)
    lock = threading.Lock()
    calls, met = [], set()

    def wrapper(*args, **kwargs):
        me = threading.get_ident()
        with lock:
            calls.append(me)
            wait = len(calls) > after and me not in met and len(met) < 2
            if wait:
                met.add(me)
        if wait:
            barrier.wait()
        return fn(*args, **kwargs)

    return wrapper, calls


@pytest.fixture
def tiny_model():
    return rand_model((6, 5, 4, 3), seed=7)
