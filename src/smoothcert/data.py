"""Datasets (IDX files, synthetic blobs) and the model checkpoint container.

IDX: the classic big-endian binary image/label format (magic 0x00000803 for
3-D ubyte image tensors, 0x00000801 for 1-D ubyte labels).  Pixels are
scaled into [0, 1] by dividing by 255 and images are flattened row-major.

Checkpoints: 8-byte magic ``SMCERT01``, a little-endian uint32 length prefix,
a UTF-8 JSON header carrying the layer dims / format version / caller
metadata, then each layer's float64 entries row-major little-endian.  Loads
are bit-exact and future format versions are rejected.

Bias augmentation (the appended constant-1 coordinate) is the caller's job
at the model boundary: datasets here store raw inputs.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .nn import MlpModel

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
CHECKPOINT_MAGIC = b"SMCERT01"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """Inputs in [0, 1]^(m x d), integer labels in [0, k), and a name."""

    inputs: np.ndarray
    labels: np.ndarray
    k: int
    name: str

    def __post_init__(self) -> None:
        X = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("inputs must be a 2-D matrix")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must match the number of input rows")
        if X.size and not (X.min() >= 0.0 and X.max() <= 1.0):  # NaN fails both
            raise ValueError("inputs must lie in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if y.size and (y.min() < 0 or y.max() >= self.k):
            raise ValueError("labels must lie in [0, k)")
        X = X.copy()
        y = y.copy()
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "labels", y)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    def subset(self, start: int, stop: int) -> "Dataset":
        return Dataset(self.inputs[start:stop], self.labels[start:stop], self.k, self.name)


def augment(X: np.ndarray) -> np.ndarray:
    """Append a constant-1 coordinate to each row (bias folding)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("augment expects a 2-D matrix")
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"truncated file while reading {what}")
    return data


def _read_idx(path, magic: int, what: str, ndim: int) -> tuple[tuple[int, ...], np.ndarray]:
    """One IDX file's ``ndim`` dims and flat ubyte payload, after checking
    its magic and that the payload is exactly as long as the dims promise."""
    with open(path, "rb") as f:
        (got,) = struct.unpack(">I", _read_exact(f, 4, f"{what} magic"))
        if got != magic:
            raise ValueError(f"bad {what} magic 0x{got:08x} in {path}")
        dims = struct.unpack(f">{ndim}I", _read_exact(f, 4 * ndim, f"{what} dims"))
        payload = f.read()
    expected = math.prod(dims)
    if len(payload) != expected:
        raise ValueError(f"{what} payload is {len(payload)} bytes, header promises {expected}")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path, name: str | None = None, k: int | None = None) -> Dataset:
    """Load an IDX image/label file pair into a Dataset.

    ``_read_idx`` checks each file's magic, dims and payload length; a set
    with no images or no pixels, or whose image and label counts differ, is
    rejected.  ``k`` defaults to max(label) + 1.
    """
    (count, rows, cols), pixels = _read_idx(images_path, IMAGE_MAGIC, "image", 3)
    if count == 0 or rows * cols == 0:
        raise ValueError(f"empty IDX images in {images_path}: {count} x {rows} x {cols}")
    (lcount,), labels = _read_idx(labels_path, LABEL_MAGIC, "label", 1)
    if lcount != count:
        raise ValueError(f"image count {count} != label count {lcount}")
    if k is None:
        k = int(labels.max()) + 1
    images = (pixels / 255.0).reshape(count, rows * cols)
    return Dataset(images, labels, k, name or Path(images_path).stem)  # casts labels to int64


def synth_blobs(k: int, d: int, m: int, spread: float, seed: int, name: str = "synth") -> Dataset:
    """Balanced k-class Gaussian blobs in [0, 1]^d.

    Cluster centers are seeded random unit vectors affinely mapped into the
    unit cube; points add ``spread``-scaled Gaussian noise and are clipped
    back into [0, 1].  Class counts are balanced to within one example and
    the row order is a seeded shuffle.  spread = 0 reproduces the centers
    exactly.
    """
    if k < 2 or d < 1 or m < k:
        raise ValueError("need k >= 2, d >= 1, m >= k")
    if spread < 0.0:
        raise ValueError("spread must be >= 0")
    g = rng.stream(seed, rng.PHASE_SYNTH)
    centers = g.standard_normal((k, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers = (centers + 1.0) / 2.0
    labels = np.arange(m, dtype=np.int64) % k
    points = centers[labels]
    if spread > 0.0:
        points = np.clip(points + spread * g.standard_normal((m, d)), 0.0, 1.0)
    perm = g.permutation(m)
    return Dataset(points[perm], labels[perm], k, name)


def synth_digits(
    k: int,
    d: int,
    m: int,
    seed: int,
    gain_lo: float = 0.6,
    gain_hi: float = 1.0,
    dropout: float = 0.10,
    pixel_noise: float = 0.05,
    name: str = "synth-digits",
) -> Dataset:
    """Balanced k-class sparse-template images in [0, 1]^d.

    Each class gets a fixed sparse template (about 15% of coordinates lit
    with values in [0.4, 1.0], the rest zero).  A sample is its class
    template scaled by a random gain in [gain_lo, gain_hi], with a random
    ``dropout`` fraction of coordinates zeroed, plus clipped per-pixel
    Gaussian noise.  Unlike the isotropic blobs, this gives zero-background
    inputs with strong sparse class features and per-sample difficulty
    variation, which is the regime where noise-augmented training and
    vote certification behave like they do on handwritten-digit data.
    """
    if k < 2 or d < 1 or m < k:
        raise ValueError("need k >= 2, d >= 1, m >= k")
    if not 0.0 <= dropout < 1.0:
        raise ValueError("dropout must lie in [0, 1)")
    if pixel_noise < 0.0:
        raise ValueError("pixel_noise must be >= 0")
    if not 0.0 <= gain_lo <= gain_hi:
        raise ValueError("need 0 <= gain_lo <= gain_hi")
    g = rng.stream(seed, rng.PHASE_SYNTH, 1)
    support = max(1, int(0.15 * d))
    templates = np.zeros((k, d))
    for c in range(k):
        idx = g.choice(d, size=support, replace=False)
        templates[c, idx] = g.uniform(0.4, 1.0, size=support)
    labels = np.arange(m, dtype=np.int64) % k
    gains = g.uniform(gain_lo, gain_hi, size=m)
    points = templates[labels] * gains[:, None]
    if dropout > 0.0:
        points = points * (g.random(size=(m, d)) > dropout)
    if pixel_noise > 0.0:
        points = points + pixel_noise * g.standard_normal((m, d))
    points = np.clip(points, 0.0, 1.0)
    perm = g.permutation(m)
    return Dataset(points[perm], labels[perm], k, name)


def save_checkpoint(path, model: MlpModel, meta: dict | None = None) -> None:
    """Write a model (plus JSON-serializable metadata) to ``path``."""
    header = {
        "version": CHECKPOINT_VERSION,
        "dims": list(model.dims),
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for w in model.layers:
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[MlpModel, dict]:
    """Read a checkpoint back, bit-exactly; rejects bad magic, a header that
    is not a JSON object, future versions, dims that are not integers >= 1
    or disagree with the file size (checked before any layer is read) and
    trailing garbage; non-finite weights are refused by ``MlpModel``."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint: bad magic {magic!r}")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, "header length"))
        size = os.fstat(f.fileno()).st_size
        if hlen > size - f.tell():  # refuse before allocating the promised bytes
            raise ValueError(f"truncated checkpoint: header length {hlen} exceeds the file")
        try:
            header = json.loads(_read_exact(f, hlen, "header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise ValueError(f"corrupt checkpoint header: {e}") from e
        if not isinstance(header, dict):
            raise ValueError(f"corrupt checkpoint header: expected a JSON object, "
                             f"got {type(header).__name__}")
        version = header.get("version")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        dims = header.get("dims")
        if (
            not isinstance(dims, list)
            or len(dims) < 2
            or any(type(v) is not int or v < 1 for v in dims)
        ):
            raise ValueError(f"corrupt checkpoint dims {dims!r}")
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"corrupt checkpoint meta {meta!r}")
        # compare the declared payload with the file before allocating any of it
        declared = 8 * sum(a * b for a, b in zip(dims, dims[1:]))
        left = size - f.tell()
        if left < declared:
            raise ValueError(f"truncated checkpoint: header declares {declared} "
                             f"weight bytes, {left} follow")
        if left > declared:
            raise ValueError(f"trailing bytes after the last layer ({left - declared})")
        layers = tuple(np.frombuffer(f.read(8 * a * b), dtype="<f8").reshape(b, a)
                       for a, b in zip(dims, dims[1:]))
    return MlpModel(layers), meta
