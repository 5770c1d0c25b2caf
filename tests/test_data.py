import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import with_weight, write_idx_pair
from smoothcert import data
from smoothcert.nn import MlpModel, init_model


# ------------------------------------------------------------ IDX

def test_idx_round_trip(tmp_path):
    pixels = np.arange(24, dtype=np.uint8).reshape(4, 6) * 10
    labels = [0, 1, 2, 1]
    img, lab = write_idx_pair(tmp_path, pixels, labels, rows=2, cols=3)
    ds = data.load_idx(img, lab)
    assert ds.m == 4 and ds.d == 6 and ds.k == 3
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.inputs, pixels / 255.0)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


def test_idx_name_and_explicit_k(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 4), np.uint8), [0, 1], 2, 2)
    ds = data.load_idx(img, lab, name="mnist-train", k=10)
    assert ds.name == "mnist-train"
    assert ds.k == 10


def test_idx_rejects_bad_image_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 4), np.uint8), [0], 2, 2)
    raw = bytearray(img.read_bytes())
    raw[3] = 0x99
    img.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        data.load_idx(img, lab)


def test_idx_rejects_bad_label_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 4), np.uint8), [0], 2, 2)
    raw = bytearray(lab.read_bytes())
    raw[3] = 0x99
    lab.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        data.load_idx(img, lab)


def test_idx_rejects_truncated_payload(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 4), np.uint8), [0, 1], 2, 2)
    img.write_bytes(img.read_bytes()[:-3])
    with pytest.raises(ValueError, match="payload"):
        data.load_idx(img, lab)


@pytest.mark.parametrize("count,rows,cols", [(0, 2, 2), (3, 0, 2), (3, 2, 0)])
def test_idx_rejects_empty_sets(tmp_path, count, rows, cols):
    img, lab = write_idx_pair(tmp_path, np.zeros((count, rows * cols), np.uint8),
                              [0] * count, rows, cols)
    with pytest.raises(ValueError, match="empty IDX images"):
        data.load_idx(img, lab)


def test_idx_rejects_count_mismatch(tmp_path):
    img, _ = write_idx_pair(tmp_path, np.zeros((2, 4), np.uint8), [0, 1], 2, 2, stem="a")
    _, lab3 = write_idx_pair(tmp_path, np.zeros((3, 4), np.uint8), [0, 1, 0], 2, 2, stem="b")
    with pytest.raises(ValueError, match="count"):
        data.load_idx(img, lab3)


# ------------------------------------------------------------ synthetic data

def test_blobs_spread_zero_reproduces_centers():
    ds = data.synth_blobs(3, 7, 30, spread=0.0, seed=1)
    uniq = {tuple(row) for row in ds.inputs}
    assert len(uniq) == 3  # every point IS its class center
    # and the centers separate perfectly: nearest-center classification
    centers = {}
    for x, lbl in zip(ds.inputs, ds.labels):
        centers.setdefault(int(lbl), x)
    for x, lbl in zip(ds.inputs, ds.labels):
        dists = {c: np.linalg.norm(x - v) for c, v in centers.items()}
        assert min(dists, key=dists.get) == int(lbl)


def test_blobs_deterministic_and_balanced():
    a = data.synth_blobs(4, 5, 41, spread=0.1, seed=9)
    b = data.synth_blobs(4, 5, 41, spread=0.1, seed=9)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=4)
    assert counts.max() - counts.min() <= 1
    c = data.synth_blobs(4, 5, 41, spread=0.1, seed=10)
    assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_stay_in_unit_cube():
    ds = data.synth_blobs(3, 6, 200, spread=0.8, seed=2)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0


def test_blobs_validation():
    with pytest.raises(ValueError):
        data.synth_blobs(1, 5, 10, 0.1, 0)
    with pytest.raises(ValueError):
        data.synth_blobs(3, 5, 2, 0.1, 0)
    with pytest.raises(ValueError):
        data.synth_blobs(3, 5, 10, -0.1, 0)


def test_digits_deterministic_balanced_and_clipped():
    a = data.synth_digits(5, 64, 103, seed=4)
    b = data.synth_digits(5, 64, 103, seed=4)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=5)
    assert counts.max() - counts.min() <= 1
    assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0


def test_digits_are_sparse_class_templates():
    # most coordinates are background zeros (sparse support per class)
    ds = data.synth_digits(4, 100, 80, seed=1, dropout=0.0, pixel_noise=0.0)
    frac_nonzero = np.mean(ds.inputs > 0)
    assert frac_nonzero < 0.25
    # same class, no dropout/noise: points differ only by the gain
    by_class = {}
    for x, lbl in zip(ds.inputs, ds.labels):
        by_class.setdefault(int(lbl), []).append(x)
    for pts in by_class.values():
        sup = pts[0] > 0
        for p in pts[1:]:
            assert np.array_equal(p > 0, sup)


def test_digits_validation():
    with pytest.raises(ValueError):
        data.synth_digits(1, 10, 10, seed=0)
    with pytest.raises(ValueError):
        data.synth_digits(3, 10, 10, seed=0, dropout=1.0)
    with pytest.raises(ValueError):
        data.synth_digits(3, 10, 10, seed=0, pixel_noise=-0.1)
    with pytest.raises(ValueError):
        data.synth_digits(3, 10, 10, seed=0, gain_lo=0.9, gain_hi=0.5)


# ------------------------------------------------------------ Dataset helpers

def test_dataset_subset_and_augment():
    ds = data.synth_blobs(3, 4, 30, spread=0.05, seed=1)
    sub = ds.subset(5, 12)
    assert sub.m == 7
    assert np.array_equal(sub.inputs, ds.inputs[5:12])
    assert np.array_equal(sub.labels, ds.labels[5:12])
    A = data.augment(sub.inputs)
    assert A.shape == (7, 5)
    assert np.all(A[:, -1] == 1.0)
    assert np.array_equal(A[:, :-1], sub.inputs)


def test_dataset_validation():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((3, 2)) - 1.0, np.zeros(3, dtype=int), 2, "x")
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2, "x")
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2, "x")
    # NaN fails both comparisons of a min/max range check
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            data.Dataset(np.array([[bad, 0.5]]), np.array([0]), 1, "x")


# ------------------------------------------------------------ checkpoints

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = init_model((17, 9, 4), seed=3)
    meta = {"alpha": 0.1, "note": "unit-test", "epochs": 12}
    path = tmp_path / "model.ckpt"
    data.save_checkpoint(path, model, meta)
    back, got_meta = data.load_checkpoint(path)
    assert got_meta == meta
    assert len(back.layers) == len(model.layers)
    for a, b in zip(back.layers, model.layers):
        assert a.dtype == np.float64
        assert np.array_equal(a, b)  # bit-exact, including any -0.0


def test_checkpoint_meta_defaults_empty(tmp_path):
    path = tmp_path / "m.ckpt"
    data.save_checkpoint(path, init_model((3, 2), seed=0))
    _, meta = data.load_checkpoint(path)
    assert meta == {}


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    data.save_checkpoint(path, init_model((3, 2), seed=0))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        data.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    data.save_checkpoint(path, init_model((3, 2), seed=0))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        data.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "m.ckpt"
    data.save_checkpoint(path, init_model((3, 2), seed=0))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        data.load_checkpoint(path)


def test_checkpoint_rejects_dims_larger_than_file(tmp_path):
    # 2^40 declared weights behind 64 bytes: refused before allocating them
    header = json.dumps({"version": data.CHECKPOINT_VERSION,
                         "dims": [2**20, 2**20], "meta": {}}).encode()
    path = tmp_path / "huge.ckpt"
    path.write_bytes(data.CHECKPOINT_MAGIC + struct.pack("<I", len(header))
                     + header + bytes(64))
    with pytest.raises(ValueError, match="truncated checkpoint: header declares 8796093022208"):
        data.load_checkpoint(path)


def raw_checkpoint(header, payload: bytes = b"") -> bytes:
    """Checkpoint bytes around an arbitrary JSON header value."""
    blob = json.dumps(header).encode()
    return data.CHECKPOINT_MAGIC + struct.pack("<I", len(blob)) + blob + payload


@pytest.mark.parametrize("header", [[1, 2], "x", 3, None])
def test_checkpoint_rejects_non_object_header(tmp_path, header):
    path = tmp_path / "m.ckpt"
    path.write_bytes(raw_checkpoint(header))
    with pytest.raises(ValueError, match="expected a JSON object"):
        data.load_checkpoint(path)


@pytest.mark.parametrize("field,value,match", [
    ("dims", [True, 2], "dims"),
    ("dims", [2, True], "dims"),
    ("dims", [2.0, 1], "dims"),
    ("version", True, "version"),
    ("meta", [1], "meta"),
])
def test_checkpoint_rejects_mistyped_header_fields(tmp_path, field, value, match):
    # JSON true is a Python int, so an isinstance check alone lets it through
    header = {"version": data.CHECKPOINT_VERSION, "dims": [1, 2], "meta": {}}
    header[field] = value
    path = tmp_path / "m.ckpt"
    path.write_bytes(raw_checkpoint(header, bytes(16)))
    with pytest.raises(ValueError, match=match):
        data.load_checkpoint(path)


def test_checkpoint_rejects_header_length_beyond_file(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(data.CHECKPOINT_MAGIC + struct.pack("<I", 2**32 - 1) + b"{}")
    with pytest.raises(ValueError, match="truncated checkpoint: header length"):
        data.load_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path):
    path = tmp_path / "m.ckpt"
    model = MlpModel((np.ones((2, 3)),))
    data.save_checkpoint(path, model)
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12 : 12 + hlen])
    header["version"] = 999
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])
    with pytest.raises(ValueError, match="version"):
        data.load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_weights(tmp_path, bad):
    path = tmp_path / "m.ckpt"
    data.save_checkpoint(path, MlpModel((np.ones((3, 3)), np.ones((2, 3)))))
    path.write_bytes(with_weight(path.read_bytes(), 9 + 5, bad))  # layer 1's [1, 2]
    with pytest.raises(ValueError, match="non-finite weights in layer 1"):
        data.load_checkpoint(path)


# ------------------------------------------------------------ reader fuzzing

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**40) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["version", "dims", "meta", "x"]), inner, max_size=3),
    max_leaves=6,
)


def _mutate(raw: bytes, how: str, pos: int, byte: int) -> bytes:
    pos %= len(raw)
    if how == "truncate":
        return raw[:pos]
    if how == "flip":
        return raw[:pos] + bytes([raw[pos] ^ byte]) + raw[pos + 1:]
    return raw + bytes([byte]) * (pos % 5 + 1)  # "extend": trailing garbage


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(how=st.sampled_from(["truncate", "flip", "extend", "header", "hlen"]),
       pos=st.integers(0, 2**16), byte=st.integers(1, 255), header=_JSON,
       hlen=st.integers(0, 2**32 - 1))
@example(how="header", pos=0, byte=1, header=[1, 2], hlen=0)
@example(how="header", pos=0, byte=1, header={"version": 1, "dims": [True, 2]}, hlen=0)
def test_checkpoint_reader_fuzz(tmp_path, how, pos, byte, header, hlen):
    # a damaged checkpoint either raises ValueError or loads exactly what its
    # bytes say: the header's dims and meta, the trailing float64 payload
    path = tmp_path / "fuzz.ckpt"
    data.save_checkpoint(path, init_model((3, 2, 2), seed=1), {"k": 2})
    raw = path.read_bytes()
    if how == "header":
        raw = raw_checkpoint(header, raw[-80:])
    elif how == "hlen":
        raw = raw[:8] + struct.pack("<I", hlen) + raw[12:]
    else:
        raw = _mutate(raw, how, pos, byte)
    path.write_bytes(raw)
    try:
        model, meta = data.load_checkpoint(path)
    except ValueError:
        return
    (n,) = struct.unpack("<I", raw[8:12])
    head = json.loads(raw[12:12 + n])
    assert list(model.dims) == head["dims"] and meta == head.get("meta", {})
    weights = np.frombuffer(raw[12 + n:], dtype="<f8")
    assert np.array_equal(np.concatenate([w.ravel() for w in model.layers]), weights)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(["images", "labels"]),
       how=st.sampled_from(["truncate", "flip", "extend", "count"]),
       pos=st.integers(0, 2**16), byte=st.integers(1, 255), count=st.integers(0, 2**32 - 1))
@example(target="images", how="count", pos=0, byte=1, count=0)
def test_idx_reader_fuzz(tmp_path, target, how, pos, byte, count):
    # a damaged IDX pair either raises ValueError or loads exactly what its
    # bytes say
    pixels = (np.arange(12, dtype=np.uint8) * 20).reshape(3, 4)
    img, lab = write_idx_pair(tmp_path, pixels, [0, 1, 1], 2, 2)
    path = img if target == "images" else lab
    raw = path.read_bytes()
    if how == "count":
        raw = raw[:4] + struct.pack(">I", count) + raw[8:]
    else:
        raw = _mutate(raw, how, pos, byte)
    path.write_bytes(raw)
    try:
        ds = data.load_idx(img, lab)
    except ValueError:
        return
    im, lb = img.read_bytes(), lab.read_bytes()
    m, rows, cols = struct.unpack(">III", im[4:16])
    assert ds.m == m > 0 and ds.d == rows * cols > 0
    want = np.frombuffer(im[16:], np.uint8).reshape(m, -1) / 255.0
    assert np.array_equal(ds.inputs, want)
    assert np.array_equal(ds.labels, np.frombuffer(lb[8:], np.uint8))
