"""Tests for tensor/checkpoint persistence, dataset folders, and config resolution."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from triad.autograd import NonFiniteError
from triad.config import (
    ConfigError,
    DEFAULT_CONFIG,
    build_run_config,
    config_hash,
    load_config,
    resolve_config,
)
from triad.provider import (
    BinaryValueError,
    DatasetFolderProvider,
    DatasetIOError,
    read_features,
    save_dataset,
)
from triad.scoring import ShapeMismatchError
from triad.synthdata import SynthConfig, gen_dataset
from triad.tmf import (
    TmfFormatError,
    canonical_json,
    load_checkpoint,
    read_tensor,
    save_checkpoint,
    tensor_bytes,
    tensor_from_bytes,
    write_pgm,
    write_tensor,
)
from triad.trainer import TrainConfig


# ---------------------------------------------------------------------------
# TMF1 tensor blocks


def test_tensor_roundtrip_f64_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    for shape in ((), (4,), (2, 3), (2, 3, 4)):
        arr = rng.standard_normal(shape)
        p = tmp_path / "t.tmf"
        write_tensor(p, arr)
        got = read_tensor(p)
        assert got.dtype == np.dtype("<f8")
        np.testing.assert_array_equal(got, arr)


def test_tensor_roundtrip_f32(tmp_path):
    arr = np.random.default_rng(1).standard_normal((3, 3)).astype(np.float32)
    p = tmp_path / "t.tmf"
    write_tensor(p, arr)
    got = read_tensor(p)
    assert got.dtype == np.dtype("<f4")
    np.testing.assert_array_equal(got, arr)


def test_tensor_bad_magic_rejected():
    with pytest.raises(TmfFormatError, match="magic"):
        tensor_from_bytes(b"XXXX" + b"\x00" * 16)


def test_tensor_truncated_payload_rejected():
    buf = tensor_bytes(np.ones((4, 4)))
    with pytest.raises(TmfFormatError, match="truncated"):
        tensor_from_bytes(buf[:-8])


def test_tensor_extents_beyond_int64_rejected_as_truncated(tmp_path):
    # the extents' product, 2**66 - 2**35 + 4, wraps in int64 to a negative count
    p = tmp_path / "t.tmf"
    p.write_bytes(b"TMF1" + struct.pack("<BB3I", 2, 3, 2**32 - 1, 2**32 - 1, 4))
    with pytest.raises(TmfFormatError, match="truncated TMF1 payload"):
        read_tensor(p)


def test_tensor_every_truncation_rejected():
    buf = tensor_bytes(np.ones((2, 3)))
    for cut in range(len(buf)):
        with pytest.raises(TmfFormatError):
            tensor_from_bytes(buf[:cut])


def test_read_tensor_rejects_bytes_after_its_block(tmp_path):
    p = tmp_path / "t.tmf"
    p.write_bytes(tensor_bytes(np.ones((2, 3))) + bytes(8))
    with pytest.raises(TmfFormatError, match="8 bytes after the TMF1 block"):
        read_tensor(p)


def test_tensor_blocks_concatenate():
    a, b = np.ones((2, 2)), np.arange(3.0)
    buf = tensor_bytes(a) + tensor_bytes(b)
    got_a, off = tensor_from_bytes(buf)
    got_b, end = tensor_from_bytes(buf, off)
    np.testing.assert_array_equal(got_a, a)
    np.testing.assert_array_equal(got_b, b)
    assert end == len(buf)


# ---------------------------------------------------------------------------
# checkpoints


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {"a.weight": rng.standard_normal((3, 4)),
            "a.bias": rng.standard_normal(4),
            "b.gate": rng.standard_normal((2, 2))}


def test_checkpoint_roundtrip_f64(tmp_path):
    arrays = _arrays()
    p = tmp_path / "ck.tmf"
    save_checkpoint(p, arrays, step=17, seed=7, config_hash="abc",
                    config={"train": {"steps": 17}})
    ck = load_checkpoint(p)
    assert ck["step"] == 17 and ck["seed"] == 7
    assert ck["config_hash"] == "abc"
    assert set(ck) == {"arrays", "step", "seed", "config_hash", "config"}
    assert ck["config"] == {"train": {"steps": 17}}
    for name, arr in arrays.items():
        np.testing.assert_array_equal(ck["arrays"][name], arr)


def test_checkpoint_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.tmf", tmp_path / "b.tmf"
    save_checkpoint(p1, _arrays(2), step=3, seed=5, config_hash="deadbeef",
                    config={"seed": 5})
    ck = load_checkpoint(p1)
    save_checkpoint(p2, ck["arrays"], step=ck["step"], seed=ck["seed"],
                    config_hash=ck["config_hash"], config=ck["config"])
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_truncated_file(tmp_path):
    p = tmp_path / "ck.tmf"
    p.write_bytes(b"\x01")
    with pytest.raises(TmfFormatError):
        load_checkpoint(p)


def test_checkpoint_every_truncation_rejected(tmp_path):
    full, cut_path = tmp_path / "ck.tmf", tmp_path / "cut.tmf"
    save_checkpoint(full, _arrays(2), step=1, seed=0, config_hash="0", config={})
    buf = full.read_bytes()
    for cut in range(len(buf)):
        cut_path.write_bytes(buf[:cut])
        with pytest.raises(TmfFormatError):
            load_checkpoint(cut_path)


def _edit_checkpoint(path, edit_header=lambda h: None, tail=b""):
    """Rewrite a checkpoint with `edit_header` applied and `tail` appended."""
    buf = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", buf, 0)
    header = json.loads(buf[4:4 + hlen])
    edit_header(header)
    text = canonical_json(header)
    path.write_bytes(struct.pack("<I", len(text)) + text + buf[4 + hlen:] + tail)


def _swap_offsets(h):
    o = h["offsets"]
    o["a.bias"], o["b.gate"] = o["b.gate"], o["a.bias"]


def _shift_offsets(h):
    h["offsets"] = {n: o + 1 for n, o in h["offsets"].items()}


def _reshape(h):
    h["shapes"]["a.weight"] = [4, 3]


def _swap_names(h):
    h["names"] = [h["names"][1], h["names"][0], h["names"][2]]


@pytest.mark.parametrize("edit,tail,match", [
    (lambda h: None, b"\x00\x00", "2 bytes after the last array"),
    (_swap_offsets, b"", "'a.bias' is not at its recorded offset"),
    (_shift_offsets, b"", "'a.weight' is not at its recorded offset"),
    (_swap_names, b"", "'a.bias' is not at its recorded offset"),
    (_reshape, b"", r"'a.weight' has shape \[3, 4\], not its recorded \[4, 3\]"),
    (lambda h: h.update(dtype="f16"), b"", "header dtype 'f16' is not 'f64'"),
], ids=["trailing-bytes", "swapped-offsets", "shifted-offsets", "names-out-of-order",
        "recorded-shape-differs", "header-dtype-f16"])
def test_checkpoint_blocks_must_follow_the_header_layout(tmp_path, edit, tail, match):
    p = tmp_path / "ck.tmf"
    save_checkpoint(p, _arrays(), step=1, seed=0, config_hash="0", config={})
    load_checkpoint(p)
    _edit_checkpoint(p, edit, tail)
    with pytest.raises(TmfFormatError, match=match):
        load_checkpoint(p)


def test_checkpoint_rejects_a_block_that_is_not_f64(tmp_path):
    p = tmp_path / "ck.tmf"
    arr = np.arange(6.0).reshape(2, 3)
    save_checkpoint(p, {"w": arr}, step=1, seed=0, config_hash="0", config={})
    f64 = tensor_bytes(arr)
    p.write_bytes(p.read_bytes()[:-len(f64)] + tensor_bytes(arr.astype(np.float32)))
    with pytest.raises(TmfFormatError, match="array 'w' is float32, not float64"):
        load_checkpoint(p)


# ---------------------------------------------------------------------------
# PGM rendering


def test_pgm_header_and_scaling(tmp_path):
    p = tmp_path / "m.pgm"
    write_pgm(p, np.array([[0.0, 1.0], [0.5, 1.0]]))
    data = p.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(data[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    assert pixels.tolist() == [0, 255, 128, 255]


def test_pgm_constant_map_is_black(tmp_path):
    p = tmp_path / "m.pgm"
    write_pgm(p, np.full((2, 3), 4.2))
    pixels = np.frombuffer(p.read_bytes().split(b"\n255\n", 1)[1], dtype=np.uint8)
    assert (pixels == 0).all()


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'


# ---------------------------------------------------------------------------
# dataset folders and providers


def _tiny_dataset(seed=0):
    cfg = SynthConfig(classes=["bagel"], n_train=2, n_test=2, height=6, width=6,
                      d_latent=3, d_rgb=5, d_3d=7)
    return gen_dataset(cfg, seed=seed)


def test_dataset_folder_roundtrip(tmp_path):
    train, test = _tiny_dataset()
    save_dataset(tmp_path, train, test, config_hash="h", seed=0)
    prov = DatasetFolderProvider(tmp_path)
    assert prov.manifest["config_hash"] == "h"
    loaded = prov.load_split("train") + prov.load_split("test")
    assert len(loaded) == 4
    for orig, got in zip(train + test, loaded):
        assert got.class_name == orig.class_name
        assert got.is_anomalous == orig.is_anomalous
        np.testing.assert_array_equal(got.f_rgb, orig.f_rgb)
        np.testing.assert_array_equal(got.f_3d, orig.f_3d)
        np.testing.assert_array_equal(got.mask, orig.mask)
        np.testing.assert_array_equal(got.gt_pixels, orig.gt_pixels)


def test_provider_missing_manifest(tmp_path):
    with pytest.raises(DatasetIOError):
        DatasetFolderProvider(tmp_path / "nope")


def _with_nan(a, index):
    """A copy of `a` with NaN at `index`; (1, 1) is valid with a border of 1."""
    a = a.copy()
    a[index] = np.nan
    return a


@pytest.mark.parametrize("name,value,error", [
    ("f_3d.tmf", lambda a: a[:3], ShapeMismatchError),
    ("mask.tmf", lambda a: a[0], ShapeMismatchError),
    ("f_rgb.tmf", lambda a: _with_nan(a, (1, 1, 0)), NonFiniteError),
], ids=["grid-mismatch", "rank-mismatch", "non-finite"])
def test_read_features_checks_rank_grid_and_finiteness(tmp_path, name, value,
                                                       error):
    train, test = _tiny_dataset()
    save_dataset(tmp_path, train, test, config_hash="h", seed=0)
    sdir = tmp_path / "samples" / "train-00000"
    f_rgb, f_3d, mask = read_features(sdir)
    np.testing.assert_array_equal(f_rgb, train[0].f_rgb)
    np.testing.assert_array_equal(mask, train[0].mask)
    write_tensor(sdir / name, value(read_tensor(sdir / name)))
    with pytest.raises(error, match="train-00000"):
        read_features(sdir)
    with pytest.raises(error):
        DatasetFolderProvider(tmp_path).load_split("train")


def test_read_features_ignores_values_at_invalid_pixels(tmp_path):
    train, test = _tiny_dataset()
    save_dataset(tmp_path, train, test, config_hash="h", seed=0)
    sdir = tmp_path / "samples" / "train-00000"
    invalid = ~train[0].mask
    for name in ("f_rgb.tmf", "f_3d.tmf"):
        arr = read_tensor(sdir / name)
        arr[invalid] = np.nan
        write_tensor(sdir / name, arr)
    f_rgb, f_3d, mask = read_features(sdir)
    np.testing.assert_array_equal(mask, train[0].mask)
    np.testing.assert_array_equal(f_rgb[mask], train[0].f_rgb[mask])
    np.testing.assert_array_equal(f_3d[mask], train[0].f_3d[mask])
    assert np.isnan(f_rgb[invalid]).all() and np.isnan(f_3d[invalid]).all()


def test_load_split_checks_ground_truth_grid(tmp_path):
    train, test = _tiny_dataset()
    save_dataset(tmp_path, train, test, config_hash="h", seed=0)
    write_tensor(tmp_path / "samples" / "test-00000" / "gt.tmf",
                 np.zeros((3, 3), dtype=np.float32))
    with pytest.raises(ShapeMismatchError, match="gt.tmf"):
        DatasetFolderProvider(tmp_path).load_split("test")


@pytest.mark.parametrize("split,is_anomalous", [("train", True), ("test", False)])
def test_load_split_checks_the_label_against_the_ground_truth(tmp_path, split,
                                                              is_anomalous):
    train, test = _tiny_dataset()
    save_dataset(tmp_path, train, test, config_hash="h", seed=0)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    entry = next(e for e in manifest["samples"]
                 if e["split"] == split and e["is_anomalous"] != is_anomalous)
    entry["is_anomalous"] = is_anomalous
    path.write_text(json.dumps(manifest))
    prov = DatasetFolderProvider(tmp_path)
    with pytest.raises(BinaryValueError, match=entry["id"]):
        prov.load_split(split)


@pytest.mark.parametrize("text", ['{"samples": [', "[]", '{"seed": 0}',
                                  '{"samples": [{"id": "train-00000"}]}'],
                         ids=["truncated", "not-an-object", "no-samples",
                              "entry-missing-keys"])
def test_corrupt_manifest_raises_dataset_io_error(tmp_path, text):
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(DatasetIOError, match="corrupt manifest"):
        DatasetFolderProvider(tmp_path)


@pytest.mark.parametrize("sid", ["", ".", "..", "../train-00001", "samples/train-00001",
                                 "/tmp/train-00001"],
                         ids=["empty", "dot", "dot-dot", "parent-path", "sub-path",
                              "absolute"])
def test_manifest_id_must_be_a_folder_name(tmp_path, sid):
    train, test = _tiny_dataset()
    save_dataset(tmp_path, train, test, config_hash="h", seed=0)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["samples"][0]["id"] = sid
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetIOError, match="folder name"):
        DatasetFolderProvider(tmp_path)


# ---------------------------------------------------------------------------
# configuration


def test_resolve_config_defaults_and_override():
    resolved = resolve_config()
    assert resolved == DEFAULT_CONFIG
    over = resolve_config({"train": {"steps": 5}}, seed_override=3)
    assert over["train"]["steps"] == 5
    assert over["seed"] == 3
    assert over["train"]["batch_size"] == 8  # untouched default


def test_unknown_key_named_with_dotted_path():
    with pytest.raises(ConfigError, match="train.step_count"):
        resolve_config({"train": {"step_count": 5}})
    with pytest.raises(ConfigError, match="unknown config key: optimizer"):
        resolve_config({"optimizer": {}})


def test_config_hash_stable_and_key_order_free():
    h1 = config_hash({"b": 1, "a": 2})
    h2 = config_hash({"a": 2, "b": 1})
    assert h1 == h2 and len(h1) == 64
    assert config_hash({"a": 2, "b": 2}) != h1


def test_default_config_hash_pinned():
    # the defaults are derived from the dataclasses; this pins their values
    assert config_hash(resolve_config()) == (
        "e232b9d4d1caec294eb932d69db991f01d57458729909f90c4e31395b4bf7cd0")


def test_train_config_defaults_are_the_run_defaults():
    rc = build_run_config(resolve_config())
    assert replace(TrainConfig(), seed=rc.train.seed) == rc.train


def test_config_values_must_have_their_default_json_type():
    for bad in ({"data": {"n_train": "64"}}, {"data": {"n_train": 64.0}},
                {"train": {"steps": True}}, {"fusion": {"alpha": False}},
                {"data": {"classes": "bagel"}}, {"data": {"classes": ["a", 1]}},
                {"metrics": {"fpr_limits": [0.3, "0.1"]}}, {"model": 4}):
        with pytest.raises(ConfigError, match="must be"):
            resolve_config(bad)
    over = resolve_config({"fusion": {"alpha": 1}, "metrics": {"fpr_limits": [1]}})
    assert type(over["fusion"]["alpha"]) is float
    assert type(over["metrics"]["fpr_limits"][0]) is float
    rc = build_run_config(over)
    assert type(rc.fusion.alpha) is float and rc.fpr_limits == [1.0]


def test_build_run_config_checks_a_complete_config():
    # a checkpoint header's config gets the same checks as a config file
    header = resolve_config()
    header["train"]["steps"] = True
    with pytest.raises(ConfigError, match="train.steps"):
        build_run_config(header)
    del header["train"]["steps"]
    with pytest.raises(ConfigError, match="missing config key: train.steps"):
        build_run_config(header)


def test_build_run_config_defaults():
    rc = build_run_config(resolve_config())
    assert rc.seed == 7
    assert rc.train.learning_rate == 0.02
    assert rc.dims.d_rgb == rc.data.d_rgb == 12
    assert rc.fusion.alpha == rc.fusion.beta == 0.5
    assert rc.fpr_limits == [0.30, 0.01]
    assert rc.mapper_kind == "gacm"
    assert rc.hash == config_hash(rc.raw)


def test_build_run_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        build_run_config(resolve_config({"model": {"mapper": "conv"}}))
    with pytest.raises(ConfigError):
        build_run_config(resolve_config({"metrics": {"fpr_limits": [0.0]}}))
    with pytest.raises(ConfigError):
        build_run_config(resolve_config({"data": {"height": 2}}))
    for bad in ({"prompts": {"states": []}}, {"prompts": {"templates": []}},
                {"model": {"d_text": 1}}, {"model": {"top_k": 0}},
                {"model": {"top_k": 5}}, {"model": {"n_experts": 0}},
                {"model": {"dropout_rate": 1.0}}, {"model": {"dropout_rate": -0.1}},
                {"data": {"d_3d": 1}}, {"data": {"border": -1}},
                {"train": {"adam_eps": 0.0}}):
        with pytest.raises(ConfigError):
            build_run_config(resolve_config(bad))
    # only the gacm mapper's LayerNorm needs two 3D feature entries
    build_run_config(resolve_config({"data": {"d_3d": 1}, "model": {"mapper": "mlp"}}))


def test_load_config_from_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"train": {"steps": 9}}')
    rc = load_config(p, seed_override=11)
    assert rc.train.steps == 9 and rc.seed == 11
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_config(arr)
    for digits in (400, 5000):  # beyond float range; beyond int parsing limit
        big = tmp_path / "big.json"
        big.write_text('{"fusion": {"alpha": 1%s}}' % ("0" * digits))
        with pytest.raises(ConfigError):
            load_config(big)
