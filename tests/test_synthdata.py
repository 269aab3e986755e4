"""Tests for the deterministic synthetic tri-modal benchmark generator."""

import hashlib

import numpy as np
import pytest

from triad.synthdata import (
    DEFAULT_CLASSES,
    MVTEC_CLASS_NAMES,
    SynthConfig,
    gen_dataset,
    gen_nominal,
    inject_anomaly,
    make_class_generator,
)


def _small_cfg(**kw):
    base = dict(classes=["bagel", "carrot"], n_train=6, n_test=4,
                height=10, width=10)
    base.update(kw)
    return SynthConfig(**base)


def _one_generator(cfg=None, seed=0):
    cfg = cfg or _small_cfg()
    return cfg, make_class_generator("bagel", cfg, np.random.SeedSequence(seed))


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    SynthConfig().validate()
    with pytest.raises(ValueError):
        _small_cfg(height=3).validate()
    with pytest.raises(ValueError):
        _small_cfg(classes=[]).validate()
    with pytest.raises(ValueError, match="nonempty"):
        _small_cfg(classes=["bagel", ""]).validate()
    with pytest.raises(ValueError, match="duplicate"):
        _small_cfg(classes=["bagel", "bagel"]).validate()
    with pytest.raises(ValueError):
        _small_cfg(corrupt_modality="text").validate()
    with pytest.raises(ValueError):
        _small_cfg(area_frac_min=0.3, area_frac_max=0.1).validate()
    with pytest.raises(ValueError):
        _small_cfg(n_test=1).validate()
    _small_cfg(border=0).validate()
    _small_cfg(border=4).validate()  # leaves the centre 2x2 of the 10x10 grid
    for border in (-1, 5):
        with pytest.raises(ValueError, match="border"):
            _small_cfg(border=border).validate()


def test_default_classes_are_known_object_names():
    assert len(MVTEC_CLASS_NAMES) == 10
    assert DEFAULT_CLASSES == MVTEC_CLASS_NAMES[:4]


# ---------------------------------------------------------------------------
# nominal samples


def test_nominal_shapes_and_labels():
    cfg, cg = _one_generator()
    s = gen_nominal(cg, 5)
    assert s.f_rgb.shape == (10, 10, cfg.d_rgb)
    assert s.f_3d.shape == (10, 10, cfg.d_3d)
    assert s.mask.shape == s.gt_pixels.shape == (10, 10)
    assert not s.is_anomalous
    assert not s.gt_pixels.any()


def test_nominal_border_invalid():
    cfg, cg = _one_generator()
    s = gen_nominal(cg, 5)
    assert not s.mask[0, :].any() and not s.mask[-1, :].any()
    assert not s.mask[:, 0].any() and not s.mask[:, -1].any()
    assert s.mask[1:-1, 1:-1].all()


def test_nominal_deterministic_per_seed():
    cfg, cg = _one_generator()
    a = gen_nominal(cg, 11)
    b = gen_nominal(cg, 11)
    c = gen_nominal(cg, 12)
    np.testing.assert_array_equal(a.f_rgb, b.f_rgb)
    np.testing.assert_array_equal(a.f_3d, b.f_3d)
    assert np.abs(a.f_rgb - c.f_rgb).max() > 0.0


def test_nominal_small_grid_rejected():
    # the grid comes from the configuration, which is checked before any draw
    with pytest.raises(ValueError, match="grid extents"):
        gen_dataset(_small_cfg(height=3), seed=0)


def test_nominal_modalities_share_latent():
    # with zero observation noise the 3D grid is an exact linear image of the
    # latent recovered from the RGB grid via the pseudoinverse
    cfg, cg = _one_generator(_small_cfg(noise_sigma=0.0))
    s = gen_nominal(cg, 3)
    z_hat = s.f_rgb @ np.linalg.pinv(cg.a_rgb).T
    np.testing.assert_allclose(z_hat @ cg.a_3d.T, s.f_3d, atol=1e-9)


# ---------------------------------------------------------------------------
# anomaly injection


def test_anomaly_blob_properties():
    cfg, cg = _one_generator()
    base = gen_nominal(cg, 7)
    a = inject_anomaly(base, cg, 8)
    assert a.is_anomalous
    assert a.gt_pixels.any()
    # ground truth only on valid pixels
    assert not (a.gt_pixels & ~a.mask).any()
    n_valid = int(a.mask.sum())
    frac = a.gt_pixels.sum() / n_valid
    assert 0.0 < frac <= 0.16  # within the area range (rounded up to >= 1 px)


def test_anomaly_locality_outside_blob_bit_identical():
    cfg, cg = _one_generator()
    base = gen_nominal(cg, 9)
    a = inject_anomaly(base, cg, 10)
    outside = ~a.gt_pixels
    np.testing.assert_array_equal(a.f_rgb, base.f_rgb)  # rgb untouched ("3d" mode)
    np.testing.assert_array_equal(a.f_3d[outside], base.f_3d[outside])
    assert np.abs(a.f_3d[a.gt_pixels] - base.f_3d[a.gt_pixels]).max() > 0.0


def test_anomaly_breaks_cross_modal_relation_only_inside():
    cfg, cg = _one_generator(_small_cfg(noise_sigma=0.0))
    base = gen_nominal(cg, 13)
    a = inject_anomaly(base, cg, 14)
    z_hat = a.f_rgb @ np.linalg.pinv(cg.a_rgb).T
    residual = np.linalg.norm(z_hat @ cg.a_3d.T - a.f_3d, axis=-1)
    assert residual[~a.gt_pixels].max() < 1e-9
    assert residual[a.gt_pixels].min() > 1e-6


def test_anomaly_can_corrupt_rgb_instead():
    cfg, cg = _one_generator(_small_cfg(corrupt_modality="rgb"))
    base = gen_nominal(cg, 15)
    a = inject_anomaly(base, cg, 16)
    np.testing.assert_array_equal(a.f_3d, base.f_3d)
    assert np.abs(a.f_rgb[a.gt_pixels] - base.f_rgb[a.gt_pixels]).max() > 0.0


def test_anomaly_rejects_already_anomalous():
    cfg, cg = _one_generator()
    base = gen_nominal(cg, 17)
    a = inject_anomaly(base, cg, 18)
    with pytest.raises(ValueError):
        inject_anomaly(a, cg, 19)


def test_anomaly_covering_the_whole_valid_area_stays_inside_it():
    # the largest validated anomaly on the smallest validated valid area: a
    # 4x4 grid whose border leaves the centre 2x2
    cfg = _small_cfg(height=4, width=4, border=1, area_frac_min=1.0, area_frac_max=1.0)
    _, test = gen_dataset(cfg, seed=3)
    anomalous = [s for s in test if s.is_anomalous]
    assert anomalous
    for s in anomalous:
        assert int(s.mask.sum()) == 4
        assert (s.gt_pixels == s.mask).all()


def test_anomaly_magnitude_comparable_to_nominal():
    # the replacement latent is variance-matched: inside-blob magnitudes stay
    # within the same order as nominal ones (no giveaway spike)
    cfg, cg = _one_generator()
    base = gen_nominal(cg, 21)
    a = inject_anomaly(base, cg, 22)
    inside = np.linalg.norm(a.f_3d[a.gt_pixels], axis=-1).mean()
    outside = np.linalg.norm(a.f_3d[a.mask & ~a.gt_pixels], axis=-1).mean()
    assert 0.2 < inside / outside < 5.0


# ---------------------------------------------------------------------------
# full dataset


def test_dataset_split_sizes_and_labels():
    cfg = _small_cfg()
    train, test = gen_dataset(cfg, seed=0)
    assert len(train) == 2 * cfg.n_train
    assert len(test) == 2 * cfg.n_test
    assert all(not s.is_anomalous for s in train)
    for name in cfg.classes:
        cls_test = [s for s in test if s.class_name == name]
        assert sum(s.is_anomalous for s in cls_test) == cfg.n_test // 2


def test_dataset_byte_identical_across_calls():
    cfg = _small_cfg()
    t1, e1 = gen_dataset(cfg, seed=3)
    t2, e2 = gen_dataset(cfg, seed=3)
    for a, b in zip(t1 + e1, t2 + e2):
        assert a.class_name == b.class_name
        assert a.is_anomalous == b.is_anomalous
        np.testing.assert_array_equal(a.f_rgb, b.f_rgb)
        np.testing.assert_array_equal(a.f_3d, b.f_3d)
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.gt_pixels, b.gt_pixels)


# SHA-256 over every sample's f_rgb, f_3d, mask and gt_pixels bytes, in split
# order, of `_small_cfg()` at seed 3 for each corrupted modality; any change
# to the generator's random streams or arithmetic shows here
PINNED_DATASET_SHA256 = {
    "3d": "6c93484f9d3dbba3d09efb77e61ffd8b34ec87732880c83e4ed600c6ed00bea6",
    "rgb": "5f9b18ba8ebbd9cdef7a3237a8e9ce360695aaf3636fedfa597819ca5f2266e3",
}


@pytest.mark.parametrize("modality", sorted(PINNED_DATASET_SHA256))
def test_dataset_bytes_are_pinned(modality):
    train, test = gen_dataset(_small_cfg(corrupt_modality=modality), seed=3)
    h = hashlib.sha256()
    for s in train + test:
        for a in (s.f_rgb, s.f_3d, s.mask, s.gt_pixels):
            h.update(a.tobytes())
    assert h.hexdigest() == PINNED_DATASET_SHA256[modality]


def test_dataset_seed_changes_data():
    cfg = _small_cfg()
    t1, _ = gen_dataset(cfg, seed=0)
    t2, _ = gen_dataset(cfg, seed=1)
    assert np.abs(t1[0].f_rgb - t2[0].f_rgb).max() > 0.0


def test_default_dataset_counts():
    cfg = SynthConfig()
    train, test = gen_dataset(cfg, seed=0)
    assert len(train) == 4 * 64 == 256
    assert len(test) == 4 * 32
