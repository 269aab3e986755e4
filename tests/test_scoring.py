"""Tests for per-patch anomaly maps and their fusion."""

import numpy as np
import pytest

from triad.scoring import (
    FusionWeights,
    ShapeMismatchError,
    distance_map,
    fuse,
    psi_text,
)


def _rows(rng, n=12, d=5):
    return rng.standard_normal((n, d))


# ---------------------------------------------------------------------------
# distance maps


def test_distance_map_identical_grids_zero():
    g = np.random.default_rng(0).standard_normal((16, 3))
    np.testing.assert_array_equal(distance_map(g, g), np.zeros(16))


def test_distance_map_pythagorean_exact():
    a = np.zeros((1, 2))
    b = np.array([[3.0, 4.0]])
    assert distance_map(a, b)[0] == 5.0  # exact in floating point


def test_distance_map_shape_checks():
    with pytest.raises(ShapeMismatchError):
        distance_map(np.zeros((4, 3)), np.zeros((4, 4)))
    with pytest.raises(ShapeMismatchError):
        distance_map(np.zeros((2, 3)), np.zeros((4, 3)))
    with pytest.raises(ShapeMismatchError):  # grids are flattened by the caller
        distance_map(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))


def test_psi_text_annihilated_by_one_perfect_side():
    rng = np.random.default_rng(2)
    anchor = rng.standard_normal((1, 5))
    perfect = np.repeat(anchor, 12, axis=0)
    other = _rows(rng)
    np.testing.assert_array_equal(psi_text(anchor, perfect, other), np.zeros(12))
    np.testing.assert_array_equal(psi_text(anchor, other, perfect), np.zeros(12))


def test_psi_text_constant_offsets_product():
    # rgb side at distance 2 and 3d side at distance 2 from the anchor
    anchor = np.zeros((1, 4))
    side = np.zeros((4, 4))
    side[:, 0] = 2.0
    np.testing.assert_allclose(psi_text(anchor, side, side), np.full(4, 4.0),
                               atol=1e-12)


def test_psi_text_nonnegative():
    rng = np.random.default_rng(3)
    m = psi_text(rng.standard_normal((1, 5)), _rows(rng), _rows(rng))
    assert (m >= 0.0).all()


# ---------------------------------------------------------------------------
# fusion


def test_fuse_constant_maps_closed_form():
    for c in (0.0, 0.25, 1.0, 2.5):
        m = np.full((3, 3), c)
        got = fuse(m, m, m)
        expected = 0.5 * c * c + 0.5 * c
        assert np.abs(got - expected).max() <= 1e-12


def test_fuse_hand_values():
    r = np.full((1, 1), 1.0)
    g = np.full((1, 1), 2.0)
    t = np.full((1, 1), 3.0)
    assert fuse(r, g, t)[0, 0] == pytest.approx(2.5, abs=1e-12)


def test_fuse_alpha_zero_is_scaled_text_map():
    rng = np.random.default_rng(4)
    r, g, t = (np.abs(rng.standard_normal((3, 3))) for _ in range(3))
    np.testing.assert_allclose(fuse(r, g, t, FusionWeights(alpha=0.0, beta=0.5)),
                               0.5 * t, atol=1e-15)


def test_fuse_monotone_in_each_map():
    rng = np.random.default_rng(5)
    r, g, t = (np.abs(rng.standard_normal((4, 4))) for _ in range(3))
    base = fuse(r, g, t)
    assert (fuse(r + 0.1, g, t) >= base).all()
    assert (fuse(r, g + 0.1, t) >= base).all()
    assert (fuse(r, g, t + 0.1) >= base).all()


def test_fuse_nonnegative_on_nonnegative_inputs():
    rng = np.random.default_rng(6)
    r, g, t = (np.abs(rng.standard_normal((5, 5))) for _ in range(3))
    assert (fuse(r, g, t) >= 0.0).all()


def test_fuse_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        fuse(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))


def test_fusion_weights_validation():
    FusionWeights().validate()
    with pytest.raises(ValueError):
        FusionWeights(alpha=-0.1).validate()
    with pytest.raises(ValueError):
        FusionWeights(beta=float("inf")).validate()

