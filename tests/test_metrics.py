"""Tests for AUROC / pixel AUROC / AUPRO against hand values and brute-force oracles."""

import ast
import inspect

import numpy as np
import pytest

import triad.oracles

from triad.metrics import (
    MetricError,
    _integrate_to_limit,
    aupro,
    auroc,
    connected_components,
    pixel_auroc,
    pro_curve,
)
from triad.oracles import (
    _SWEEP_BLOCK_ROWS,
    aupro_exhaustive,
    auroc_pair_counting,
    pro_points_exhaustive,
)


# ---------------------------------------------------------------------------
# image-level AUROC


def test_auroc_hand_value():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auroc_perfect_and_inverted():
    assert auroc([1, 2, 3, 4], [0, 0, 1, 1]) == 1.0
    assert auroc([4, 3, 2, 1], [0, 0, 1, 1]) == 0.0


def test_auroc_all_tied_is_half():
    assert auroc([2.0] * 6, [0, 1, 0, 1, 0, 1]) == 0.5


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(30)
    labels = rng.random(30) > 0.5
    base = auroc(scores, labels)
    warped = auroc(np.exp(3.0 * scores) + 2.0, labels)
    assert warped == pytest.approx(base, abs=1e-12)


def test_auroc_missing_class_names_it():
    with pytest.raises(MetricError, match="no anomalous"):
        auroc([1.0, 2.0], [0, 0])
    with pytest.raises(MetricError, match="no normal"):
        auroc([1.0, 2.0], [1, 1])


def test_auroc_length_mismatch():
    with pytest.raises(MetricError):
        auroc([1.0, 2.0], [0, 1, 1])


@pytest.mark.parametrize("seed", range(10))
def test_auroc_matches_pair_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    # quantized scores so ties actually occur
    scores = np.round(rng.standard_normal(n), 1)
    labels = rng.random(n) > 0.5
    if labels.all() or not labels.any():
        labels[0] = ~labels[0]
    got = auroc(scores, labels)
    assert got == pytest.approx(auroc_pair_counting(scores, labels), abs=1e-12)


# ---------------------------------------------------------------------------
# pixel-level AUROC


def test_pixel_auroc_perfect_separation():
    m = np.array([[0.0, 1.0], [0.0, 1.0]])
    gt = m > 0.5
    v = np.ones((2, 2), dtype=bool)
    assert pixel_auroc([m], [gt], [v]) == 1.0


def test_pixel_auroc_constant_map_is_half():
    m = np.ones((3, 3))
    gt = np.zeros((3, 3), dtype=bool)
    gt[1, 1] = True
    assert pixel_auroc([m], [gt], [np.ones((3, 3), bool)]) == 0.5


def test_pixel_auroc_pools_across_samples():
    rng = np.random.default_rng(1)
    maps = [rng.random((4, 4)) for _ in range(3)]
    gts = [rng.random((4, 4)) > 0.7 for _ in range(3)]
    gts[0][0, 0] = True
    valid = [rng.random((4, 4)) > 0.2 for _ in range(3)]
    valid[0][0, 0] = True
    pooled_scores = np.concatenate([m[v] for m, v in zip(maps, valid)])
    pooled_labels = np.concatenate([g[v] for g, v in zip(gts, valid)])
    expected = auroc_pair_counting(pooled_scores, pooled_labels)
    assert pixel_auroc(maps, gts, valid) == pytest.approx(expected, abs=1e-12)


def test_pixel_auroc_ignores_invalid_pixels():
    m = np.array([[0.0, 9.0], [1.0, 0.5]])
    gt = np.array([[False, False], [True, False]])
    v = np.array([[True, False], [True, True]])
    # with the hot invalid pixel dropped, the defect outranks every normal pixel
    assert pixel_auroc([m], [gt], [v]) == 1.0


# ---------------------------------------------------------------------------
# connected components


def test_components_empty_mask():
    assert connected_components(np.zeros((3, 3), dtype=bool)) == []


def test_components_diagonal_touch_merges():
    m = np.zeros((3, 3), dtype=bool)
    m[0, 0] = m[1, 1] = True
    comps = connected_components(m)
    assert len(comps) == 1
    assert comps[0].shape == (2, 2)


def test_components_separate_regions_ordered():
    m = np.zeros((5, 5), dtype=bool)
    m[4, 0] = True          # bottom-left region
    m[0, 3] = m[0, 4] = True  # top-right region comes first (topmost)
    comps = connected_components(m)
    assert len(comps) == 2
    assert comps[0][:, 0].min() == 0
    assert comps[1][:, 0].min() == 4


def test_components_come_topmost_leftmost_first_on_random_masks():
    rng = np.random.default_rng(11)
    for _ in range(300):
        shape = tuple(rng.integers(1, 13, size=2))
        m = rng.random(shape) < rng.uniform(0.1, 0.7)
        comps = connected_components(m)
        firsts = [min(map(tuple, c.tolist())) for c in comps]
        assert firsts == sorted(firsts)
        covered = np.zeros(shape, dtype=int)
        for c in comps:
            covered[c[:, 0], c[:, 1]] += 1
        assert (covered == m).all()  # every mask pixel in exactly one component


def test_components_checkerboard_is_one_region():
    m = np.indices((3, 3)).sum(axis=0) % 2 == 0
    assert len(connected_components(m)) == 1


def test_components_rejects_non_2d():
    with pytest.raises(MetricError):
        connected_components(np.zeros((2, 2, 2), dtype=bool))


# ---------------------------------------------------------------------------
# AUPRO


def _one_sample(rng, h=8, w=8):
    m = rng.random((h, w))
    gt = np.zeros((h, w), dtype=bool)
    r0, c0 = rng.integers(0, h - 2), rng.integers(0, w - 2)
    gt[r0:r0 + 2, c0:c0 + 2] = True
    v = rng.random((h, w)) > 0.15
    v[gt] |= rng.random(int(gt.sum())) > 0.3
    return m, gt, v


def test_aupro_perfect_map_is_one():
    gt = np.zeros((6, 6), dtype=bool)
    gt[2:4, 2:4] = True
    m = gt.astype(float)
    v = np.ones((6, 6), dtype=bool)
    assert aupro([m], [gt], [v], fpr_limit=0.3) == pytest.approx(1.0)


def test_aupro_limit_validation():
    m = np.ones((2, 2))
    gt = np.array([[True, False], [False, False]])
    v = np.ones((2, 2), bool)
    with pytest.raises(MetricError):
        aupro([m], [gt], [v], fpr_limit=0.0)
    with pytest.raises(MetricError):
        aupro([m], [gt], [v], fpr_limit=1.5)


def test_aupro_requires_region_and_negatives():
    m = np.ones((2, 2))
    v = np.ones((2, 2), bool)
    with pytest.raises(MetricError, match="region"):
        aupro([m], [np.zeros((2, 2), bool)], [v], fpr_limit=0.3)
    with pytest.raises(MetricError, match="normal"):
        aupro([m], [np.ones((2, 2), bool)], [v], fpr_limit=0.3)


def test_pro_curve_starts_at_origin_and_is_monotone():
    rng = np.random.default_rng(2)
    m, gt, v = _one_sample(rng)
    fprs, pros = pro_curve([m], [gt], [v])
    assert fprs[0] == 0.0 and pros[0] == 0.0
    assert (np.diff(fprs) >= 0).all()
    assert (np.diff(pros) >= -1e-12).all()
    assert 0.0 <= pros[-1] <= 1.0 + 1e-12


def test_aupro_sample_permutation_invariant():
    rng = np.random.default_rng(3)
    batch = [_one_sample(rng) for _ in range(4)]
    maps, gts, vs = zip(*batch)
    a = aupro(list(maps), list(gts), list(vs), fpr_limit=0.3)
    rev = aupro(list(maps)[::-1], list(gts)[::-1], list(vs)[::-1], fpr_limit=0.3)
    assert rev == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("limit", [0.3, 0.01, 1.0])
def test_aupro_matches_exhaustive_oracle(seed, limit):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    batch = [_one_sample(rng, h=int(rng.integers(5, 10)), w=int(rng.integers(5, 10)))
             for _ in range(n)]
    maps, gts, vs = map(list, zip(*batch))
    # quantize a few maps to force threshold ties
    if seed % 2:
        maps = [np.round(m, 1) for m in maps]
    got = aupro(maps, gts, vs, fpr_limit=limit)
    ref = aupro_exhaustive(maps, gts, vs, fpr_limit=limit)
    assert got == pytest.approx(ref, abs=1e-6)
    assert 0.0 <= got <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_aupro_curve_shared_by_limits(seed):
    rng = np.random.default_rng(seed)
    batch = [_one_sample(rng, h=8, w=9) for _ in range(3)]
    maps, gts, vs = map(list, zip(*batch))
    curve = pro_curve(maps, gts, vs)
    for limit in (0.3, 0.01, 1.0):
        assert aupro(maps, gts, vs, limit, curve) == aupro(maps, gts, vs, limit)


def _integrate_loop(fprs, pros, limit):
    """Reference: the segment-by-segment loop that the array integration replaces."""
    area = 0.0
    for i in range(1, len(fprs)):
        x0, y0, x1, y1 = fprs[i - 1], pros[i - 1], fprs[i], pros[i]
        if x0 >= limit:
            break
        if x1 > limit:
            y1 = y0 + (y1 - y0) * (limit - x0) / (x1 - x0)
            x1 = limit
        area += (x1 - x0) * (y0 + y1) / 2.0
        if x1 >= limit:
            break
    return area


@pytest.mark.parametrize("seed", range(40))
def test_integration_equals_the_segment_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    # rounded FPRs tie; a curve ending below 1 puts the limit 1.0 beyond it
    fprs = np.sort(np.round(rng.random(n) * rng.uniform(0.5, 1.0), int(rng.integers(1, 4))))
    fprs[0] = 0.0
    pros = np.concatenate([[0.0], np.sort(rng.random(n - 1))])
    for limit in (0.01, 0.3, 1.0, float(fprs[int(rng.integers(1, n))]) or 0.5):
        got = _integrate_to_limit(fprs, pros, limit)
        assert got == _integrate_loop(fprs, pros, limit)


def test_integration_edge_curves():
    one = np.array([0.0])
    assert _integrate_to_limit(one, one, 0.3) == _integrate_loop(one, one, 0.3) == 0.0
    fprs, pros = np.array([0.0, 0.2, 0.2, 0.5]), np.array([0.0, 0.4, 0.6, 1.0])
    for limit in (0.1, 0.2, 0.3, 0.5, 1.0):  # on a point, on a tie, past the end
        assert _integrate_to_limit(fprs, pros, limit) == _integrate_loop(fprs, pros, limit)


@pytest.mark.parametrize("seed", range(4))
def test_exhaustive_sweep_shared_by_limits(seed):
    # one sweep stopped at the largest limit gives every limit's exact value
    rng = np.random.default_rng(seed)
    batch = [_one_sample(rng, h=8, w=9) for _ in range(3)]
    maps, gts, vs = map(list, zip(*batch))
    points = pro_points_exhaustive(maps, gts, vs, 0.3)
    assert points[-1][0] >= 0.3 > points[-2][0]
    assert len(points) < len(pro_points_exhaustive(maps, gts, vs))
    for limit in (0.3, 0.01):
        assert (aupro_exhaustive(maps, gts, vs, limit, points)
                == aupro_exhaustive(maps, gts, vs, limit))


# ---------------------------------------------------------------------------
# the oracles stay brute force: equal to plain loops, to the last bit


def _pair_counting_loop(scores, labels):
    """Reference: the pair-by-pair Python loop the array oracle replaces."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


def _pro_points_loop(maps, gt_masks, valid, fpr_stop=1.0):
    """Reference: per-threshold Python passes over every sample and region."""
    maps = [np.asarray(m, dtype=np.float64) for m in maps]
    gt_masks = [np.asarray(g, dtype=bool) for g in gt_masks]
    valid = [np.asarray(v, dtype=bool) for v in valid]
    regions = []
    for i, (gt, v) in enumerate(zip(gt_masks, valid)):
        for comp in connected_components(gt):
            region = np.zeros_like(gt)
            region[comp[:, 0], comp[:, 1]] = True
            region &= v
            if region.any():
                regions.append((i, region))
    neg_total = sum(int((v & ~gt).sum()) for gt, v in zip(gt_masks, valid))
    thresholds = np.unique(np.concatenate([m[v] for m, v in zip(maps, valid)]))[::-1]
    points = [(0.0, 0.0)]
    for t in thresholds:
        preds = [m >= t for m in maps]
        fp = sum(int((p & v & ~gt).sum())
                 for p, gt, v in zip(preds, gt_masks, valid))
        pro = float(np.mean([(preds[i] & region).sum() / region.sum()
                             for i, region in regions]))
        points.append((fp / neg_total, pro))
        if points[-1][0] >= fpr_stop:
            break
    return points


def _ragged_instance(rng):
    """Samples of different grid sizes, several regions each, holes in the
    valid masks inside regions, and maps quantised on odd draws for ties."""
    maps, gts, valid = [], [], []
    quantise = bool(rng.integers(0, 2))
    for _ in range(int(rng.integers(1, 5))):
        h, w = int(rng.integers(4, 13)), int(rng.integers(4, 13))
        m = rng.random((h, w))
        maps.append(np.round(m, 1) if quantise else m)
        gt = np.zeros((h, w), dtype=bool)
        for _ in range(int(rng.integers(0, 4))):
            r, c = int(rng.integers(0, h - 1)), int(rng.integers(0, w - 1))
            gt[r:r + int(rng.integers(1, 3)), c:c + int(rng.integers(1, 3))] = True
        gts.append(gt)
        valid.append(rng.random((h, w)) > 0.2)
    gts[0][0, 0] = valid[0][0, 0] = True   # at least one region
    gts[0][-1, -1], valid[0][-1, -1] = False, True  # at least one negative
    return maps, gts, valid


@pytest.mark.parametrize("seed", range(12))
def test_pair_counting_equals_the_pair_loop(seed):
    rng = np.random.default_rng(seed)
    # up to ~700 positives, so the row blocks end mid-array; rounding forces ties
    n = int(rng.integers(2, 1400))
    scores = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))
    labels = rng.random(n) > rng.random()
    labels[0], labels[-1] = True, False
    got = auroc_pair_counting(scores, labels)
    assert type(got) is float and got == _pair_counting_loop(scores, labels)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("fpr_stop", [0.01, 0.3, 1.0])
def test_pro_points_equal_the_threshold_loop(seed, fpr_stop):
    rng = np.random.default_rng(100 + seed)
    maps, gts, valid = _ragged_instance(rng)
    got = pro_points_exhaustive(maps, gts, valid, fpr_stop)
    assert got == _pro_points_loop(maps, gts, valid, fpr_stop)
    assert all(type(x) is float and type(y) is float for x, y in got)


def _many_threshold_instance(rng, n_thresholds):
    """Ragged samples whose valid scores take exactly `n_thresholds` distinct
    values, each held by a negative valid pixel, so that every threshold
    raises the FPR; region pixels reuse those values and invalid pixels hold
    scores of their own, which must not become thresholds."""
    maps, gts, valid = [], [], []
    for h, w in ((17, 23), (20, 14), (11, 19)):
        gt = np.zeros((h, w), dtype=bool)
        for _ in range(3):
            r, c = int(rng.integers(0, h - 3)), int(rng.integers(0, w - 3))
            gt[r:r + int(rng.integers(1, 4)), c:c + int(rng.integers(1, 4))] = True
        gts.append(gt)
        valid.append(rng.random((h, w)) > 0.1)
        maps.append(rng.random((h, w)) + 2.0)
    levels = rng.permutation(n_thresholds) / n_thresholds
    negs = [v & ~g for v, g in zip(valid, gts)]
    n_neg = sum(int(n.sum()) for n in negs)
    assert n_neg >= n_thresholds
    neg_scores = np.concatenate([levels, rng.choice(levels, n_neg - n_thresholds)])
    for m, g, v, n in zip(maps, gts, valid, negs):
        k = int(n.sum())
        m[n], neg_scores = neg_scores[:k], neg_scores[k:]
        m[v & g] = rng.choice(levels, int((v & g).sum()))
    return maps, gts, valid


@pytest.mark.parametrize("n_thresholds", [4 * _SWEEP_BLOCK_ROWS, 4 * _SWEEP_BLOCK_ROWS + 37])
@pytest.mark.parametrize("stop_row", ["first-of-block", "last-of-block", "end", "never"])
def test_pro_points_equal_the_loop_at_block_boundaries(n_thresholds, stop_row):
    maps, gts, valid = _many_threshold_instance(np.random.default_rng(n_thresholds),
                                                n_thresholds)
    full = _pro_points_loop(maps, gts, valid, 2.0)
    assert len(full) == n_thresholds + 1  # an FPR never exceeds 1: no early stop
    # threshold j is point j + 1; the FPRs rise strictly, so the stop is exact
    j = {"first-of-block": 2 * _SWEEP_BLOCK_ROWS, "last-of-block": 3 * _SWEEP_BLOCK_ROWS - 1,
         "end": n_thresholds - 1, "never": None}[stop_row]
    fpr_stop = 2.0 if j is None else full[j + 1][0]
    want = full if j is None else full[:j + 2]
    got = pro_points_exhaustive(maps, gts, valid, fpr_stop)
    assert got == want == _pro_points_loop(maps, gts, valid, fpr_stop)
    assert all(type(x) is float and type(y) is float for x, y in got)


def _oracle_tree():
    return ast.parse(inspect.getsource(triad.oracles))


def test_oracles_import_only_the_shared_metric_helpers():
    from_metrics = set()
    for node in ast.walk(_oracle_tree()):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("metrics"):
            from_metrics |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert all(not a.name.startswith("triad") for a in node.names)
    assert from_metrics == {"MetricError", "connected_components"}


def test_oracles_use_no_ranks_sorting_or_running_sums():
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(_oracle_tree())
             if isinstance(node, (ast.Attribute, ast.Name))}
    banned = {"rankdata", "argsort", "sort", "sorted", "searchsorted",
              "cumsum", "cumulative_sum", "auroc", "pro_curve"}
    assert names & banned == set()
