"""Release acceptance gate.

Seven criteria, one PASS/FAIL line each (printed past pytest's capture so the
verdicts always appear in the run log):
  1. gradient fidelity of every differentiable module and the total loss
  2. exactness of the closed-form pieces (gating convexity, fusion formula,
     Euclidean map, pass-through mapper identity)
  3. metric equivalence against brute-force oracles on random instances
  4. end-to-end benchmark quality at the default configuration
  5. ablation direction: full model beats the text-free and plain-MLP variants
  6. module invariants: expert locality, mask independence, fusion
     monotonicity, byte-identical determinism
  7. prompt catalog size and wording
"""

import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from triad.autograd import (
    ParameterStore,
    Tensor,
    finite_diff_gradient_check,
    mul,
    tensor_sum,
)
from triad.cli import main as cli_main
from triad.config import build_run_config, resolve_config
from triad.evaluate import evaluate
from triad.gacm import GacmParams, gacm_forward, gacm_fuse
from triad.metrics import auroc, aupro, pool_valid, pro_curve
from triad.model import Model
from triad.octa import (
    DEFAULT_STATES,
    DEFAULT_TEMPLATES,
    MoeParams,
    PromptCatalog,
    PrototypeParams,
    build_prompts,
    moe_forward,
    octa_forward,
    HashingEmbedder,
)
from triad.oracles import aupro_exhaustive, auroc_pair_counting, pro_points_exhaustive
from triad.projectors import MlpParams, project
from triad.scoring import FusionWeights, distance_map, fuse
from triad.synthdata import MVTEC_CLASS_NAMES, gen_dataset
from triad.trainer import batch_loss, run_gradcheck, train


def _verdict(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared full-scale benchmark runs (expensive; computed once per session)

_CATALOG = PromptCatalog(
    states=["[c]", "zebra [c] quantum", "[c] umbrella"],
    templates=["[s] nine", "crimson [s] fourteen"],
)


@pytest.fixture(scope="module")
def benchmark_runs():
    """Per-seed benchmark results for the default config at seeds 7, 1, 2.

    Each entry holds the untrained and trained averaged metrics for the full
    model, the beta=0 evaluation of the same trained model, and the trained
    plain-MLP-mapper variant, plus the SHA-256 of both trained models'
    parameter bytes.
    """
    cfg = build_run_config(resolve_config())
    runs = {}
    for seed in (7, 1, 2):
        tr, te = gen_dataset(cfg.data, seed)
        tc = replace(cfg.train, seed=seed)
        model = Model(cfg.dims, seed=seed, catalog=cfg.catalog)
        untrained = evaluate(model, te, cfg.fusion, [0.3])["average"]
        train(tc, model, tr)
        full = evaluate(model, te, cfg.fusion, [0.3])["average"]
        beta0 = evaluate(model, te, FusionWeights(alpha=0.5, beta=0.0),
                         [0.3])["average"]
        mlp = Model(cfg.dims, seed=seed, catalog=cfg.catalog, mapper_kind="mlp")
        train(tc, mlp, tr)
        mlp_avg = evaluate(mlp, te, cfg.fusion, [0.3])["average"]
        runs[seed] = {"untrained": untrained, "full": full, "beta0": beta0,
                      "mlp": mlp_avg,
                      "sha256": (_parameter_sha256(model), _parameter_sha256(mlp))}
    return runs


def _parameter_sha256(model: Model) -> str:
    return hashlib.sha256(b"".join(
        a.tobytes() for a in model.export_arrays().values())).hexdigest()


# (full, plain-MLP mapper) trained parameter bytes at the default config; any
# change to the arithmetic or order of training shows here first
PINNED_PARAMETER_SHA256 = {
    7: ("95bad2f413899f01428a287d85364748c0e38882cedc1f9c0400b21933b1955c",
        "52a455f50342490150a9f5b9c05ac0b5970ae4fcca1ca234cc88236e3abf078e"),
    1: ("7e2605a4f707003c6da704cf365be4a4d8f93cb408e67d1366e36b6ed4c1a894",
        "ad0d18b8f3b40c9e3220441994f6afbea1e0c956b6fce63278c79cfa6e1bc9e5"),
    2: ("f2901418be9427b9ee2da099b164d223a093da3be870c91f928c57a482363d35",
        "161bc5fa49c74ed98b5b824fd9a4fe0576c494255b6607d284aa4c4ae338314b"),
}


def test_trained_parameter_bytes_are_pinned(benchmark_runs):
    assert {seed: run["sha256"] for seed, run in benchmark_runs.items()} \
        == PINNED_PARAMETER_SHA256


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity


def _probe_objective(forward, rng, out_shape):
    probe = rng.standard_normal(out_shape)

    def objective():
        return tensor_sum(mul(forward(), Tensor(probe)))

    return objective


def test_criterion_1_gradient_fidelity(capsys):
    t0 = time.time()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x4 = rng.standard_normal((4, 4))   # 2x2 grid, width 4
        x6 = rng.standard_normal((4, 6))
        x8 = rng.standard_normal((4, 8))

        store = ParameterStore()
        gacm = GacmParams(store, 4, 6, rng)
        rep = finite_diff_gradient_check(
            _probe_objective(lambda: gacm_forward(Tensor(x4), gacm), rng, (4, 6)),
            store)
        worst = max(worst, rep.max_relative_error)

        for d_in, d_out, x in ((6, 4, x6), (4, 8, x4), (6, 8, x6)):
            store = ParameterStore()
            mlp = MlpParams(store, d_in, d_out, rng, "proj")
            rep = finite_diff_gradient_check(
                _probe_objective(lambda: project(Tensor(x), mlp), rng,
                                 (4, d_out)), store)
            worst = max(worst, rep.max_relative_error)

        store = ParameterStore()
        moe = MoeParams(store, 8, 3, 2, rng)
        proto = PrototypeParams(store, 8, rng, dropout_rate=0.0)
        for t in (proto.prototype, proto.wq, proto.wk, proto.wv):
            t.data = t.data * 2.0
        t_embed = HashingEmbedder(8, seed=seed).embed(build_prompts("bagel", _CATALOG))

        def octa():
            return octa_forward(t_embed, 1, moe, proto, "eval", None)

        probe = rng.standard_normal((1, 8))
        rep = finite_diff_gradient_check(
            lambda: mul(tensor_sum(mul(octa(), Tensor(probe))), 2.0 ** -6),
            store)
        worst = max(worst, rep.max_relative_error)

        rep = run_gradcheck(seed=seed)
        worst = max(worst, rep.max_relative_error)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    _verdict(capsys, 1, "gradient fidelity", ok,
             f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: formula exactness


def test_criterion_2_formula_exactness(capsys):
    rng = np.random.default_rng(0)
    # gated fusion is a convex combination per coordinate
    sem = rng.standard_normal((6, 5))
    geo = rng.standard_normal((6, 5))
    gate = rng.uniform(0.0, 1.0, (6, 5))
    fused = gacm_fuse(Tensor(sem), Tensor(geo), Tensor(gate)).data
    convex_ok = bool(((fused >= np.minimum(sem, geo) - 1e-12)
                      & (fused <= np.maximum(sem, geo) + 1e-12)).all())

    # fusion closed form on constant maps
    closed_ok = True
    for c in (0.0, 0.3, 1.0, 2.0):
        m = np.full((4, 4), c)
        closed_ok &= bool(np.abs(fuse(m, m, m) - (0.5 * c * c + 0.5 * c)).max()
                          <= 1e-12)

    # Euclidean distance on a 3-4-5 right triangle is exact
    a = np.zeros((1, 2))
    b = np.array([[3.0, 4.0]])
    pythag_ok = distance_map(a, b)[0] == 5.0

    # square pass-through mapper (zeroed branch weights) is an exact identity
    store = ParameterStore()
    p = GacmParams(store, 5, 5, rng)
    for lin in (p.phi_s, p.phi_g, p.w_gate):
        lin.weight.data[...] = 0.0
    x = rng.standard_normal((9, 5))
    ident_ok = bool((gacm_forward(Tensor(x), p).data == x).all())

    ok = convex_ok and closed_ok and pythag_ok and ident_ok
    _verdict(capsys, 2, "formula exactness", ok,
             f"convex={convex_ok} closed={closed_ok} "
             f"pythagorean={pythag_ok} identity={ident_ok}")


# ---------------------------------------------------------------------------
# criterion 3: metric oracle equivalence


def test_criterion_3_metric_oracles(capsys):
    t0 = time.time()
    auroc_max = 0.0
    aupro_max = 0.0
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(4, 60))
        scores = np.round(rng.standard_normal(n), 1)
        labels = rng.random(n) > 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        got = auroc(scores, labels)
        ref = auroc_pair_counting(scores, labels)
        auroc_max = max(auroc_max, abs(got - ref))

        n_samples = int(rng.integers(1, 9))
        h, w = int(rng.integers(5, 17)), int(rng.integers(5, 17))
        maps, gts, valids = [], [], []
        for _ in range(n_samples):
            m = rng.random((h, w))
            if rng.random() < 0.5:
                m = np.round(m, 1)  # force threshold ties
            gt = np.zeros((h, w), dtype=bool)
            r0, c0 = rng.integers(0, h - 2), rng.integers(0, w - 2)
            gt[r0:r0 + 2, c0:c0 + 2] = True
            v = rng.random((h, w)) > 0.1
            v |= gt
            maps.append(m)
            gts.append(gt)
            valids.append(v)
        limit = float(rng.choice([0.3, 0.01, 1.0]))
        pooled = pool_valid(maps, gts, valids)
        got = aupro(pro_curve(*pooled), limit)
        ref = aupro_exhaustive(pro_points_exhaustive(*pooled, limit), limit)
        aupro_max = max(aupro_max, abs(got - ref))
    elapsed = time.time() - t0
    ok = auroc_max == 0.0 and aupro_max <= 1e-6 and elapsed < 120.0
    _verdict(capsys, 3, "metric oracle equivalence", ok,
             f"auroc diff {auroc_max:.1e}, aupro diff {aupro_max:.1e}, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: end-to-end benchmark


def test_criterion_4_benchmark(capsys, benchmark_runs):
    t0 = time.time()
    run = benchmark_runs[7]
    i_tr = run["full"]["i_auroc"]
    p_tr = run["full"]["p_auroc"]
    i_un = run["untrained"]["i_auroc"]
    ok = (i_tr >= 0.90 and p_tr >= 0.92 and (i_tr - i_un) >= 0.25
          and 0.35 <= i_un <= 0.65)
    _verdict(capsys, 4, "end-to-end benchmark", ok,
             f"trained I={i_tr:.3f} P={p_tr:.3f}, untrained I={i_un:.3f}, "
             f"+{time.time() - t0:.0f}s after shared runs")


# ---------------------------------------------------------------------------
# criterion 5: ablation direction


def test_criterion_5_ablation_direction(capsys, benchmark_runs):
    details = []
    ok = True
    for seed, run in benchmark_runs.items():
        i_full = run["full"]["i_auroc"]
        i_b0 = run["beta0"]["i_auroc"]
        i_mlp = run["mlp"]["i_auroc"]
        ok &= i_full >= i_b0 and i_full >= i_mlp
        details.append(f"seed {seed}: full={i_full:.3f} "
                       f"beta0={i_b0:.3f} mlp={i_mlp:.3f}")
    _verdict(capsys, 5, "ablation direction", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 6: module invariants


def _expert_locality_ok() -> bool:
    rng = np.random.default_rng(5)
    store = ParameterStore()
    p = MoeParams(store, 8, 4, 2, rng)
    p.gate.bias.data[3] = -1e3  # expert 3 can never enter any top-2
    x = rng.standard_normal((5, 8))
    before = moe_forward(Tensor(x), p).data.copy()
    p.experts[3].layer1.weight.data += 50.0
    after = moe_forward(Tensor(x), p).data
    return bool((before == after).all())


def _mask_independence_ok() -> bool:
    # NaN or +-1e9 at every invalid pixel of a batch reaches the model's input
    # and must leave the batch loss and every parameter gradient unchanged to
    # the last bit
    cfg = build_run_config(resolve_config({"data": {
        "classes": ["bagel", "dowel"], "n_train": 2, "height": 6, "width": 6}}))
    train_samples, _ = gen_dataset(cfg.data, 6)
    model = Model(cfg.dims, seed=6, catalog=cfg.catalog)

    def loss_and_grad_bytes(batch) -> bytes:
        model.store.zero_grad()
        loss, _, _ = batch_loss(model, batch, cfg.train.loss_weights, mode="eval")
        loss.backward()
        return loss.data.tobytes() + model.store.gather_grads().tobytes()

    base = loss_and_grad_bytes(train_samples)
    ok = True
    for bad in (np.nan, 1e9):
        batch = []
        for s in train_samples:
            f_rgb, f_3d = s.f_rgb.copy(), s.f_3d.copy()
            f_rgb[~s.mask] = bad
            f_3d[~s.mask] = -bad
            batch.append(replace(s, f_rgb=f_rgb, f_3d=f_3d))
        ok &= loss_and_grad_bytes(batch) == base
    return ok


def _fuse_monotone_ok() -> bool:
    rng = np.random.default_rng(7)
    r, g, t = (np.abs(rng.standard_normal((4, 4))) for _ in range(3))
    base = fuse(r, g, t)
    return bool((fuse(r + 0.5, g, t) >= base).all()
                and (fuse(r, g + 0.5, t) >= base).all()
                and (fuse(r, g, t + 0.5) >= base).all())


def _determinism_ok(tmp_path: Path) -> bool:
    cfg = {
        "data": {"classes": ["bagel"], "n_train": 4, "n_test": 4,
                 "height": 8, "width": 8, "d_latent": 3, "d_rgb": 5, "d_3d": 7},
        "model": {"d_text": 8, "n_experts": 3, "top_k": 2, "dropout_rate": 0.1},
        "train": {"steps": 3, "batch_size": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for tag in ("a", "b"):
        data = tmp_path / f"data-{tag}"
        ck = tmp_path / f"model-{tag}.ckpt"
        report = tmp_path / f"report-{tag}.json"
        if cli_main(["gen-data", "--config", str(cfg_path),
                     "--out", str(data)]) != 0:
            return False
        if cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(ck)]) != 0:
            return False
        if cli_main(["eval", "--checkpoint", str(ck), "--data", str(data),
                     "--out", str(report)]) != 0:
            return False
        outputs.append((ck.read_bytes(), report.read_bytes()))
    return outputs[0] == outputs[1]


def test_criterion_6_module_invariants(capsys, tmp_path):
    locality = _expert_locality_ok()
    mask_ind = _mask_independence_ok()
    monotone = _fuse_monotone_ok()
    determinism = _determinism_ok(tmp_path)
    ok = locality and mask_ind and monotone and determinism
    _verdict(capsys, 6, "module invariants", ok,
             f"locality={locality} mask_independence={mask_ind} "
             f"fuse_monotone={monotone} determinism={determinism}")


# ---------------------------------------------------------------------------
# criterion 7: prompt catalog


def test_criterion_7_prompt_catalog(capsys):
    ok = len(DEFAULT_STATES) * len(DEFAULT_TEMPLATES) == 14
    for cname in MVTEC_CLASS_NAMES:
        prompts = build_prompts(cname)
        ok &= len(prompts) == 14
        ok &= f"a photo of a flawless {cname}." in prompts
        ok &= all("[c]" not in s and "[s]" not in s for s in prompts)
    _verdict(capsys, 7, "prompt catalog", ok,
             f"{len(MVTEC_CLASS_NAMES)} classes x 14 sentences")
