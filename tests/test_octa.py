"""Tests for the prompt catalog, text embedder, MoE, and prototype attention."""

import numpy as np
import pytest

from triad.autograd import (
    ParameterStore,
    Tensor,
    finite_diff_gradient_check,
    mul,
    softmax_row,
    matmul,
    tensor_sum,
    transpose,
)
from triad.octa import (
    DEFAULT_STATES,
    DEFAULT_TEMPLATES,
    HashingEmbedder,
    MoeParams,
    PromptCatalog,
    PrototypeParams,
    build_prompts,
    moe_forward,
    octa_forward,
    octa_refine,
    prototype_attention,
)

DIVERSE_CATALOG = PromptCatalog(
    states=["[c]", "zebra [c] quantum", "[c] umbrella"],
    templates=["[s] nine", "crimson [s] fourteen"],
)


# ---------------------------------------------------------------------------
# prompts


def test_prompt_count_is_states_times_templates():
    for cname in ("bagel", "cable gland", "tire"):
        prompts = build_prompts(cname)
        assert len(prompts) == len(DEFAULT_STATES) * len(DEFAULT_TEMPLATES) == 14
    assert len(build_prompts("rope", DIVERSE_CATALOG)) == 6


def test_prompt_grammar_expansion():
    prompts = build_prompts("bagel")
    assert "a photo of a flawless bagel." in prompts
    assert "a photo of the bagel without defect." in prompts
    assert all("[c]" not in s and "[s]" not in s for s in prompts)


def test_prompts_multiword_class_name():
    prompts = build_prompts("cable gland")
    assert "a photo of a flawless cable gland." in prompts


def test_empty_class_name_rejected():
    with pytest.raises(ValueError):
        build_prompts("")


# ---------------------------------------------------------------------------
# embedder


def test_embedder_deterministic_and_normalized():
    e1 = HashingEmbedder(8, seed=0)
    e2 = HashingEmbedder(8, seed=0)
    sents = build_prompts("bagel")
    a, b = e1.embed(sents), e2.embed(sents)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_embedder_distinct_classes_distinct_rows():
    e = HashingEmbedder(16, seed=0)
    a = e.embed(build_prompts("bagel"))
    b = e.embed(build_prompts("carrot"))
    assert np.abs(a - b).max() > 1e-3


def test_embedder_seed_changes_vectors():
    sents = ["a photo of a bagel."]
    a = HashingEmbedder(8, seed=0).embed(sents)
    b = HashingEmbedder(8, seed=1).embed(sents)
    assert np.abs(a - b).max() > 1e-3


# ---------------------------------------------------------------------------
# mixture of experts


def _moe(d_text=8, n_experts=3, k=2, seed=0):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    return store, MoeParams(store, d_text, n_experts, k, rng)


def test_single_expert_identity_gate():
    store, p = _moe(n_experts=1, k=1)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 8))
    out = moe_forward(Tensor(x), p)
    from triad.projectors import project
    expected = project(Tensor(x), p.experts[0]).data
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_k_out_of_range_rejected():
    with pytest.raises(ValueError):
        _moe(n_experts=2, k=3)
    with pytest.raises(ValueError):
        _moe(n_experts=2, k=0)


def test_topk_locality_bit_identical():
    """Perturbing experts outside every row's top-k cannot change the output."""
    store, p = _moe(n_experts=4, k=2, seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 8))
    logits = x @ p.gate.weight.data + p.gate.bias.data
    order = np.argsort(-logits, axis=1, kind="stable")
    selected_anywhere = set(order[:, :2].ravel().tolist())
    unselected = [i for i in range(4) if i not in selected_anywhere]
    if not unselected:  # pick a gate bias making one expert always lose
        p.gate.bias.data[3] = -1e3
        unselected = [3]
    before = moe_forward(Tensor(x), p).data.copy()
    for i in unselected:
        p.experts[i].layer1.weight.data += 123.0
        p.experts[i].layer2.bias.data -= 7.0
    after = moe_forward(Tensor(x), p).data
    np.testing.assert_array_equal(before, after)


def test_gate_tie_breaks_to_lower_index():
    store, p = _moe(n_experts=3, k=1, seed=4)
    # force exactly tied logits: zero gate weight, equal biases
    p.gate.weight.data[:] = 0.0
    p.gate.bias.data[:] = 0.5
    x = np.random.default_rng(5).standard_normal((2, 8))
    out = moe_forward(Tensor(x), p).data
    from triad.projectors import project
    np.testing.assert_allclose(out, project(Tensor(x), p.experts[0]).data,
                               atol=1e-12)


def test_selected_weights_sum_to_one():
    store, p = _moe(n_experts=4, k=2, seed=6)
    x = np.random.default_rng(7).standard_normal((6, 8))
    # recompute the masked softmax the way moe_forward does
    raw = x @ p.gate.weight.data + p.gate.bias.data
    order = np.argsort(-raw, axis=1, kind="stable")
    sel = np.zeros_like(raw, dtype=bool)
    np.put_along_axis(sel, order[:, :2], True, axis=1)
    masked = raw * sel + np.where(sel, 0.0, -1e30)
    w = softmax_row(Tensor(masked)).data
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert (w[~sel] == 0.0).all()


@pytest.mark.parametrize("seed", range(5))
def test_moe_gradcheck(seed):
    store, p = _moe(seed=seed)
    rng = np.random.default_rng(seed + 30)
    x = rng.standard_normal((4, 8))
    probe = rng.standard_normal((4, 8))

    def objective():
        return tensor_sum(mul(moe_forward(Tensor(x), p), Tensor(probe)))

    report = finite_diff_gradient_check(objective, store)
    assert report.max_relative_error <= 1e-4, report


# ---------------------------------------------------------------------------
# prototype attention and refinement


def _proto(d_text=8, seed=0, dropout_rate=0.0):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    return store, PrototypeParams(store, d_text, rng, dropout_rate=dropout_rate)


def test_attention_weights_sum_to_one():
    store, p = _proto(seed=1)
    t = np.random.default_rng(2).standard_normal((6, 8))
    q = matmul(p.prototype, p.wq)
    scores = mul(matmul(q, transpose(matmul(Tensor(t), p.wk))), 1.0 / p.scale)
    attn = softmax_row(scores).data
    assert attn.shape == (1, 6)
    assert attn.sum() == pytest.approx(1.0, abs=1e-12)


def test_attention_output_in_value_row_hull():
    # softmax weights are a convex combination, so each output coordinate
    # lies between the min and max of the value rows
    store, p = _proto(seed=3)
    t = np.random.default_rng(4).standard_normal((5, 8))
    out = prototype_attention(Tensor(t), p).data
    values = t @ p.wv.data
    assert (out >= values.min(axis=0) - 1e-12).all()
    assert (out <= values.max(axis=0) + 1e-12).all()


def test_scale_is_sqrt_width():
    _, p = _proto(d_text=8)
    assert p.scale == pytest.approx(np.sqrt(8.0))


def test_refine_requires_valid_mode():
    store, p = _proto()
    with pytest.raises(ValueError):
        octa_refine(Tensor(np.zeros((1, 8))), p, mode="test")


def test_train_mode_dropout_needs_generator():
    store, p = _proto(dropout_rate=0.5)
    with pytest.raises(ValueError):
        octa_refine(Tensor(np.zeros((1, 8))), p, mode="train")


def test_eval_mode_ignores_dropout_rate():
    store, p = _proto(dropout_rate=0.9)
    f_p = Tensor(np.random.default_rng(5).standard_normal((1, 8)))
    a = octa_refine(f_p, p, mode="eval").data
    b = octa_refine(f_p, p, mode="eval").data
    np.testing.assert_array_equal(a, b)


def test_train_dropout_seeded_reproducible():
    store, p = _proto(seed=6, dropout_rate=0.5)
    f_p = Tensor(np.random.default_rng(7).standard_normal((1, 8)))
    out1 = octa_refine(f_p, p, mode="train",
                       dropout_rng=np.random.default_rng(9)).data
    out2 = octa_refine(f_p, p, mode="train",
                       dropout_rng=np.random.default_rng(9)).data
    out3 = octa_refine(f_p, p, mode="train",
                       dropout_rng=np.random.default_rng(10)).data
    np.testing.assert_array_equal(out1, out2)
    assert np.abs(out1 - out3).max() > 0.0


def test_octa_forward_anchor_shape_and_determinism():
    store = ParameterStore()
    rng = np.random.default_rng(8)
    moe = MoeParams(store, 8, 3, 2, rng)
    proto = PrototypeParams(store, 8, rng, dropout_rate=0.0)
    t_embed = HashingEmbedder(8, seed=0).embed(build_prompts("bagel"))
    a = octa_forward(t_embed, 1, moe, proto, "eval", None)
    b = octa_forward(t_embed, 1, moe, proto, "eval", None)
    assert a.data.shape == (1, 8)
    np.testing.assert_array_equal(a.data, b.data)
    two = octa_forward(np.concatenate([t_embed, t_embed]), 2, moe, proto, "eval", None)
    assert two.data.shape == (2, 8)
    with pytest.raises(ValueError, match="equal blocks"):
        octa_forward(t_embed, 3, moe, proto, "eval", None)


@pytest.mark.parametrize("seed", range(5))
def test_full_octa_gradcheck(seed):
    """End-to-end adaptor gradients, eval-mode dropout, dims <= 8."""
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    moe = MoeParams(store, 8, 3, 2, rng)
    proto = PrototypeParams(store, 8, rng, dropout_rate=0.0)
    # amplify the attention tensors: at raw init their gradients sit near the
    # finite-difference noise floor (see run_gradcheck)
    for t in (proto.prototype, proto.wq, proto.wk, proto.wv):
        t.data = t.data * 2.0
    t_embed = HashingEmbedder(8, seed=seed).embed(build_prompts("bagel", DIVERSE_CATALOG))
    probe = np.random.default_rng(seed + 40).standard_normal((1, 8))

    def objective():
        anchor = octa_forward(t_embed, 1, moe, proto, "eval", None)
        return mul(tensor_sum(mul(anchor, Tensor(probe))), 2.0 ** -6)

    report = finite_diff_gradient_check(objective, store)
    assert report.max_relative_error <= 1e-4, report
