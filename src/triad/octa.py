"""Object-conditioned textual feature adaptor.

The frozen text side is the normal-state prompt ensemble of a class
(`build_prompts`) and its embedding (`HashingEmbedder`); `Model` builds and
embeds the prompts.  The trainable adaptor enhances the embeddings with a
sparse top-k mixture of experts, distills them into one anchor vector via
prototype cross-attention, and refines that anchor with an MLP + FFN block.
The same anchor serves the RGB-side and 3D-side alignment.  Several classes
go through one pass together, one anchor row per class.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .autograd import (
    ParameterStore,
    Tensor,
    add,
    column,
    layer_norm,
    linear_forward,
    matmul,
    mul,
    softmax_row,
    transpose,
)
from .gacm import _init_linear
from .projectors import MlpParams, project

DEFAULT_STATES = [
    "[c]",
    "flawless [c]",
    "perfect [c]",
    "unblemished [c]",
    "[c] without flaw",
    "[c] without defect",
    "[c] without damage",
]

DEFAULT_TEMPLATES = [
    "a photo of a [s].",
    "a photo of the [s].",
]


@dataclass
class PromptCatalog:
    """State descriptors with a [c] slot and contextual templates with an [s] slot."""

    states: list[str] = field(default_factory=lambda: list(DEFAULT_STATES))
    templates: list[str] = field(default_factory=lambda: list(DEFAULT_TEMPLATES))

    def validate(self) -> None:
        if not self.states or not self.templates:
            raise ValueError("prompt states and templates must both be nonempty")


def build_prompts(class_name: str, catalog: PromptCatalog | None = None) -> list[str]:
    """Expand the catalog grammar for one class; [c] first, then [s]."""
    if not class_name:
        raise ValueError("class name must be nonempty")
    if catalog is None:
        catalog = PromptCatalog()
    states = [s.replace("[c]", class_name) for s in catalog.states]
    return [t.replace("[s]", s) for s in states for t in catalog.templates]


class HashingEmbedder:
    """Deterministic desk-scale text embedder.

    Each whitespace token hashes to a fixed pseudo-random unit vector; a
    sentence embedding is the L2-normalized sum of its token vectors.
    """

    def __init__(self, d_text: int, seed: int = 0):
        self.d_text = d_text
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        v = self._cache.get(token)
        if v is None:
            digest = hashlib.sha256(f"{self.seed}:{token}".encode()).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            v = rng.standard_normal(self.d_text)
            v /= np.linalg.norm(v)
            self._cache[token] = v
        return v

    def embed(self, sentences: list[str]) -> np.ndarray:
        out = np.zeros((len(sentences), self.d_text))
        for i, sent in enumerate(sentences):
            acc = np.zeros(self.d_text)
            for tok in sent.split():
                acc += self._token_vector(tok)
            norm = np.linalg.norm(acc)
            if norm > 0:
                acc /= norm
            out[i] = acc
        return out


class MoeParams:
    """E expert MLPs plus a linear gate; only the top-k experts fire per row."""

    def __init__(self, store: ParameterStore, d_text: int, n_experts: int, k: int,
                 rng: np.random.Generator):
        if not 1 <= k <= n_experts:
            raise ValueError(f"top-k count {k} out of range [1, {n_experts}]")
        self.k = k
        self.experts = [MlpParams(store, d_text, d_text, rng, f"moe.expert{i}")
                        for i in range(n_experts)]
        self.gate = _init_linear(store, "moe.gate", d_text, len(self.experts), rng)


def moe_forward(t: Tensor, p: MoeParams) -> Tensor:
    """Sparse mixture: per row, softmax over the k largest gate logits.

    Unselected experts receive an exactly-zero weight, so their parameters get
    no gradient and perturbing them cannot change the output.  Ties are broken
    toward the lower expert index.
    """
    logits = linear_forward(t, p.gate)
    n, n_experts = logits.data.shape
    # stable argsort descending; ties resolve to the lower index
    order = np.argsort(-logits.data, axis=1, kind="stable")
    selected = np.zeros((n, n_experts), dtype=bool)
    np.put_along_axis(selected, order[:, :p.k], True, axis=1)
    # softmax over selected logits only: push unselected logits far below the rest
    weights = softmax_row(add(logits, Tensor(np.where(selected, 0.0, -1e30))))
    out = None
    for i, expert in enumerate(p.experts):
        if not selected[:, i].any():
            continue  # zero weight everywhere: skipping keeps output bit-identical
        contrib = mul(project(t, expert), column(weights, i))
        out = contrib if out is None else add(out, contrib)
    return out


class PrototypeParams:
    """Learnable prototype query plus the attention/refinement weights."""

    def __init__(self, store: ParameterStore, d_text: int, rng: np.random.Generator,
                 dropout_rate: float):
        bound = 1.0 / np.sqrt(d_text)
        self.scale = float(np.sqrt(d_text))
        self.dropout_rate = dropout_rate
        self.prototype = store.register(
            "proto.prototype", rng.uniform(-bound, bound, size=(1, d_text)))
        # bias-free query/key/value projections
        self.wq = store.register("proto.wq",
                                 rng.uniform(-bound, bound, size=(d_text, d_text)))
        self.wk = store.register("proto.wk",
                                 rng.uniform(-bound, bound, size=(d_text, d_text)))
        self.wv = store.register("proto.wv",
                                 rng.uniform(-bound, bound, size=(d_text, d_text)))
        self.post_mlp = MlpParams(store, d_text, d_text, rng, "proto.post_mlp")
        self.ffn = MlpParams(store, d_text, d_text, rng, "proto.ffn")
        self.final_ln_gain = store.register("proto.final_ln_gain", np.ones(d_text))
        self.final_ln_shift = store.register("proto.final_ln_shift", np.zeros(d_text))


def prototype_attention(t: Tensor, p: PrototypeParams, n_classes: int = 1) -> Tensor:
    """Prototype cross-attention over enhanced text rows, one output row per class.

    The rows of `t` are `n_classes` equal blocks, one per class.  A block
    mask lets each class's copy of the prototype query attend only over its
    own block: masked scores get an exactly-zero weight.
    """
    n = t.data.shape[0]
    if n_classes < 1 or n % n_classes:
        raise ValueError(f"{n} text rows do not split into {n_classes} equal blocks")
    q = matmul(p.prototype, p.wq)
    scores = mul(matmul(q, transpose(matmul(t, p.wk))), 1.0 / p.scale)
    block = np.arange(n) // (n // n_classes)
    outside = block[None, :] != np.arange(n_classes)[:, None]
    attn = softmax_row(add(scores, Tensor(np.where(outside, -1e30, 0.0))))
    return matmul(attn, matmul(t, p.wv))


def octa_refine(f_p, p: PrototypeParams, mode: str = "eval",
                dropout_rng: np.random.Generator | None = None) -> Tensor:
    """MLP(P + F_p), then LN over a dropout-regularized FFN residual, per row.

    The dropout mask of a (C, D_text) input is one (C, D_text) draw, so C
    classes consume the generator exactly as C one-row calls in row order.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    f_hat = project(add(p.prototype, f_p), p.post_mlp)
    ffn_out = project(f_hat, p.ffn)
    if mode == "train" and p.dropout_rate > 0.0:
        if dropout_rng is None:
            raise ValueError("train-mode dropout needs a seeded generator")
        keep = 1.0 - p.dropout_rate
        mask = (dropout_rng.random(ffn_out.data.shape) < keep) / keep
        ffn_out = mul(ffn_out, Tensor(mask))
    return layer_norm(add(f_hat, ffn_out), p.final_ln_gain, p.final_ln_shift)


def octa_forward(t_embed: np.ndarray, n_classes: int, moe: MoeParams,
                 proto: PrototypeParams, mode: str,
                 dropout_rng: np.random.Generator | None) -> Tensor:
    """Trainable adaptor on frozen prompt embeddings: MoE -> attention -> refinement.

    `t_embed` stacks `n_classes` equal blocks of prompt embeddings, one block
    per class, and goes through the MoE as one matrix.  Returns one D_text
    anchor row per block, in block order; the anchor is shared by the
    RGB-side and 3D-side terms.
    """
    t_hat = moe_forward(Tensor(t_embed), moe)
    f_p = prototype_attention(t_hat, proto, n_classes=n_classes)
    return octa_refine(f_p, proto, mode=mode, dropout_rng=dropout_rng)
