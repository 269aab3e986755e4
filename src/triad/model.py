"""Full detection head: mapper + projectors + textual adaptor over one store.

The head owns a single ParameterStore, packed into one float64 buffer once
every module has registered, so that checkpointing, optimization, and
gradient checking can treat every trainable tensor uniformly.  Features
enter as (N, D) patch rows: one sample's valid rows when scoring, a whole
batch's stacked valid rows when training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import ParameterStore, Tensor
from .gacm import GacmParams, gacm_forward
from .octa import (
    HashingEmbedder,
    MoeParams,
    PromptCatalog,
    PrototypeParams,
    build_prompts,
    octa_forward,
)
from .projectors import MlpParams, project

MAPPER_GACM = "gacm"
MAPPER_MLP = "mlp"


class ParameterMismatchError(ValueError):
    """Arrays handed to :meth:`Model.load_arrays` do not fit the model."""


@dataclass
class ModelDims:
    d_rgb: int = 12
    d_3d: int = 18
    d_text: int = 16
    n_experts: int = 4
    top_k: int = 2
    dropout_rate: float = 0.1

    def validate(self) -> None:
        if self.d_text < 2:  # the adaptor's final LayerNorm needs two entries
            raise ValueError(f"d_text must be >= 2, got {self.d_text}")
        if not 1 <= self.top_k <= self.n_experts:
            raise ValueError(f"top_k must be in [1, n_experts={self.n_experts}], "
                             f"got {self.top_k}")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


class Model:
    """All trainable components of the head plus the frozen text embedder."""

    def __init__(self, dims: ModelDims, seed: int,
                 catalog: PromptCatalog | None = None,
                 mapper_kind: str = MAPPER_GACM):
        if mapper_kind not in (MAPPER_GACM, MAPPER_MLP):
            raise ValueError(f"unknown mapper kind {mapper_kind!r}")
        self.mapper_kind = mapper_kind
        self.catalog = catalog if catalog is not None else PromptCatalog()
        self.embedder = HashingEmbedder(dims.d_text)
        # frozen prompt embeddings per class name, filled on first use
        self._prompt_embeddings: dict[str, np.ndarray] = {}
        self.store = ParameterStore()
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
        if mapper_kind == MAPPER_GACM:
            self.mapper = GacmParams(self.store, dims.d_rgb, dims.d_3d, rng)
        else:
            self.mapper = MlpParams(self.store, dims.d_rgb, dims.d_3d, rng, "mapper")
        self.proj_3d_to_rgb = MlpParams(self.store, dims.d_3d, dims.d_rgb, rng,
                                        "proj_3d_to_rgb")
        self.proj_rgb_to_text = MlpParams(self.store, dims.d_rgb, dims.d_text, rng,
                                          "proj_rgb_to_text")
        self.proj_3d_to_text = MlpParams(self.store, dims.d_3d, dims.d_text, rng,
                                         "proj_3d_to_text")
        self.moe = MoeParams(self.store, dims.d_text, dims.n_experts, dims.top_k, rng)
        self.proto = PrototypeParams(self.store, dims.d_text, rng,
                                     dropout_rate=dims.dropout_rate)
        self.store.pack()

    def forward_sample(self, f_rgb_grid: np.ndarray,
                       f_3d_grid: np.ndarray) -> dict[str, Tensor]:
        """Map patch rows into every target modality.

        The inputs are (N, D) patch rows, or any arrays whose last axis is
        the feature width, such as (H, W, D) grids, which are flattened.
        Returns (N, D) tensors keyed by mapping name.
        """
        f_rgb = Tensor(f_rgb_grid.reshape(-1, f_rgb_grid.shape[-1]))
        f_3d = Tensor(f_3d_grid.reshape(-1, f_3d_grid.shape[-1]))
        rgb_to_3d = gacm_forward if self.mapper_kind == MAPPER_GACM else project
        return {
            "f_rgb": f_rgb,
            "f_3d": f_3d,
            "f_rgb_to_3d": rgb_to_3d(f_rgb, self.mapper),
            "f_3d_to_rgb": project(f_3d, self.proj_3d_to_rgb),
            "f_rgb_to_text": project(f_rgb, self.proj_rgb_to_text),
            "f_3d_to_text": project(f_3d, self.proj_3d_to_text),
        }

    def text_anchors(self, class_names: list[str], mode: str = "eval",
                     dropout_rng: np.random.Generator | None = None) -> Tensor:
        """(C, D_text) class-conditioned anchors, one row per class, from one pass.

        Each class's prompts are built from the catalog and embedded by the
        frozen embedder on first use; the adaptor runs on their stack.
        """
        cache = self._prompt_embeddings
        for name in class_names:
            if name not in cache:
                cache[name] = self.embedder.embed(build_prompts(name, self.catalog))
        return octa_forward(np.concatenate([cache[n] for n in class_names]),
                            len(class_names), self.moe, self.proto, mode, dropout_rng)

    def text_anchor(self, class_name: str, mode: str = "eval",
                    dropout_rng: np.random.Generator | None = None) -> Tensor:
        """Class-conditioned 1 x D_text anchor (shared by both visual sides)."""
        return self.text_anchors([class_name], mode=mode, dropout_rng=dropout_rng)

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.store.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        names = self.store.slices
        if set(arrays) != set(names):
            missing = set(names) - set(arrays)
            extra = set(arrays) - set(names)
            raise ParameterMismatchError(
                f"parameter set mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}")
        for name in names:
            t = self.store[name]
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ParameterMismatchError(f"shape mismatch for {name}: "
                                             f"{arr.shape} vs {t.data.shape}")
            t.data[...] = arr
