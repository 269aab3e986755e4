"""Dataset folders: the seam that stands in for frozen backbone extractors.

A dataset is a ``manifest.json`` plus one folder of TMF1 files per sample
(``f_rgb.tmf``, ``f_3d.tmf``, ``mask.tmf`` and, for labelled samples,
``gt.tmf``), as written by ``triad gen-data``.  Any other feature source
plugs in by writing the same layout.  Every read is checked: a malformed
manifest, or a sample id that is not a plain folder name, raises
`DatasetIOError`, mismatched ranks or grids, or an empty grid, raise
`ShapeMismatchError`, a non-finite feature at a valid pixel raises
`NonFiniteError`, and a mask or ground-truth value other than 0 or 1, or an
`is_anomalous` label that disagrees with ``gt.tmf``, raises
`BinaryValueError`.  Features at invalid pixels are not checked: training
and scoring read the valid rows only, so missing depth may be stored there
as NaN.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autograd import NonFiniteError
from .scoring import ShapeMismatchError
from .synthdata import LabeledSample
from .tmf import canonical_json, read_tensor, write_tensor

_ENTRY_KEYS = frozenset({"id", "class", "split", "is_anomalous"})


class DatasetIOError(OSError):
    pass


class BinaryValueError(ValueError):
    """A mask or ground-truth file holds a value other than 0 or 1, or a
    sample's `is_anomalous` label disagrees with its ground truth."""


def _read_binary(path) -> np.ndarray:
    arr = read_tensor(path)
    out = arr.astype(bool)
    if not (out == arr).all():  # NaN and every value but 0 and 1 differ
        raise BinaryValueError(f"{path}: values other than 0 and 1")
    return out


def _check_entry(e: dict) -> None:
    if not _ENTRY_KEYS <= set(e):
        raise KeyError(f"every sample entry needs {sorted(_ENTRY_KEYS)}")
    if not (isinstance(e["id"], str) and isinstance(e["class"], str)):
        raise ValueError(f"sample id and class must be strings in {e}")
    if e["id"] in ("", ".", "..") or Path(e["id"]).name != e["id"]:
        raise ValueError(f"sample id must be a folder name under samples/ in {e}")
    if e["split"] not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test' in {e}")
    if not isinstance(e["is_anomalous"], bool):
        raise ValueError(f"is_anomalous must be a JSON bool in {e}")


def save_dataset(out_dir, train, test, config_hash: str, seed: int) -> None:
    """Write manifest.json plus one TMF1 file set per sample."""
    out = Path(out_dir)
    entries = []
    for split, samples in (("train", train), ("test", test)):
        for i, s in enumerate(samples):
            sid = f"{split}-{i:05d}"
            sdir = out / "samples" / sid
            sdir.mkdir(parents=True, exist_ok=True)
            write_tensor(sdir / "f_rgb.tmf", s.f_rgb)
            write_tensor(sdir / "f_3d.tmf", s.f_3d)
            write_tensor(sdir / "mask.tmf", s.mask.astype(np.float32))
            write_tensor(sdir / "gt.tmf", s.gt_pixels.astype(np.float32))
            entries.append({"id": sid, "class": s.class_name, "split": split,
                            "is_anomalous": bool(s.is_anomalous)})
    manifest = {"config_hash": config_hash, "seed": seed, "samples": entries}
    (out / "manifest.json").write_bytes(canonical_json(manifest))


def read_features(sdir) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read one sample folder's (H, W, D) feature grids and (H, W) mask.

    Raises `ShapeMismatchError` unless both grids are rank 3 and the mask
    rank 2 over one (H, W) grid with H, W >= 1, `NonFiniteError` if a
    feature value at a valid pixel is NaN or infinite, and `BinaryValueError`
    unless every mask value is 0 or 1.  Values at invalid pixels may be anything, NaN included.
    """
    sdir = Path(sdir)
    f_rgb = np.asarray(read_tensor(sdir / "f_rgb.tmf"), dtype=np.float64)
    f_3d = np.asarray(read_tensor(sdir / "f_3d.tmf"), dtype=np.float64)
    mask = _read_binary(sdir / "mask.tmf")
    if f_rgb.ndim != 3 or f_3d.ndim != 3 or mask.ndim != 2:
        raise ShapeMismatchError(
            f"{sdir}: expected (H, W, D) features and an (H, W) mask, got shapes "
            f"{f_rgb.shape}, {f_3d.shape}, {mask.shape}")
    if f_rgb.shape[:2] != f_3d.shape[:2] or f_rgb.shape[:2] != mask.shape:
        raise ShapeMismatchError(
            f"{sdir}: grid mismatch ({f_rgb.shape[:2]} vs {f_3d.shape[:2]} "
            f"vs {mask.shape})")
    if mask.size == 0:
        raise ShapeMismatchError(f"{sdir}: empty feature grid {mask.shape}")
    if not (np.isfinite(f_rgb[mask]).all() and np.isfinite(f_3d[mask]).all()):
        raise NonFiniteError(f"{sdir}: non-finite feature values at valid pixels")
    return f_rgb, f_3d, mask


class DatasetFolderProvider:
    """Reads the sample folders referenced by a dataset manifest."""

    def __init__(self, data_dir):
        self.root = Path(data_dir)
        manifest_path = self.root / "manifest.json"
        if not manifest_path.exists():
            raise DatasetIOError(f"no manifest.json in {self.root}")
        try:
            self.manifest = json.loads(manifest_path.read_text())
            ids = set()
            for e in self.manifest["samples"]:
                _check_entry(e)
                if e["id"] in ids:
                    raise ValueError(f"repeated sample id {e['id']!r}")
                ids.add(e["id"])
        except (ValueError, KeyError, TypeError) as exc:  # JSON, UTF-8, layout
            raise DatasetIOError(f"{manifest_path}: corrupt manifest: {exc}") from None

    def load_split(self, split: str) -> list[LabeledSample]:
        """Every sample of `split`, in manifest order."""
        samples = []
        for e in self.manifest["samples"]:
            if e["split"] != split:
                continue
            sdir = self.root / "samples" / e["id"]
            f_rgb, f_3d, mask = read_features(sdir)
            gt = _read_binary(sdir / "gt.tmf")
            if gt.shape != mask.shape:
                raise ShapeMismatchError(f"{sdir / 'gt.tmf'}: ground-truth grid "
                                         f"{gt.shape} != mask grid {mask.shape}")
            if gt.any() != e["is_anomalous"]:
                raise BinaryValueError(
                    f"{sdir}: is_anomalous is {str(e['is_anomalous']).lower()} "
                    f"but gt.tmf holds {np.count_nonzero(gt)} defect pixels")
            samples.append(LabeledSample(e["class"], f_rgb, f_3d, mask, gt,
                                         e["is_anomalous"]))
        return samples
