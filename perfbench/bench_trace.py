"""In-memory span recorder that wraps the public functions of the triad layers.

Spans are (name, start, end, parent) rows kept in flat arrays.  Wrappers are
installed from outside the package: every public function and public method
of each layer module is replaced at every name through which callers look it
up (module globals of every ``triad.*`` module, and class attributes), and the
originals are restored on ``uninstall``.

The autograd module's tensor operations (``add``, ``matmul``, ...) are left
unwrapped: a default train step builds about 1.3k graph nodes, and a span per
node would more than double the step's Python cost.  Of that module only
``Tensor.backward`` and ``finite_diff_gradient_check`` (whose objective calls
become ``autograd.objective`` spans) are traced.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("autograd", "gacm", "projectors", "octa", "losses", "model",
          "trainer", "scoring", "metrics", "oracles", "evaluate", "synthdata",
          "tmf", "provider", "config", "cli")

_AUTOGRAD_TRACED = {"autograd.Tensor.backward",
                    "autograd.finite_diff_gradient_check"}

_FILE_IO = ("tmf.read_tensor", "tmf.write_tensor", "tmf.load_checkpoint",
            "tmf.save_checkpoint")

# Bookkeeping the tracer does inside a traced call (graph walks, file sizes)
# is recorded under this name, so it is excluded from every layer's self time.
TRACE_OWN = "_trace"


def _reachable_nodes(loss) -> int:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _file_bytes(tracer, idx, args, result) -> float:
    return float(os.path.getsize(args[0]))


def _thresholds(tracer, idx, args, result) -> float:
    return float(len(result[0]) - 1)  # the PRO curve starts with (0, 0)


def _pairs(tracer, idx, args, result) -> float:
    n_pos = int(np.count_nonzero(np.asarray(args[1], dtype=bool)))
    return float(n_pos * (np.size(args[1]) - n_pos))


def _step_graph_nodes(tracer, idx, args, result) -> float | None:
    p = tracer.parent[idx]
    if p < 0 or tracer.names[tracer.name_id[p]] != "trainer.train_step":
        return None
    return float(_reachable_nodes(result[0]))


# Counts measured at a layer boundary after the call returns, by span name.
_COUNTS = {**{name: _file_bytes for name in _FILE_IO},
           "metrics.pro_curve": _thresholds,
           "oracles.auroc_pair_counting": _pairs,
           "trainer.batch_loss": _step_graph_nodes}


class Tracer:
    """Records spans; ``install`` wraps the selected layer functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, float] = {}
        # {parameter name: shape} of the last store handed to the gradient check
        self.gradcheck_params: dict[str, tuple] | None = None
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def save(self, path) -> None:
        """Write the spans (name index, parent, start, end) and the name table."""
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.intc),
                            parent=np.frombuffer(self.parent, dtype=np.intc),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def durations_since(self, name: str, first: int) -> list[float]:
        """Durations of the spans called `name` recorded from index `first` on."""
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(first, len(self.start))
                if self.name_id[i] == nid]

    # -- wrapping --------------------------------------------------------
    def _wrap(self, fn, name: str):
        nid = self._id(name)
        own = self._id(TRACE_OWN)
        tracer = self
        if name == "autograd.finite_diff_gradient_check":
            obj_id = self._id("autograd.objective")

            def wrapper(objective, params, *args, **kwargs):
                tracer.gradcheck_params = {n: t.data.shape for n, t in params.items()}

                def timed_objective():
                    i = tracer._open(obj_id)
                    try:
                        return objective()
                    finally:
                        tracer._close(i)

                idx = tracer._open(nid)
                try:
                    return fn(timed_objective, params, *args, **kwargs)
                finally:
                    tracer._close(idx)
            return wrapper

        measure = _COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                j = tracer._open(own)
                try:
                    value = measure(tracer, idx, args, result)
                finally:
                    tracer._close(j)
                if value is not None:
                    tracer.counts[idx] = value
            return result

        return wrapper

    def install(self, select: set[str] | None = None) -> None:
        """Wrap every public layer function, or only the qualified names in `select`."""
        if self._patches:
            raise RuntimeError("tracer already installed")

        def chosen(qual: str) -> bool:
            if select is not None:
                return qual in select
            return not qual.startswith("autograd.") or qual in _AUTOGRAD_TRACED

        replacements = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"triad.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and chosen(f"{layer}.{attr}"):
                    replacements[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        qual = f"{layer}.{attr}.{mname}"
                        if (inspect.isfunction(meth) and chosen(qual)
                                and (not mname.startswith("_") or mname == "__init__")):
                            self._patch(obj, mname, self._wrap(meth, qual))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "triad" or mod_name.startswith("triad.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(mod, attr, replacements[obj])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    @contextlib.contextmanager
    def installed(self, select: set[str] | None = None):
        self.install(select)
        try:
            yield self
        finally:
            self.uninstall()


# -- per-layer metrics ---------------------------------------------------------
# Bench phase spans; layer spans inside "setup" and "round" are aggregated.
# "probe" rounds run untraced (only the op timers) and give the overhead base.
PHASES = {"bench.setup": "setup", "bench.round": "round",
          "bench.round_probe": "probe"}

# metric -> span name; the median duration per call, in ms
MEDIAN_MS = {
    "trainer.batch_loss_ms": "trainer.batch_loss",
    "autograd.backward_ms": "autograd.Tensor.backward",
    "model.forward_sample_ms": "model.Model.forward_sample",
    "gacm.forward_ms": "gacm.gacm_forward",
    "projectors.project_ms": "projectors.project",
    "losses.visual_ms": "losses.visual_loss",
    "losses.text_ms": "losses.text_loss",
    "octa.forward_ms": "octa.octa_forward",
    "octa.moe_ms": "octa.moe_forward",
    "octa.attention_ms": "octa.prototype_attention",
    "octa.refine_ms": "octa.octa_refine",
    "autograd.objective_ms": "autograd.objective",
    "metrics.aupro_ms": "metrics.aupro",
    "evaluate.infer_maps_ms": "evaluate.infer_maps",
    "tmf.load_checkpoint_ms": "tmf.load_checkpoint",
    "config.build_ms": "config.build_run_config",
    "model.init_ms": "model.Model.__init__",
    "tmf.read_ms": "tmf.read_tensor",
    "tmf.write_ms": "tmf.write_tensor",
    "model.text_anchor_ms": "model.Model.text_anchor",
    "octa.embed_ms": "octa.HashingEmbedder.embed",
    "metrics.pixel_auroc_ms": "metrics.pixel_auroc",
}
# metric -> span name; seconds spent per traced round
ROUND_TOTAL_S = {
    "oracles.pair_counting_s": "oracles.auroc_pair_counting",
    "oracles.aupro_exhaustive_s": "oracles.aupro_exhaustive",
}
# metric -> span name; calls per traced round
ROUND_CALLS = {
    "autograd.objective_calls": "autograd.objective",
    "oracles.aupro_exhaustive_calls": "oracles.aupro_exhaustive",
}
# metric -> span name; seconds per set-up (median over the set-ups of a run)
SETUP_TOTAL_S = {
    "synthdata.gen_dataset_s": "synthdata.gen_dataset",
    "provider.save_dataset_s": "provider.save_dataset",
    "provider.load_split_s": "provider.DatasetFolderProvider.load_split",
    "trainer.train_s": "trainer.train",
}
# computed below from span structure or span counts
SPECIAL = {
    "trainer.update_ms": "ms", "autograd.nodes_per_step": "count",
    "projectors.calls_per_step": "count", "octa.anchors_per_step": "count",
    "oracles.pairs_counted": "count", "tmf.bytes_per_infer": "B",
    "scoring.maps_ms": "ms", "metrics.aupro_thresholds": "count",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {m: "ms" for m in MEDIAN_MS}
    units.update({m: "s" for m in ROUND_TOTAL_S})
    units.update({m: "count" for m in ROUND_CALLS})
    units.update({m: "s" for m in SETUP_TOTAL_S})
    units.update(SPECIAL)
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.total_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    return units


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics(tr: Tracer) -> dict[str, float]:
    """Aggregate a traced run's spans into the per-layer metrics.

    Times ending in ``_ms`` are medians per call over the set-up and traced
    round phases; ``_s`` totals and counts are per traced round or per
    set-up, so they repeat exactly between runs of one seed whatever the
    number of rounds.  Layer ``calls``/``total_s``/``self_s`` cover one
    set-up plus one round; ``total_s`` counts a nested call of the same layer
    once.  A layer a workload never reaches reads 0.
    """
    n = len(tr)
    names = [tr.names[k] for k in tr.name_id]
    parent = tr.parent
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    phase: list[str | None] = [None] * n
    owner = [-1] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
        ph = PHASES.get(names[i])
        if ph is not None:
            phase[i], owner[i] = ph, i
        elif p >= 0:
            phase[i], owner[i] = phase[p], owner[p]
    live = [phase[i] in ("setup", "round") for i in range(n)]
    n_setups = sum(1 for i in range(n) if phase[i] == "setup" and owner[i] == i)
    n_rounds = sum(1 for i in range(n) if phase[i] == "round" and owner[i] == i)

    by_name: dict[str, list[int]] = {}
    for i in range(n):
        if live[i]:
            by_name.setdefault(names[i], []).append(i)

    def spans(name):
        return by_name.get(name, [])

    def per_round(values):
        return float(sum(values)) / n_rounds if n_rounds else 0.0

    out: dict[str, float] = {}
    for metric, name in MEDIAN_MS.items():
        out[metric] = 1e3 * _median([dur[i] for i in spans(name)])
    for metric, name in ROUND_TOTAL_S.items():
        out[metric] = per_round(dur[i] for i in spans(name) if phase[i] == "round")
    for metric, name in ROUND_CALLS.items():
        out[metric] = per_round(1 for i in spans(name) if phase[i] == "round")
    for metric, name in SETUP_TOTAL_S.items():
        per_setup: dict[int, float] = {}
        for i in spans(name):
            if phase[i] == "setup":
                per_setup[owner[i]] = per_setup.get(owner[i], 0.0) + dur[i]
        out[metric] = _median(list(per_setup.values()))

    steps = spans("trainer.train_step")
    inner = {"trainer.batch_loss", "autograd.Tensor.backward", TRACE_OWN}
    step_rest = {i: dur[i] for i in steps}
    step_of = {}
    for i in range(n):
        p = parent[i]
        if p in step_rest:
            step_of[i] = p
            if names[i] in inner:
                step_rest[p] -= dur[i]
        elif p >= 0 and p in step_of:
            step_of[i] = step_of[p]
    out["trainer.update_ms"] = 1e3 * _median(list(step_rest.values()))
    n_steps = len(steps)
    out["autograd.nodes_per_step"] = (
        sum(tr.counts.get(i, 0.0) for i in spans("trainer.batch_loss") if i in step_of)
        / n_steps if n_steps else 0.0)
    for metric, name in (("projectors.calls_per_step", "projectors.project"),
                         ("octa.anchors_per_step", "octa.octa_forward")):
        out[metric] = (sum(1 for i in spans(name) if i in step_of) / n_steps
                       if n_steps else 0.0)

    out["oracles.pairs_counted"] = per_round(
        tr.counts.get(i, 0.0) for i in spans("oracles.auroc_pair_counting")
        if phase[i] == "round")
    out["metrics.aupro_thresholds"] = _median(
        [tr.counts[i] for i in spans("metrics.pro_curve")])

    infers = set(spans("cli.cmd_infer"))
    infer_of: dict[int, int] = {}
    io_bytes = 0.0
    for i in range(n):
        p = parent[i]
        if p in infers:
            infer_of[i] = p
        elif p >= 0 and p in infer_of:
            infer_of[i] = infer_of[p]
        if i in infer_of and names[i] in _FILE_IO:
            io_bytes += tr.counts.get(i, 0.0)
    out["tmf.bytes_per_infer"] = io_bytes / len(infers) if infers else 0.0

    maps = {i: 0.0 for i in spans("evaluate.infer_maps")}
    for i in range(n):
        if parent[i] in maps and names[i].startswith("scoring."):
            maps[parent[i]] += dur[i]
    out["scoring.maps_ms"] = 1e3 * _median(list(maps.values()))

    traced = [dur[i] for i in range(n) if names[i] == "bench.round"]
    probe = [dur[i] for i in range(n) if names[i] == "bench.round_probe"]
    out["trace.overhead_pct"] = (100.0 * (_median(traced) / _median(probe) - 1.0)
                                 if traced and probe else 0.0)

    layer_of = [nm.split(".", 1)[0] if nm.split(".", 1)[0] in LAYERS else None
                for nm in tr.names]
    layer = [layer_of[k] for k in tr.name_id]
    calls = {lay: 0.0 for lay in LAYERS}
    total = dict(calls)
    self_t = dict(calls)
    for i in range(n):
        lay = layer[i]
        if lay is None or not live[i]:
            continue
        share = 1.0 / (n_setups if phase[i] == "setup" else n_rounds)
        calls[lay] += share
        self_t[lay] += share * (dur[i] - child[i])
        p = parent[i]
        while p >= 0 and layer[p] != lay:
            p = parent[p]
        if p < 0:
            total[lay] += share * dur[i]
    for lay in LAYERS:
        out[f"{lay}.calls"] = round(calls[lay], 6)
        out[f"{lay}.total_s"] = total[lay]
        out[f"{lay}.self_s"] = self_t[lay]
    return out
