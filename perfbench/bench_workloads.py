"""The benchmark's workloads: set-up, one round of operations, output checks.

Every workload builds its inputs in set-up from the run's seed and hands the
program only those inputs.  A round is a fixed list of operations on fixed
inputs, so every round of a run does the same work.  The program is reached
only through public functions of the ``triad`` modules and its CLI, always
looked up as module attributes so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_checks as bc
from bench_trace import Tracer, per_layer_metrics, per_layer_units

import triad.cli as cli
import triad.config as config
import triad.evaluate as ev
import triad.model as model_mod
import triad.provider as provider
import triad.synthdata as synthdata
import triad.tmf as tmf
import triad.trainer as trainer


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the package's default configuration."""

    classes: tuple[str, ...] | None = None  # None: the configured four classes
    n_train: int = 64          # nominal train samples per class
    n_test: int = 32           # test samples per class, half anomalous
    grid: int = 16
    steps: int = 200           # steps of the train workload's trainer.train
    batch_size: int = 8
    setup_steps: int = 40      # steps of the model trained in set-up
    hr_grid: int = 64          # score-highres grid
    hr_n_test: int = 16        # score-highres test samples per class
    setups: int = 3            # set-ups per run; setup_s is their median


FULL = Sizes()


def make_config(sizes: Sizes, seed: int, *, grid: int, n_train: int, n_test: int,
                steps: int):
    data = {"n_train": n_train, "n_test": n_test, "height": grid, "width": grid}
    if sizes.classes is not None:
        data["classes"] = list(sizes.classes)
    overrides = {"data": data,
                 "train": {"steps": steps, "batch_size": sizes.batch_size}}
    return config.build_run_config(config.resolve_config(overrides, seed))


def new_model(cfg):
    return model_mod.Model(cfg.dims, seed=cfg.seed, catalog=cfg.catalog,
                           mapper_kind=cfg.mapper_kind)


def write_and_read(cfg, out_dir: Path, splits: tuple[str, ...]):
    """Generate the dataset, write it as TMF1 folders and read `splits` back."""
    train, test = synthdata.gen_dataset(cfg.data, cfg.seed)
    provider.save_dataset(out_dir, train, test, cfg.hash, cfg.seed)
    folder = provider.DatasetFolderProvider(out_dir)
    return [folder.load_split(split) for split in splits]


def fixed_batch(samples: list, size: int) -> list:
    """`size` samples spread evenly over the (class-ordered) train split."""
    return [samples[i * len(samples) // size] for i in range(size)]


class Run:
    """Timings and operation counts collected over one run."""

    def __init__(self, sizes: Sizes, seed: int, work: Path, tracer: Tracer):
        self.sizes, self.seed, self.work, self.tracer = sizes, seed, work, tracer
        self.op_s: list[float] = []        # per-operation latencies
        self.pass_rates: list[float] = []  # samples per second of each pass
        self.attempted = 0
        self.failed = 0


# -- train -------------------------------------------------------------------

def train_setup(run: Run) -> dict:
    s = run.sizes
    cfg = make_config(s, run.seed, grid=s.grid, n_train=s.n_train,
                      n_test=s.n_test, steps=s.steps)
    train, test = write_and_read(cfg, run.work / "data", ("train", "test"))
    return {"cfg": cfg, "train": train, "test": test}


def train_round(run: Run, st: dict, first: int, probe: bool) -> None:
    cfg = st["cfg"]
    model = new_model(cfg)
    steps = cfg.train.steps
    run.attempted += steps
    t = time.perf_counter()
    _, loss_log = trainer.train(cfg.train, model, st["train"])
    run.pass_rates.append(steps * cfg.train.batch_size / (time.perf_counter() - t))
    if probe:
        run.op_s += run.tracer.durations_since("trainer.train_step", first)
    st["model"], st["log"] = model, loss_log


def train_check(run: Run, st: dict) -> None:
    cfg, model = st["cfg"], st["model"]
    bc.check_losses_finite(st["log"], cfg.train.steps)

    trained = ev.evaluate(model, st["test"], cfg.fusion, cfg.fpr_limits)
    untrained = ev.evaluate(new_model(cfg), st["test"], cfg.fusion, cfg.fpr_limits)
    bc.check_quality(trained["average"]["i_auroc"], untrained["average"]["i_auroc"])

    w = cfg.train.loss_weights
    batch = fixed_batch(st["train"], cfg.train.batch_size)
    loss, _, _ = trainer.batch_loss(model, batch, w, mode="eval")
    feats = [{k: v.data for k, v in model.forward_sample(s.f_rgb, s.f_3d).items()}
             for s in batch]
    anchors = [model.text_anchor(s.class_name, mode="eval").data for s in batch]
    bc.check_batch_loss(float(loss.data), bc.recompute_batch_loss(
        feats, anchors, [s.mask for s in batch], w))

    # directional derivative of the eval-mode objective along one applied update
    p0 = model.export_arrays()
    model.store.zero_grad()
    loss.backward()
    grads = {n: (p.grad if p.grad is not None else np.zeros_like(p.data))
             for n, p in model.store.items()}
    trainer.train_step(batch, model, trainer.AdamState(model), cfg.train, cfg.train.steps)
    direction = {n: model.store[n].data - p0[n] for n in p0}
    analytic = sum(float(np.vdot(grads[n], direction[n])) for n in p0)

    def objective_at(t: float) -> float:
        model.load_arrays({n: p0[n] + t * direction[n] for n in p0})
        return float(trainer.batch_loss(model, batch, w, mode="eval")[0].data)

    # The top-k expert choice makes the objective piecewise smooth: a step of
    # 1e-3 along the update crossed a switch on one seed in twenty.
    h = 1e-5
    f_plus, f_minus = objective_at(h), objective_at(-h)
    model.load_arrays(p0)
    bc.check_directional_derivative(analytic, f_plus, f_minus, h)


# -- verify ------------------------------------------------------------------

def trained_setup(run: Run, splits: tuple[str, ...]):
    s = run.sizes
    cfg = make_config(s, run.seed, grid=s.grid, n_train=s.n_train,
                      n_test=s.n_test, steps=s.setup_steps)
    loaded = write_and_read(cfg, run.work / "data", splits)
    model = new_model(cfg)
    trainer.train(cfg.train, model, loaded[0])
    return cfg, model, loaded


def verify_setup(run: Run) -> dict:
    cfg, model, (_, test) = trained_setup(run, ("train", "test"))
    return {"cfg": cfg, "model": model, "test": test}


def verify_round(run: Run, st: dict, first: int, probe: bool) -> None:
    cfg = st["cfg"]
    run.attempted += 2
    st["gradcheck"] = trainer.run_gradcheck()
    st["objective_calls"] = len(run.tracer.durations_since("autograd.objective", first))
    if probe:
        run.op_s += run.tracer.durations_since("autograd.objective", first)
    st["eval"], st["eval_error"] = None, None
    t = time.perf_counter()
    try:
        st["eval"] = ev.evaluate(st["model"], st["test"], cfg.fusion, cfg.fpr_limits,
                                 oracle_check=True)
    except ev.OracleMismatchError as exc:
        st["eval_error"] = exc
    run.pass_rates.append(len(st["test"]) / (time.perf_counter() - t))


def verify_check(run: Run, st: dict) -> None:
    bc.check_gradcheck(st["gradcheck"].per_parameter_errors,
                       run.tracer.gradcheck_params, st["objective_calls"])
    bc.check_oracle_eval(st["eval_error"], st["eval"])


# -- score-highres -------------------------------------------------------------

def score_setup(run: Run) -> dict:
    s = run.sizes
    cfg, model, _ = trained_setup(run, ("train",))
    ckpt = run.work / "model.ckpt"
    tmf.save_checkpoint(ckpt, model.export_arrays(), cfg.train.steps, cfg.seed,
                        cfg.hash, cfg.raw)
    hr = make_config(s, run.seed, grid=s.hr_grid, n_train=1, n_test=s.hr_n_test,
                     steps=s.setup_steps)
    _, hr_test = synthdata.gen_dataset(hr.data, hr.seed)
    hr_dir = run.work / "highres"
    provider.save_dataset(hr_dir, [], hr_test, hr.hash, hr.seed)
    folder = provider.DatasetFolderProvider(hr_dir)
    return {"cfg": cfg, "model": model, "ckpt": ckpt, "dir": hr_dir,
            "test": folder.load_split("test"),
            "entries": [(e["id"], e["class"]) for e in folder.manifest["samples"]]}


def score_round(run: Run, st: dict, first: int, probe: bool) -> None:
    cfg = st["cfg"]
    run.attempted += 1
    t = time.perf_counter()
    st["eval"] = ev.evaluate(st["model"], st["test"], cfg.fusion, cfg.fpr_limits)
    run.pass_rates.append(len(st["test"]) / (time.perf_counter() - t))
    maps = run.work / "maps"
    maps.mkdir(exist_ok=True)
    for sid, cls in st["entries"]:
        argv = ["infer", "--checkpoint", str(st["ckpt"]),
                "--sample", str(st["dir"] / "samples" / sid),
                "--out", str(maps / f"{sid}.tmf"), "--class-name", cls]
        run.attempted += 1
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t
        if code != 0:
            run.failed += 1
        else:
            run.op_s.append(elapsed)


def score_check(run: Run, st: dict) -> None:
    cfg, model = st["cfg"], st["model"]
    maps_dir = run.work / "maps"
    for (sid, _), s in zip(st["entries"], st["test"]):
        written = tmf.read_tensor(maps_dir / f"{sid}.tmf")
        meta = json.loads((maps_dir / f"{sid}.tmf.meta.json").read_text())
        bc.check_sidecar(written, s.mask, meta["image_score"])
        bc.check_invalid_zero(written, s.mask)
    for cname, entry in st["eval"]["classes"].items():
        samples = [s for s in st["test"] if s.class_name == cname]
        maps = [ev.infer_maps(model, s, cfg.fusion)[0] for s in samples]
        bc.check_pixel_auroc(maps, [s.gt_pixels for s in samples],
                             [s.mask for s in samples], entry["p_auroc"])
    untrained = ev.evaluate(new_model(cfg), st["test"], cfg.fusion, cfg.fpr_limits)
    bc.check_quality(st["eval"]["average"]["i_auroc"], untrained["average"]["i_auroc"])


@dataclass(frozen=True)
class Workload:
    setup: object
    round: object
    check: object
    probe: frozenset   # functions timed from outside in every round
    # verify runs each of its two operations once per round; a second round
    # halves the weight of one slow stretch of the machine in its figures
    min_rounds: int = 1


WORKLOADS = {
    "train": Workload(train_setup, train_round, train_check,
                      frozenset({"trainer.train_step"})),
    "verify": Workload(verify_setup, verify_round, verify_check,
                       frozenset({"autograd.finite_diff_gradient_check"}), min_rounds=2),
    "score-highres": Workload(score_setup, score_round, score_check, frozenset()),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 sizes: Sizes = FULL) -> dict:
    """Set up, run rounds for `seconds`, check outputs; returns the result object.

    Untraced, rounds run with only the workload's probe wrapped.  Traced,
    fully traced rounds alternate with probe-only ones, starting and ending
    with a probe round, so the run measures its own tracing overhead.
    """
    wl = WORKLOADS[name]
    tracer = Tracer()
    setup_s = []
    # Every set-up rewrites the same files under `work`.  Deleting thousands
    # of freshly written files after each run made file creation in the next
    # runs up to ten times slower on an ext4 volume mounted with `discard`.
    work.mkdir(parents=True, exist_ok=True)
    run = Run(sizes, seed, work, tracer)
    for _ in range(sizes.setups):
        state = None  # release the previous set-up's data before building anew
        with tracer.installed(None if trace else wl.probe):
            with tracer.span("bench.setup") as idx:
                state = wl.setup(run)
        setup_s.append(tracer.duration(idx))

    start = time.perf_counter()
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        with tracer.installed(None if traced else wl.probe):
            first = len(tracer)
            with tracer.span("bench.round" if traced else "bench.round_probe"):
                wl.round(run, state, first, not traced)
        rounds += 1
        if time.perf_counter() - start < seconds:
            continue
        # traced: probe rounds on both sides of every traced one
        if (rounds >= 3 and rounds % 2 == 1) if trace else rounds >= wl.min_rounds:
            break

    try:
        wl.check(run, state)
        correct = True
    except bc.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if trace:
        units = per_layer_units()
        metrics = {k: (v, units[k]) for k, v in per_layer_metrics(tracer).items()}
    else:
        op_ms = [1e3 * x for x in run.op_s]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "samples_per_s": (statistics.median(run.pass_rates), "1/s"),
            "op_ms.p50": (float(np.percentile(op_ms, 50)), "ms"),
            "op_ms.p90": (float(np.percentile(op_ms, 90)), "ms"),
        }
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"setups": len(setup_s), "rounds": rounds, "ops": len(run.op_s),
                    "passes": len(run.pass_rates)},
        "tracer": tracer,
    }

