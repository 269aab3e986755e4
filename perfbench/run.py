"""Benchmark of the triad head: unified training, verification, high-resolution scoring.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

It prints each metric by name with its unit and, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer ones.
Generated datasets, checkpoints, maps, results and traces go under
``.perfbench/`` in the checkout; each workload's datasets are rewritten in
place by its next run.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices here are at most a few thousand by 18, where a
# second thread only adds synchronisation.  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "verify", "score-highres")
RUN_TIMEOUT_S = 180


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def _run_all(args) -> int:
    """Each workload in its own process, so that peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] and combined["failed"] == 0 else 1


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "triad" / "__init__.py").is_file():
        print(f"error: no triad sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(src))
    import bench_workloads  # noqa: E402  (needs the path above)

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    # The work directory is kept and rewritten by the next run of the workload
    # (see run_workload); the lock keeps two runs of one workload apart.
    with open(out / f"work-{args.workload}.lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"error: another run of {args.workload} holds {lock.name}",
                  file=sys.stderr)
            return 2
        result = bench_workloads.run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace), out / f"work-{args.workload}")
    tracer = result.pop("tracer")
    samples = result.pop("samples")
    if args.trace:
        tracer.save(out / f"trace-{args.workload}.npz")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in samples.items())
          + f"; attempted={result['attempted']} failed={result['failed']}"
          + f" correct={result['correct']}")
    line = json.dumps(result)
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
