"""Phantom-scored benchmark of the tomoseg pipeline, one workload per process.

    python3 perfbench/run.py --workload register --seed 0 --seconds 10 --trace 0

Run from the repository root. The process builds the workload's instances
from ``--seed``, round after round until SETUP_SECONDS of builds have run
(two rounds at least; each build of an instance is timed as set-up and
``setup_s`` is their median), then runs the workload's chain on every
instance, pass after pass, until ``--seconds`` of chains have run (at least
one pass), checking each chain's outputs against phantom ground truth.
``wall_s`` is the median over passes of the mean chain time of a pass, so
that one instance's easy or hard input moves it less. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it wraps tomoseg's
public functions and reports the per-layer metrics of layers.py instead.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record with the environment, output fingerprint and quality numbers, which
compare.py reads. Exits 2 without a result when the tomoseg sources are not
beside this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("register", "cli")
SETUP_SECONDS = 5.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPU count (or a lower setting
    already in the environment); must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    nproc = nproc or 1
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def git_revision(root: str):
    """Commit of a git checkout, read from .git without running git; None
    outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    from tomoseg import backend

    return {
        "backend": backend.selected(),
        "have_numba": backend.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "git": git_revision(ROOT),
    }


def timed(tracer, name, fn, *args):
    """(result, seconds, root span index) of ``fn(*args)`` inside a span."""
    root = tracer.mark()
    t0 = time.perf_counter()
    with tracer.span(name):
        result = fn(*args)
    return result, time.perf_counter() - t0, root


def run_instance(wl, tracer, index, inputs) -> dict:
    """Run and check one instance; an instance that raises is a failed
    operation."""
    t0 = time.perf_counter()
    try:
        outputs, wall, _ = timed(tracer, "bench.instance", wl.run, inputs, tracer)
        verdict = wl.check(inputs, outputs)
    except Exception:
        traceback.print_exc()
        return {"index": index, "wall_s": time.perf_counter() - t0, "passed": False,
                "quality": {}, "fingerprint": None, "stage_seconds": {}}
    return {"index": index, "wall_s": wall, "passed": verdict.passed, "quality": verdict.quality,
            "fingerprint": verdict.fingerprint, "stage_seconds": verdict.stage_seconds}


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str, env: dict) -> dict:
    import layers
    import tomoseg
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    streams = [seed + i for i in range(wl.instances)]
    tracer = tracing.Tracer(layers.PROBES) if trace else tracing.NullTracer()
    span_cost = 0.0
    if trace:
        span_cost = tracing.per_span_cost()
        tracer.install(tomoseg)

    setup_times, setup_roots = [], []
    while len(setup_times) < 2 * len(streams) or sum(setup_times) < SETUP_SECONDS:
        instances = []  # let the previous copies go before building new ones
        for stream in streams:
            inputs, elapsed, root = timed(tracer, "bench.setup", wl.setup, stream, workdir)
            instances.append(inputs)
            setup_times.append(elapsed)
            setup_roots.append(root)

    # one pass runs every instance once; passes repeat until the measured
    # chain time reaches --seconds
    runs, pass_walls, traced = [], [], []
    while not runs or sum(r["wall_s"] for r in runs) < seconds:
        tracer.counts = Counter()
        pass_root = tracer.mark()
        t_pass = time.perf_counter()
        stages = Counter()
        with tracer.span("bench.pass"):
            for index, inputs in enumerate(instances):
                runs.append(run_instance(wl, tracer, index, inputs))
                stages.update(runs[-1].pop("stage_seconds"))
        pass_walls.append(statistics.fmean(r["wall_s"] for r in runs[-len(instances):]))
        if trace:
            qualities = [r["quality"] for r in runs[-len(instances):]]
            quality = {k: statistics.median(q.get(k, 0.0) for q in qualities) for k in qualities[0]}
            traced.append(layers.pass_metrics(
                tracer.spans, pass_root, tracer.counts, time.perf_counter() - t_pass, stages,
                quality, span_cost,
            ))

    if trace:
        tracer.uninstall()
        with open(os.path.join(SCRATCH, f"spans-{workload}-{seed}.json"), "w") as fh:
            json.dump(tracer.spans, fh)

    failed = sum(not r["passed"] for r in runs)
    # every instance must give the same outputs on every pass
    per_instance = [{r["fingerprint"] for r in runs if r["index"] == i} for i in range(len(instances))]
    repeatable = all(len(fps) == 1 and None not in fps for fps in per_instance)
    joined = "".join(min(fps, key=str) or "" for fps in per_instance)
    fingerprint = hashlib.sha256(joined.encode()).hexdigest()
    if trace:
        metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        metrics.update(layers.setup_metrics(tracer.spans, setup_roots))
        units = {m["name"]: m["unit"] for m in layers.declared()}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality": statistics.median(r["quality"].get("score", 0.0) for r in runs),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "quality": "ratio"}
    return {
        "correct": failed == 0 and repeatable,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "record": {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "env": env,
            "fingerprint": fingerprint,
            "repeatable": repeatable,
            "setup_s": setup_times,
            "wall_s": [r["wall_s"] for r in runs],
            "gate": [r["passed"] for r in runs],
            "quality": [r["quality"] for r in runs[: len(instances)]],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["TOMOSEG_BACKEND"] = "numpy"
    nproc = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "tomoseg", "__init__.py")):
        print(f"tomoseg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment(nproc)
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = result.pop("record")
    record["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    record.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
