#!/usr/bin/env python3
"""Benchmark of qweather's training runs: end-to-end metrics or a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recurrent --seed 1 --seconds 40 --trace 0

One process runs one workload (see ``workloads.py``): it repeats the
workload's model runs through ``qweather.bench.run`` until ``--seconds`` are
used, and times ``setup_s`` in fresh child processes between them.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates traced
and untraced iterations and reports per-layer metrics from the traced ones.
``--seed`` is the model seed; ``--data-seed`` picks the synthetic series
(default 7, the paper's).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the seeds, machine facts and per-iteration times.
Run artifacts go to ``perfbench-out/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from workloads import (
    DEFAULT_DATA_SEED,
    DEFAULT_MODEL_SEED,
    WORKLOADS,
    check_report,
    configs,
    load_references,
    run_key,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")
SETUP_REPEATS = 7

# What a CLI call pays before its first model run: start the interpreter,
# import numpy and qweather, generate the synthetic series.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, qweather\n"
    "for spec in sys.argv[2:]:\n"
    "    seed, n_months = spec.split(':')\n"
    "    qweather.synth_generate(int(seed), int(n_months))\n"
    "print(repr(time.perf_counter()))\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="model seed (default 1)")
    parser.add_argument("--data-seed", type=int, default=None, help="synthetic series seed (default 7)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(specs):
    """Wall time of one fresh process doing the set-up.

    ``time.perf_counter`` reads CLOCK_MONOTONIC, which parent and child
    share, so the child reports when its set-up ended.
    """
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, *specs],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1] if line.split() else ""
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts():
    import numpy

    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(os.path.join(index, "size")).strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_per_core": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "git_commit": commit,
    }


class Runner:
    """Runs a workload's model runs and checks every report they write."""

    def __init__(self, name, cfgs, references, out_root=OUT):
        self.name = name
        self.out_dir = os.path.join(out_root, name)
        self.cfgs = cfgs
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.first_bytes = {}  # config index -> report.json text of the first run

    def iteration(self, phase):
        """Run every config once; returns the summed wall time of the runs."""
        import qweather.bench

        elapsed = 0.0
        for i, cfg in enumerate(self.cfgs):
            out_dir = os.path.join(self.out_dir, phase, f"{i:02d}_{cfg.model}_{cfg.task}")
            self.attempted += 1
            start = perf_counter()
            try:
                qweather.bench.run(cfg, out_dir)
            except Exception:
                elapsed += perf_counter() - start
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed += perf_counter() - start
            text = _read(os.path.join(out_dir, "report.json"))
            problems = check_report(json.loads(text), self.references.get(run_key(cfg)))
            first = self.first_bytes.setdefault(i, text)
            if text != first:
                problems.append("report.json differs from this process's first run of the config")
            if problems:
                self.failed += 1
                print(f"{run_key(cfg)} [{phase}]: " + "; ".join(problems), file=sys.stderr)
        return elapsed


def untraced_metrics(runner, seconds):
    """Iterate for ``seconds``, spreading SETUP_REPEATS set-ups over the run.

    A set-up sample runs between iterations whenever fewer than their share
    of the elapsed time have run, so ``setup_s`` sees the machine over the
    same window as ``run_s``.  Set-up time is not charged to ``seconds``.
    Iterations stop when the next one would end past ``seconds``.
    """
    series = sorted({(c.data["seed"], c.data["n_months"]) for c in runner.cfgs})
    specs = [f"{seed}:{n}" for seed, n in series]
    times, setups = [], []
    start = perf_counter()
    paused = 0.0
    while True:
        before = perf_counter()
        times.append(runner.iteration("untraced"))
        last = perf_counter() - before
        elapsed = perf_counter() - start - paused
        if len(setups) < SETUP_REPEATS * elapsed / seconds:
            t = perf_counter()
            setups.append(measure_setup(specs))
            paused += perf_counter() - t
        if elapsed + last > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(specs))
    return times, setups


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qweather", "__init__.py")):
        print(f"perfbench: no qweather sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    data_seed = DEFAULT_DATA_SEED if args.data_seed is None else args.data_seed
    model_seed = DEFAULT_MODEL_SEED if args.seed is None else args.seed
    cfgs = configs(args.workload, data_seed, model_seed)
    runner = Runner(args.workload, cfgs, load_references())
    context = {
        "workload": args.workload,
        "data_seed": data_seed,
        "model_seed": model_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
    }

    if args.trace == 0:
        times, setup_all = untraced_metrics(runner, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_all), "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MiB"},
        }
        context.update(setup_s_all=setup_all, run_s_all=times)
    else:
        metrics, extra = traced_metrics(runner, args.seconds)
        context.update(extra)

    context["fail_rate"] = runner.failed / runner.attempted
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(os.path.join(runner.out_dir, f"result_trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"context": context, "result": result}, fh, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def traced_metrics(runner, seconds):
    """Alternate traced and untraced iterations; per-layer medians.

    A first untraced iteration warms up and is checked but not timed, so
    that ``trace.overhead`` compares like with like.
    """
    from tracer import Tracer

    deadline = perf_counter() + seconds
    runner.iteration("untraced")
    tracer = Tracer()
    traced, untraced, samples = [], [], []
    while True:
        before = perf_counter()
        with tracer:
            cpu = _cpu_s()
            run_s = runner.iteration("traced")
            cpu = _cpu_s() - cpu
            patched = len(tracer.patches)
        m = tracer.layer_metrics(run_s)
        m["proc.cpu_s"] = cpu
        m["proc.cores_used"] = cpu / run_s
        samples.append(m)
        traced.append(run_s)
        spans = list(tracer.spans)
        tracer.reset()
        untraced.append(runner.iteration("untraced"))
        now = perf_counter()
        if now + (now - before) > deadline:
            break
    metrics = {
        name: {"value": statistics.median(s[name] for s in samples), "unit": _unit(name)}
        for name in samples[0]
    }
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead"] = {"value": overhead, "unit": _unit("trace.overhead")}
    with open(os.path.join(runner.out_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    extra = {
        "run_s_untraced_all": untraced,
        "run_s_traced_all": traced,
        "patched_attributes": patched,
    }
    return metrics, extra


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".gbps"):
        return "GB/s"
    if name in ("proc.cores_used", "trace.coverage", "trace.overhead") or name.endswith(
        ("_ratio", ".share")
    ):
        return "ratio"
    if name.endswith(("rows_per_call", ".n")):
        return "rows"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
