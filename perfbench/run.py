#!/usr/bin/env python3
"""Benchmark of the schubert package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload planted --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src``.  Every load comes from one process and one caller: the
next operation starts when the previous one ends, and CLI children run one
at a time.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  End-to-end times are scaled to a host
of reference speed (reference.py).  The last line of stdout is the result
as one JSON object; the line before it records the environment and the raw
times.  See perfbench/README.md.
"""
from __future__ import annotations

import os
import sys

# Pinned before numpy loads, and inherited by CLI children: the matrices
# are at most 32 x 32 and the machine has few cores, so more threads would
# measure the scheduler rather than the program.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "commit": git_commit(),
            "python": sys.version.split()[0]}


def warm_up(ops) -> None:
    """One operation per (class, size), so lazy set-up in numpy and the
    package is done before timing."""
    seen = set()
    for op in ops:
        if op.group not in seen:
            seen.add(op.group)
            try:
                op.run()
            except Exception:  # the timed rounds count the failure
                pass


class Rounds:
    """Runs whole rounds of a workload's operations, checks every output
    on its first run and its repeat on every later one."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.keys: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.boundary = 0

    def run(self, i: int, call):
        """Run operation ``i`` through ``call``; returns its duration in
        seconds, or None when it raised."""
        op = self.ops[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.failures.append(f"op {i} {op.group}: {type(exc).__name__}: {exc}")
            return None
        took = time.perf_counter() - t0
        key = op.key(out)
        if i not in self.keys:
            self.keys[i] = key
            self.boundary += op.boundary(out)
            bad = op.check(out)
            if bad:
                self.problems.append(f"op {i}: {bad}")
        elif key != self.keys[i]:
            self.problems.append(f"op {i} {op.group}: output differs from its first run")
        return took


def measure(wl, seed: int, seconds: float):
    """End-to-end metrics.  Times are scaled to a host of reference speed
    (see reference.py): this host's speed moves by up to 1.7x over minutes,
    so raw times from runs made at different moments are not comparable.
    The raw values are returned in ``info``."""
    from reference import SpeedProbe

    probe = SpeedProbe()
    setup = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        ops, _ = wl.build(seed)
        warm_up(ops)
        setup.append(time.perf_counter() - t0)
        probe.tick()

    rounds = Rounds(ops)
    latencies = [[] for _ in ops]
    start = time.perf_counter()
    n_rounds = 0
    while n_rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            took = rounds.run(i, op.run)
            if took is not None:
                latencies[i].append(took)
            probe.tick()
        n_rounds += 1

    def p50_ms(size):
        # median over the inputs of this size of each input's median: the
        # inputs of a size differ in cost, and a pooled median would jump
        # between their clusters from run to run
        return 1e3 * statistics.median(statistics.median(lat) for op, lat in zip(ops, latencies)
                                       if op.size == size and lat)

    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": sum(map(len, latencies)) / sum(map(sum, latencies)),
        "small_ms_p50": p50_ms(min(wl.sizes)),
        "large_ms_p50": p50_ms(max(wl.sizes)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    factor = probe.to_reference()
    metrics = dict(raw, setup_s=raw["setup_s"] * factor, ops_per_s=raw["ops_per_s"] / factor,
                   small_ms_p50=raw["small_ms_p50"] * factor,
                   large_ms_p50=raw["large_ms_p50"] * factor)
    info = {"rounds": n_rounds, "setup_runs_s": setup, "raw": raw,
            "reference_kernel_ms": probe.kernel_ms(), "reference_samples": len(probe.samples)}
    return rounds, metrics, info


def merge(summaries) -> dict:
    total = {"self_s": defaultdict(float), "calls": defaultdict(int),
             "counts": defaultdict(int), "import_s": 0.0}
    for s in summaries:
        for part in ("self_s", "calls", "counts"):
            for k, v in s[part].items():
                total[part][k] += v
        total["import_s"] += s.get("import_s", 0.0)
    return total


def trace(wl, seed: int, seconds: float):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = wl.in_process
    ops, summaries = wl.build(seed, traced=True)
    tracer.enabled = False
    if wl.in_process:
        summaries = [tracer.summary()]
        tracer.reset()
    setup = merge(summaries)
    warm_up(ops)

    def traced_call(op):
        if op.run_traced is not None:
            out, summary = op.run_traced()
            op_summaries.append(summary)
            return out
        tracer.enabled = True
        try:
            return tracer.call("op", op.run)
        finally:
            tracer.enabled = False

    # Untraced and traced rounds alternate; their times give the tracing
    # overhead, and their outputs must be identical.
    rounds = Rounds(ops)
    op_summaries = []
    plain_s = traced_s = 0.0
    traced_ops = 0
    start = time.perf_counter()
    n_rounds = 0
    while n_rounds == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            took = rounds.run(i, op.run)
            if took is not None:
                plain_s += took
        for i, op in enumerate(ops):
            took = rounds.run(i, lambda: traced_call(op))
            if took is not None:
                traced_s += took
                traced_ops += 1
        n_rounds += 1
    if wl.in_process:
        op_summaries.append(tracer.summary())
    tracer.uninstall()

    peak_alloc = 0
    if wl.measures_alloc:
        # a separate pass, because allocation tracing slows every allocation
        for op in ops:
            if op.size == max(wl.sizes):
                tracemalloc.start()
                op.run()
                peak_alloc = max(peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

    s = merge(op_summaries)
    per_op = 1.0 / max(1, traced_ops)

    def ms(name):
        return 1e3 * s["self_s"].get(name, 0.0) * per_op

    def count(name):
        return s["counts"].get(name, 0) * per_op

    def sampler_ms(name):
        calls = setup["calls"].get(name, 0)
        return 1e3 * setup["self_s"].get(name, 0.0) / calls if calls else 0.0

    undress_calls = s["counts"].get("milnor.undress_calls", 0)
    metrics = {
        "milnor.validate_ms": ms("milnor.validate"),
        "numlin.det_calls": count("numlin.det_calls"),
        "numlin.unitarity_checks": count("numlin.unitarity_checks"),
        "milnor.undress_ms": ms("milnor.undress"),
        "milnor.undress_calls": count("milnor.undress_calls"),
        "milnor.undress_hit_ratio": (s["counts"].get("milnor.undress_hits", 0) / undress_calls
                                     if undress_calls else 0.0),
        "numlin.congruence_ms": ms("numlin.congruence"),
        "numlin.iwasawa_ms": ms("numlin.iwasawa"),
        "factor.factorize_ms": ms("factor.factorize_su"),
        "numlin.eig_ms": ms("numlin.eig_unitary"),
        "numlin.eig_redraws": (s["counts"].get("numlin.eig_solves", 0)
                               - s["calls"].get("numlin.eig_unitary", 0)) * per_op,
        "rotor.interchanges": count("rotor.interchanges"),
        "factor.peel_ms": ms("factor.peel"),
        "rotor.apply_calls": count("rotor.apply_calls"),
        "serialize.parse_ms": ms("serialize.parse"),
        "serialize.report_ms": ms("serialize.report"),
        # traced outputs equal the untraced ones, whose keys hold stdout
        "serialize.report_bytes": (0.0 if wl.in_process else
                                   statistics.mean(len(k[1]) for k in rounds.keys.values())),
        "cli.import_ms": 1e3 * s["import_s"] * per_op,
        "cohom.enumerate_ms": ms("cohom.enumerate"),
        "cohom.betti_ms": ms("cohom.betti"),
        "cohom.symbols_enumerated": count("cohom.symbols_enumerated"),
        "cohom.peak_alloc_mb": peak_alloc / 2**20,
        "milnor.fiber_sample_ms": sampler_ms("milnor.fiber_sample"),
        "numlin.haar_sample_ms": sampler_ms("numlin.haar_sample"),
        "trace.overhead_ratio": traced_s / plain_s if plain_s else 0.0,
    }
    info = {"rounds": n_rounds, "traced_ops": traced_ops}
    return rounds, metrics, info


def result(rounds, metrics: dict, traced: bool) -> dict:
    """The result line, with the units BENCHMARK.json declares.  It is
    correct when every operation that did not fail passed its checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    return {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schubert", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=SRC)
    workdir = os.path.join(ROOT, "perfbench", "out", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        import workloads as wls

        table = wls.workloads(wls.CliRunner(ROOT, workdir, env))
        if args.workload not in table:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        wl = table[args.workload]
        run = trace if args.trace else measure
        rounds, metrics, info = run(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
        except OSError:
            pass
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      **environment(), **info, "boundary_ambiguous": rounds.boundary,
                      "attempted": rounds.attempted, "failed": rounds.failed,
                      "problems": rounds.problems[:20],
                      "failures": sorted(set(rounds.failures))[:20]}))
    print(json.dumps(result(rounds, metrics, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
