#!/usr/bin/env python3
"""Interleaved A/B timing of ``identify`` between two checkouts, in one process.

Each checkout's ``src/schubert`` is copied under its own package name
(``schubert_old`` and ``schubert_new``) into a temporary directory, so the
two versions load side by side.  The ``planted`` and ``generic`` inputs of
``perfbench/workloads.py`` are built once, by NEW_ROOT's workloads and
package, and the benchmark is only read.  After one warm-up call per side,
each input is identified by both versions in every round, in an order that
alternates per input and per round, with one BLAS thread.

The table gives, per workload and n, each side's median over the inputs of
each input's median time (as the benchmark's ``small_ms_p50`` and
``large_ms_p50`` are taken) and the change, then each side's ops/s over all
timed calls.  On a shared host, separate-process runs of the same two trees
can differ by more than a gain of 15 %; here both versions see the same
host state.  Run from anywhere:

    python3 scripts/interleave.py OLD_ROOT NEW_ROOT --seed 1 --rounds 15
"""
import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

SIDES = ("old", "new")


class _Arguments:
    """Stands in for the workloads' ``milnor``: an op's run returns its arguments."""

    @staticmethod
    def identify(b, klass):
        return b, klass


def build_inputs(root: str, seed: int) -> dict:
    """The (matrix, class) of every planted and generic op, by workload."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    workloads = importlib.import_module("workloads")
    built = {name: getattr(workloads, f"build_{name}")(seed)[0] for name in ("planted", "generic")}
    workloads.milnor = _Arguments()
    return {name: [op.run() for op in ops] for name, ops in built.items()}


def load_sides(roots: dict, tmp: str) -> dict:
    """``identify`` of each checkout, imported from its renamed copy."""
    sys.path.insert(0, tmp)
    out = {}
    for side, root in roots.items():
        shutil.copytree(os.path.join(root, "src", "schubert"),
                        os.path.join(tmp, f"schubert_{side}"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out[side] = importlib.import_module(f"schubert_{side}.milnor").identify
    return out


def interleave(identify: dict, inputs: list, rounds: int) -> dict:
    """Per side, the list of call times of each input."""
    times = {side: [[] for _ in inputs] for side in SIDES}
    for side in SIDES:
        for b, klass in inputs:
            identify[side](b, klass)
    for r in range(rounds):
        for i, (b, klass) in enumerate(inputs):
            for side in SIDES if (r + i) % 2 == 0 else SIDES[::-1]:
                start = time.perf_counter()
                identify[side](b, klass)
                times[side][i].append(time.perf_counter() - start)
    return times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_root")
    ap.add_argument("new_root")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=15)
    args = ap.parse_args()
    roots = {"old": os.path.abspath(args.old_root), "new": os.path.abspath(args.new_root)}
    inputs = build_inputs(roots["new"], args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        identify = load_sides(roots, tmp)
        print(f"{'workload':9s} {'n':>3s} {'inputs':>6s} {'old_ms':>9s} {'new_ms':>9s} {'change':>8s}")
        for name, ops in inputs.items():
            times = interleave(identify, ops, args.rounds)
            for n in sorted({b.shape[0] for b, _ in ops}):
                idx = [i for i, (b, _) in enumerate(ops) if b.shape[0] == n]
                p50 = {side: 1e3 * statistics.median(statistics.median(times[side][i])
                                                     for i in idx) for side in SIDES}
                print(f"{name:9s} {n:3d} {len(idx):6d} {p50['old']:9.3f} {p50['new']:9.3f} "
                      f"{100 * (p50['new'] / p50['old'] - 1):+7.1f}%", flush=True)
            rate = {side: sum(map(len, times[side])) / sum(map(sum, times[side])) for side in SIDES}
            print(f"{name:9s} ops/s  old {rate['old']:.1f}  new {rate['new']:.1f}  "
                  f"{100 * (rate['new'] / rate['old'] - 1):+.1f}%", flush=True)


if __name__ == "__main__":
    main()
