#!/usr/bin/env python3
"""Stage split of ``identify`` on the benchmark's generic inputs.

The inputs of ``build_generic`` in ``perfbench/workloads.py`` (Haar fiber
points) are built for one seed and each is identified ``--rounds`` times,
after one warm-up call, with one BLAS thread.  Each call is split into the
stages of the pipeline by timing the functions it looks up in
``schubert.milnor`` at call time:

    validate   FiberElement.__post_init__ (membership of the input)
    undress    undress_symmetric, undress_skew
    normalize  diagonalize_quadratic_form, normalize_skew_form
    iwasawa    iwasawa_split
    engine     factorize_su, factorize_symmetric, factorize_skew
    result     CellIdentification.of (the residual)
    rest       the call's time outside those stages

A stage called inside another stage counts as part of the outer one (the
validation of C^-1 is Iwasawa time).  The table gives, per class and n, the
median over inputs and rounds of each stage and of the whole call, in ms.
The benchmark is only read.  Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/stage_split.py --seed 1 --rounds 30
"""
import argparse
import os
import sys
import time
from collections import defaultdict

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from schubert import milnor  # noqa: E402
from workloads import build_generic  # noqa: E402

STAGES = {
    "validate": [(milnor.FiberElement, "__post_init__")],
    "undress": [(milnor, "undress_symmetric"), (milnor, "undress_skew")],
    "normalize": [(milnor, "diagonalize_quadratic_form"), (milnor, "normalize_skew_form")],
    "iwasawa": [(milnor, "iwasawa_split")],
    "engine": [(milnor, "factorize_su"), (milnor, "factorize_symmetric"),
               (milnor, "factorize_skew")],
    "result": [(milnor.CellIdentification, "of")],
}
COLUMNS = list(STAGES) + ["rest", "total"]


class StageClock:
    """Times the outermost staged call; nested staged calls count in it."""

    def __init__(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.depth = 0

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.times[stage] += time.perf_counter() - start
                self.depth -= 1

        return timed

    def install(self) -> list:
        """Wrap every stage's lookup point; returns what to restore."""
        saved = []
        for stage, points in STAGES.items():
            for owner, attr in points:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                # a classmethod is wrapped bound, and put back as a staticmethod
                fn = getattr(owner, attr) if isinstance(original, classmethod) else original
                wrapped = self.wrap(stage, fn)
                setattr(owner, attr, staticmethod(wrapped) if fn is not original else wrapped)
        return saved


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args()
    groups = defaultdict(list)
    for op in build_generic(args.seed)[0]:
        groups[op.group].append(op)
    clock = StageClock()
    saved = clock.install()
    try:
        print(f"{'':14s}" + "".join(f"{c:>10s}" for c in COLUMNS) + "   (ms, median)")
        for (klass, n), ops in groups.items():
            samples = defaultdict(list)
            for op in ops:
                op.run()  # warm-up
                for _ in range(args.rounds):
                    clock.times.clear()
                    start = time.perf_counter()
                    op.run()
                    total = time.perf_counter() - start
                    for stage in STAGES:
                        samples[stage].append(clock.times[stage])
                    samples["rest"].append(total - sum(clock.times.values()))
                    samples["total"].append(total)
            cells = "".join(f"{1e3 * float(np.median(samples[c])):10.3f}" for c in COLUMNS)
            print(f"{klass:9s} n={n:<3d}{cells}", flush=True)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


if __name__ == "__main__":
    main()
