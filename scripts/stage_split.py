#!/usr/bin/env python3
"""Stage split of ``identify`` on the benchmark's generic or planted inputs.

The inputs of ``build_generic`` (Haar fiber points) or ``build_planted``
(compact and dressed points of planted cells) in ``perfbench/workloads.py``
are built for one seed, as ``--workload`` picks, and each is identified
``--rounds`` times, after one warm-up call, with one BLAS thread.  Each
call is split into the stages of the pipeline by timing the functions it
looks up in ``schubert.milnor`` and ``schubert.factor`` at call time:

    validate   FiberElement.__post_init__ (membership of the input)
    undress    undress_symmetric, undress_skew
    normalize  diagonalize_quadratic_form, normalize_skew_form
    iwasawa    iwasawa_split
    engine     factorize_su, factorize_symmetric, factorize_skew
    result     CellIdentification.of (the residual)
    profile    factor._rank_profile and factor._certifies, the rank profile
               of W - I that flags all three engines (part of the engine's
               time)
    rest       the call's time outside the stages from validate to result

A stage called inside another stage counts as part of the outer one (the
validation of C^-1 is Iwasawa time); only ``profile`` is timed wherever it
is called, and its time stays in the stage that called it.  The table
gives, per class and n, the median over inputs and rounds of each stage
and of the whole call, in ms.  A lookup point that the imported package
lacks is skipped, so the script can split an older checkout's ``src`` too.
The benchmark is only read.  Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/stage_split.py --seed 1 --rounds 30
    PYTHONPATH=src python3 scripts/stage_split.py --workload planted --seed 1
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

from schubert import factor, milnor  # noqa: E402
from workloads import build_generic, build_planted  # noqa: E402

STAGES = {
    "validate": [(milnor.FiberElement, "__post_init__")],
    "undress": [(milnor, "undress_symmetric"), (milnor, "undress_skew")],
    "normalize": [(milnor, "diagonalize_quadratic_form"), (milnor, "normalize_skew_form")],
    "iwasawa": [(milnor, "iwasawa_split")],
    "engine": [(milnor, "factorize_su"), (milnor, "factorize_symmetric"),
               (milnor, "factorize_skew")],
    "result": [(milnor.CellIdentification, "of")],
}
INNER = {"profile": [(factor, "_rank_profile"), (factor, "_certifies")]}
COLUMNS = list(STAGES) + list(INNER) + ["rest", "total"]


class StageClock:
    """Times the outermost staged call, in which nested staged calls count,
    and every call of an inner stage."""

    def __init__(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.depth = 0

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            if self.depth and stage not in INNER:
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
        for stage, points in {**STAGES, **INNER}.items():
            for owner, attr in points:
                if attr not in owner.__dict__:  # an older checkout's src lacks it
                    continue
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
    ap.add_argument("--workload", choices=("generic", "planted"), default="generic")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=30)
    args = ap.parse_args()
    groups = defaultdict(list)
    build = build_planted if args.workload == "planted" else build_generic
    for op in build(args.seed)[0]:
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
                    for stage in (*STAGES, *INNER):
                        samples[stage].append(clock.times[stage])
                    samples["rest"].append(total - sum(clock.times[s] for s in STAGES))
                    samples["total"].append(total)
            cells = "".join(f"{1e3 * float(np.median(samples[c])):10.3f}" for c in COLUMNS)
            print(f"{klass:9s} n={n:<3d}{cells}", flush=True)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


if __name__ == "__main__":
    main()
