#!/usr/bin/env python3
"""Round-trip identification experiment.

Sample every Schubert cell of each class up to a bound, dress the sample
with the class-appropriate solvable witness, identify it, and report how
many samples came back right, flagged boundary-ambiguous, failed with a
ConvergenceFailure or came back wrong, together with the worst
reconstruction residual.
"""
import argparse
import time

import numpy as np

from schubert import cohom
from schubert.errors import ConvergenceFailure
from schubert.factor import SchubertSymbol
from schubert.milnor import fiber_sample, identify


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--skew-max-n", type=int, default=3)
    ap.add_argument("--draws", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dress", action=argparse.BooleanOptionalAction, default=True)
    args = ap.parse_args()

    counter = args.seed
    for klass in ("general", "symmetric", "skew"):
        max_n = args.skew_max_n if klass == "skew" else args.max_n
        right = flagged = failed = wrong = 0
        worst = 0.0
        tic = time.perf_counter()
        for top in range(2, max_n + 1):
            ambient = top if klass != "skew" else 2 * top
            for entries in cohom.enumerate_symbols(top, klass):
                sym = SchubertSymbol(entries, ambient, klass)
                for _ in range(args.draws):
                    counter += 1
                    b = fiber_sample(sym, seed=counter, dress=args.dress)
                    try:
                        cid = identify(b, klass)
                    except ConvergenceFailure:
                        failed += 1
                        continue
                    if cid.boundary_ambiguous:
                        flagged += 1
                    elif cid.symbol.entries == entries:
                        right += 1
                    else:
                        wrong += 1
                    worst = max(worst, cid.residual / max(1.0, np.linalg.norm(b)))
        toc = time.perf_counter()
        print(f"{klass:10s}  right {right}  flagged {flagged}  ConvergenceFailure {failed}  "
              f"wrong {wrong}  worst relative residual {worst:.3g}  ({toc - tic:.2f}s)")


if __name__ == "__main__":
    main()
