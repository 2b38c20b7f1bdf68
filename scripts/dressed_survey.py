#!/usr/bin/env python3
"""Dressed planted points at n = 12..32: how the transport of the symmetric
and skew classes ends.

For each class and n, random symbols are planted at a seeded fiber point,
which the class's solvable group then dresses (``fiber_sample(...,
dress=True)``).  All draws come from one generator with the fixed seed 12,
so the table is fixed.  Outcomes are counted as in boundary_survey.py, and
the inputs counted as exit-2 or wrong are listed after the table.
``--outcomes FILE`` writes every input to FILE, one line each in the same
form (outcome, then the ``fiber_sample`` call).  Run from the root of a
checkout:

    PYTHONPATH=src python3 scripts/dressed_survey.py
    PYTHONPATH=src python3 scripts/dressed_survey.py --outcomes out.txt
"""
import argparse

import numpy as np

from boundary_survey import OUTCOMES, outcome
from schubert.factor import SchubertSymbol
from schubert.milnor import fiber_sample

DRAWS = {12: 40, 16: 40, 20: 40, 24: 40, 28: 25, 32: 25}  # points per class and n


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--outcomes", metavar="FILE", help="write the outcome of every input to FILE")
    args = ap.parse_args()
    rng = np.random.default_rng(12)
    print(f"{'':16s}" + "".join(f"{name:>{len(name) + 2}s}" for name in OUTCOMES))
    every = []
    for klass in ("symmetric", "skew"):
        for n, draws in DRAWS.items():
            top = n // 2 if klass == "skew" else n
            counts = dict.fromkeys(OUTCOMES, 0)
            for _ in range(draws):
                lines = rng.choice(np.arange(2, top + 1), int(rng.integers(1, top)), replace=False)
                entries = tuple(sorted(int(m) for m in lines))
                seed = int(rng.integers(2**31))
                got = outcome(fiber_sample(SchubertSymbol(entries, n, klass), seed, dress=True),
                              klass, entries)
                counts[got] += 1
                every.append(f"{got}: fiber_sample(SchubertSymbol({entries}, {n}, {klass!r}), "
                             f"{seed}, dress=True)")
            cells = "".join(f"{counts[name]:>{len(name) + 2}d}" for name in OUTCOMES)
            print(f"{klass:9s} n={n:<4d}{cells}", flush=True)
    print("\n".join(line for line in every if line.startswith(("exit-2:", "wrong:"))))
    if args.outcomes:
        with open(args.outcomes, "w") as out:
            out.writelines(line + "\n" for line in every)


if __name__ == "__main__":
    main()
