#!/usr/bin/env python3
"""Parity fingerprint of ``identify`` on the benchmark's planted and generic
inputs, and of the exact calculus on its calculus inputs.

The operations of ``build_planted`` and ``build_generic`` in
``perfbench/workloads.py`` are built for each seed and run in order.  Each
prints one line: the workload and group (class, n), then either the symbol,
the boundary flag and a sha256 of the bytes of the residual, the
factorization's residual (``factorization_residual`` in the JSON report),
the compact part, the witness and every factor (angle and axis), or the
type of the exception raised.  Each operation of ``build_calculus`` then
prints its group and a sha256 of the ``repr`` of its output, which lists
dict items in their order, so the order of coproduct keys counts too.  Two
checkouts are in parity when their outputs are byte-identical (``cmp``).  The inputs come from each
checkout's own samplers, so a change to a sampler shows up as a difference
too.  The benchmark is only read.  Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/parity.py --seeds 1 2 3 > parity.txt
"""
import argparse
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from workloads import build_calculus, build_generic, build_planted  # noqa: E402


def fingerprint(cid) -> str:
    """The symbol, the flag and a sha256 of every array the result holds."""
    h = hashlib.sha256()
    h.update(np.float64(cid.residual).tobytes())
    h.update(np.float64(cid.factorization.residual).tobytes())
    for a in (cid.compact_part, cid.witness):
        h.update(np.ascontiguousarray(a, dtype=np.complex128).tobytes())
    for f in cid.factorization.all_factors():
        h.update(np.float64(f.theta).tobytes())
        h.update(np.ascontiguousarray(f.axis, dtype=np.complex128).tobytes())
    return f"{cid.symbol.entries} {cid.boundary_ambiguous} {h.hexdigest()}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    for seed in args.seeds:
        for name, build in (("planted", build_planted), ("generic", build_generic)):
            for op in build(seed)[0]:
                try:
                    got = fingerprint(op.run())
                except Exception as exc:  # the type is the fingerprint
                    got = type(exc).__name__
                klass, n = op.group
                print(f"seed {seed} {name} {klass} {n}: {got}")
        for op in build_calculus(seed)[0]:
            try:
                got = hashlib.sha256(repr(op.run()).encode()).hexdigest()
            except Exception as exc:
                got = type(exc).__name__
            group, n = op.group
            print(f"seed {seed} calculus {group} {n}: {got}")


if __name__ == "__main__":
    main()
