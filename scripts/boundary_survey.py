#!/usr/bin/env python3
"""Pushed-line survey of the boundary contract.

For each class, compact and dressed, planted cells at n = 4..8 are pushed
toward a cell boundary.  With ``--push line`` (the default) the last chart
coordinate of one or two of their lines is set log-uniformly in [--lo,
--hi], by default [1.5e-6, 1e-1]; with ``--push angle`` the angle
parameter t of one factor is, by default in [1e-9, 1e-1].  All draws
come from one generator with the fixed seed 17, so the options alone fix
the inputs and the table.  The products
are multiplied out from plain pseudo-rotations I - (1 - e^(i theta)) x x*,
because ``schubert_map`` snaps coordinates below 1e-7.  Each point is
identified and counted as

    right               the planted symbol, unflagged
    flagged             boundary-ambiguous (exit 3)
    ConvergenceFailure  exit 4
    exit-2              NotInFiber or NotInModel on an in-fiber point
    wrong               another symbol, unflagged

The boundary contract allows the first three.  The inputs counted in the
last two columns are listed after the table, as ``pushed_cell`` calls.
``--outcomes FILE`` writes every input to FILE, one line each in the same
form (outcome, then the ``pushed_cell`` call), so that two checkouts give
the same outcome on every input when their files are equal (``diff``).
Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/boundary_survey.py --probes 100
    PYTHONPATH=src python3 scripts/boundary_survey.py --probes 100 --push angle
    PYTHONPATH=src python3 scripts/boundary_survey.py --probes 100 --outcomes out.txt
"""
import argparse
import functools

import numpy as np

from schubert import milnor, numlin, rotor
from schubert.errors import ConvergenceFailure, NotInFiber, NotInModel
from schubert.factor import SchubertSymbol, sample_interior_params

OUTCOMES = ("right", "flagged", "ConvergenceFailure", "exit-2", "wrong")


def pushed_cell(entries, n, seed, tops, klass="general", dress=False, angles=None):
    """Planted cell of the class with the last chart coordinate of line i
    set to ``tops[i]`` and the angle parameter of factor i set to
    ``angles[i]``, multiplied out with plain matrices so that no
    coordinate is snapped.  A skew cell is returned as a fiber point (its
    model element times J); ``dress`` moves the point within its cell by a
    seeded element of the class's solvable group."""
    def rot(theta, v):
        return np.eye(n) - (1 - np.exp(1j * theta)) * np.outer(v, np.conj(v))

    sym = SchubertSymbol(entries, n, klass)
    params = sample_interior_params(sym, seed)
    for i, top in tops.items():
        t, v = params[i]
        v = v.copy()
        v[-1] = top
        params[i] = (t, v / np.linalg.norm(v))
    for i, t in (angles or {}).items():
        params[i] = (t, params[i][1])
    scale = np.pi if klass == "symmetric" else 2 * np.pi
    rots = [(-scale * sum(t for t, _ in params), np.eye(n, dtype=np.complex128)[0])]
    rots += [(scale * t, np.concatenate([v, np.zeros(n - len(v))])) for t, v in params]
    if klass == "skew":
        rots += [(theta, rotor.jmul(x)) for theta, x in reversed(rots)]
    b = functools.reduce(np.matmul, (rot(theta, x) for theta, x in rots))
    if klass == "symmetric":
        b = b @ b.T
    elif klass == "skew":
        b = b @ numlin.jn(n // 2)
    if not dress:
        return b
    d = milnor.dressing_sample(n, klass, seed)
    return b @ d if klass == "general" else d.T @ b @ d


def outcome(b, klass, entries) -> str:
    try:
        cid = milnor.identify(b, klass)
    except ConvergenceFailure:
        return "ConvergenceFailure"
    except (NotInFiber, NotInModel):
        return "exit-2"
    if cid.boundary_ambiguous:
        return "flagged"
    return "right" if cid.symbol.entries == entries else "wrong"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--probes", type=int, default=100, help="points per class and dressing")
    ap.add_argument("--push", choices=("line", "angle"), default="line",
                    help="push a line's last coordinate or a factor's angle")
    ap.add_argument("--lo", type=float, help="smallest pushed value (1.5e-6 for lines, 1e-9 for angles)")
    ap.add_argument("--hi", type=float, default=1e-1, help="largest pushed value")
    ap.add_argument("--outcomes", metavar="FILE", help="write the outcome of every input to FILE")
    args = ap.parse_args()

    rng = np.random.default_rng(17)
    lo = args.lo if args.lo is not None else 1.5e-6 if args.push == "line" else 1e-9
    log_lo, log_hi = np.log10(lo), np.log10(args.hi)
    print(f"{'':18s}" + "".join(f"{name:>{len(name) + 2}s}" for name in OUTCOMES))
    every = []
    for klass in ("general", "symmetric", "skew"):
        for dress in (False, True):
            counts = dict.fromkeys(OUTCOMES, 0)
            for _ in range(args.probes):
                half = int(rng.integers(2, 5)) if klass == "skew" else int(rng.integers(4, 9))
                n = 2 * half if klass == "skew" else half
                size = int(rng.integers(1, half))
                lines = rng.choice(np.arange(2, half + 1), size, replace=False)
                entries = tuple(sorted(int(m) for m in lines))
                if args.push == "line":
                    pushed = rng.choice(size, int(rng.integers(1, min(2, size) + 1)), replace=False)
                    tops, angles = {int(i): float(10 ** rng.uniform(log_lo, log_hi)) for i in pushed}, {}
                else:
                    tops, angles = {}, {int(rng.integers(size)): float(10 ** rng.uniform(log_lo, log_hi))}
                seed = int(rng.integers(2**31))
                got = outcome(pushed_cell(entries, n, seed, tops, klass, dress, angles), klass, entries)
                counts[got] += 1
                tail = f", angles={angles}" if angles else ""
                every.append(f"{got}: pushed_cell({entries}, {n}, {seed}, {tops}, {klass!r}, "
                             f"dress={dress}{tail})")
            label = f"{klass} {'dressed' if dress else 'compact'}"
            cells = "".join(f"{counts[name]:>{len(name) + 2}d}" for name in OUTCOMES)
            print(f"{label:18s}{cells}", flush=True)
    for line in every:
        if line.startswith(("exit-2:", "wrong:")):
            print(line)
    if args.outcomes:
        with open(args.outcomes, "w") as out:
            out.writelines(line + "\n" for line in every)


if __name__ == "__main__":
    main()
