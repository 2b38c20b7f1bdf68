"""The benchmark's four workloads: inputs, operations and correctness checks.

Each workload turns the run's seed into a list of operations with the
package's own samplers.  An operation is one call a user makes: one
``identify`` of a fiber point, one exact-calculus query, or one ``schubert
symbol`` process.  Every check below is computed here, apart from the
package: it compares against what the input was built to be, or recomputes
the claimed identity with numpy, and never against a stored earlier output.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from schubert import cohom, milnor, numlin
from schubert.factor import SchubertSymbol

CLASSES = ("general", "symmetric", "skew")

# Sizes stop where no input fails today.  Compact-model points are
# identified correctly up to n = 12 in all three classes.  Dressed
# symmetric and skew points start to fail or to get a wrong symbol at
# n = 8 (about 1 in 1000), so they stop at n = 6; dressed general points
# stay correct up to n = 12.
PLANTED_SIZES = (4, 6, 8, 10, 12)
PLANTED_DRESSED_MAX = {"general": 12, "symmetric": 6, "skew": 6}

# inputs per class and size: cheap sizes get more, to average over inputs
GENERIC_INPUTS = {4: 12, 8: 12, 16: 6, 32: 6}
GENERIC_SIZES = tuple(GENERIC_INPUTS)
HAAR_CLASS = {"general": "sl", "symmetric": "sym_fiber", "skew": "skew_fiber"}

CALCULUS_SIZES = (8, 11, 14, 16)
# symbols per size for the algebra queries; their lengths run 1, 2, ... up
# to this, because a coproduct has 2^length terms
CALCULUS_SYMBOLS = 8

CLI_SIZES = (4, 12)  # matrix dimension of the small and the large documents

# relative tolerance of the recomputed identities, per unit of n
RECON_TOL = 1e-8


@dataclass
class Op:
    """One operation of a workload.

    ``run`` performs it and returns its output; ``key`` reduces the output
    to what must repeat exactly on every later run of the same operation;
    ``check`` returns a description of what is wrong with the output, or
    None.  ``group`` names the (class, size) the set-up warms up once.
    """

    group: tuple
    size: int
    run: Callable[[], Any]
    key: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    boundary: Callable[[Any], bool] = lambda out: False
    run_traced: Optional[Callable[[], tuple]] = None


@dataclass
class Workload:
    name: str
    build: Callable  # (seed, traced) -> (ops, trace summaries of the set-up)
    sizes: tuple
    in_process: bool = True
    measures_alloc: bool = False
    # set-up is repeated and its median reported; cheap set-ups repeat more
    setup_reps: int = 5


# ---------------------------------------------------------------- checks


def _top(klass: str, n: int) -> tuple[int, ...]:
    return tuple(range(2, (n if klass != "skew" else n // 2) + 1))


def _numeric_problems(b: np.ndarray, klass: str, cid) -> Optional[str]:
    """Recompute from the returned compact part and witness: the
    reconstruction error, the unitarity of the compact part, and that the
    witness is upper triangular with a positive diagonal and det 1."""
    n = b.shape[0]
    c = np.asarray(cid.compact_part)
    e = np.asarray(cid.witness)
    scale = max(1.0, float(np.linalg.norm(b)))
    recon = c @ e if klass == "general" else e.T @ c @ e
    err = float(np.linalg.norm(recon - b)) / scale
    if not err <= RECON_TOL * n:
        return f"reconstruction error {err:.3g}"
    unit = float(np.linalg.norm(c @ c.conj().T - np.eye(n)))
    if not unit <= RECON_TOL * n:
        return f"compact part off unitary by {unit:.3g}"
    escale = max(1.0, float(np.linalg.norm(e)))
    if float(np.linalg.norm(np.tril(e, -1))) > RECON_TOL * escale:
        return "witness is not upper triangular"
    d = np.diag(e)
    if np.any(d.real <= 0) or float(np.max(np.abs(d.imag))) > RECON_TOL * float(np.max(d.real)):
        return "witness diagonal is not real positive"
    det = complex(np.linalg.det(e))
    if not abs(det - 1.0) <= RECON_TOL * n:
        return f"witness det {det:.6g}"
    return None


def _identify_check(b, klass, expected):
    def check(cid) -> Optional[str]:
        if cid.symbol.entries != expected and not cid.boundary_ambiguous:
            return f"{klass} n={b.shape[0]}: symbol {cid.symbol.entries}, expected {expected}"
        return _numeric_problems(b, klass, cid)

    return check


def _identify_op(group, b, klass, expected) -> Op:
    return Op(
        group=group,
        size=b.shape[0],
        run=lambda: milnor.identify(b, klass),
        key=lambda cid: (cid.symbol.entries, cid.boundary_ambiguous),
        check=_identify_check(b, klass, expected),
        boundary=lambda cid: bool(cid.boundary_ambiguous),
    )


# -------------------------------------------------------------- workloads


def build_planted(seed: int, traced: bool = False):
    """Random symbols of every length in each class and size, sampled as
    compact-model points and as solvable-dressed points.  One symbol per
    length fixes the mix of short and long factorizations in every run."""
    rng = np.random.default_rng(seed)
    ops = []
    for klass in CLASSES:
        for n in PLANTED_SIZES:
            top = _top(klass, n)
            for dress in (False, True):
                if dress and n > PLANTED_DRESSED_MAX[klass]:
                    continue
                for length in range(len(top) + 1):
                    entries = tuple(sorted(int(m) for m in rng.choice(top, length, replace=False)))
                    b = milnor.fiber_sample(SchubertSymbol(entries, n, klass),
                                            int(rng.integers(2**31)), dress=dress)
                    ops.append(_identify_op((klass, n), b, klass, entries))
    return ops, []


def build_generic(seed: int, traced: bool = False):
    """Haar-distributed fiber points, which lie in the open dense top cell
    with probability 1."""
    rng = np.random.default_rng(seed)
    ops = []
    for klass in CLASSES:
        for n in GENERIC_SIZES:
            for _ in range(GENERIC_INPUTS[n]):
                b = numlin.haar_sample(n, HAAR_CLASS[klass], int(rng.integers(2**31)))
                ops.append(_identify_op((klass, n), b, klass, _top(klass, n)))
    return ops, []


def _expand(degrees) -> dict[int, int]:
    """Coefficients of prod (1 + t^d), by the benchmark's own convolution."""
    coef = [1]
    for d in degrees:
        nxt = coef + [0] * d
        for i, c in enumerate(coef):
            nxt[i + d] += c
        coef = nxt
    return {deg: c for deg, c in enumerate(coef) if c}


_DEGREE = {"general": lambda m: 2 * m - 1, "symmetric": lambda m: m, "skew": lambda m: 4 * m - 3}


def _betti_op(klass, n) -> Op:
    ring = "Z2" if klass == "symmetric" else "Z"
    want = _expand(_DEGREE[klass](m) for m in range(2, n + 1))

    def check(table):
        return None if table == want else f"betti {klass} n={n} differs from the expansion"

    return Op(group=(klass, n), size=n, key=lambda t: tuple(t.items()), check=check,
              run=lambda: cohom.betti_table(n, klass, ring))


def _cells_op(klass, n) -> Op:
    """The ``schubert cells`` listing: every symbol with its cell dimension."""
    deg = _DEGREE[klass]

    def run():
        return [(sym, cohom.cell_dim(sym, klass)) for sym in cohom.enumerate_symbols(n, klass)]

    def check(cells):
        if len(cells) != 2 ** (n - 1) or len({s for s, _ in cells}) != len(cells):
            return f"cells {klass} n={n}: {len(cells)} symbols, expected {2 ** (n - 1)} distinct"
        for sym, dim in cells:
            if any(b <= a for a, b in zip(sym, sym[1:])) or (sym and (sym[0] < 2 or sym[-1] > n)):
                return f"cells {klass} n={n}: invalid symbol {sym}"
            if dim != sum(deg(m) for m in sym):
                return f"cells {klass} n={n}: dim {dim} of {sym}"
        return None

    return Op(group=(klass, n), size=n, run=run, key=lambda cells: hash(tuple(cells)), check=check)


def _algebra_op(rng, n) -> Op:
    """Poincare duals, the pairing by both routes against the complement,
    and coproducts of sampled symbols (general class)."""
    full = tuple(range(2, n + 1))
    syms = []
    for k in range(CALCULUS_SYMBOLS):
        length = 1 + k % min(n - 1, CALCULUS_SYMBOLS)
        syms.append(tuple(sorted(int(m) for m in rng.choice(full, length, replace=False))))

    def run():
        out = []
        for m in syms:
            comp = tuple(x for x in full if x not in m)
            out.append((
                m,
                cohom.poincare_dual(m, n).terms,
                cohom.intersection_pairing(m, comp, n),
                cohom.intersection_pairing_via_cup(m, comp, n),
                cohom.coproduct(m).terms,
            ))
        return out

    def check(results):
        for m, pdual, direct, via_cup, coprod in results:
            comp = tuple(x for x in full if x not in m)
            if set(pdual) != {comp} or abs(pdual[comp]) != 1:
                return f"pdual of {m} at n={n} is not +-e_{comp}"
            if abs(direct) != 1 or via_cup != direct:
                return f"pairing of {m} with its complement: {direct} and {via_cup}"
            if len(coprod) != 2 ** len(m) or any(abs(c) != 1 for c in coprod.values()):
                return f"coproduct of {m} has wrong terms"
            for left, right in coprod:
                if tuple(sorted(left + right)) != m or list(left) != sorted(left):
                    return f"coproduct of {m} has a term {left} x {right}"
        return None

    return Op(group=("algebra", n), size=n, run=run, check=check,
              key=lambda results: repr([(r[0], sorted(r[1].items()), r[2], r[3],
                                         sorted(r[4].items())) for r in results]))


def build_calculus(seed: int, traced: bool = False):
    """Betti tables and cell listings of the three classes, and the algebra
    of sampled symbols, at each size."""
    rng = np.random.default_rng(seed)
    ops = []
    for n in CALCULUS_SIZES:
        for klass in CLASSES:
            ops.append(_betti_op(klass, n))
            ops.append(_cells_op(klass, n))
        ops.append(_algebra_op(rng, n))
    return ops, []


# -------------------------------------------------------------------- cli


class CliRunner:
    """Runs ``python -m schubert.cli`` children one at a time.

    Traced children run ``perfbench/child.py`` instead, which installs the
    same tracer in the child and writes its summary next to the documents.
    """

    def __init__(self, root: str, workdir: str, env: dict) -> None:
        self.root = root
        self.workdir = workdir
        self.env = env
        self.traces = 0

    def run(self, args: list[str], traced: bool = False):
        if traced:
            self.traces += 1
            out = os.path.join(self.workdir, f"trace{self.traces}.json")
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "child.py"), out] + args
        else:
            cmd = [sys.executable, "-m", "schubert.cli"] + args
        # a child that hangs is killed and its operation counted as failed
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=60)
        summary = None
        if traced:
            with open(out, encoding="utf-8") as fh:
                summary = json.load(fh)
            os.remove(out)
        return proc, summary


def _cli_symbol_check(expected: str):
    def check(out) -> Optional[str]:
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        try:
            symbol = json.loads(stdout)["symbol"]
        except (ValueError, KeyError):
            return "stdout is not a JSON report"
        return None if symbol == expected else f"symbol {symbol!r}, expected {expected!r}"

    return check


def make_build_cli(runner: CliRunner):
    def build_cli(seed: int, traced: bool = False):
        """One small and one large document per class, written by
        ``schubert sample`` children, then identified by ``schubert
        symbol`` children.  Small documents are dressed; large ones are
        compact-model points, the largest size at which every class is
        identified correctly."""
        rng = np.random.default_rng(seed)
        ops, summaries = [], []
        for klass in CLASSES:
            for n, dress in zip(CLI_SIZES, (True, False)):
                top = _top(klass, n)
                entries = tuple(m for m in top if rng.random() < 0.5)
                bound = n if klass != "skew" else n // 2
                args = ["sample", "--class", klass, "--symbol", ",".join(map(str, entries)),
                        "--n", str(bound), "--seed", str(int(rng.integers(2**31)))]
                if dress:
                    args.append("--dress-solvable")
                proc, summary = runner.run(args, traced)
                if proc.returncode != 0:
                    raise RuntimeError(f"schubert sample failed: {proc.stderr.decode()}")
                if summary is not None:
                    summaries.append(summary)
                path = os.path.join(runner.workdir, f"{klass}-{n}.json")
                with open(path, "wb") as fh:
                    fh.write(proc.stdout)
                ops.append(_cli_op(runner, (klass, n), n, path, ",".join(map(str, entries))))
        return ops, summaries

    return build_cli


def _cli_op(runner: CliRunner, group, n, path, expected) -> Op:
    args = ["symbol", "--in", path, "--out", "json"]

    def run():
        proc, _ = runner.run(args)
        return proc.returncode, proc.stdout

    def run_traced():
        proc, summary = runner.run(args, traced=True)
        return (proc.returncode, proc.stdout), summary

    return Op(group=group, size=n, run=run, run_traced=run_traced,
              key=lambda out: out, check=_cli_symbol_check(expected))


def workloads(runner: CliRunner) -> dict[str, Workload]:
    return {
        "planted": Workload("planted", build_planted, PLANTED_SIZES, setup_reps=9),
        "generic": Workload("generic", build_generic, GENERIC_SIZES),
        "calculus": Workload("calculus", build_calculus, CALCULUS_SIZES, measures_alloc=True),
        "cli": Workload("cli", make_build_cli(runner), CLI_SIZES, in_process=False,
                        setup_reps=3),
    }
