"""Command-line surface.

Subcommands: ``symbol`` (identify the Schubert cell of a matrix file),
``sample`` (emit a deterministic cell element), ``cells`` / ``betti`` /
``dual`` / ``pdual`` / ``pair`` / ``coproduct`` (exact tables), and
``verify`` (run the seeded invariant suites).

Exit codes: 0 ok, 1 usage or I/O or schema error, 2 not in fiber,
3 boundary-ambiguous identification, 4 convergence failure,
5 verification failure.
"""
from __future__ import annotations

import argparse
import sys

from . import cohom
from .errors import (
    ConvergenceFailure,
    NotInFiber,
    NotInModel,
    SchubertError,
)
from .factor import SchubertSymbol
from .milnor import fiber_sample, identify
from .serialize import MatrixDocument, dump_canonical, report_payload, report_text
from .tolerances import DEFAULT_TOL, ToleranceConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_IN_FIBER = 2
EXIT_BOUNDARY = 3
EXIT_CONVERGENCE = 4
EXIT_VERIFY = 5

# verify.SUITES, repeated so that only `schubert verify` imports the suites
SUITES = ("rotor", "factor", "milnor", "cohom", "all")

# `cells` holds all 2^(n-1) symbol tuples in memory: at n = 18 that is about
# 60 MB and 1.4 s, and every further step doubles both.  `betti` holds 2^(n-1)
# integers, a peak of about 6 MiB at n = 20.
MAX_TABLE_N = 20
# `sample` and `verify` build dense complex matrices of this size at most;
# the identification is exercised up to n = 32, and at n = 48-64 the fiber's
# determinant gate already rejects some of its own samples.
MAX_MATRIX_N = 64


def parse_symbol(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def make_tol(value: float | None) -> ToleranceConfig:
    if value is None:
        return DEFAULT_TOL
    return ToleranceConfig(
        tol_zero=min(1e-12, value * 1e-3),
        tol_residual=value,
        tol_angle=min(10.0 * value, 0.5),
    )


def _check_cap(n: int, cap: int, what: str = "--n") -> None:
    """Refuse a size whose memory or time would grow without bound."""
    if n > cap:
        raise ValueError(f"{what} {n} is above the cap {cap}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="schubert",
        description="Schubert cell identification and Schubert-cycle calculus "
        "for global Milnor fibers of determinantal and Pfaffian hypersurfaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("symbol", help="identify the Schubert cell of a matrix document")
    sp.add_argument("--in", dest="infile", required=True, help="matrix document (JSON)")
    sp.add_argument("--class", dest="klass", choices=cohom.CLASSES,
                    help="override the document's class tag")
    sp.add_argument("--tol", type=float, help="residual tolerance (scales the others)")
    sp.add_argument("--out", choices=("json", "text"), default="text")

    sp = sub.add_parser("sample", help="emit a deterministic element of a Schubert cell")
    sp.add_argument("--class", dest="klass", required=True, choices=cohom.CLASSES)
    sp.add_argument("--symbol", default="", help="comma-joined entries, empty for the identity cell")
    sp.add_argument("--n", type=int, required=True,
                    help="ambient bound (half-dimension for the skew class)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dress-solvable", action="store_true",
                    help="dress the compact point with a solvable witness")

    sp = sub.add_parser("cells", help="list the Schubert symbols and cell dimensions")
    sp.add_argument("--class", dest="klass", required=True, choices=cohom.CLASSES)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("betti", help="per-degree cell counts with the polynomial cross-check")
    sp.add_argument("--class", dest="klass", required=True, choices=cohom.CLASSES)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ring", choices=cohom.RINGS, default=None)

    sp = sub.add_parser("dual", help="Kronecker dual of a Schubert class")
    sp.add_argument("--m", required=True)

    sp = sub.add_parser("pdual", help="Poincare dual of a Schubert class")
    sp.add_argument("--m", required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("pair", help="intersection pairing of two Schubert cycles")
    sp.add_argument("--m", required=True)
    sp.add_argument("--m2", required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("coproduct", help="Hopf coproduct of a dual class")
    sp.add_argument("--m", required=True)

    sp = sub.add_parser("verify", help="run the seeded invariant suites")
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--n", type=int, default=5)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    return p


def cmd_symbol(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            doc = MatrixDocument.from_json(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.klass:
        doc = MatrixDocument(n=doc.n, klass=args.klass, rows=doc.rows)
    tol = make_tol(args.tol)
    cid = identify(doc.rows, doc.klass, tol)
    payload = report_payload("symbol", doc, cid, tol)
    if args.out == "json":
        sys.stdout.write(dump_canonical(payload) + "\n")
    else:
        sys.stdout.write(report_text(payload))
    return EXIT_BOUNDARY if cid.boundary_ambiguous else EXIT_OK


def cmd_sample(args) -> int:
    entries = parse_symbol(args.symbol)
    _check_cap(args.n, MAX_MATRIX_N if args.klass != "skew" else MAX_MATRIX_N // 2)
    ambient = args.n if args.klass != "skew" else 2 * args.n
    sym = SchubertSymbol(entries, ambient, args.klass)
    mat = fiber_sample(sym, seed=args.seed, dress=args.dress_solvable)
    doc = MatrixDocument(n=ambient, klass=args.klass, rows=mat)
    sys.stdout.write(doc.to_json())
    return EXIT_OK


def cmd_cells(args) -> int:
    _check_cap(args.n, MAX_TABLE_N)
    bound = args.n
    ambient = args.n if args.klass != "skew" else 2 * args.n
    for entries, dim in zip(*cohom.cell_dims(bound, args.klass)):
        name = ",".join(str(m) for m in entries)
        print(f"({name})\tdim={dim}")
    print(f"total\t{2 ** (bound - 1)}\tambient={ambient}")
    return EXIT_OK


def cmd_betti(args) -> int:
    _check_cap(args.n, MAX_TABLE_N)
    ring = args.ring or ("Z2" if args.klass == "symmetric" else "Z")
    table = cohom.betti_table(args.n, args.klass, ring)
    poly = cohom.poincare_polynomial(args.n, args.klass)
    for deg in sorted(table):
        print(f"H_{deg}\trank={table[deg]}")
    print(f"poincare\t{cohom.poly_str(poly)}")
    print(f"verdict\t{'EQUAL' if table == poly else 'UNEQUAL'}")
    return EXIT_OK if table == poly else EXIT_VERIFY


def cmd_dual(args) -> int:
    print(cohom.format_element(cohom.kronecker_dual(parse_symbol(args.m))))
    return EXIT_OK


def cmd_pdual(args) -> int:
    _check_cap(args.n, MAX_MATRIX_N)  # the complement holds n - 1 entries
    print(cohom.format_element(cohom.poincare_dual(parse_symbol(args.m), args.n)))
    return EXIT_OK


def cmd_pair(args) -> int:
    print(cohom.intersection_pairing(parse_symbol(args.m), parse_symbol(args.m2), args.n))
    return EXIT_OK


def cmd_coproduct(args) -> int:
    entries = parse_symbol(args.m)
    # 2^len(m) terms: the cap matches the 2^(MAX_TABLE_N - 1) symbols of `cells`
    _check_cap(len(entries), MAX_TABLE_N - 1, "--m entry count")
    print(str(cohom.coproduct(entries)))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suites

    _check_cap(args.n, MAX_MATRIX_N)
    results = run_suites(args.suite, args.n, args.trials, args.seed)
    failures = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}\t{r.suite}.{r.name}\t{r.detail}")
        if not r.passed:
            failures.append(f"{r.suite}.{r.name}")
    print(f"summary\t{len(results) - len(failures)}/{len(results)} passed")
    if failures:
        print("failures\t" + dump_canonical(failures))
        return EXIT_VERIFY
    return EXIT_OK


_DISPATCH = {
    "symbol": cmd_symbol,
    "sample": cmd_sample,
    "cells": cmd_cells,
    "betti": cmd_betti,
    "dual": cmd_dual,
    "pdual": cmd_pdual,
    "pair": cmd_pair,
    "coproduct": cmd_coproduct,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except (NotInFiber, NotInModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IN_FIBER
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (SchubertError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
