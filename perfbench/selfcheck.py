#!/usr/bin/env python3
"""Fast self-check of the benchmark, with no timings.

    python3 perfbench/selfcheck.py

Runs one untraced and one traced round of every workload at its smallest
size and checks that no operation fails, that every output passes the
workload's checks, that the result line has the schema BENCHMARK.json
declares, and that each kind of check rejects a corrupted output.  Exits
with 0 when all of that holds.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import run  # pins the thread counts before numpy loads

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import workloads as wls  # noqa: E402


def smallest(wl):
    """The workload restricted to the operations of its smallest size."""
    size = min(wl.sizes)

    def build(seed, traced=False):
        ops, summaries = wl.build(seed, traced)
        return [op for op in ops if op.size == size], summaries

    return dataclasses.replace(wl, build=build, sizes=(size,))


def check_schema(line: dict, spec: list) -> list[str]:
    """The result line has the declared keys, metric names and types."""
    errors = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(line)}")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        errors.append("attempted is not a positive integer")
    if not isinstance(line["failed"], int):
        errors.append("failed is not an integer")
    want = sorted(m["name"] for m in spec)
    if sorted(line["metrics"]) != want:
        errors.append(f"metrics {sorted(line['metrics'])} differ from BENCHMARK.json {want}")
    for k, v in line["metrics"].items():
        if not isinstance(v["value"], float):
            errors.append(f"{k} value {v['value']!r} is not a float")
    return errors


def corrupted_outputs_rejected(table) -> list[str]:
    """Each kind of check must find a deliberately wrong output."""
    errors = []
    ops, _ = table["planted"].build(0)
    op = next(o for o in ops if o.size == 4 and o.group[0] == "general")
    cid = op.run()
    wrong = dataclasses.replace(cid, boundary_ambiguous=False, symbol=dataclasses.replace(
        cid.symbol, entries=(2, 3, 4) if cid.symbol.entries != (2, 3, 4) else (2,)))
    moved = dataclasses.replace(cid, witness=cid.witness * 1.01)
    lower = dataclasses.replace(cid, witness=cid.witness + np.tril(np.ones((4, 4)), -1))
    for name, bad in (("symbol", wrong), ("witness scale", moved), ("lower witness", lower)):
        if op.check(bad) is None:
            errors.append(f"planted check accepts a wrong {name}")
    ops, _ = table["calculus"].build(0)
    for op in (ops[0], ops[1], next(o for o in ops if o.group[0] == "algebra")):
        out = op.run()
        if isinstance(out, dict):
            bad = {**out, min(out): out[min(out)] + 1}
        elif op.group[0] == "algebra":
            m, pdual, direct, via_cup, coprod = out[0]
            bad = [(m, pdual, direct, -via_cup, coprod)] + out[1:]
        else:
            bad = out[:-1] + [(out[-1][0], out[-1][1] + 1)]
        if op.check(bad) is None:
            errors.append(f"calculus check of {op.group} accepts a corrupted output")
    cli_check = wls._cli_symbol_check("2,3")
    if cli_check((0, b'{"symbol":"2,4"}')) is None or cli_check((1, b"")) is None:
        errors.append("cli check accepts a wrong symbol or exit code")
    return errors


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(run.ROOT, "perfbench", "out", f"selfcheck{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    errors = []
    try:
        table = wls.workloads(wls.CliRunner(run.ROOT, workdir, dict(os.environ, PYTHONPATH=run.SRC)))
        if sorted(table) != sorted(w["name"] for w in spec["workloads"]):
            errors.append("workloads differ from BENCHMARK.json")
        for name, wl in table.items():
            for mode, traced in ((run.measure, False), (run.trace, True)):
                rounds, metrics, _ = mode(smallest(wl), seed=0, seconds=0)
                line = json.loads(json.dumps(run.result(rounds, metrics, traced)))
                metric_spec = spec["per_layer" if traced else "end_to_end"]
                found = [f"{name} {mode.__name__}: {e}" for e in
                         check_schema(line, metric_spec) + rounds.problems + rounds.failures]
                if rounds.failed or not line["correct"]:
                    found.append(f"{name} {mode.__name__}: {rounds.failed} failed, "
                                 f"correct={line['correct']}")
                errors += found
                print(f"{name:9s} {mode.__name__:8s} attempted {rounds.attempted:4d} "
                      f"{'ok' if not found else 'FAILED'}")
        errors += corrupted_outputs_rejected(table)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it
        except OSError:
            pass
    for e in errors:
        print("error:", e)
    print("selfcheck", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
