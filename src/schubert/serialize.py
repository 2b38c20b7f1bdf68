"""Deterministic serialization of matrices and identification reports.

Complex entries are stored as [re, im] pairs of decimal floats printed
with 17 significant digits, which round-trips binary64 exactly; documents
are emitted with a fixed field order so identical inputs give byte
identical output.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .cohom import check_class
from .errors import DimensionMismatch, SchubertError
from .numlin import as_square_matrix


def fmt17(x: float) -> str:
    """Decimal rendering with 17 significant digits (binary64 round-trip)."""
    return format(float(x), ".17g")


def dump_canonical(obj) -> str:
    """JSON text with floats rendered by :func:`fmt17` and dict fields kept
    in insertion order."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dump_canonical(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dump_canonical(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_rows(m: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=np.complex128)]


def rows_to_matrix(rows) -> np.ndarray:
    """The matrix of [re, im] rows, each entry a list of two JSON numbers (not
    booleans or strings); its shape is checked by :class:`MatrixDocument`."""
    try:
        if not all(type(p) is list and len(p) == 2 and {*map(type, p)} <= {int, float}
                   for row in rows for p in row):
            raise TypeError("an entry is not a [re, im] pair of numbers")
        return np.array([[complex(float(p[0]), float(p[1])) for p in row] for row in rows])
    except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float overflows
        raise DimensionMismatch(f"malformed rows field: {exc}") from None


@dataclass(frozen=True)
class MatrixDocument:
    """On-disk matrix format: dimension, class tag and [re, im] rows."""

    n: int
    klass: str
    rows: np.ndarray

    def __post_init__(self) -> None:
        check_class(self.klass)
        m = as_square_matrix(self.rows)
        if m.shape != (self.n, self.n):
            raise DimensionMismatch(f"rows shape {m.shape} does not match n = {self.n}")
        object.__setattr__(self, "n", len(m))  # an equal n such as 3.0 or true is kept as an int
        object.__setattr__(self, "rows", m)

    def to_json(self) -> str:
        doc = {"n": self.n, "class": self.klass, "rows": matrix_to_rows(self.rows)}
        return dump_canonical(doc) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MatrixDocument":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchubertError(f"not valid JSON: {exc}") from None
        if not isinstance(raw, dict) or set(raw) != {"n", "class", "rows"}:
            raise SchubertError("matrix document needs exactly the fields n, class, rows")
        return cls(n=raw["n"], klass=raw["class"], rows=rows_to_matrix(raw["rows"]))

    def digest(self) -> str:
        return "sha256:" + hashlib.sha256(self.to_json().encode()).hexdigest()


def rotation_payload(rot) -> dict:
    return {
        "theta": float(rot.theta),
        "axis": [[float(z.real), float(z.imag)] for z in rot.axis],
    }


def report_payload(command: str, doc: MatrixDocument, cid, tol) -> dict:
    """Assemble the identification report with a deterministic field order."""
    fact = cid.factorization
    scale = max(1.0, float(np.linalg.norm(doc.rows)))
    mins = fact.min_indices
    invariants = {
        "reconstruction_within_tol": bool(cid.residual <= tol.structure * scale),
        "factorization_within_tol": bool(fact.residual <= tol.structure * doc.n),
        "min_indices_strictly_increasing": bool(
            all(x < y for x, y in zip(mins, mins[1:]))
        ),
        "angles_nontrivial": bool(
            all(abs(r.theta) >= tol.tol_angle for r in fact.factors)
        ),
    }
    return {
        "command": command,
        "input_digest": doc.digest(),
        "class": doc.klass,
        "symbol": ",".join(str(m) for m in cid.symbol.entries),
        "cell_dim": cid.symbol.dim(),
        "boundary_ambiguous": bool(cid.boundary_ambiguous),
        "residual": float(cid.residual),
        "factorization_residual": float(fact.residual),
        "correction": None if fact.correction is None else rotation_payload(fact.correction),
        "factors": [rotation_payload(r) for r in fact.factors],
        "compact_part": matrix_to_rows(cid.compact_part),
        "witness": matrix_to_rows(cid.witness),
        "invariants": invariants,
    }


def report_text(payload: dict) -> str:
    lines = [
        f"symbol: ({payload['symbol']})",
        f"cell_dim: {payload['cell_dim']}",
        f"residual: {fmt17(payload['residual'])}",
        f"boundary_ambiguous: {str(payload['boundary_ambiguous']).lower()}",
        f"factors: {len(payload['factors'])}"
        + ("" if payload["correction"] is None else " (+ correction)"),
        f"input_digest: {payload['input_digest']}",
    ]
    for name, ok in payload["invariants"].items():
        lines.append(f"invariant {name}: {'pass' if ok else 'fail'}")
    return "\n".join(lines) + "\n"
