"""Ensemble file format: JSON with one d x r entry grid per subspace.

Real entries are plain numbers; complex entries are [re, im] pairs, and a
plain number in a complex matrix is read as real.  The format round-trips
float64 exactly (JSON floats are written with repr precision), so
certification of a saved ensemble is bit-identical to the in-memory path.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import EnsembleFormatError
from .fusion import DEFAULT_TOL, FusionEnsemble


def _encode_matrix(M: np.ndarray, field: str) -> list:
    if field == "C":
        return [[[float(v.real), float(v.imag)] for v in row] for row in M]
    return [[float(v) for v in row] for row in M]


def _decode_matrix(rows: list, field: str, where: str) -> np.ndarray:
    try:
        if field == "C":
            return np.array(
                [[complex(v[0], v[1]) if isinstance(v, list) else complex(v) for v in row] for row in rows],
                dtype=complex,
            )
        return np.array(rows, dtype=float)
    except (TypeError, ValueError, IndexError) as exc:
        raise EnsembleFormatError(f"bad matrix data in {where}: {exc}") from exc


def to_json_dict(e: FusionEnsemble) -> dict:
    return {
        "field": e.field,
        "d": e.d,
        "r": e.r,
        "n": e.n,
        "isometries": [_encode_matrix(b, e.field) for b in e.blocks],
        "metadata": dict(e.meta),
    }


def from_json_dict(data: Mapping, tol: float = DEFAULT_TOL) -> FusionEnsemble:
    try:
        field = data["field"]
        d, r, n = int(data["d"]), int(data["r"]), int(data["n"])
        raw = data["isometries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise EnsembleFormatError(f"missing or malformed ensemble fields: {exc}") from exc
    if field not in ("R", "C"):
        raise EnsembleFormatError(f"field must be 'R' or 'C', got {field!r}")
    if len(raw) != n:
        raise EnsembleFormatError(f"expected {n} isometries, found {len(raw)}")
    blocks = []
    for j, rows in enumerate(raw, start=1):
        M = _decode_matrix(rows, field, f"isometry {j}")
        if M.shape != (d, r):
            raise EnsembleFormatError(
                f"isometry {j} has shape {M.shape}, expected {(d, r)}"
            )
        blocks.append(M)
    try:
        return FusionEnsemble.from_blocks(
            blocks, field=field, tol=tol, meta=data.get("metadata", {})
        )
    except ValueError as exc:
        raise EnsembleFormatError(str(exc)) from exc


def save_ensemble(e: FusionEnsemble, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(e), indent=1))


def load_ensemble(path: str | Path, tol: float = DEFAULT_TOL) -> FusionEnsemble:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise EnsembleFormatError(f"not valid JSON: {exc}") from exc
    return from_json_dict(data, tol=tol)


def save_synthesis_csv(e: FusionEnsemble, path: str | Path) -> None:
    """Write the d x rn synthesis matrix as CSV.  Real ensembles only."""
    if e.field != "R":
        raise EnsembleFormatError("CSV export is offered for real ensembles only")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in e.synthesis():
            writer.writerow([repr(float(v)) for v in row])
