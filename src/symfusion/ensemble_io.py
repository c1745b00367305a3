"""Ensemble file format: JSON with one d x r entry grid per subspace.

Real entries are plain numbers; complex entries are [re, im] pairs, and a
plain number in a complex matrix is read as real.  Files are written as
compact one-line JSON by the C encoder.  The format round-trips float64
exactly (JSON floats are written with repr precision, -0.0 included), so
certification of a saved ensemble is bit-identical to the in-memory path.
Files written indented by earlier versions load to the same blocks.
"""

from __future__ import annotations

import csv
import json
from itertools import chain
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import EnsembleFormatError
from .fusion import DEFAULT_TOL, FusionEnsemble


def _encode_matrix(M: np.ndarray, field: str) -> list:
    return np.stack([M.real, M.imag], -1).tolist() if field == "C" else M.tolist()


def _decode_matrix(rows: list, field: str, where: str) -> np.ndarray:
    """Every entry must be a JSON number, or in a complex grid an [re, im] pair."""
    try:
        if field == "C":
            rows = [[v if type(v) is list else [v, 0.0] for v in row] for row in rows]
            cells = list(chain.from_iterable(rows))
            if set(map(len, cells)) - {2}:
                raise ValueError("complex entries must be [re, im] pairs")
        kinds = set(map(type, chain.from_iterable(cells if field == "C" else rows))) - {int, float}
        if kinds:
            raise ValueError(f"entries must be numbers, found {sorted(k.__name__ for k in kinds)}")
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise EnsembleFormatError(f"bad matrix data in {where}: {exc}") from exc
    return M.view(complex)[..., 0] if field == "C" and M.ndim == 3 else M


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
        field, d, r, n, raw = (data[key] for key in ("field", "d", "r", "n", "isometries"))
        meta = data.get("metadata", {})
    except (KeyError, TypeError) as exc:
        raise EnsembleFormatError(f"missing or malformed ensemble fields: {exc}") from exc
    if field not in ("R", "C"):
        raise EnsembleFormatError(f"field must be 'R' or 'C', got {field!r}")
    if not all(type(v) is int for v in (d, r, n)):
        raise EnsembleFormatError(f"d, r and n must be integers, got {(d, r, n)}")
    if not isinstance(raw, list) or len(raw) != n:
        found = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise EnsembleFormatError(f"expected a list of {n} isometries, found {found}")
    if not isinstance(meta, dict):
        raise EnsembleFormatError(f"metadata must be a JSON object, got {meta!r}")
    blocks = []
    for j, rows in enumerate(raw, start=1):
        M = _decode_matrix(rows, field, f"isometry {j}")
        if M.shape != (d, r):
            raise EnsembleFormatError(f"isometry {j} has shape {M.shape}, expected {(d, r)}")
        blocks.append(M)
    try:
        return FusionEnsemble.from_blocks(blocks, field=field, tol=tol, meta=meta)
    except ValueError as exc:
        raise EnsembleFormatError(str(exc)) from exc


def save_ensemble(e: FusionEnsemble, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(e)))


def load_ensemble(path: str | Path, tol: float = DEFAULT_TOL) -> FusionEnsemble:
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, runaway nesting
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
