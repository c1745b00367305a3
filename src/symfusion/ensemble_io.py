"""Ensemble file format: JSON with one d x r entry grid per subspace.

Real entries are plain numbers; complex entries are [re, im] pairs, and a
plain number in a complex matrix is read as real.  Files are written as
compact one-line JSON, byte for byte as ``json.dumps`` would write them: orjson
formats the floats, and the few that it spells differently from ``repr`` are
spliced in as ``repr`` spells them.  The format round-trips float64 exactly
(JSON floats are written with repr precision, -0.0 included), so certification
of a saved ensemble is bit-identical to the in-memory path.  Files written
indented by earlier versions load to the same blocks.

A file in the frame the saver writes (the same keys in the same order and spacing;
trailing whitespace allowed) is read by position, one grid at a time, so the whole file
never exists as nested lists.  orjson decodes each grid in pieces of whole rows of at
most 16 KiB of text, and json decodes a grid that orjson does not take (a longer row,
anything but finite numbers).  Any other text goes whole to ``json.loads``, which owns
key order, duplicate keys and every error message.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import EnsembleFormatError
from .fusion import DEFAULT_TOL, FusionEnsemble

_DECODER = json.JSONDecoder()
# orjson keeps working memory about the size of the text it parses, so it gets at most this much
_PIECE = 1 << 14
# a grid's opening, the text between two of its rows, and its closing, as the saver writes them
_ROWS = {"R": ("[[", "], [", "]]"), "C": ("[[[", "]], [[", "]]]")}
# the saver's frame: this head, the grids parted by ", ", the tail, the metadata and "}"
_HEAD = '{"field": "%s", "d": %d, "r": %d, "n": %d, "isometries": ['
_TAIL = '], "metadata": '
_FRAME = re.compile(re.escape(_HEAD).replace("%s", "([RC])").replace("%d", "(-?(?:0|[1-9][0-9]*))"))


def _float_text(A: np.ndarray) -> bytes:
    """orjson's compact JSON text of the float64 array A, each number spelled as ``repr``
    spells it.  orjson differs only on 1e-9 <= |x| < 1e-4 (0.00001 for 1e-05, 1e-9 for
    1e-09) and on |x| >= 1e16 (1e16 for 1e+16); below 1e-9 both write a two-digit or longer
    exponent.  Those entries go in as NaN, come out as null, and are replaced by their repr."""
    import orjson

    a = np.abs(A)
    odd = (a >= 1e16) | ((a < 1e-4) & (a >= 1e-9))
    grid = np.ascontiguousarray(np.where(odd, np.nan, A))
    parts = orjson.dumps(grid, option=orjson.OPT_SERIALIZE_NUMPY).split(b"null")
    spelled = [repr(v).encode() for v in A[odd].tolist()]
    return b"".join(chain.from_iterable(zip(parts, spelled))) + parts[-1]


def _json_grid(M: np.ndarray, field: str) -> bytes:
    """``json.dumps`` of the entry grid of M, as bytes; in "C" each entry is [re, im]."""
    return _float_text(np.stack([M.real, M.imag], -1) if field == "C" else M).replace(b",", b", ")


def _decode_matrix(rows: list, field: str, where: str) -> np.ndarray:
    """Every entry must be a JSON number, or in a complex grid an [re, im] pair."""
    try:
        kinds = set(map(type, chain.from_iterable(rows)))
        if field == "C" and list in kinds:
            if kinds != {list}:  # a plain number among [re, im] pairs is real
                rows = [[v if type(v) is list else [v, 0.0] for v in row] for row in rows]
            cells = list(chain.from_iterable(rows))
            if set(map(len, cells)) - {2}:
                raise ValueError("complex entries must be [re, im] pairs")
            kinds = set(map(type, chain.from_iterable(cells)))
        kinds -= {int, float}
        if kinds:
            raise ValueError(f"entries must be numbers, found {sorted(k.__name__ for k in kinds)}")
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise EnsembleFormatError(f"bad matrix data in {where}: {exc}") from exc
    return M.view(complex)[..., 0] if field == "C" and M.ndim == 3 else M


def save_ensemble(e: FusionEnsemble, path: str | Path) -> None:
    """Write the bytes of ``json.dumps`` of the file's object, encoding one block at a time."""
    with open(path, "wb") as fh:
        fh.write((_HEAD % (e.field, e.d, e.r, e.n)).encode())
        for j, b in enumerate(e.blocks):
            fh.write((b", " if j else b"") + _json_grid(b, e.field))
        fh.write(f"{_TAIL}{json.dumps(dict(e.meta))}}}".encode())


def read_json(path: str | Path):
    """The parsed content of a JSON file; OSError if it cannot be read."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, runaway nesting
        raise EnsembleFormatError(f"{path} is not valid JSON: {exc}") from exc


def _orjson_grid(text: str, i: int, field: object) -> tuple[np.ndarray, int] | None:
    """The grid at text[i] as the saver lays it out, decoded by orjson one piece of whole rows
    at a time, and the index past it; None, and json decides, for any other text."""
    import orjson

    if field not in ("R", "C") or not text.startswith(_ROWS[field][0], i):
        return None
    head, sep, tail = _ROWS[field]
    a, end, room, M = i + len(head), text.find(tail, i), _PIECE - len(head) - len(tail), None
    if end < 0 or any(text.find(c, a, end) >= 0 for c in '"ul'):  # a string, true, false or null
        return None
    d, k = text.count(sep, a, end) + 1, 0  # a row more than separators
    try:
        while a <= end:
            b = end if end - a <= room else text.rfind(sep, a, a + room)
            if b < 0:  # a row longer than the piece
                return None
            rows = np.array(orjson.loads(head + text[a:b] + tail), dtype=float)
            if M is None:  # each piece is copied in and freed
                M = np.empty((d, *rows.shape[1:]))
            if rows.shape[1:] != M.shape[1:]:  # rows of another length would broadcast
                return None
            M[k : k + len(rows)] = rows
            k, a = k + len(rows), b + len(sep)
    except (TypeError, ValueError, OverflowError):
        return None
    if k == len(M) and M.ndim == len(head) and (field == "R" or M.shape[2] == 2):
        return (M.view(complex)[..., 0] if field == "C" else M), end + len(tail)
    return None


def _read_frame(text: str) -> dict | None:
    """The file's object read by position if text is in the saver's frame, each grid decoded
    as it is reached (one json refuses stays a list, decoded again where it is reported);
    None for any other text, which json.loads then reads whole."""
    if not (m := _FRAME.match(text)):
        return None
    field, i, grids = m[1], m.end(), []
    try:
        while not text.startswith(_TAIL, i):
            sep = ", " if grids else ""
            if not text.startswith(sep, i):
                return None
            rows, i = _orjson_grid(text, i + len(sep), field) or _DECODER.raw_decode(text, i + len(sep))
            if isinstance(rows, list):
                with suppress(EnsembleFormatError):
                    rows = _decode_matrix(rows, field, "")
            grids.append(rows)
        meta, i = _DECODER.raw_decode(text, i + len(_TAIL))
        d, r, n = map(int, m.group(2, 3, 4))
    except ValueError:
        return None
    if text[i:].rstrip(" \t\n\r") != "}":
        return None
    return {"field": field, "d": d, "r": r, "n": n, "isometries": grids, "metadata": meta}


def load_ensemble(path: str | Path, tol: float = DEFAULT_TOL) -> FusionEnsemble:
    """Read a file in the saver's frame by position, one grid at a time; json.loads reads
    any other text whole, and owns key order, duplicate keys and every error message."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = _read_frame(text) or json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, runaway nesting
        raise EnsembleFormatError(f"{path} is not valid JSON: {exc}") from exc
    try:
        field, d, r, n, grids = (data[key] for key in ("field", "d", "r", "n", "isometries"))
        meta = data.get("metadata", {})
    except (KeyError, TypeError) as exc:
        raise EnsembleFormatError(f"missing or malformed ensemble fields: {exc}") from exc
    if field not in ("R", "C"):
        raise EnsembleFormatError(f"field must be 'R' or 'C', got {field!r}")
    if not all(type(v) is int for v in (d, r, n)):
        raise EnsembleFormatError(f"d, r and n must be integers, got {(d, r, n)}")
    if not isinstance(grids, list) or len(grids) != n:
        found = len(grids) if isinstance(grids, list) else type(grids).__name__
        raise EnsembleFormatError(f"expected a list of {n} isometries, found {found}")
    if not isinstance(meta, dict):
        raise EnsembleFormatError(f"metadata must be a JSON object, got {meta!r}")
    del text  # before the ensemble's array is allocated
    for j, M in enumerate(grids, start=1):
        M = grids[j - 1] = M if isinstance(M, np.ndarray) else _decode_matrix(M, field, f"isometry {j}")
        if M.shape != (d, r):
            raise EnsembleFormatError(f"isometry {j} has shape {M.shape}, expected {(d, r)}")
    try:
        return FusionEnsemble.from_blocks(grids, field=field, tol=tol, meta=meta)
    except ValueError as exc:
        raise EnsembleFormatError(str(exc)) from exc


def save_synthesis_csv(e: FusionEnsemble, path: str | Path) -> None:
    """Write the d x rn synthesis matrix as CSV.  Real ensembles only."""
    if e.field != "R":
        raise EnsembleFormatError("CSV export is offered for real ensembles only")
    P = e.synthesis()
    step = max(1, 2**16 // P.shape[1])  # rows per chunk of about 64K numbers
    with open(path, "wb") as fh:
        for i in range(0, e.d, step):  # each row: the numbers joined by ",", then CRLF
            fh.write(_float_text(P[i : i + step])[2:-2].replace(b"],[", b"\r\n") + b"\r\n")
