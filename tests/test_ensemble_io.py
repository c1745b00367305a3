"""Ensemble files: exact round trips, the compact layout, old indented files and both grid decoders."""

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from symfusion import FusionEnsemble, Partition, load_ensemble, save_ensemble, single_layer_ensemble
from symfusion.constructions import LayerSelection, alternating_ensemble, alternating_shapes
from symfusion import ensemble_io
from symfusion.ensemble_io import _json_grid, save_synthesis_csv
from symfusion.errors import EnsembleFormatError, SymfusionError
from symfusion.fusion import naimark_complement, random_orthonormal_blocks

from oracles import _encode_matrix, synthesis_csv, to_json_dict


def signed_zero_ensemble(field: str) -> FusionEnsemble:
    """The coordinate tiling of F^4 by two planes, with -0.0 in every zero slot."""
    eye = np.eye(4)
    blocks = [np.where(eye[:, k : k + 2] == 0, -0.0, 1.0) for k in (0, 2)]
    if field == "C":
        blocks = [b.astype(complex) for b in blocks]
        for b in blocks:
            b.imag[:] = -0.0
    return FusionEnsemble.from_blocks(blocks, field=field)


CASES = {
    "real_eitff": lambda: single_layer_ensemble(Partition((3, 2)), Partition((2, 2))),
    "real_random": lambda: FusionEnsemble.from_blocks(random_orthonormal_blocks(7, 3, 4, 11)),
    "complex_eitff": lambda: alternating_ensemble(LayerSelection.from_delta(alternating_shapes(1, 3), 1), "+"),
    "complex_random": lambda: FusionEnsemble.from_blocks(random_orthonormal_blocks(6, 2, 3, 5, True)),
    "real_signed_zero": lambda: signed_zero_ensemble("R"),
    "complex_signed_zero": lambda: signed_zero_ensemble("C"),
}


def assert_identical(a: FusionEnsemble, b: FusionEnsemble) -> None:
    """Same tag, shape, dtype and bits, the sign of every zero included."""
    assert (a.field, a.d, a.r, a.n) == (b.field, b.d, b.r, b.n)
    assert dict(a.meta) == dict(b.meta)
    for x, y in zip(a.blocks, b.blocks):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(x)), np.signbit(part(y)))


@pytest.mark.parametrize("case", list(CASES))
def test_save_load_is_bit_identical(tmp_path, case):
    e = CASES[case]()
    path = tmp_path / "e.json"
    save_ensemble(e, path)
    assert_identical(e, load_ensemble(path))


def with_metadata() -> FusionEnsemble:
    blocks = random_orthonormal_blocks(5, 2, 1, 3)
    return FusionEnsemble.from_blocks(blocks, meta={"note": "caf\u00e9", "nested": {"a": [1, 2.5, None]}})


@pytest.mark.parametrize("case", [*CASES, "metadata"])
def test_file_is_compact_one_line_json(tmp_path, case):
    e = with_metadata() if case == "metadata" else CASES[case]()
    path = tmp_path / "e.json"
    save_ensemble(e, path)
    text = path.read_text()
    assert "\n" not in text
    assert text == json.dumps(to_json_dict(e))


def test_save_encodes_one_block_at_a_time(tmp_path):
    import tracemalloc

    e = FusionEnsemble.from_blocks(random_orthonormal_blocks(200, 10, 10, 1))
    peaks = []
    for write in (lambda: json.dumps(to_json_dict(e)), lambda: save_ensemble(e, tmp_path / "e.json")):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    whole, streamed = peaks
    assert streamed <= 0.3 * whole


def test_load_decodes_one_grid_at_a_time(tmp_path):
    import tracemalloc

    path = tmp_path / "e.json"
    save_ensemble(FusionEnsemble.from_blocks(random_orthonormal_blocks(200, 10, 10, 1)), path)
    peaks = []
    for read in (lambda: json.loads(path.read_text(encoding="utf-8")), lambda: load_ensemble(path)):
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tree, streamed = peaks  # the text alone is about two thirds of the tree's peak
    assert streamed <= 0.8 * tree


TRICKY_META = {"note": 'not a member: "isometries": [[[1, 0]]], "field": "R"', "tail": '], "metadata": {}}'}


def written(e: FusionEnsemble, way: str, path) -> None:
    data = to_json_dict(e)
    if way == "save_ensemble":
        save_ensemble(e, path)
    elif way == "trailing_newline":  # an editor's final newline keeps the saver's frame
        save_ensemble(e, path)
        path.write_text(path.read_text() + "\n")
    elif way == "indented":
        path.write_text(json.dumps(data, indent=2))
    elif way == "keys_reversed":  # "isometries" before "field"
        path.write_text(json.dumps(dict(reversed(data.items()))))
    elif way == "duplicate_d":  # the last of duplicate keys wins
        path.write_text('{"d": ' + str(e.d + 1) + ", " + json.dumps(data)[1:])
    else:  # "metadata_first": the text "isometries" occurs first inside a string
        meta = data.pop("metadata")
        path.write_text(json.dumps({"metadata": meta, **data}))


@pytest.mark.parametrize("way", ["save_ensemble", "trailing_newline", "indented", "keys_reversed", "duplicate_d",
                                 "metadata_first"])
def test_every_layout_of_one_ensemble_loads_identically(tmp_path, way):
    e = FusionEnsemble.from_blocks(random_orthonormal_blocks(6, 2, 3, 5, True), meta=TRICKY_META)
    path = tmp_path / "e.json"
    written(e, way, path)
    assert_identical(e, load_ensemble(path))


@pytest.mark.parametrize("way", ["save_ensemble", "trailing_newline"])
def test_rows_longer_than_a_piece_never_send_the_file_to_json_loads(tmp_path, monkeypatch, way):
    # rows of about 70 and 95 characters: each grid falls back to json alone, in the frame
    for case in ("real_random", "complex_random"):
        e = CASES[case]()
        path = tmp_path / "e.json"
        written(e, way, path)
        with monkeypatch.context() as m:
            m.setattr(ensemble_io, "_PIECE", 40)
            m.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("json.loads read the whole file"))
            assert_identical(e, load_ensemble(path))


def test_last_duplicate_field_decides_how_the_grids_read(tmp_path):
    # complex grids with zero imaginary parts, re-tagged "R" by a later "field" key
    blocks = [b.astype(complex) for b in random_orthonormal_blocks(4, 2, 2, 3)]
    path = tmp_path / "e.json"
    save_ensemble(FusionEnsemble.from_blocks(blocks, field="C"), path)
    path.write_text(path.read_text()[:-1] + ', "field": "R"}')
    with pytest.raises(EnsembleFormatError, match="isometry 1: entries must be numbers"):
        load_ensemble(path)


def test_grid_errors_are_reported_after_the_other_members(tmp_path):
    data = to_json_dict(CASES["real_random"]())
    data["isometries"][0][0][0] = "x"
    del data["n"]
    path = tmp_path / "e.json"
    path.write_text(json.dumps(data))
    with pytest.raises(EnsembleFormatError, match="missing or malformed ensemble fields"):
        load_ensemble(path)


@pytest.mark.parametrize("edit", [
    lambda text: "[" + text + "]",
    lambda text: text + " {}",
    lambda text: text.replace("[[[", "[[[NaN, ", 1),
    lambda text: text.replace(', "d"', ' {"d"', 1),
], ids=["top_level_array", "extra_data", "nan_literal", "brace_for_comma"])
def test_malformed_file_is_exit_2(tmp_path, capsys, edit):
    from symfusion.cli import main

    path = tmp_path / "e.json"
    save_ensemble(CASES["complex_random"](), path)
    path.write_text(edit(path.read_text()))
    assert main(["certify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "EnsembleFormatError"


@pytest.mark.parametrize("case", list(CASES))
def test_indented_file_of_earlier_versions_loads_identically(tmp_path, case):
    e = CASES[case]()
    path = tmp_path / "old.json"
    path.write_text(json.dumps(to_json_dict(e), indent=1))
    assert_identical(e, load_ensemble(path))


def test_plain_numbers_in_a_complex_grid_read_as_real(tmp_path):
    rows = [[1.0, [0.0, -0.0]], [0, [0.6, 0.8]], [-0.0, 0]]
    data = {"field": "C", "d": 3, "r": 2, "n": 1, "isometries": [rows], "metadata": {}}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    e = load_ensemble(path)
    expected = np.array([[1.0, complex(0.0, -0.0)], [0.0, 0.6 + 0.8j], [-0.0, 0.0]], dtype=complex)
    assert e.field == "C" and e.blocks[0].dtype == np.complex128
    assert np.array_equal(e.blocks[0], expected)
    assert np.array_equal(np.signbit(e.blocks[0].real), np.signbit(expected.real))
    assert np.array_equal(np.signbit(e.blocks[0].imag), np.signbit(expected.imag))
    again = tmp_path / "again.json"
    save_ensemble(e, again)
    assert_identical(e, load_ensemble(again))


# the two grid decoders: orjson for grids laid out as the saver writes them, json for the rest

def outcome(path) -> tuple:
    """The loaded ensemble's bits, or the error the loader reports."""
    try:
        e = load_ensemble(path)
    except SymfusionError as exc:
        return type(exc).__name__, str(exc)
    return e.field, e.d, e.r, e.n, [(b.dtype.str, b.tobytes()) for b in e.blocks], repr(dict(e.meta))


def assert_decoders_agree(path, monkeypatch) -> None:
    """The loader reads the file as it does with every grid left to json."""
    fast = outcome(path)
    with monkeypatch.context() as m:
        m.setattr(ensemble_io, "_orjson_grid", lambda text, i, field: None)
        assert fast == outcome(path)


def mutants(text: str, seed: int, count: int):
    """Copies of text with 1 to 3 characters of the grids replaced, inserted or deleted."""
    rng = random.Random(seed)
    lo, hi = text.index('"isometries"'), text.index('"metadata"')
    for _ in range(count):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            k, c, how = rng.randrange(lo, hi), rng.choice('0123456789-+.eE[], "tfnulNI\n'), rng.randrange(3)
            if how == 0:
                chars[k] = c
            elif how == 1:
                chars.insert(k, c)
            else:
                del chars[k]
        yield "".join(chars)


@pytest.mark.parametrize("piece", [None, 200], ids=["default_piece", "two_rows_a_piece"])
@pytest.mark.parametrize("case", ["real_random", "complex_random"])
def test_decoders_agree_on_mutated_files(tmp_path, monkeypatch, case, piece):
    if piece:
        monkeypatch.setattr(ensemble_io, "_PIECE", piece)
    path = tmp_path / "e.json"
    save_ensemble(CASES[case](), path)
    for text in mutants(path.read_text(), seed=len(case) + (piece or 0), count=150):
        path.write_text(text)
        assert_decoders_agree(path, monkeypatch)


# each token stands in for the first entry of the second grid; in a complex grid, for the whole
# [re, im] pair and then for its imaginary part
TOKENS = [
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1e-999", "-1e-999", "0e99999999999999999999",
    "100000000000000000001", "-18446744073709551617", "1" + "0" * 399, "-0", "0", "1E0", "-0.0",
    "true", "false", "null", '"\\ud800"', '"\\udfff\\ud800"', '"]]"', '"], ["', '"]], [["', '"1.0"',
    "{}", "[]", "[-0.0, -0.0]", "[-0, 0]", "[0.0]", "[0.0, 0.0, 0.0]", "[[0.0, 0.0]]",
]


def edited_files(e: FusionEnsemble) -> dict:
    """The compact text of e with its second grid edited, by name."""
    data = to_json_dict(e)
    grid = data["isometries"][1]
    compact = json.dumps(data)
    mark = json.dumps(grid)
    texts = {"compact": compact}
    for token in TOKENS:
        grid[0][0] = "@"
        texts[f"entry {token}"] = json.dumps(data).replace('"@"', token)
        if e.field == "C":
            grid[0][0] = [0.0, "@"]
            texts[f"imag {token}"] = json.dumps(data).replace('"@"', token)
    grid = json.loads(mark)
    entry = (lambda v: v) if e.field == "C" else (lambda v: [v])
    for name, rows in {
        "short_first_row": [grid[0][:-1], *grid[1:]], "short_last_row": [*grid[:-1], grid[-1][:-1]],
        "short_rows": [row[:-1] for row in grid],
        "extra_row": [*grid, grid[0]], "no_rows": [], "empty_rows": [[] for _ in grid],
        "one_number_entries": [[entry(v)[:1] for v in row] for row in grid],
        "four_number_entries": [[entry(v) * 4 for v in row] for row in grid],
    }.items():
        texts[name] = compact.replace(mark, json.dumps(rows), 1)
    texts["indented"] = compact.replace(mark, json.dumps(grid, indent=2), 1)
    texts["tight_separators"] = compact.replace(mark, json.dumps(grid, separators=(",", ":")), 1)
    # a level deeper, spaced so that the grid ends and its rows part as the saver writes them
    if e.field == "R":
        rows = ["[" + ",".join(f"[{json.dumps(v)} ]" for v in row) + " ]" for row in grid]
    else:
        rows = ["[" + ", ".join(f"[[{json.dumps(x)}],[{json.dumps(y)}] ]" for x, y in row) + "]" for row in grid]
    texts["deeper"] = compact.replace(mark, "[" + ", ".join(rows) + "]", 1)
    return texts


@pytest.mark.parametrize("piece", [None, 40], ids=["default_piece", "small_piece"])
@pytest.mark.parametrize("field", ["R", "C"])
def test_decoders_agree_on_edge_entries(tmp_path, monkeypatch, field, piece):
    if piece:
        monkeypatch.setattr(ensemble_io, "_PIECE", piece)
    path = tmp_path / "e.json"
    texts = edited_files(signed_zero_ensemble(field))
    for text in texts.values():
        path.write_text(text)
        assert_decoders_agree(path, monkeypatch)
    path.write_text(texts["compact"])
    assert outcome(path)[0] == field


def test_rows_parted_by_a_separator_the_saver_does_not_write(tmp_path, monkeypatch):
    # four rows, the first two parted by "],[": pieces of two rows, one row and one row
    monkeypatch.setattr(ensemble_io, "_PIECE", 25)
    grid = "[[1, 0],[0, 1], [0.000000000000, 0], [0.000000000000, 0]]"
    path = tmp_path / "e.json"
    path.write_text(f'{{"field": "R", "d": 4, "r": 2, "n": 1, "isometries": [{grid}], "metadata": {{}}}}')
    assert_decoders_agree(path, monkeypatch)
    assert outcome(path)[0] == "R"


def orjson_text_sizes(monkeypatch) -> list:
    """The length of each text the loader hands orjson.loads from now on."""
    import orjson

    sizes, loads = [], orjson.loads
    monkeypatch.setattr(orjson, "loads", lambda text: sizes.append(len(text)) or loads(text))
    return sizes


@pytest.mark.parametrize("case", ["real_random", "complex_random"])
def test_every_piece_bound_holds(tmp_path, monkeypatch, case):
    """Rows are about 70 (real) and 95 (complex) characters, so some bounds split each grid
    into pieces and some are shorter than any row."""
    e = CASES[case]()
    path = tmp_path / "e.json"
    save_ensemble(e, path)
    sizes = orjson_text_sizes(monkeypatch)
    for piece in range(16, 400, 3):
        monkeypatch.setattr(ensemble_io, "_PIECE", piece)
        sizes.clear()
        assert_identical(e, load_ensemble(path))
        assert max(sizes, default=0) <= piece


@pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
def test_orjson_gets_at_most_one_piece_at_a_time(tmp_path, monkeypatch, indent):
    e = FusionEnsemble.from_blocks(random_orthonormal_blocks(448, 70, 10, 2))  # the d, r, n of III(1,1,4)
    path = tmp_path / "e.json"
    if indent:
        path.write_text(json.dumps(to_json_dict(e), indent=indent))
    else:
        save_ensemble(e, path)
    sizes, by_json, decode = orjson_text_sizes(monkeypatch), [], ensemble_io._decode_matrix
    monkeypatch.setattr(ensemble_io, "_decode_matrix", lambda rows, *args: by_json.append(1) or decode(rows, *args))
    assert_identical(e, load_ensemble(path))
    assert max(sizes, default=0) <= ensemble_io._PIECE
    if indent:  # json decodes every grid, and orjson none
        assert (sizes, len(by_json)) == ([], e.n)
    else:  # orjson decodes every grid, each in several pieces
        assert not by_json and len(sizes) > e.n


# the float text: orjson's digits, with the entries it spells otherwise spelled by repr

EDGE_VALUES = [
    0.0, -0.0, 5e-324, 1e-10, float(np.nextafter(1e-9, 0)), 1e-9, 1e-5, float(np.nextafter(1e-4, 0)),
    1e-4, 1e15, float(np.nextafter(1e16, 0)), 1e16, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 0.1,
]


def log_uniform(shape, seed: int, low: float = -4, high: float = 16) -> np.ndarray:
    """Signed values with log10 |x| uniform in [low, high)."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(low, high, shape)


def edge_grids(seed: int) -> dict:
    """Grids whose repr-spelled entries (1e-9 <= |x| < 1e-4 or |x| >= 1e16) sit first, last,
    everywhere and nowhere, next to every edge value, integer-valued floats and random values."""
    base = log_uniform((7, 5), seed)
    first, last = base.copy(), base.copy()
    first[0, 0], last[-1, -1] = 1e-5, -1e16
    edges = np.resize(np.array(EDGE_VALUES), (5, 7)).T
    return {
        "nowhere": base,
        "first": first,
        "last": last,
        "everywhere": log_uniform((7, 5), seed + 1, -9, -4),
        "tiny": log_uniform((7, 5), seed + 4, -324, -9),
        "huge": log_uniform((4, 3), seed + 2, 16, 308.2),
        "edges": edges,
        "integers": np.arange(-17.0, 18.0).reshape(5, 7) * 10.0 ** np.arange(7),
        "one_by_one": np.array([[5e-324]]),
        "wide_range": log_uniform((40, 50), seed + 3, -330, 308.2),
    }


@pytest.mark.parametrize("name", list(edge_grids(0)))
@pytest.mark.parametrize("field", ["R", "C"])
def test_grid_text_is_json_dumps(name, field):
    M = edge_grids(3)[name]
    if field == "C":
        M = M + 1j * np.roll(M[::-1], 1)
    assert _json_grid(M, field) == json.dumps(_encode_matrix(M, field)).encode()


@pytest.mark.parametrize("field", ["R", "C"])
def test_grid_text_of_column_views_is_json_dumps(field):
    grids = edge_grids(5)
    P = np.hstack([grids[k] for k in ("nowhere", "first", "last", "everywhere", "tiny", "edges")])  # 7 x 30
    if field == "C":
        P = P - 1j * P[::-1]
    P.flags.writeable = False
    for j in range(0, 30, 3):
        view = P[:, j : j + 3]
        assert not view.flags.c_contiguous
        assert _json_grid(view, field) == json.dumps(_encode_matrix(view, field)).encode()


def test_save_of_complements_is_json_dumps(tmp_path):
    """A Naimark complement holds many roundoff-sized entries."""
    for case in ("real_eitff", "complex_eitff"):
        e = naimark_complement(CASES[case]())
        path = tmp_path / "c.json"
        save_ensemble(e, path)
        assert path.read_bytes() == json.dumps(to_json_dict(e)).encode()
        assert_identical(e, load_ensemble(path))


def test_synthesis_csv_is_csv_writer_output(tmp_path):
    """Rows are cut into chunks of about 64K numbers; 300 x 300 takes two."""
    path = tmp_path / "e.csv"
    grids = [*edge_grids(7).values(), np.array(EDGE_VALUES)[:, None], log_uniform((300, 300), 9, -10, 20)]
    for P in grids:
        save_synthesis_csv(SimpleNamespace(field="R", d=P.shape[0], synthesis=lambda: P), path)
        assert path.read_bytes() == synthesis_csv(P)
    e = CASES["real_random"]()
    save_synthesis_csv(e, path)
    assert path.read_bytes() == synthesis_csv(e.synthesis())

