"""Ensemble files: exact save/load round trips, the compact layout and old indented files."""

import json

import numpy as np
import pytest

from symfusion import FusionEnsemble, Partition, load_ensemble, save_ensemble, single_layer_ensemble
from symfusion.constructions import LayerSelection, alternating_ensemble, alternating_shapes
from symfusion.ensemble_io import to_json_dict
from symfusion.fusion import random_orthonormal_blocks


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
