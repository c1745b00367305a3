"""The package's public surface, and the names kept out of it."""

import re
from pathlib import Path

import pytest

import symfusion
from symfusion import altrep, constructions, errors, tableaux

import oracles

# The object tableau layer; it lives on only as the tests' reference in oracles.py.
REMOVED = (
    "StandardTableau",
    "content",
    "axial_distance",
    "apply_adjacent_transposition",
    "embed",
    "transpose_tableau",
    "row_superstandard",
    "canonical_key",
    "tableau_from_word",
    "enumerate_standard_tableaux",
    "tableau_index",
    "hook_length",
    "contains",
    "boxes",
    "reference_tableau",
    "family_reference_tableau",
    "reference_permutation",
    "reference_permutation_sign",
    "tab_star",
    "NotStandardError",
    "EntryOutOfRangeError",
    "BoxOutsideDiagramError",
)

# The second and third encodings of the exact layer sums, and the parity wrapper;
# the integer corner kernel constructions._scaled_sums and LayerSelection.from_delta
# replace them.
REMOVED_LAYER_SUMS = (
    "canonical_subsets",
    "_transition_measure",
    "_box_sums",
    "_scaled_weights",
    "_single_layer_added_box",
)

# The second encoding of the A_n representation: the generator table, the dense
# pi(s_k) and the word products; altrep derives rho = J* pi(g) J through symrep.rep_apply.
REMOVED_AN_PATHS = ("_generator_action", "adjacent_transposition_matrix", "permutation_word")

TESTS = Path(__file__).resolve().parent


def test_all_names_resolve_once():
    assert len(symfusion.__all__) == len(set(symfusion.__all__))
    for name in symfusion.__all__:
        assert getattr(symfusion, name) is not None, name


@pytest.mark.parametrize("module", [symfusion, tableaux, altrep, errors], ids=lambda m: m.__name__)
def test_object_layer_is_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


@pytest.mark.parametrize("module", [symfusion, constructions], ids=lambda m: m.__name__)
def test_one_encoding_of_the_layer_sums(module):
    assert [name for name in REMOVED_LAYER_SUMS if hasattr(module, name)] == []
    assert not set(REMOVED_LAYER_SUMS) & set(symfusion.__all__)


def test_one_encoding_of_the_an_representation():
    assert [name for name in REMOVED_AN_PATHS if hasattr(altrep, name)] == []


def test_every_oracle_name_is_called_by_a_test():
    sources = "\n".join(
        path.read_text() for path in TESTS.glob("test_*.py") if path.name != Path(__file__).name
    )
    defined = [name for name, value in vars(oracles).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == oracles.__name__]
    assert defined
    unused = [name for name in defined if not re.search(rf"\b{name}\b", sources)]
    assert unused == []
