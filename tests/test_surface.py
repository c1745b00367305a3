"""The package's public surface, and the names kept out of it."""

import re
from pathlib import Path

import pytest

import symfusion
from symfusion import altrep, constructions, errors, fusion, permutations, symrep, tableaux

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

# The dense encoding of the representation objects, which no module of the package
# calls: the associators, eigenspace injections, rho_eps(g), branching isometries,
# pi(s_k), the generators s_1 s_k of A_n, the automorphism witness and the two errors
# only they raise.  The package applies these objects through the basis triples,
# altrep.gather and symrep.rep_apply; the matrices live on in oracles.py.
REMOVED_DENSE = (
    "associator_unitary",
    "pair_associator_unitary",
    "eigenspace_injection",
    "layer_eigenbasis",
    "an_generator_matrix",
    "an_rep_matrix",
    "pair_branching_isometry",
    "symmetric_branching_isometry",
    "_dense",
    "_involution",
    "adjacent_transposition_matrix",
    "branching_isometry",
    "automorphism_witness",
    "an_pair_generators",
    "OddPermutationError",
    "SymmetricLambdaError",
)

# The analysis views that no CLI command calls: the dense frame operator and fusion
# Gram, the per-pair angles and distances that certify's report already holds, the
# second entry into the pair pass, and the axial distance of two boxes.  certify is
# the one way into pair geometry; the six live on in oracles.py.
REMOVED_ANALYSIS = (
    "principal_angles",
    "pairwise_distances",
    "fusion_gram",
    "fusion_frame_operator",
    "isoclinism_check",
    "box_axial_distance",
)

# Errors that no module of the package raises: the oracle's an_rep_matrix reports a
# permutation degree other than |nu| as symrep.rep_apply does, with SizeMismatchError.
REMOVED_ERRORS = ("ShapeMismatchError",)

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


@pytest.mark.parametrize("module", [symfusion, altrep, symrep, fusion, permutations, errors],
                         ids=lambda m: m.__name__)
def test_one_encoding_of_the_representation_objects(module):
    assert [name for name in REMOVED_DENSE if hasattr(module, name)] == []
    assert not set(REMOVED_DENSE) & set(symfusion.__all__)


def test_the_dense_encoding_lives_in_the_oracle():
    # FusionEnsemble.projection went with the witness, its only caller in the package
    assert not hasattr(symfusion.FusionEnsemble, "projection")
    homes = {name: getattr(getattr(oracles, name, None), "__module__", None) for name in (*REMOVED_DENSE, "projection")}
    assert [name for name, home in homes.items() if home != oracles.__name__] == []


@pytest.mark.parametrize("module", [symfusion, fusion, tableaux], ids=lambda m: m.__name__)
def test_certify_is_the_one_way_into_pair_geometry(module):
    assert [name for name in REMOVED_ANALYSIS if hasattr(module, name)] == []
    assert not set(REMOVED_ANALYSIS) & set(symfusion.__all__)


def test_the_analysis_views_live_in_the_oracle():
    homes = {name: getattr(getattr(oracles, name, None), "__module__", None) for name in REMOVED_ANALYSIS}
    assert [name for name, home in homes.items() if home != oracles.__name__] == []


@pytest.mark.parametrize("module", [symfusion, errors, oracles], ids=lambda m: m.__name__)
def test_errors_that_nothing_raises_are_gone(module):
    assert [name for name in REMOVED_ERRORS if hasattr(module, name)] == []


def test_every_oracle_name_is_called_by_a_test():
    sources = "\n".join(
        path.read_text() for path in TESTS.glob("test_*.py") if path.name != Path(__file__).name
    )
    defined = [name for name, value in vars(oracles).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == oracles.__name__]
    assert defined
    unused = [name for name in defined if not re.search(rf"\b{name}\b", sources)]
    assert unused == []
