"""Tight fusion frames with symmetric- and alternating-group symmetry.

The package splits into combinatorics (partitions, and standard tableaux as
word and content arrays), the sparse S_n action and the A_n eigenspace bases
built on it, ensemble analysis against the Welch bounds, and the construction
recipes plus their exact rational certificates.
"""

from .tableaux import (
    Box,
    Partition,
    diagonal_count,
    dimension,
    down_set,
    is_symmetric,
    partitions_of,
    transpose,
    up_set,
)
from .permutations import (
    Permutation,
    permutation_word,
    transversal_an,
    transversal_sn,
)
from .symrep import rep_apply, rep_matrix
from .altrep import field_for
from .fusion import (
    CertificationReport,
    FusionEnsemble,
    certify,
    cross_gram,
    naimark_complement,
    tightness_residual,
    welch_alpha,
    welch_bounds,
)
from .constructions import (
    ExactIsoclinicCertificate,
    LayerSelection,
    alternating_ensemble,
    alternating_parameters,
    an_table,
    classify_single_layer,
    decomposition_check,
    distance_condition,
    four_part_family,
    generic_orbit_ensemble,
    isoclinic_certificate,
    multi_layer_ensemble,
    search_isoclinic,
    single_layer_ensemble,
    single_layer_parameters,
    single_layer_shapes,
    sn_table,
    three_part_family,
)
from .ensemble_io import load_ensemble, save_ensemble

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Partition",
    "Permutation",
    "FusionEnsemble",
    "CertificationReport",
    "LayerSelection",
    "ExactIsoclinicCertificate",
    "alternating_ensemble",
    "alternating_parameters",
    "an_table",
    "certify",
    "classify_single_layer",
    "cross_gram",
    "decomposition_check",
    "diagonal_count",
    "dimension",
    "distance_condition",
    "down_set",
    "field_for",
    "four_part_family",
    "generic_orbit_ensemble",
    "is_symmetric",
    "isoclinic_certificate",
    "load_ensemble",
    "multi_layer_ensemble",
    "naimark_complement",
    "partitions_of",
    "permutation_word",
    "rep_apply",
    "rep_matrix",
    "save_ensemble",
    "search_isoclinic",
    "single_layer_ensemble",
    "single_layer_parameters",
    "single_layer_shapes",
    "sn_table",
    "three_part_family",
    "tightness_residual",
    "transpose",
    "transversal_an",
    "transversal_sn",
    "up_set",
    "welch_alpha",
    "welch_bounds",
]
