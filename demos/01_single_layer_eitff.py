"""Single-layer constructions: orbiting one branching component of an S_n irrep.

Pick a partition lam of n and remove one box to get mu.  The branching
component of mu inside the lam-representation is a subspace whose orbit under
a point transversal is always a tight fusion frame with full S_n symmetry;
for the right diagram shapes it is equi-isoclinic and meets the spectral
Welch bound with equality.
"""

import numpy as np

from symfusion import (
    Partition,
    certify,
    classify_single_layer,
    single_layer_ensemble,
    welch_bounds,
)

for lam_parts, mu_parts in [((3, 2), (2, 2)), ((3, 2, 1), (3, 1, 1)), ((4, 2, 2), (3, 2, 2))]:
    lam, mu = Partition(lam_parts), Partition(mu_parts)
    family = classify_single_layer(lam, mu)
    ensemble = single_layer_ensemble(lam, mu)
    report = certify(ensemble)

    print(f"lambda = ({lam}), mu = ({mu})  ->  family {family.kind}")
    print(report.summary())
    i, j, angles = report.principal_angles[0]  # the report lists the pairs i < j in order
    print(f"  principal angles (pair {i},{j}): {np.round(np.degrees(angles), 6)} degrees")
    spectral, chordal = welch_bounds(ensemble.d, ensemble.r, ensemble.n)
    print(f"  Welch bounds: spectral {spectral:.12f}, chordal {chordal:.12f}")
    if report.classification == "EITFF":
        print("  -> optimal spectral-distance packing (Welch bound met exactly)")
    else:
        print("  -> equi-chordal but not equi-isoclinic: the two removable")
        print("     boxes of mu sit at unequal |axial distance| from the added box")
    print()
