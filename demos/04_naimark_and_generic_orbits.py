"""Naimark complements and the generic matrix-orbit builder.

Every tight fusion frame with d < rn has a complement on rn - d dimensions
realized from its fusion Gram; complementation preserves equi-isoclinism and
is an involution at the Gram level.  The generic builder orbits any isometry
under word-products of user-supplied unitaries, with certification as the
only arbiter; here it rebuilds the three Mercedes-Benz lines from the
2-dimensional representation of S_3.
"""

import numpy as np

from symfusion import (
    Partition,
    certify,
    cross_gram,
    generic_orbit_ensemble,
    naimark_complement,
    single_layer_ensemble,
)

base = single_layer_ensemble(Partition((3, 2, 1)), Partition((3, 1, 1)))
comp = naimark_complement(base)
double = naimark_complement(comp)

print("base:      ", certify(base).summary().splitlines()[0])
print("complement:", certify(comp).summary().splitlines()[0])
pairs = [(i, j) for i in range(1, base.n + 1) for j in range(1, base.n + 1)]
drift = max(np.max(np.abs(cross_gram(double, i, j) - cross_gram(base, i, j))) for i, j in pairs)
print(f"double-complement Gram drift: {drift:.2e}")
print()

rot = np.array([[-1.0, -np.sqrt(3.0)], [np.sqrt(3.0), -1.0]]) / 2  # order 3
flip = np.diag([1.0, -1.0])
mercedes = generic_orbit_ensemble(
    {"r": rot, "f": flip},
    [["r"], ["r", "r"], []],
    np.array([[0.0], [1.0]]),
)
print("generic orbit of span{(0,1)} under the 2-dim S_3 representation:")
print(certify(mercedes).summary())
print("line directions:")
for k, block in enumerate(mercedes.blocks, start=1):
    print(f"  W_{k}: {np.round(block.ravel(), 6)}")
