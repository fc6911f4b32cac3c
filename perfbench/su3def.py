"""su(3) in its fundamental representation, written as an algebra definition file.

The basis is the Gell-Mann set in Cartan-Weyl order [l3, l8, l1, l4, l6, l2,
l5, l7]: the diagonal l3 and l8 span the Cartan subalgebra, and each root is
housed by a real/imaginary pair ((l1, l2), (l4, l5), (l6, l7)).  The file
follows the JSON format `gcsynth.load_algebra` reads, so loading it runs the
loader's full validation on an algebra that is not in the catalog.
"""

import json

import numpy as np


def gell_mann():
    """The eight Gell-Mann matrices l1..l8, with Tr(l_a l_b) = 2 delta_ab."""
    mats = np.zeros((8, 3, 3), dtype=complex)
    # (l1, l2), (l4, l5), (l6, l7): symmetric and antisymmetric on entry (j, k).
    for sym, asym, j, k in ((0, 1, 0, 1), (3, 4, 0, 2), (5, 6, 1, 2)):
        mats[sym, j, k] = mats[sym, k, j] = 1.0
        mats[asym, j, k], mats[asym, k, j] = -1j, 1j
    mats[2] = np.diag([1.0, -1.0, 0.0])
    mats[7] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
    return mats


ORDER = (2, 7, 0, 3, 5, 1, 4, 6)  # l3, l8, l1, l4, l6, l2, l5, l7 (0-based)


def su3_definition():
    mats = gell_mann()[list(ORDER)]
    return {
        "name": "su3",
        "rep_dim": 3,
        "normalization": 2.0,
        "csa": [0, 1],
        "root_pairs": [[2, 5], [3, 6], [4, 7]],
        "basis": [[[[float(z.real), float(z.imag)] for z in row] for row in m]
                  for m in mats],
    }


def write_su3(path):
    with open(path, "w") as fh:
        json.dump(su3_definition(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
