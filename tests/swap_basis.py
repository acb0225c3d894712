"""Dense reference for the half-turn quotient: explicit signed-swap bases.

The package keeps only the multiplicity of each Landau level; the tests
build the invariant states themselves and check the closed forms against
them.
"""

import math

import numpy as np


def invariant_basis(D, sign):
    """Orthonormal basis of the +1 eigenspace of v_j -> sign * v_{-j} on C^D.

    Returns an array of shape (m, D) whose rows are the invariant vectors.
    """
    rows = []
    seen = set()
    for j in range(D):
        jj = (-j) % D
        if j in seen:
            continue
        seen.add(j)
        seen.add(jj)
        e = np.zeros(D)
        if j == jj:
            if sign > 0:
                e[j] = 1.0
                rows.append(e)
        else:
            if sign > 0:
                e[j] = e[jj] = 1.0 / math.sqrt(2.0)
            else:
                e[j] = 1.0 / math.sqrt(2.0)
                e[jj] = -1.0 / math.sqrt(2.0)
            rows.append(e)
    if not rows:
        return np.zeros((0, D))
    return np.vstack(rows)
