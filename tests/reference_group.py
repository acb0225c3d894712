"""Per-element reference for the chart groups: one record per element.

The package builds ``cyclic_group`` as one record of (k, n) arrays; the
tests build the elements g^m one at a time, each from its own exponents, and
check the record against them row by row.
"""

from typing import NamedTuple

import numpy as np


class GroupElement(NamedTuple):
    """One element g^m of a cyclic chart group: diagonal rotation plus character.

    rotation : the diagonal e^{2 pi i w_j m / k} of the action on the chart
        coordinates.
    fixed : per coordinate, whether the element fixes it, (w_j m) mod k == 0
        in exact integers.
    character : the integer (c m) mod k by which the element acts on the
        line bundle fiber.
    """

    rotation: np.ndarray
    fixed: np.ndarray
    character: int

    @property
    def is_identity(self):
        return bool(self.fixed.all())


def reference_group(order, weights, character=0):
    """The k elements g^m, m = 0..k-1, of the group generated by
    diag(e^{2 pi i w_j / k}), each built alone from the exponents
    (w_j m) mod k in Python integers.  The weights are taken as effective."""
    elements = []
    for m in range(order):
        exponents = np.array([w * m % order for w in weights], dtype=np.int64)
        elements.append(GroupElement(rotation=np.exp(2j * np.pi * exponents / order),
                                     fixed=exponents == 0, character=character * m % order))
    return tuple(elements)
