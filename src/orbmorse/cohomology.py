"""Exact Dolbeault cohomology dimensions for the catalog models.

Weighted projective spaces are handled by lattice-point counting: sections of
the degree-d bundle are the monomials with weighted degree exactly d, counted
for any number of weights.  The catalog's weighted projective models are the
curves P(a, b), whose h^1 is h^0 of the Serre-dual degree -d - a - b
(standard fact, recorded in the README).  Torus quotients are
cross-filled from the spectral kernel counts of the discretized Kodaira
Laplacian, which are exact for the shipped flat models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import _check_weights
from .errors import ConfigurationError, UnsupportedModelError
from .spectral import torus_kernel_dimension

LATTICE_DP_MAX = 2 ** 24    # largest degree the coin DP tabulates (128 MiB of int64)


def _lattice_counts(ws, top):
    """counts[d] = number of monomials of weighted degree exactly d, for
    d = 0..top, from one coin-problem DP; O(len(ws) * top) time.  An empty
    array when top < 0, and refused before it allocates beyond LATTICE_DP_MAX."""
    if top > LATTICE_DP_MAX:
        raise ConfigurationError(
            f"lattice counts up to degree {top} exceed the coin DP's bound "
            f"of {LATTICE_DP_MAX}")
    # The coin recurrence counts[t] += counts[t - w] in increasing t is a
    # cumulative sum along each residue class mod w.  Every partial count is
    # at most C(top + n, n), the count with all n + 1 weights equal to 1;
    # where that bound overflows int64 the sums run on exact Python integers.
    n = len(ws) - 1
    exact = math.comb(top + n, n) > np.iinfo(np.int64).max
    counts = np.zeros(max(top + 1, 0), dtype=object if exact else np.int64)
    counts[:1] = 1
    for w in ws:
        for r in range(min(w, top + 1)):
            np.cumsum(counts[r::w], out=counts[r::w])
    return counts


def weighted_proj_h0(weights, d):
    """Number of monomials of weighted degree exactly d (coin-problem count).

    Dynamic programming over the weights; O(len(weights) * d) time.  Negative
    degrees have no sections.  The count is exact at every degree.
    """
    ws = _check_weights(weights)
    d = int(d)
    return int(_lattice_counts(ws, d)[d]) if d >= 0 else 0


@dataclass(frozen=True)
class CohomologyTable:
    """Map (p, q) -> h^q(M, L^p) over a power range."""

    entries: dict

    def h(self, p, q):
        return self.entries[(int(p), int(q))]

    def over(self, p_values):
        """The table of the entries at the powers ``p_values``."""
        keep = {int(p) for p in p_values}
        return CohomologyTable({key: h for key, h in self.entries.items() if key[0] in keep})

    def morse_sum(self, p, q):
        """sum_{j <= q} (-1)^j h^j."""
        return sum((-1) ** j * self.h(p, j) for j in range(q + 1))


def cohomology_table(orb, p_range):
    """Exact cohomology table of a catalog entry over a range of powers.

    For weighted projective models the entries are lattice counts, which
    depend on the holomorphic bundle alone, whatever its metric (a dent);
    torus quotients take their kernel dimensions from the exact closed-form
    count of the spectral module.
    """
    p_values = tuple(int(p) for p in p_range)
    if orb.catalog_id == "wps":
        # one DP up to the largest degree read, then every entry off its array
        a, b = _check_weights(orb.params["weights"])
        # h^0 at degree p, and h^1 as h^0 at the Serre-dual degree -p - a - b
        degrees = {(p, q): -p - a - b if q else p for p in p_values for q in (0, 1)}
        counts = _lattice_counts((a, b), max([-1, *degrees.values()]))
        return CohomologyTable({key: int(counts[d]) if d >= 0 else 0
                                for key, d in degrees.items()})
    if orb.catalog_id == "torus":
        d, k = orb.params["d"], orb.params["k"]
        entries = {}
        for p in p_values:
            for q in (0, 1):
                entries[(p, q)] = torus_kernel_dimension(d, k, p, q)
        return CohomologyTable(entries)
    raise UnsupportedModelError(
        f"no exact cohomology is available for catalog id {orb.catalog_id!r}")
