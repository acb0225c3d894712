"""Exact Dolbeault cohomology dimensions for the catalog models.

Weighted projective spaces are handled by lattice-point counting: sections of
the degree-d bundle are the monomials with weighted degree exactly d.  The
catalog's weighted projective models are the curves P(a, b), whose h^1 is
h^0 of the Serre-dual degree -d - a - b (standard fact, recorded in the
README).  On P(a, b) the monomials of one degree are an arithmetic
progression of exponents (``_wps_exponents``), so a table takes each entry
from its own progression, in O(a) integer steps and with no array.
``weighted_proj_h0`` counts for any number of weights by a coin-problem DP,
the second route to the same counts.  Torus quotients are cross-filled from
the spectral kernel counts of the discretized Kodaira Laplacian, which are
exact for the shipped flat models.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .catalog import _check_weights
from .errors import ConfigurationError, UnsupportedModelError
from .spectral import torus_kernel_dimension

LATTICE_DP_MAX = 2 ** 24    # largest degree the coin DP tabulates (128 MiB of int64)


def _refuse_beyond_dp(top):
    """Refuse a degree beyond LATTICE_DP_MAX, before anything is allocated."""
    if top > LATTICE_DP_MAX:
        raise ConfigurationError(
            f"lattice counts up to degree {top} exceed the coin DP's bound "
            f"of {LATTICE_DP_MAX}")


def _wps_exponents(weights, p):
    """Exponents m of the monomials z^m of degree p on the first chart of P(a, b).

    The m >= 0 with (p - b m) / a a non-negative integer are a progression of
    step a / gcd(a, b), whose first term takes fewer than a steps to find.
    """
    a, b = weights
    step, top = a // math.gcd(a, b), p // b
    first = next((m for m in range(min(step, top + 1)) if (p - b * m) % a == 0), top + 1)
    return range(first, top + 1, step)


def weighted_proj_h0(weights, d):
    """Number of monomials of weighted degree exactly d (coin-problem count).

    Dynamic programming over the weights; O(len(weights) * d) time.  Negative
    degrees have no sections.  The count is exact at every degree, and a
    degree beyond LATTICE_DP_MAX is refused before the DP allocates.
    """
    ws = _check_weights(weights)
    d = int(d)
    if d < 0:
        return 0
    _refuse_beyond_dp(d)
    # The coin recurrence counts[t] += counts[t - w] in increasing t is a
    # cumulative sum along each residue class mod w.  Every partial count is
    # at most C(d + n, n), the count with all n + 1 weights equal to 1;
    # where that bound overflows int64 the sums run on exact Python integers.
    n = len(ws) - 1
    exact = math.comb(d + n, n) > np.iinfo(np.int64).max
    counts = np.zeros(d + 1, dtype=object if exact else np.int64)
    counts[0] = 1
    for w in ws:
        for r in range(min(w, d + 1)):
            np.cumsum(counts[r::w], out=counts[r::w])
    return int(counts[d])


class CohomologyTable(NamedTuple):
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

    For weighted projective models each entry is the length of one
    progression of monomials, which depends on the holomorphic bundle alone,
    whatever its metric (a dent); a degree beyond LATTICE_DP_MAX is refused,
    as the coin DP refuses it.  Torus quotients take their kernel dimensions
    from the exact closed-form count of the spectral module.
    """
    p_values = tuple(int(p) for p in p_range)
    if orb.catalog_id == "wps":
        # h^0 at degree p, and h^1 as h^0 at the Serre-dual degree -p - a - b,
        # each the length of its own progression of monomials
        a, b = _check_weights(orb.params["weights"])
        degrees = {(p, q): -p - a - b if q else p for p in p_values for q in (0, 1)}
        # the table stops where its second route, the coin DP, stops
        _refuse_beyond_dp(max([-1, *degrees.values()]))
        return CohomologyTable({key: len(_wps_exponents((a, b), d))
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
