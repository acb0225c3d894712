"""Exact Dolbeault cohomology dimensions for the catalog models.

Weighted projective spaces are handled by lattice-point counting: sections of
the degree-d bundle are the monomials with weighted degree exactly d.  Middle
cohomology vanishes on weighted projective spaces (standard fact, recorded in
the README); top cohomology comes from Serre duality.  Torus quotients are
cross-filled from the spectral kernel counts of the discretized Kodaira
Laplacian, which are exact for the shipped flat models.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .catalog import _check_weights
from .errors import UnsupportedModelError
from .spectral import torus_kernel_dimension


def weighted_proj_h0(weights, d):
    """Number of monomials of weighted degree exactly d (coin-problem count).

    Dynamic programming over the weights; O(len(weights) * d) time.  Negative
    degrees have no sections.  The count is exact at every degree.
    """
    ws = _check_weights(weights)
    d = int(d)
    if d < 0:
        return 0
    # The coin recurrence counts[t] += counts[t - w] in increasing t is a
    # cumulative sum along each residue class mod w.  Every partial count is
    # at most C(d + n, n), the count with all n + 1 weights equal to 1; where
    # that bound overflows int64 the sums run on exact Python integers.
    n = len(ws) - 1
    exact = math.comb(d + n, n) > np.iinfo(np.int64).max
    counts = np.zeros(d + 1, dtype=object if exact else np.int64)
    counts[0] = 1
    for w in ws:
        for r in range(min(w, d + 1)):
            np.cumsum(counts[r::w], out=counts[r::w])
    return int(counts[d])


def weighted_proj_hq(weights, d, q):
    """h^q of the degree-d bundle on the weighted projective space.

    Middle cohomology (0 < q < n) vanishes; the top degree is Serre-dual to
    h^0 of degree -d - sum(weights).
    """
    ws = _check_weights(weights)
    n = len(ws) - 1
    if q < 0 or q > n:
        raise ValueError(f"degree q={q} outside 0..{n}")
    if q == 0:
        return weighted_proj_h0(ws, d)
    if q == n:
        return weighted_proj_h0(ws, -int(d) - sum(ws))
    return 0


@dataclass(frozen=True)
class CohomologyTable:
    """Map (p, q) -> h^q(M, L^p) over a power range."""

    entries: dict

    def h(self, p, q):
        return self.entries[(int(p), int(q))]

    def morse_sum(self, p, q):
        """sum_{j <= q} (-1)^j h^j."""
        return sum((-1) ** j * self.h(p, j) for j in range(q + 1))

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "q", "h"])
        for (p, q) in sorted(self.entries):
            writer.writerow([p, q, self.entries[(p, q)]])
        return buf.getvalue()


def cohomology_table(orb, p_range):
    """Exact cohomology table of a catalog entry over a range of powers.

    For weighted projective models the entries are lattice counts; torus
    quotients take their kernel dimensions from the exact closed-form count
    of the spectral module.
    """
    p_values = tuple(int(p) for p in p_range)
    if orb.catalog_id == "wps":
        ws = orb.params["weights"]
        if orb.params.get("dent"):
            raise UnsupportedModelError(
                "cohomology tables require the unperturbed bundle metric")
        entries = {}
        for p in p_values:
            for q in range(len(ws)):
                entries[(p, q)] = weighted_proj_hq(ws, p, q)
        return CohomologyTable(entries)
    if orb.catalog_id == "torus":
        d, k = orb.params["d"], orb.params["k"]
        entries = {}
        for p in p_values:
            for q in (0, 1):
                entries[(p, q)] = torus_kernel_dimension(d, k, p, q)
        return CohomologyTable(entries)
    raise UnsupportedModelError(
        f"no exact cohomology is available for catalog id {orb.catalog_id!r}")
