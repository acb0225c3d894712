"""Exhaustive enumeration oracle for the weighted lattice counts.

The package counts the sections of the degree-d bundle by the coin
recurrence in ``cohomology.weighted_proj_h0``; the tests enumerate the
monomials one at a time at small degrees and compare.
"""

BRUTE_FORCE_LIMIT = 10_000   # the enumeration is reserved for small degrees


def weighted_proj_h0_bruteforce(weights, d):
    """Number of monomials of weighted degree exactly d, by enumeration."""
    ws = tuple(int(w) for w in weights)
    d = int(d)
    if d < 0:
        return 0
    if d > BRUTE_FORCE_LIMIT:
        raise ValueError("brute-force oracle is reserved for small degrees")

    def count(rem, idx):
        if idx == len(ws) - 1:
            return 1 if rem % ws[idx] == 0 else 0
        return sum(count(rem - m * ws[idx], idx + 1)
                   for m in range(rem // ws[idx] + 1))

    return count(d, 0)
