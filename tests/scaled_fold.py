"""Term-by-term reference for the log-scaled image sums.

The package sums the image terms in one max-shifted array pass
(``kernels.log_sum_exp``); the tests fold the same terms one pair at a time
and check that both routes agree.  A value is a (log|value|, phase) pair, so
it keeps its digits far below the float underflow threshold; zero is
(-inf, 0.0).
"""

import cmath
import math

ZERO = (-math.inf, 0.0)


def from_complex(z):
    """The ordinary complex number z as a (log|z|, phase) pair."""
    z = complex(z)
    if z == 0:
        return ZERO
    return math.log(abs(z)), cmath.phase(z)


def add(x, y):
    """x + y on the larger of the two log scales, renormalized."""
    if x[0] == -math.inf:
        return y
    if y[0] == -math.inf:
        return x
    (hi_abs, hi_phase), (lo_abs, lo_phase) = (x, y) if x[0] >= y[0] else (y, x)
    m = cmath.exp(1j * hi_phase) + cmath.exp(1j * lo_phase) * math.exp(lo_abs - hi_abs)
    mag = abs(m)
    if mag == 0.0:
        return ZERO
    return hi_abs + math.log(mag), cmath.phase(m)


def fold(terms):
    """Sum of the (label, log|term|, phase) triples, in order."""
    total = ZERO
    for _, log_abs, phase in terms:
        total = add(total, (float(log_abs), float(phase)))
    return total
