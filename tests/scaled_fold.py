"""Term-by-term reference for the log-scaled image sums.

The package sums the image terms in one max-shifted array pass
(``kernels.log_sum_exp``); the tests fold the same terms one pair at a time
and check that both routes agree.
"""

import math

from orbmorse.kernels import ScaledComplex


def from_complex(z):
    """The ordinary complex number z as a ScaledComplex."""
    z = complex(z)
    if z == 0:
        return ScaledComplex(0.0j, -math.inf)
    return ScaledComplex(z / abs(z), math.log(abs(z)))


def add(x, y):
    """x + y on the larger of the two log scales, renormalized."""
    if x.log_scale == -math.inf:
        return y
    if y.log_scale == -math.inf:
        return x
    hi, lo = (x, y) if x.log_scale >= y.log_scale else (y, x)
    m = hi.mantissa + lo.mantissa * math.exp(lo.log_scale - hi.log_scale)
    mag = abs(m)
    if mag == 0.0:
        return ScaledComplex(m, -math.inf)
    return ScaledComplex(m / mag, hi.log_scale + math.log(mag))


def fold(terms):
    """Sum of the ScaledComplex terms of (label, term) pairs, in order."""
    total = ScaledComplex(0.0j, -math.inf)
    for _, term in terms:
        total = add(total, term)
    return total
