"""Reference fibre angles by rational arithmetic.

An element of character c of Z_k acts on the fibre of L^p by e^{2 pi i f}
with f = c p / k mod 1.  The package reduces c p mod k in integers
(``geometry.fibre_angles``); the tests take f as a ``Fraction`` and reduce it
into (-1/2, 1/2], a second route to the same residue at any p.
"""

import math
from fractions import Fraction


def fraction_angle(c, k, p):
    """The angle 2 pi f in (-pi, pi] of f = c p / k mod 1, with f reduced as a
    Fraction and only the residue k f, an integer, turned into a float."""
    f = Fraction(c * p, k) % 1
    if f == Fraction(1, 2):
        return math.pi
    if f > Fraction(1, 2):
        f -= 1
    return 2.0 * math.pi * int(f * k) / k
