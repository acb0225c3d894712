"""The dents of P(1,1) that the property tests draw.

Amplitudes up to 1.5 turn the curvature negative on part of the line;
widths and centers keep the dent well inside the first chart.
"""

from hypothesis import strategies as st

DENTS = st.fixed_dictionaries({
    "amplitude": st.floats(0.05, 1.5),
    "width": st.floats(0.1, 0.2),
    "center": st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
})
