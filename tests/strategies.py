"""Hypothesis strategies shared by the property tests.

Kept out of conftest.py, which the benchmark harness imports: importing
Hypothesis there would grow the harness, and with it the peak RSS the
benchmark reads from the processes it starts.
"""

from hypothesis import strategies as st

# Any value json.dumps can write, NaN and infinities included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
