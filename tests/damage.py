"""Hypothesis strategy for damaged files, shared by the loader property tests."""

from hypothesis import strategies as st


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """``blob`` cut short at any byte, or with any one byte set to any value."""
    at = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        return blob[:at]
    return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1 :]
