"""Shared hypothesis strategies for admissible measurement schedules."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from qcpd import Overlap, StrengthSchedule
from qcpd.kernels import _SETTLE_RUN


def overlaps(min_value: float = 0.0, max_value: float = 0.9):
    return st.floats(
        min_value=min_value,
        max_value=max_value,
        allow_nan=False,
        allow_infinity=False,
    )


@st.composite
def schedules(draw, max_n: int = 8, max_c: float = 0.9):
    """Random admissible schedule (strengths capped at 3 for numeric room)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    c = draw(overlaps(max_value=max_c))
    lo = c if c > 0.0 else 0.05
    hi = min(1.0 / c, 3.0) if c > 0.0 else 3.0
    xs = tuple(
        draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
        for _ in range(n - 1)
    )
    return StrengthSchedule(n=n, strengths=xs, overlap=Overlap(c))


@st.composite
def settled_schedules(draw, max_c: float = 0.95):
    """``(c, xs)``: a random head of up to 4 strengths, then one to three
    runs of one strength each, every run followed by up to 3 random ones.

    A run's strength is ``c``, ``1/c``, ``1+c`` or random, and its length
    ``_SETTLE_RUN`` - 1, + 0, + 1 or + 2, or up to three times that: so
    runs fall on both sides of the length the one-schedule kernel settles
    from, and the rest of a settled run has either parity.
    """
    c = draw(overlaps(max_value=max_c))
    lo = c if c > 0.0 else 0.05
    hi = min(1.0 / c, 3.0) if c > 0.0 else 3.0
    strength = st.floats(min_value=lo, max_value=hi, allow_nan=False)
    xs = draw(st.lists(strength, max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.one_of(st.sampled_from([lo, hi, min(1.0 + c, hi)]), strength))
        length = draw(
            st.one_of(
                st.sampled_from([_SETTLE_RUN + d for d in (-1, 0, 1, 2)]),
                st.integers(1, 3 * _SETTLE_RUN),
            )
        )
        xs += [x] * length + draw(st.lists(strength, max_size=3))
    return c, np.array(xs)
