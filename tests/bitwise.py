"""A bit-for-bit comparison of float arrays, shared by the reference tests."""

import numpy as np


def same_bits(a, b):
    """Equal NaN positions, and equal bytes (so equal signs of zero) everywhere else."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()
