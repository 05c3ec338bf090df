"""Reference definitions that only the tests use: independent statements of
what the package's kernels compute, kept out of the package."""

import numpy as np


def ruler_levels(n, k, cap):
    """The level of each state 0..n of the ruler hierarchy: how many times k
    divides the state, at most ``cap`` unless it is negative; -1 for state 0.
    The multiples of k**x are the states at level x or above, so each level
    is one strided write."""
    levels = np.zeros(n + 1, dtype=np.int32)
    power, x = k, 1
    while power <= n and (cap < 0 or x <= cap):
        levels[::power] = x
        power *= k
        x += 1
    levels[0] = -1
    return levels
