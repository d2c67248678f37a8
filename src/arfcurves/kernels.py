"""Integer-grid kernels for the min and sum good-semigroup checks.

Nothing in the package imports this module: good_semigroup checks the
axioms on the member set.  It is kept because the benchmark's grid cases
call these kernels directly.  Each check is one vectorized numpy function.

Conventions: a membership grid over the box [0, delta] is passed as a
flattened C-order boolean array plus its element strides, so a vector v
sits at flat index sum(v[c] * strides[c]).  Checks return the encoded
position of the lexicographically first violation, or -1 when the
property holds.
"""

import numpy as np


def flat_strides(dims):
    """C-order element strides for a box with the given axis sizes."""
    d = len(dims)
    strides = np.ones(d, dtype=np.int64)
    for c in range(d - 2, -1, -1):
        strides[c] = strides[c + 1] * dims[c + 1]
    return strides


def first_min_violation(small, grid, strides):
    """First pair i < j whose componentwise min is missing, as i * n + j."""
    n = small.shape[0]
    for i in range(n):
        rest = small[i + 1:]
        if rest.size == 0:
            continue
        ok = grid[np.minimum(small[i], rest) @ strides]
        bad = np.flatnonzero(~ok)
        if bad.size:
            return i * n + (i + 1 + int(bad[0]))
    return -1


def first_sum_violation(small, grid, strides, delta):
    """First pair i <= j whose sum, capped at delta, is missing, as i * n + j."""
    n = small.shape[0]
    for i in range(n):
        ok = grid[np.minimum(small[i] + small[i:], delta) @ strides]
        bad = np.flatnonzero(~ok)
        if bad.size:
            return i * n + (i + int(bad[0]))
    return -1

