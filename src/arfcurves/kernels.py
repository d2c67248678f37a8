"""Integer-grid kernels for the good-semigroup axiom checks.

Each check is one vectorized numpy function.

Conventions: a membership grid over the box [0, delta] (or [0, delta+1] for
the padded grid used by the pair-lifting check) is passed as a flattened
C-order boolean array plus its element strides, so a vector v sits at flat
index sum(v[c] * strides[c]).  Checks return the encoded position of the
lexicographically first violation, or -1 when the property holds.
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


def first_lift_violation(small, ext, ext_dims):
    """First (pair i < j, pivot) without a lifting witness, as (i * n + j) * d + pivot.

    Pair-lifting axiom: for members a != b agreeing at a pivot coordinate,
    some member must exceed both at the pivot, equal min(a, b) where they
    differ, and dominate them where they agree.  Witnesses are complete
    inside the padded box, so each query is one slice of it.
    """
    n, d = small.shape
    ext_nd = ext.reshape(tuple(int(s) for s in ext_dims))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = small[i], small[j]
            eq = a == b
            if not eq.any():
                continue
            m = np.minimum(a, b)
            for pivot in np.flatnonzero(eq):
                index = tuple(
                    slice(int(a[c]) + (1 if c == pivot else 0), None) if eq[c]
                    else int(m[c])
                    for c in range(d))
                if not ext_nd[index].any():
                    return (i * n + j) * d + int(pivot)
    return -1
