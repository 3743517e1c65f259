"""The benchmark's own scoring oracle: a numpy walk over the generator's
node arrays (:class:`gen.TreeArrays`), independent of the program.

The rules are the model format's: a row goes left iff
``x[fid] < threshold`` in float32, so ties, NaN and +inf go right; each
tree contributes ``weight * leaf`` in float64, summed in tree order.
"""

from __future__ import annotations

import numpy as np


def predict(trees, matrix) -> np.ndarray:
    """Score every row of ``matrix`` (n x f) against ``trees``."""
    x = np.asarray(matrix, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"expected an n x f matrix, got shape {x.shape}")
    rows = np.arange(x.shape[0])
    acc = np.zeros(x.shape[0], dtype=np.float64)
    for tree in trees:
        node = np.zeros(x.shape[0], dtype=np.int64)
        fid = tree.fid[node]
        inner = fid >= 0
        while inner.any():
            go_left = x[rows, np.where(inner, fid, 0)] < tree.value[node]
            child = np.where(go_left, tree.left[node], tree.right[node])
            node = np.where(inner, child, node)
            fid = tree.fid[node]
            inner = fid >= 0
        acc += tree.weight * tree.value[node].astype(np.float64)
    return acc
