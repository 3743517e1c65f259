"""The in-process evaluation strategies, each built as one Evaluator.

Six strategy kinds exist; five are built here and the sixth (``generated``,
compiled from emitted C) lives in :mod:`treescore.codegen` and is an
Evaluator too.  All strategies are built from the same
:class:`~treescore.model.Ensemble`, share the split rule (go left only
when ``x < threshold``, so ties and NaN go right), narrow node data to
float32, and accumulate scores in float64 in tree order, so their outputs
are bit-identical.

heap_linked
    The deliberately naive object graph: one individually allocated object
    per node, of one of two types (internal node or leaf), each step
    dispatched through the object's own type as a virtual call.  No
    pooling, no packing.
compact_linked
    One compact record per node, individually allocated in breadth-first
    order and pointer-chased by a tight iterative loop.
contiguous
    All nodes packed into one array of 16-byte entries in breadth-first
    order, tightly (unbalanced trees occupy exactly ``node_count`` slots;
    children sit at stored byte offsets rather than computed ones).
predicated
    The nodes in the breadth-first order of ``contiguous``, as 16-byte
    entries that hold only the left child's index (the right child
    follows it), and leaves that loop to themselves; the branch-free
    index update
    ``i = left[i] + 1 - (x[fid[i]] < theta[i])`` is applied ``d`` times,
    one instance at a time, so a lane that reaches a leaf early stays on
    it.  It takes trees of any depth.
vpredicated
    The same index update applied to ``v`` instances in lockstep, one tree
    level per step.  ``v=1`` reduces to the predicated path.  The rows of
    a short block (all of a call of fewer than ``v`` rows, else the last
    ``n mod v``) are never padded with fabricated instances: each is
    scored on its own, 8 of its trees in lockstep at a time, with the
    leaves added in tree order (an ensemble of fewer than 8 trees gives
    the block fewer row lanes instead).

All five strategies built here score whole ensembles in the native
kernels of :mod:`treescore.native`, so that their comparisons measure
dispatch, object size, layout, branches and lockstep rather than the
interpreter; predicated is the lockstep kernel with one lane.
:mod:`treescore.native` packs their tables and binds their kernels; this
module wraps each bound kernel, as it wraps the entry point of a
``generated`` unit, in an :class:`Evaluator`.  Like ``generated``
they need a C compiler and the Python headers: without either,
:func:`build` raises :class:`~treescore.codegen.CompilerNotFoundError`,
and only :func:`~treescore.model.reference_predict` (and
:func:`reference_batch`) score.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import native
from .model import Ensemble, reference_predict


class StrategyKind(enum.Enum):
    HEAP_LINKED = "heap_linked"
    COMPACT_LINKED = "compact_linked"
    CONTIGUOUS = "contiguous"
    PREDICATED = "predicated"
    VPREDICATED = "vpredicated"
    GENERATED = "generated"

    def __str__(self):
        return self.value


ALL_STRATEGIES = tuple(StrategyKind)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

class Evaluator:
    """A built, immutable prediction strategy: a native kernel bound to its
    model.

    Every strategy scores through two calls: ``predict(x)``, the score of
    one feature vector, and ``predict_batch(data)``, a float64 array of
    the score of every row.  Both are the methods of ``kernel``, a binding
    of :mod:`treescore.native`, so a request runs no Python frame: the
    binding checks the input, scores it and allocates the output in C, and
    hands any input it cannot score as it is to
    :func:`treescore.native.as_rows`.  Both are pure and safe to call from
    multiple threads.  ``stored_node_count`` is the number of table
    entries or node objects the kernel's model stores, and ``table_bytes``
    the bytes of every array and object it points to (0 for
    ``generated``, whose model is machine code).  For the predicated pair
    ``stored_node_count`` is the 2^(d+1) - 1 nodes of each tree's
    complete tree, whose d levels every lane steps through (a leaf above
    the bottom level loops to itself for the steps left), because the
    benchmark in ``perfbench/`` checks that figure; it becomes the logical
    count when the benchmark does.  No complete tree is built, so past
    :data:`~treescore.model.MAX_DEPTH` levels it counts nodes that
    :func:`~treescore.model.expand_to_complete` would refuse to build.
    Their ``table_bytes`` is the physical size, one 16-byte entry per node.
    """

    # A constant, kept because the benchmark in ``perfbench/`` reads it on
    # every run.
    native = True

    def __init__(self, kind: StrategyKind, ensemble: Ensemble, kernel,
                 stored_node_count: int, batch_size: int | None = None,
                 table_bytes: int = 0):
        self.kind = kind
        self.num_features = ensemble.num_features
        self.num_trees = len(ensemble.trees)
        self.batch_size = batch_size
        self.stored_node_count = stored_node_count
        self.table_bytes = table_bytes
        self.predict = kernel.predict
        self.predict_batch = kernel.predict_batch

    def __repr__(self):
        return f"{type(self).__name__}(kind={self.kind}, trees={self.num_trees})"


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

def build(ensemble: Ensemble, kind, batch_size: int | None = None) -> Evaluator:
    """Build an evaluator of the given kind from an ensemble.

    ``batch_size`` applies to (and is required by) ``vpredicated`` only.
    Every kind runs native code and raises
    :class:`~treescore.codegen.CompilerNotFoundError` without a host
    compiler or the Python headers.  ``generated`` evaluators are built by
    :func:`treescore.codegen.build_generated`.  No kind limits the depth
    of a tree.
    """
    kind = StrategyKind(kind)
    if kind is StrategyKind.GENERATED:
        raise ValueError(
            "generated evaluators are compiled; use treescore.codegen.build_generated"
        )
    if kind is StrategyKind.VPREDICATED:
        if batch_size is None:
            raise ValueError("vpredicated requires a batch_size (v >= 1)")
        batch_size = int(batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    elif batch_size is not None:
        raise ValueError(f"batch_size does not apply to {kind.value}")
    kernel, entries, table_bytes = native.layout_kernel(
        ensemble, kind.value, batch_size or 1)
    return Evaluator(kind, ensemble, kernel, entries, batch_size, table_bytes)


# ---------------------------------------------------------------------------
# Traced prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TracedPrediction:
    score: float
    visited_features: frozenset
    visited_leaves: tuple


def predict_ensemble_traced(ensemble: Ensemble, x) -> TracedPrediction:
    """Score ``x`` while recording which features the traversals examined.

    ``visited_features`` is the union of feature ids on the root-to-leaf
    path taken in every tree.  ``visited_leaves`` holds one left-to-right
    leaf ordinal per tree.  The score equals the untraced prediction
    exactly.
    """
    visited: set = set()
    leaves = []
    acc = 0.0
    for tree, weight in ensemble.trees:
        node = tree.root
        while node.left is not None:
            visited.add(node.fid)
            if float(x[node.fid]) < node.threshold:
                node = node.left
            else:
                node = node.right
        leaves.append(tree.leaf_ordinal(node))
        acc += weight * node.value
    return TracedPrediction(acc, frozenset(visited), tuple(leaves))


def reference_batch(ensemble: Ensemble, matrix) -> np.ndarray:
    """Reference traversal applied row by row; the correctness-gate oracle."""
    matrix = np.asarray(matrix, dtype=np.float32)
    out = np.empty(matrix.shape[0], dtype=np.float64)
    for i in range(matrix.shape[0]):
        out[i] = reference_predict(ensemble, matrix[i])
    return out
