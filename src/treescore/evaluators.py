"""The in-process evaluation strategies behind one Evaluator interface.

Six strategy kinds exist; five are built here and the sixth (``generated``,
compiled from emitted C) lives in :mod:`treescore.codegen` but satisfies the
same interface.  All strategies are built from the same
:class:`~treescore.model.Ensemble`, share the split rule (go left only
when ``x < threshold``, so ties and NaN go right), narrow node data to
float32, and accumulate scores in float64 in tree order, so their outputs
are bit-identical.

heap_linked
    The deliberately naive object graph: one plain Python object per node,
    virtual-style dispatch through an ``eval`` method on two polymorphic
    node classes.  The interpreter baseline; no pooling, no packing.
compact_linked
    One compact record per node, individually allocated in depth-first
    order and pointer-chased by a tight iterative loop.
contiguous
    All nodes packed into parallel flat arrays in breadth-first order,
    tightly (unbalanced trees occupy exactly ``node_count`` slots;
    children sit at stored indices rather than computed offsets).
predicated
    Complete-table traversal with the branch-free index update
    ``i = (i << 1) + 2 - (x[fid[i]] < theta[i])`` applied ``d`` times,
    one instance at a time.  Requires dummy-node expansion, so depth is
    capped at :data:`~treescore.model.MAX_DEPTH`.
vpredicated
    The same index update applied to ``v`` instances in lockstep, one tree
    level per step.  ``v=1`` reduces to the predicated path.  Batch
    remainders (the last ``n mod v`` rows) are a shorter block, never
    padded with fabricated instances.

The four table strategies (compact_linked, contiguous, predicated and
vpredicated) score whole ensembles in the native kernels of
:mod:`treescore.native`, so that their comparisons measure layout,
branches and lockstep rather than the interpreter; predicated is the
lockstep kernel with one lane.  Like ``generated`` they need a C
compiler and the Python headers: without either, :func:`build` raises
:class:`~treescore.codegen.CompilerNotFoundError` for them.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import native
from .data import Dataset
from .model import (
    CompleteTree,
    Ensemble,
    Node,
    expand_to_complete,
    reference_predict,
)


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
# Predication index oracles
# ---------------------------------------------------------------------------
#
# Generic loop forms of the branch-free index update, one instance or one
# lockstep batch at a time.  The evaluators score in the native kernel;
# the tests hold these to the reference traversal and to each other.

def leaf_index_predicated(ct: CompleteTree, x) -> int:
    """Branch-free leaf lookup: apply the index update exactly ``d`` times.

    Returns the leaf ordinal ``i - (2^d - 1)`` in ``[0, 2^d)``.
    """
    fids = ct.fids
    thetas = ct.thetas
    i = 0
    for _ in range(ct.depth):
        i = (i << 1) + 2 - (float(x[fids[i]]) < float(thetas[i]))
    return i - ((1 << ct.depth) - 1)


def predicated_index_path(ct: CompleteTree, x) -> list:
    """Traversal-index sequence visited by the scalar kernel (root included)."""
    fids = ct.fids
    thetas = ct.thetas
    i = 0
    path = [0]
    for _ in range(ct.depth):
        i = (i << 1) + 2 - (float(x[fids[i]]) < float(thetas[i]))
        path.append(i)
    return path


def vpredicated_index_paths(ct: CompleteTree, matrix) -> np.ndarray:
    """Per-level traversal indices for a whole batch, shape (d+1, v).

    Row ``k`` holds every instance's traversal index after ``k`` update
    steps of the lockstep batch kernel.
    """
    V = np.ascontiguousarray(matrix, dtype=np.float32)
    v = V.shape[0]
    rows = np.arange(v)
    i = np.zeros(v, dtype=np.intp)
    out = [i.copy()]
    for _ in range(ct.depth):
        i = (i << 1) + 2 - (V[rows, ct.fids[i]] < ct.thetas[i])
        out.append(i.copy())
    return np.stack(out)


# ---------------------------------------------------------------------------
# Evaluator interface
# ---------------------------------------------------------------------------

class Evaluator:
    """A built, immutable prediction strategy derived from an ensemble.

    Subclasses implement ``_predict_row`` (and may override
    ``_predict_into`` for batch-shaped inner loops).  ``predict`` and
    ``predict_batch`` are pure and safe to call from multiple threads.
    """

    kind: StrategyKind
    batch_size = None

    def __init__(self, ensemble: Ensemble):
        self.num_features = ensemble.num_features
        self.num_trees = len(ensemble.trees)

    # -- public API ---------------------------------------------------------

    # The coercion and checks are inline: a call is the fixed cost of every
    # request, and a helper call would add to it.

    def predict(self, x) -> float:
        x = np.ascontiguousarray(x, dtype=np.float32)
        if x.ndim != 1 or x.shape[0] != self.num_features:
            raise ValueError(
                f"feature vector has shape {x.shape}, expected ({self.num_features},)"
            )
        return self._predict_row(x)

    def predict_batch(self, data) -> np.ndarray:
        matrix = data.matrix if isinstance(data, Dataset) else (
            np.ascontiguousarray(data, dtype=np.float32))
        if matrix.ndim != 2 or matrix.shape[1] != self.num_features:
            raise ValueError(
                f"dataset has shape {matrix.shape}, expected "
                f"(n, {self.num_features})"
            )
        out = np.empty(matrix.shape[0])  # float64; no dtype argument to parse
        self._predict_into(matrix, out)
        return out

    @property
    def stored_node_count(self) -> int:
        """Total node-table slots/objects held by this evaluator."""
        raise NotImplementedError

    # -- shared plumbing ------------------------------------------------------

    def _predict_row(self, x) -> float:
        raise NotImplementedError

    def _predict_into(self, matrix, out) -> None:
        # Subclasses override with a loop that binds per-tree structures
        # once per pass instead of once per row; the arithmetic (and hence
        # the bits) is identical either way.
        predict_row = self._predict_row
        for i in range(matrix.shape[0]):
            out[i] = predict_row(matrix[i])

    def __repr__(self):
        return f"{type(self).__name__}(kind={self.kind}, trees={self.num_trees})"


# -- heap_linked --------------------------------------------------------------

class _BoxedInternal:
    # Plain class, per-node dict, recursive virtual-style dispatch: the
    # obvious object-graph implementation, kept naive on purpose.
    def __init__(self, fid, threshold, left, right):
        self.fid = fid
        self.threshold = threshold
        self.left = left
        self.right = right

    def eval(self, x):
        if x[self.fid] < self.threshold:
            return self.left.eval(x)
        return self.right.eval(x)


class _BoxedLeaf:
    def __init__(self, value):
        self.value = value

    def eval(self, x):
        return self.value


class HeapLinkedEvaluator(Evaluator):
    kind = StrategyKind.HEAP_LINKED

    def __init__(self, ensemble: Ensemble):
        super().__init__(ensemble)

        def copy(node: Node):
            if node.is_leaf:
                return _BoxedLeaf(node.value)
            return _BoxedInternal(node.fid, node.threshold,
                                  copy(node.left), copy(node.right))

        self._trees = tuple((copy(t.root), w) for t, w in ensemble.trees)
        self._node_count = sum(t.node_count for t, _ in ensemble.trees)

    def _predict_row(self, x) -> float:
        acc = 0.0
        for root, weight in self._trees:
            acc += weight * root.eval(x)
        return acc

    def _predict_into(self, matrix, out) -> None:
        if len(self._trees) != 1:
            super()._predict_into(matrix, out)
            return
        root, weight = self._trees[0]
        evaluate = root.eval
        for i in range(matrix.shape[0]):
            # Added to 0.0 like every accumulation, so a -0.0 product
            # scores 0.0, bit for bit.
            out[i] = 0.0 + weight * evaluate(matrix[i])

    @property
    def stored_node_count(self) -> int:
        return self._node_count


# -- the table strategies ------------------------------------------------------

def _pack_nodes(ensemble: Ensemble, breadth_first: bool):
    """Flatten every tree into shared parallel node tables, tree after tree.

    Within a tree, nodes are numbered breadth-first, or depth-first in
    post-order (left subtree, right subtree, then the node: children
    before their parent, the order a recursive copy creates them in).
    Returns lists ``(fids, slots, left, right, roots)``: ``fids[k]`` is the
    feature id, or -1 for a leaf; ``slots[k]`` the threshold or leaf value;
    ``left[k]``/``right[k]`` the children's table indices (0 for a leaf);
    ``roots[t]`` the index of tree ``t``'s root.
    """
    fids, slots, left, right, roots = [], [], [], [], []
    for tree, _ in ensemble.trees:
        order = []
        pending = deque([tree.root])
        take = pending.popleft if breadth_first else pending.pop
        while pending:
            node = take()
            order.append(node)
            if not node.is_leaf:
                pending.extend((node.left, node.right))
        if not breadth_first:
            # Node, right subtree, left subtree, reversed.
            order.reverse()
        index = {id(node): len(fids) + k for k, node in enumerate(order)}
        roots.append(index[id(tree.root)])
        for node in order:
            if node.is_leaf:
                fids.append(-1)
                slots.append(node.value)
                left.append(0)
                right.append(0)
            else:
                fids.append(node.fid)
                slots.append(node.threshold)
                left.append(index[id(node.left)])
                right.append(index[id(node.right)])
    return fids, slots, left, right, roots


class _LayoutEvaluator(Evaluator):
    """Build and dispatch shared by the four table strategies.

    Subclasses pack their tables (``_pack(ensemble)`` returns the tables
    and the stored node count) and build a native kernel over them with
    ``_native_kernel(lib, num_features, tables, weights)``, which scores
    rows and batches.  Building raises
    :class:`~treescore.codegen.CompilerNotFoundError` without a compiler
    or the Python headers.
    """

    # Every table strategy runs natively.  The attribute stays because the
    # benchmark in ``perfbench/`` reads ``.native`` on every run.
    native = True

    def __init__(self, ensemble: Ensemble):
        super().__init__(ensemble)
        tables, self._node_count = self._pack(ensemble)
        weights = [w for _, w in ensemble.trees]
        kernel = self._native_kernel(native.load_layout_kernels(),
                                     self.num_features, tables, weights)
        # Bound once, so that a call goes straight to the binding.
        self._predict_row = kernel.score_row
        self._predict_into = kernel.score_into

    @property
    def stored_node_count(self) -> int:
        return self._node_count


class _LinkedLayoutEvaluator(_LayoutEvaluator):
    """``compact_linked`` and ``contiguous``: one slot per logical node."""

    _breadth_first: bool

    def _pack(self, ensemble: Ensemble):
        tables = _pack_nodes(ensemble, self._breadth_first)
        return tables, len(tables[0])


class CompactLinkedEvaluator(_LinkedLayoutEvaluator):
    """One record per node, individually ``malloc``'d and pointer-chased.

    The records are allocated in depth-first post-order.
    """

    kind = StrategyKind.COMPACT_LINKED
    _breadth_first = False
    _native_kernel = staticmethod(native.compact_kernel)


class ContiguousEvaluator(_LinkedLayoutEvaluator):
    """Breadth-first packed node tables with explicit child indices.

    Unbalanced trees stay tightly packed: the tables hold exactly one slot
    per actual node, no dummy entries.  Each slot stores the feature id
    (-1 for a leaf), the threshold or leaf value, and the child indices.
    All trees share one set of tables.
    """

    kind = StrategyKind.CONTIGUOUS
    _breadth_first = True
    _native_kernel = staticmethod(native.contiguous_kernel)


# -- predicated ------------------------------------------------------------------

class PredicatedEvaluator(_LayoutEvaluator):
    """Branch-free complete-table traversal, one instance at a time.

    This is the lockstep kernel with one lane.
    """

    kind = StrategyKind.PREDICATED

    def _pack(self, ensemble: Ensemble):
        tables = tuple(expand_to_complete(tree) for tree, _ in ensemble.trees)
        return tables, sum(ct.table_entries for ct in tables)

    def _native_kernel(self, lib, num_features, tables, weights):
        return native.predicated_kernel(lib, num_features, tables, weights,
                                        self.batch_size or 1)


# -- vpredicated -------------------------------------------------------------------

class VPredicatedEvaluator(PredicatedEvaluator):
    """Lockstep predication over batches of ``batch_size`` instances.

    All ``v`` cursors of a batch advance one tree level per step; a short
    last batch simply has fewer lanes.  Interleaving is per tree, so
    ensembles of mixed depths are handled tree-locally.
    """

    kind = StrategyKind.VPREDICATED

    def __init__(self, ensemble: Ensemble, batch_size: int):
        batch_size = int(batch_size)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size  # before the base builds the kernel
        super().__init__(ensemble)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------

_BUILDERS = {
    StrategyKind.HEAP_LINKED: HeapLinkedEvaluator,
    StrategyKind.COMPACT_LINKED: CompactLinkedEvaluator,
    StrategyKind.CONTIGUOUS: ContiguousEvaluator,
    StrategyKind.PREDICATED: PredicatedEvaluator,
}


def build(ensemble: Ensemble, kind, batch_size: int | None = None) -> Evaluator:
    """Build an evaluator of the given kind from an ensemble.

    ``batch_size`` applies to (and is required by) ``vpredicated`` only.
    Every kind but ``heap_linked`` runs native code and raises
    :class:`~treescore.codegen.CompilerNotFoundError` without a host
    compiler or the Python headers.  ``generated`` evaluators are built by
    :func:`treescore.codegen.build_generated`.
    Predicated kinds raise :class:`~treescore.model.DepthLimitError` for
    trees deeper than :data:`~treescore.model.MAX_DEPTH`.
    """
    kind = StrategyKind(kind)
    if kind is StrategyKind.GENERATED:
        raise ValueError(
            "generated evaluators are compiled; use treescore.codegen.build_generated"
        )
    if kind is StrategyKind.VPREDICATED:
        if batch_size is None:
            raise ValueError("vpredicated requires a batch_size (v >= 1)")
        return VPredicatedEvaluator(ensemble, batch_size)
    if batch_size is not None:
        raise ValueError(f"batch_size does not apply to {kind.value}")
    return _BUILDERS[kind](ensemble)


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
    path taken in every tree (logical trees carry no dummy nodes, so none
    are counted).  ``visited_leaves`` holds one left-to-right leaf ordinal
    per tree.  The score equals the untraced prediction exactly.
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
