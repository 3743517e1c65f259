"""Logical decision trees, ensembles, and the model file format.

A model is an ordered list of weighted binary regression trees over a dense
feature space of ``num_features`` 32-bit floats.  Internal nodes test
``x[fid] < threshold``; the left branch is taken when the test is true and
the right branch otherwise, so a feature value exactly equal to the
threshold goes right.  Every evaluation strategy in this package shares
that rule.

Thresholds and leaf values are narrowed to 32-bit floats when nodes are
constructed, so the logical model, the packed node tables, and generated
code all see identical values.  Ensemble scores are accumulated in 64-bit
floats in tree order, which makes bit-identical agreement across strategies
a testable contract rather than an accident.

The text format round-trips byte-for-byte through
``parse_model``/``serialize_model``::

    ensemble <num_features:int> <num_trees:int>
    tree <weight:float>
    node <id:int> <fid:int> <theta:float> <left:int> <right:int>
    leaf <id:int> <value:float>
    end

One ``tree`` block per tree, terminated by ``end``.  Node ids are
block-local, dense in ``[0, node_count)``, and id 0 is the root.  Lines
whose first non-blank character is ``#`` are comments.
"""

from __future__ import annotations

import math
import re
import struct
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# expand_to_complete() refuses trees deeper than this, whose complete
# tables would hold 2^d leaves.  No strategy builds those tables or limits
# the depth.
MAX_DEPTH = 16

# Dummy nodes inserted by expand_to_complete().  theta=+inf makes dummies
# identifiable in dumps.  Under the split rule (left iff x < theta) it
# routes finite features left, and NaN and +inf right; correctness does
# not depend on the routing because every leaf below a dummy carries the
# same value.
DUMMY_FID = 0
DUMMY_THETA = math.inf


class ModelError(Exception):
    """Base class for model construction and model-format errors."""


class ModelSyntaxError(ModelError):
    """Malformed model document.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ModelSemanticError(ModelError):
    """Well-formed document that does not describe a valid ensemble."""


class DepthLimitError(ModelError):
    """Tree too deep for :func:`expand_to_complete` (see :data:`MAX_DEPTH`)."""


_FLOAT32 = struct.Struct("f")


def _f32(x) -> float:
    """Narrow to float32 precision, returned as a Python float (exact).

    Rounds as ``float(numpy.float32(x))`` does, without entering numpy's
    error state on every call.  Out-of-range values become a signed inf,
    which the finiteness checks at the call sites reject.
    """
    x = float(x)
    try:
        return _FLOAT32.unpack(_FLOAT32.pack(x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


class Node:
    """One tree node: either an internal split or a leaf.

    Internal nodes hold ``fid`` (index into the feature vector), a finite
    ``threshold``, and two children.  Leaves hold a regression ``value``.
    Thresholds and values are narrowed to float32 on construction.
    Immutable by convention once built.
    """

    __slots__ = ("fid", "threshold", "value", "left", "right")

    def __init__(self, fid, threshold, value, left, right):
        self.fid = fid
        self.threshold = threshold
        self.value = value
        self.left = left
        self.right = right

    @classmethod
    def leaf(cls, value) -> "Node":
        value = _f32(value)
        if not math.isfinite(value):
            raise ModelSemanticError(f"leaf value must be finite, got {value!r}")
        return cls(-1, 0.0, value, None, None)

    @classmethod
    def internal(cls, fid: int, threshold, left: "Node", right: "Node") -> "Node":
        fid = int(fid)
        if fid < 0:
            raise ModelSemanticError(f"feature id must be non-negative, got {fid}")
        threshold = _f32(threshold)
        if not math.isfinite(threshold):
            raise ModelSemanticError(
                f"threshold must be finite, got {threshold!r}"
            )
        if not isinstance(left, Node) or not isinstance(right, Node):
            raise ModelSemanticError("internal node requires exactly two child nodes")
        return cls(fid, threshold, 0.0, left, right)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        if self.is_leaf:
            return f"Node.leaf({self.value!r})"
        return f"Node.internal(fid={self.fid}, threshold={self.threshold!r}, ...)"


class Tree:
    """A binary decision tree plus cached structural statistics.

    ``depth`` is the maximum root-to-leaf edge count (0 for a single leaf),
    ``leaf_count`` the number of leaves.  Construction walks the whole tree
    once, verifying it really is a tree (no shared nodes, no cycles), and
    records each leaf's left-to-right ordinal for tracing.
    """

    __slots__ = ("root", "depth", "leaf_count", "node_count", "max_fid",
                 "_leaf_ordinal")

    def __init__(self, root: Node):
        if not isinstance(root, Node):
            raise ModelSemanticError("tree root must be a Node")
        depth = 0
        leaf_count = 0
        node_count = 0
        max_fid = -1
        seen: set = set()
        leaf_ordinal: dict = {}
        # Depth-first, left child first, so leaves are numbered left to right.
        stack = [(root, 0)]
        while stack:
            node, d = stack.pop()
            if id(node) in seen:
                raise ModelSemanticError("node appears twice in the same tree")
            seen.add(id(node))
            node_count += 1
            if node.is_leaf:
                leaf_ordinal[id(node)] = leaf_count
                leaf_count += 1
                if d > depth:
                    depth = d
            else:
                if node.fid > max_fid:
                    max_fid = node.fid
                stack.append((node.right, d + 1))
                stack.append((node.left, d + 1))
        self.root = root
        self.depth = depth
        self.leaf_count = leaf_count
        self.node_count = node_count
        self.max_fid = max_fid
        self._leaf_ordinal = leaf_ordinal

    def leaf_ordinal(self, node: Node) -> int:
        """Left-to-right index of a leaf of this tree."""
        return self._leaf_ordinal[id(node)]

    def __repr__(self):
        return (f"Tree(depth={self.depth}, leaves={self.leaf_count}, "
                f"nodes={self.node_count})")


class Ensemble:
    """An ordered list of weighted trees over ``num_features`` features.

    List order is evaluation (and serialization) order.  Prediction is the
    weighted sum of per-tree leaf values, so it is order-independent
    mathematically, but the fixed order pins the accumulation sequence that
    the bit-exactness contract relies on.

    ``node_table`` numbers every node once, tree after tree, each tree
    breadth-first, so a right child is its left sibling's index + 1.  It
    is the read-only arrays ``(fids, values, left, roots)``: int32 feature
    ids (-1 for a leaf), float32 thresholds or leaf values, int32 left
    child indices (0 for a leaf), and the int32 index of each tree's root.
    Every in-process layout is packed from it, and :func:`serialize_model`
    writes its indices, less the root's, as node ids.
    """

    __slots__ = ("num_features", "trees", "node_table")

    def __init__(self, num_features: int, trees: Iterable):
        num_features = int(num_features)
        if num_features < 1:
            raise ModelSemanticError("num_features must be positive")
        normalized = []
        for entry in trees:
            if isinstance(entry, Tree):
                tree, weight = entry, 1.0
            else:
                tree, weight = entry
            if not isinstance(tree, Tree):
                tree = Tree(tree)
            weight = float(weight)
            if not math.isfinite(weight):
                raise ModelSemanticError(f"tree weight must be finite, got {weight!r}")
            if tree.max_fid >= num_features:
                raise ModelSemanticError(
                    f"feature id {tree.max_fid} out of range (num_features={num_features})"
                )
            normalized.append((tree, weight))
        if not normalized:
            raise ModelSemanticError("ensemble must contain at least one tree")
        self.num_features = num_features
        self.trees = tuple(normalized)
        # ``node.left is None`` below is ``node.is_leaf`` without the property
        # call, which is a fifth of the time the numbering takes.
        fids, values, left, roots = [], [], [], []
        for tree, _ in normalized:
            roots.append(len(fids))
            # A node's children are numbered when it enqueues them.
            following = len(fids) + 1
            pending = deque([tree.root])
            while pending:
                node = pending.popleft()
                if node.left is None:
                    fids.append(-1)
                    values.append(node.value)
                    left.append(0)
                else:
                    fids.append(node.fid)
                    values.append(node.threshold)
                    left.append(following)
                    following += 2
                    pending.extend((node.left, node.right))
        self.node_table = (
            np.array(fids, dtype=np.int32), np.array(values, dtype=np.float32),
            np.array(left, dtype=np.int32), np.array(roots, dtype=np.int32))
        for array in self.node_table:
            array.flags.writeable = False

    def __len__(self):
        return len(self.trees)

    def __repr__(self):
        return f"Ensemble(num_features={self.num_features}, trees={len(self.trees)})"


@dataclass(frozen=True)
class TreeStats:
    avg_depth: float
    max_depth: int
    avg_leaves: float


def tree_stats(ensemble: Ensemble) -> TreeStats:
    """Depth/leaf statistics averaged over the ensemble's trees."""
    depths = [t.depth for t, _ in ensemble.trees]
    leaves = [t.leaf_count for t, _ in ensemble.trees]
    return TreeStats(
        avg_depth=sum(depths) / len(depths),
        max_depth=max(depths),
        avg_leaves=sum(leaves) / len(leaves),
    )


# ---------------------------------------------------------------------------
# Reference traversal
# ---------------------------------------------------------------------------

def traverse_to_leaf(root: Node, x) -> Node:
    """Walk from ``root`` to the leaf selected by feature vector ``x``.

    The decision rule is left iff ``x[fid] < threshold``; ties go right.
    This is the reference semantics every evaluation strategy must match.
    """
    node = root
    while node.left is not None:
        if float(x[node.fid]) < node.threshold:
            node = node.left
        else:
            node = node.right
    return node


def reference_predict(ensemble: Ensemble, x) -> float:
    """Reference score: 64-bit accumulation of weight * leaf value, in order."""
    acc = 0.0
    for tree, weight in ensemble.trees:
        acc += weight * traverse_to_leaf(tree.root, x).value
    return acc


# ---------------------------------------------------------------------------
# Complete-tree expansion
# ---------------------------------------------------------------------------
#
# The documented model of the predicated strategies' d steps per tree, in
# the paper's form: a complete table in which a leaf above the bottom
# level becomes a subtree of dummy nodes.  The shipped tables store one
# entry per node and let a leaf loop to itself instead.  Kept because the
# benchmark in perfbench/ times expand_to_complete and checks the
# predicated pair's stored_node_count, the size of these tables.

class CompleteTree:
    """Dense breadth-first node tables for a complete tree of depth ``d``.

    ``fids[i]``/``thetas[i]`` describe internal node ``i`` for
    ``i in [0, 2^d - 1)``; the children of ``i`` sit at ``2i+1`` and
    ``2i+2``.  ``leaf_values[j]`` holds leaf ``j``, which corresponds to
    traversal index ``(2^d - 1) + j``.  Arrays are frozen after build.
    """

    __slots__ = ("depth", "fids", "thetas", "leaf_values", "weight")

    def __init__(self, depth: int, fids, thetas, leaf_values):
        self.depth = depth
        self.fids = np.ascontiguousarray(fids, dtype=np.int32)
        self.thetas = np.ascontiguousarray(thetas, dtype=np.float32)
        self.leaf_values = np.ascontiguousarray(leaf_values, dtype=np.float32)
        n_internal = (1 << depth) - 1
        if self.fids.shape != (n_internal,) or self.thetas.shape != (n_internal,):
            raise ModelSemanticError("node table size does not match depth")
        if self.leaf_values.shape != (1 << depth,):
            raise ModelSemanticError("leaf table size does not match depth")
        for arr in (self.fids, self.thetas, self.leaf_values):
            arr.flags.writeable = False

    def __repr__(self):
        return f"CompleteTree(depth={self.depth})"


def expand_to_complete(tree: Tree) -> CompleteTree:
    """Expand ``tree`` into a complete tree of the same depth.

    Leaves that sit above the bottom level become dummy subtrees: the
    inserted internal nodes carry ``fid=0, theta=+inf`` and every descendant
    leaf repeats the original leaf value, so predictions are unchanged for
    every input.  Raises :class:`DepthLimitError` above :data:`MAX_DEPTH`.
    """
    d = tree.depth
    if d > MAX_DEPTH:
        raise DepthLimitError(
            f"tree depth {d} exceeds MAX_DEPTH={MAX_DEPTH} for complete-table layouts"
        )
    # Every internal slot starts as a dummy, and each logical node is
    # visited once.  A split fills its own slot.  A leaf at level L (slot
    # s + 1 has L + 1 bits) and slot s owns the 2^(d-L) bottom entries from s*2^(d-L) + 2^(d-L) - 1 on
    # (minus the 2^d - 1 internal slots); visited left to right, the leaves
    # own consecutive runs that tile the bottom level.
    fids = np.full((1 << d) - 1, DUMMY_FID, dtype=np.int32)
    thetas = np.full((1 << d) - 1, DUMMY_THETA, dtype=np.float32)
    slots, split_fids, split_thetas, values, spans = [], [], [], [], []
    stack = [(tree.root, 0)]
    while stack:
        node, slot = stack.pop()
        if node.left is None:
            values.append(node.value)
            spans.append(1 << (d + 1 - (slot + 1).bit_length()))
        else:
            slots.append(slot)
            split_fids.append(node.fid)
            split_thetas.append(node.threshold)
            stack.append((node.right, 2 * slot + 2))
            stack.append((node.left, 2 * slot + 1))
    fids[slots] = split_fids
    thetas[slots] = split_thetas
    leaves = np.repeat(np.array(values, dtype=np.float32), spans)
    return CompleteTree(d, fids, thetas, leaves)


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    # repr() is the shortest representation that round-trips exactly; the
    # values themselves are float32-exact so float32 narrowing on re-parse
    # is lossless.
    return repr(float(x))


def serialize_model(ensemble: Ensemble) -> str:
    """Canonical text form: the ids of :attr:`Ensemble.node_table`, each
    tree's from 0 at its root, and shortest round-trip floats."""
    fids, values, left, roots = (a.tolist() for a in ensemble.node_table)
    ends = roots[1:] + [len(fids)]
    lines = [f"ensemble {ensemble.num_features} {len(ensemble.trees)}"]
    for (_, weight), root, end in zip(ensemble.trees, roots, ends):
        lines.append(f"tree {_fmt_float(weight)}")
        for k in range(root, end):
            if fids[k] < 0:
                lines.append(f"leaf {k - root} {_fmt_float(values[k])}")
            else:
                child = left[k] - root
                lines.append(f"node {k - root} {fids[k]} "
                             f"{_fmt_float(values[k])} {child} {child + 1}")
        lines.append("end")
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(r"\S+")


def _tokenize(text: str):
    """Yield (lineno, [(token, col), ...]) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(raw)]


def _parse_int(token: str, line: int, col: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelSyntaxError(f"expected integer {what}, got {token!r}", line, col)


def _parse_float(token: str, line: int, col: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ModelSyntaxError(f"expected float {what}, got {token!r}", line, col)


def parse_model(text: str) -> Ensemble:
    """Parse a model document into a validated :class:`Ensemble`.

    Syntax errors report line and column; semantic errors (dangling child
    id, feature id out of range, cycles, duplicate ids) name the offending
    tree and id.
    """
    stream = _tokenize(text)

    def next_line():
        try:
            return next(stream)
        except StopIteration:
            return None

    entry = next_line()
    if entry is None:
        raise ModelSyntaxError("empty document, expected 'ensemble' header", 1, 1)
    line, toks = entry
    if toks[0][0] != "ensemble" or len(toks) != 3:
        raise ModelSyntaxError(
            "expected header 'ensemble <num_features> <num_trees>'",
            line, toks[0][1],
        )
    num_features = _parse_int(toks[1][0], line, toks[1][1], "num_features")
    num_trees = _parse_int(toks[2][0], line, toks[2][1], "num_trees")
    if num_features < 1:
        raise ModelSemanticError(f"num_features must be positive, got {num_features}")
    if num_trees < 1:
        raise ModelSemanticError(f"num_trees must be positive, got {num_trees}")

    trees = []
    last_line = line
    for tree_index in range(num_trees):
        entry = next_line()
        if entry is None:
            raise ModelSyntaxError(
                f"expected {num_trees} tree blocks, found {tree_index}",
                last_line, 1,
            )
        line, toks = entry
        last_line = line
        if toks[0][0] != "tree" or len(toks) != 2:
            raise ModelSyntaxError("expected 'tree <weight>'", line, toks[0][1])
        weight = _parse_float(toks[1][0], line, toks[1][1], "weight")

        # (kind, payload) per id; kind is 'node' or 'leaf'.
        defs: dict = {}
        while True:
            entry = next_line()
            if entry is None:
                raise ModelSyntaxError(
                    f"tree {tree_index}: missing 'end'", last_line, 1
                )
            line, toks = entry
            last_line = line
            word, col0 = toks[0]
            if word == "end":
                if len(toks) != 1:
                    raise ModelSyntaxError("unexpected tokens after 'end'",
                                           line, toks[1][1])
                break
            if word == "node":
                if len(toks) != 6:
                    raise ModelSyntaxError(
                        "expected 'node <id> <fid> <theta> <left> <right>'",
                        line, col0,
                    )
                nid = _parse_int(toks[1][0], line, toks[1][1], "node id")
                fid = _parse_int(toks[2][0], line, toks[2][1], "feature id")
                theta = _parse_float(toks[3][0], line, toks[3][1], "threshold")
                left = _parse_int(toks[4][0], line, toks[4][1], "left child id")
                right = _parse_int(toks[5][0], line, toks[5][1], "right child id")
                if fid < 0:
                    raise ModelSyntaxError("feature id must be non-negative",
                                           line, toks[2][1])
                if fid >= num_features:
                    raise ModelSemanticError(
                        f"tree {tree_index}, line {line}: feature id {fid} out of "
                        f"range (num_features={num_features})"
                    )
                if not math.isfinite(_f32(theta)):
                    raise ModelSemanticError(
                        f"tree {tree_index}, line {line}: threshold must be finite"
                    )
                payload = ("node", fid, theta, left, right)
            elif word == "leaf":
                if len(toks) != 3:
                    raise ModelSyntaxError("expected 'leaf <id> <value>'", line, col0)
                nid = _parse_int(toks[1][0], line, toks[1][1], "node id")
                value = _parse_float(toks[2][0], line, toks[2][1], "leaf value")
                if not math.isfinite(_f32(value)):
                    raise ModelSemanticError(
                        f"tree {tree_index}, line {line}: leaf value must be finite"
                    )
                payload = ("leaf", value)
            else:
                raise ModelSyntaxError(
                    f"expected 'node', 'leaf' or 'end', got {word!r}", line, col0
                )
            if nid < 0:
                raise ModelSyntaxError("node id must be non-negative",
                                       line, toks[1][1])
            if nid in defs:
                raise ModelSemanticError(
                    f"tree {tree_index}: duplicate node id {nid}"
                )
            defs[nid] = payload

        trees.append((weight, _build_tree(tree_index, defs)))

    entry = next_line()
    if entry is not None:
        line, toks = entry
        raise ModelSyntaxError("unexpected content after final tree",
                               line, toks[0][1])

    return Ensemble(num_features, [(tree, weight) for weight, tree in trees])


def _build_tree(tree_index: int, defs: dict) -> Tree:
    """Validate one tree block's node graph and build the Node structure."""
    count = len(defs)
    if count == 0:
        raise ModelSemanticError(f"tree {tree_index}: empty tree block")
    if set(defs) != set(range(count)):
        missing = min(set(range(count)) - set(defs))
        raise ModelSemanticError(
            f"tree {tree_index}: node ids must be dense in [0, {count}), "
            f"id {missing} is missing"
        )

    ref_count = {nid: 0 for nid in defs}
    for nid, payload in defs.items():
        if payload[0] != "node":
            continue
        for child in payload[3:5]:
            if child not in defs:
                raise ModelSemanticError(
                    f"tree {tree_index}: node {nid} references dangling child "
                    f"id {child}"
                )
            ref_count[child] += 1
    if ref_count[0] != 0:
        raise ModelSemanticError(
            f"tree {tree_index}: root (id 0) must not appear as a child"
        )
    for nid, refs in ref_count.items():
        if nid != 0 and refs > 1:
            raise ModelSemanticError(
                f"tree {tree_index}: node {nid} has multiple parents"
            )

    # Breadth-first reachability from the root; with unique parents this
    # also rules out cycles.
    order = []
    queue = deque([0])
    visited = set()
    while queue:
        nid = queue.popleft()
        if nid in visited:
            continue
        visited.add(nid)
        order.append(nid)
        payload = defs[nid]
        if payload[0] == "node":
            queue.append(payload[3])
            queue.append(payload[4])
    if len(visited) != count:
        orphan = min(set(defs) - visited)
        raise ModelSemanticError(
            f"tree {tree_index}: node {orphan} is unreachable from the root "
            "(disconnected or cyclic block)"
        )

    # Children before parents: build in reverse BFS order, iteratively.
    nodes: dict = {}
    for nid in reversed(order):
        payload = defs[nid]
        if payload[0] == "leaf":
            nodes[nid] = Node.leaf(payload[1])
        else:
            _, fid, theta, left, right = payload
            nodes[nid] = Node.internal(fid, theta, nodes[left], nodes[right])
    return Tree(nodes[0])


def load_model(path) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def save_model(ensemble: Ensemble, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(ensemble))
