"""Seeded inputs for the benchmark's three workloads.

Everything here is a pure function of the workload name and the seed, and
uses numpy only: the program under test (``treescore``) is never imported,
so a change to its own generator cannot change what is measured.  Trees are
kept as plain node arrays (:class:`TreeArrays`), which the oracle in
:mod:`oracle` walks, and are written in the documented text-model format;
feature rows are written in the documented FVEC format.

deep_tree_wide_rows
    One complete tree of depth 11 over f=512 (2,047 splits, 2,048 leaves,
    no feature repeated on a root-to-leaf path) and 131,072 leaf-uniform
    rows: row ``i`` is generated to reach leaf ``i mod 2048`` before a
    seeded shuffle, so each row's score is known by construction.  One
    right-going step in eight sets the feature exactly to the threshold,
    so ties are exercised on every path.  The rows take 256 MiB.
ensemble_f136
    300 leaf-count-limited trees (32 leaves each, depth at most 10) over
    f=136, grown LambdaMART-style by splitting a random open leaf until the
    leaf budget is spent, so the trees are unbalanced.  Split features
    follow a Zipf-like popularity; a quarter of the features are discrete
    (multiples of 1/16) and split on grid values, so rows tie with
    thresholds.  Weights are non-unit.  16,384 rows.
online_requests
    48 trees of 16 leaves, built the same way, and 256 requests in eight
    blocks of the same make-up: 24 single rows and one batch of each size
    in :data:`BATCH_SIZES` (136 rows a block), in a seeded order.  Tree 0
    is the same for every seed: its root splits on feature 0, which no
    other split uses, and its left leaves are negative and its right
    leaves positive.  One request a block carries a NaN in feature 0 (a
    single row in even blocks, the 8-row batch in odd ones), so for those
    a strategy that sends NaN left instead of right gives another score on
    every seed.  Their rows, too, come from a fixed stream.

The FVEC files hold finite values only (the format's reader rejects
non-finite ones); the NaN is set by the benchmark when it builds the
requests.

Remake the inputs of one workload::

    python3 perfbench/gen.py --workload ensemble_f136 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("deep_tree_wide_rows", "ensemble_f136", "online_requests")

DEEP_DEPTH = 11
DEEP_FEATURES = 512
DEEP_ROWS = 1 << 17

ENSEMBLE_FEATURES = 136
ENSEMBLE_TREES = 300
ENSEMBLE_LEAVES = 32
ENSEMBLE_MAX_DEPTH = 10
ENSEMBLE_ROWS = 16384

ONLINE_TREES = 48
ONLINE_LEAVES = 16
# The request list is ONLINE_BLOCKS blocks of the same make-up: BLOCK_SINGLES
# single rows and one batch of each size in BATCH_SIZES, one request of the
# block carrying a NaN (a single row in even blocks, the batch of NAN_BATCH
# rows in odd ones), in a seeded order.
ONLINE_BLOCKS = 8
BLOCK_SINGLES = 24
BATCH_SIZES = (2, 4, 6, 8, 12, 16, 24, 40)
NAN_BATCH = 8
NAN_FEATURE = 0
# Seed of the streams that must not depend on --seed: tree 0 of the online
# model and the rows of the NaN-carrying requests.
FIXED_SEED = 20121210

GRID = 16  # discrete features take values k / GRID


@dataclass(frozen=True)
class TreeArrays:
    """One tree as breadth-first node arrays; node 0 is the root.

    ``fid[k]`` is the split feature, or -1 for a leaf; ``value[k]`` the
    float32 threshold, or the leaf value; ``left[k]``/``right[k]`` the
    children (-1 for a leaf).
    """

    weight: float
    fid: np.ndarray
    value: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def node_count(self) -> int:
        return self.fid.shape[0]

    @property
    def depth(self) -> int:
        depth = np.zeros(self.node_count, dtype=np.int64)
        for k in range(self.node_count):  # parents precede children
            if self.fid[k] >= 0:
                depth[self.left[k]] = depth[self.right[k]] = depth[k] + 1
        return int(depth.max())


@dataclass
class Request:
    """One online request: ``rows`` consecutive rows of the data file,
    sent through ``predict`` when ``single``, else ``predict_batch``."""

    start: int
    rows: int
    single: bool
    nan: bool


@dataclass
class Inputs:
    num_features: int
    trees: list
    matrix: np.ndarray  # the rows, as written to the data file
    requests: list | None = None
    # deep_tree_wide_rows: the score each row was generated to have
    target: np.ndarray | None = None


def _f32(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32)


def _from_nodes(weight, nodes) -> TreeArrays:
    """Renumber ``nodes`` ([fid, value, left, right] lists, root first)
    breadth-first."""
    order, head = [0], 0
    while head < len(order):
        k = order[head]
        head += 1
        if nodes[k][0] >= 0:
            order += [nodes[k][2], nodes[k][3]]
    new = {old: i for i, old in enumerate(order)}
    fid = np.array([nodes[k][0] for k in order], dtype=np.int32)
    value = _f32([nodes[k][1] for k in order])
    left = np.array([new[nodes[k][2]] if nodes[k][0] >= 0 else -1
                     for k in order], dtype=np.int32)
    right = np.array([new[nodes[k][3]] if nodes[k][0] >= 0 else -1
                      for k in order], dtype=np.int32)
    return TreeArrays(float(weight), fid, value, left, right)


# -- deep_tree_wide_rows -------------------------------------------------------

def _complete_tree(rng, depth: int, num_features: int) -> TreeArrays:
    internal = (1 << depth) - 1
    fid = np.empty(internal, dtype=np.int32)
    for k in range(internal):
        ancestors, j = set(), k
        while j > 0:
            j = (j - 1) // 2
            ancestors.add(int(fid[j]))
        while True:
            f = int(rng.integers(num_features))
            if f not in ancestors:
                break
        fid[k] = f
    thresholds = _f32(rng.uniform(0.05, 0.95, internal))
    # Distinct leaves make each row's target leaf checkable from its score.
    # About one seed in forty draws two equal float32 values; draw again.
    leaves = _f32(rng.normal(0.0, 1.0, 1 << depth))
    while np.unique(leaves).shape[0] != leaves.shape[0]:
        leaves = _f32(rng.normal(0.0, 1.0, 1 << depth))
    k = np.arange(internal, dtype=np.int32)
    return TreeArrays(
        1.0,
        np.concatenate([fid, np.full(1 << depth, -1, dtype=np.int32)]),
        np.concatenate([thresholds, leaves]),
        np.concatenate([2 * k + 1, np.full(1 << depth, -1, dtype=np.int32)]),
        np.concatenate([2 * k + 2, np.full(1 << depth, -1, dtype=np.int32)]))


def _leaf_uniform_rows(rng, tree: TreeArrays, depth: int, n: int, f: int):
    """Rows that reach leaf ``i mod 2^depth``, shuffled; returns (rows, leaf)."""
    leaf = rng.permutation(np.arange(n, dtype=np.int64) % (1 << depth))
    x = rng.random((n, f), dtype=np.float32)
    rows = np.arange(n)
    for level in range(depth):
        node = ((1 << level) - 1) + (leaf >> (depth - level))
        go_right = ((leaf >> (depth - 1 - level)) & 1).astype(bool)
        theta = tree.value[node]
        u = rng.random(n, dtype=np.float32)
        below = np.minimum(theta * u, np.nextafter(theta, np.float32(0)))
        above = np.maximum(theta + (np.float32(1) - theta) * u, theta)
        tie = rng.random(n) < 0.125
        value = np.where(go_right, np.where(tie, theta, above), below)
        x[rows, tree.fid[node]] = value
    return x, leaf


def _deep(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    tree = _complete_tree(rng, DEEP_DEPTH, DEEP_FEATURES)
    x, leaf = _leaf_uniform_rows(rng, tree, DEEP_DEPTH, DEEP_ROWS, DEEP_FEATURES)
    first_leaf = (1 << DEEP_DEPTH) - 1
    target = tree.weight * tree.value[first_leaf + leaf].astype(np.float64)
    return Inputs(DEEP_FEATURES, [tree], x, target=target)


# -- ensembles -------------------------------------------------------------------

class _FeatureSpace:
    """Zipf-like split popularity; every fourth feature (after a seeded
    permutation) is discrete."""

    def __init__(self, rng, num_features: int, excluded=()):
        rank = rng.permutation(num_features)
        p = 1.0 / (rank + 1.0) ** 0.8
        p[list(excluded)] = 0.0
        self.p = p / p.sum()
        self.discrete = np.zeros(num_features, dtype=bool)
        self.discrete[rank % 4 == 3] = True
        self.num_features = num_features

    def split(self, rng):
        f = int(rng.choice(self.num_features, p=self.p))
        if self.discrete[f]:
            return f, int(rng.integers(1, GRID)) / GRID
        return f, float(rng.uniform(0.02, 0.98))

    def rows(self, rng, n: int) -> np.ndarray:
        x = rng.random((n, self.num_features), dtype=np.float32)
        x[:, self.discrete] = np.floor(x[:, self.discrete] * GRID) / GRID
        return x


def _leaf_limited_tree(rng, space: _FeatureSpace, leaves: int, max_depth: int,
                       weight: float, root=None, leaf_value=None) -> TreeArrays:
    """Split a random open leaf until ``leaves`` leaves exist."""
    nodes = [[-1, 0.0, -1, -1]]
    depth = [0]
    open_leaves = [0]
    while len(nodes) < 2 * leaves - 1:
        k = open_leaves.pop(int(rng.integers(len(open_leaves))))
        fid, theta = root if (k == 0 and root) else space.split(rng)
        nodes[k] = [fid, theta, len(nodes), len(nodes) + 1]
        for _ in range(2):
            depth.append(depth[k] + 1)
            nodes.append([-1, 0.0, -1, -1])
            if depth[-1] < max_depth:
                open_leaves.append(len(nodes) - 1)
    tree = _from_nodes(weight, nodes)
    is_leaf = tree.fid < 0
    value = tree.value.copy()
    value[is_leaf] = (leaf_value(tree) if leaf_value
                      else _f32(rng.normal(0.0, 0.5, int(is_leaf.sum()))))
    return TreeArrays(tree.weight, tree.fid, value, tree.left, tree.right)


def _ensemble(rng, space, num_trees, leaves, max_depth):
    return [_leaf_limited_tree(rng, space, leaves, max_depth,
                               float(rng.uniform(0.05, 0.15)))
            for _ in range(num_trees)]


def _ensemble_f136(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    space = _FeatureSpace(rng, ENSEMBLE_FEATURES)
    trees = _ensemble(rng, space, ENSEMBLE_TREES, ENSEMBLE_LEAVES,
                      ENSEMBLE_MAX_DEPTH)
    return Inputs(ENSEMBLE_FEATURES, trees, space.rows(rng, ENSEMBLE_ROWS))


def _signed_leaves(tree: TreeArrays) -> np.ndarray:
    """Leaf values of tree 0: negative under the root's left child,
    positive under its right child."""
    side = np.zeros(tree.node_count, dtype=np.int64)
    side[tree.right[0]] = 1
    for k in range(1, tree.node_count):
        if tree.fid[k] >= 0:
            side[tree.left[k]] = side[tree.right[k]] = side[k]
    leaf_side = side[tree.fid < 0]
    magnitude = 0.5 + np.arange(leaf_side.shape[0]) / 16.0
    return _f32(np.where(leaf_side == 1, magnitude, -magnitude))


def _online(seed: int) -> Inputs:
    fixed = np.random.default_rng([FIXED_SEED, 3])
    fixed_space = _FeatureSpace(fixed, ENSEMBLE_FEATURES,
                                excluded=[NAN_FEATURE])
    tree0 = _leaf_limited_tree(fixed, fixed_space, ONLINE_LEAVES,
                               ENSEMBLE_MAX_DEPTH, 0.125,
                               root=(NAN_FEATURE, 0.5),
                               leaf_value=_signed_leaves)
    rng = np.random.default_rng([seed, 3])
    space = _FeatureSpace(rng, ENSEMBLE_FEATURES, excluded=[NAN_FEATURE])
    trees = [tree0] + _ensemble(rng, space, ONLINE_TREES - 1, ONLINE_LEAVES,
                                ENSEMBLE_MAX_DEPTH)

    requests, rows, start = [], [], 0
    for b in range(ONLINE_BLOCKS):
        sizes = [1] * BLOCK_SINGLES + list(BATCH_SIZES)
        nan_at = 0 if b % 2 == 0 else BLOCK_SINGLES + BATCH_SIZES.index(NAN_BATCH)
        for k in rng.permutation(len(sizes)):
            nan = k == nan_at
            rows.append((fixed_space if nan else space).rows(
                fixed if nan else rng, sizes[k]))
            requests.append(Request(start, sizes[k], sizes[k] == 1, nan))
            start += sizes[k]
    return Inputs(ENSEMBLE_FEATURES, trees, np.concatenate(rows),
                  requests=requests)


def make(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` for ``seed``."""
    return {"deep_tree_wide_rows": _deep, "ensemble_f136": _ensemble_f136,
            "online_requests": _online}[workload](seed)


# -- file formats -------------------------------------------------------------------

def model_text(num_features: int, trees) -> str:
    """The text-model document of ``trees`` (node ids are array indices)."""
    lines = [f"ensemble {num_features} {len(trees)}"]
    for tree in trees:
        lines.append(f"tree {tree.weight!r}")
        for k in range(tree.node_count):
            value = repr(float(tree.value[k]))
            if tree.fid[k] < 0:
                lines.append(f"leaf {k} {value}")
            else:
                lines.append(f"node {k} {tree.fid[k]} {value} "
                             f"{tree.left[k]} {tree.right[k]}")
        lines.append("end")
    return "\n".join(lines) + "\n"


def write_fvec(path, matrix: np.ndarray) -> None:
    """FVEC: ``FVEC``, u32 count, u32 features, then float32 rows, all
    little-endian."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", b"FVEC", *matrix.shape))
        matrix.tofile(fh)


def write(inputs: Inputs, directory: Path):
    """Write ``model.txt`` and ``rows.fvec`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    model_path = directory / "model.txt"
    data_path = directory / "rows.fvec"
    model_path.write_text(model_text(inputs.num_features, inputs.trees),
                          encoding="utf-8")
    write_fvec(data_path, inputs.matrix)
    return model_path, data_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for path in write(make(args.workload, args.seed), args.out):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
