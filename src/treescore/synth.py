"""Deterministic synthetic workloads: random complete trees and
leaf-uniform feature vectors.

``gen_tree`` builds a fully balanced tree of exactly the requested depth:
each split picks a random feature and a random threshold, recursing until
the depth is reached, with uniform random leaf values.  Thresholds are
drawn strictly inside the feature's currently feasible interval on that
path, so every leaf stays reachable even when a feature is split twice on
one path, and no rejection sampling is needed downstream.

``gen_leaf_uniform_vectors`` produces vectors that visit every leaf of the
tree equally often: vector ``j`` is assigned leaf ``j mod leaf_count``
(balance is deterministic to within one vector), its constrained features
are sampled uniformly inside the leaf's feasible intervals by following
the leaf's path back to the root, the remaining features are uniform over
the domain, and finally the rows are shuffled with the seeded generator.

Everything is a pure function of the config (seed included); the tree and
vector streams are decoupled so the same seed never aliases draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import Ensemble, Node, Tree, _f32

# Features whose feasible interval is narrower than this are not split
# again on the same path; at float32 granularity this leaves plenty of
# representable values on both sides of any threshold.
MIN_SPLIT_WIDTH = 2.0 ** -20

_TREE_STREAM = 0
_DATA_STREAM = 1

# Values per block of float64 draws for a domain other than [0, 1).
_DRAW_BLOCK = 1 << 14


class GenerationError(Exception):
    """Generator invariant violated (e.g. a leaf with contradictory bounds)."""


@dataclass(frozen=True)
class GenConfig:
    """Workload shape: tree depth, feature count, vector count, seed, domain."""

    depth: int
    num_features: int
    num_vectors: int = 0
    seed: int = 0
    domain: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if self.num_features < 1:
            raise ValueError(f"num_features must be >= 1, got {self.num_features}")
        if self.num_vectors < 0:
            raise ValueError(f"num_vectors must be >= 0, got {self.num_vectors}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        lo, hi = self.domain
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"domain must be a non-empty finite interval, "
                             f"got {self.domain}")


def _next_f32_above(x: float) -> float:
    return float(np.nextafter(np.float32(x), np.float32(np.inf)))


def _next_f32_below(x: float) -> float:
    return float(np.nextafter(np.float32(x), np.float32(-np.inf)))


def _draw_domain_value(rng, lo: float, hi: float) -> float:
    """Uniform float32 draw in [lo, hi)."""
    v = _f32(lo + (hi - lo) * rng.random())
    if v < lo:
        v = _f32(lo)
    elif v >= hi:
        v = _next_f32_below(hi)
    return v


def gen_tree(cfg: GenConfig) -> Tree:
    """Build a complete random tree of exactly ``cfg.depth``.

    Deterministic for a given seed.  A tree of depth d has 2^d leaves.
    """
    rng = np.random.default_rng([cfg.seed, _TREE_STREAM])
    lo0, hi0 = _f32(cfg.domain[0]), _f32(cfg.domain[1])
    if not lo0 < hi0:
        raise GenerationError("domain collapses at float32 precision")
    f = cfg.num_features
    intervals: dict = {}

    def interval(fid: int):
        return intervals.get(fid, (lo0, hi0))

    def pick_fid() -> int:
        fid = int(rng.integers(f))
        lo, hi = interval(fid)
        if hi - lo >= MIN_SPLIT_WIDTH:
            return fid
        # This feature has been split too finely on this path; fall back to
        # the widest remaining interval.
        widest = max(range(f), key=lambda k: interval(k)[1] - interval(k)[0])
        wlo, whi = interval(widest)
        if not wlo < whi:
            raise GenerationError("feature space exhausted on this path")
        return widest

    def draw_threshold(lo: float, hi: float) -> float:
        theta = _f32(lo + (hi - lo) * rng.random())
        if theta <= lo:
            theta = _next_f32_above(lo)
        if theta >= hi:
            theta = _next_f32_below(hi)
        if not lo < theta < hi:
            raise GenerationError("interval too narrow to split at float32")
        return theta

    def build(levels_left: int) -> Node:
        if levels_left == 0:
            return Node.leaf(_draw_domain_value(rng, lo0, hi0))
        fid = pick_fid()
        lo, hi = interval(fid)
        theta = draw_threshold(lo, hi)
        saved = intervals.get(fid)
        intervals[fid] = (lo, theta)
        left = build(levels_left - 1)
        intervals[fid] = (theta, hi)
        right = build(levels_left - 1)
        if saved is None:
            del intervals[fid]
        else:
            intervals[fid] = saved
        return Node.internal(fid, theta, left, right)

    return Tree(build(cfg.depth))


def gen_ensemble(cfg: GenConfig, num_trees: int = 1) -> Ensemble:
    """Ensemble of ``num_trees`` independent random trees, all weight 1.0."""
    if num_trees < 1:
        raise ValueError(f"num_trees must be >= 1, got {num_trees}")
    trees = []
    for t in range(num_trees):
        tree_cfg = GenConfig(depth=cfg.depth, num_features=cfg.num_features,
                             num_vectors=0,
                             seed=_child_seed(cfg.seed, t),
                             domain=cfg.domain)
        trees.append((gen_tree(tree_cfg), 1.0))
    return Ensemble(cfg.num_features, trees)


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 2, index]).generate_state(1)[0])


def _leaf_constraints(tree: Tree, domain) -> list:
    """Per-leaf feasible intervals, leaves in left-to-right order.

    Raises :class:`GenerationError` if any leaf's constraints are
    contradictory (cannot happen for trees from :func:`gen_tree`; possible
    for foreign trees that repeat a feature with conflicting predicates).
    """
    lo0, hi0 = _f32(domain[0]), _f32(domain[1])
    out = []
    bounds: dict = {}
    # Iterative, so trees deeper than the recursion limit work too.  An
    # entry is a node to walk or a (fid, interval) to set, where None
    # deletes; they pop in the order a recursive walk reaches them.
    pending = [tree.root]
    while pending:
        item = pending.pop()
        if isinstance(item, tuple):
            fid, interval = item
            if interval is None:
                del bounds[fid]
            elif interval[0] < interval[1]:
                bounds[fid] = interval
            else:
                raise GenerationError(
                    f"leaf unreachable: contradictory predicates on feature {fid}"
                )
        elif item.is_leaf:
            out.append(dict(bounds))
        else:
            fid, theta = item.fid, item.threshold
            saved = bounds.get(fid)
            lo, hi = saved if saved is not None else (lo0, hi0)
            pending += [(fid, saved), item.right, (fid, (max(lo, theta), hi)),
                        item.left, (fid, (lo, min(hi, theta)))]
    return out


def gen_leaf_uniform_vectors(tree: Tree, cfg: GenConfig,
                             with_assignments: bool = False):
    """Vectors visiting every leaf of ``tree`` with equal frequency.

    Returns a :class:`Dataset`; with ``with_assignments=True`` also returns
    the per-row target leaf ordinals (aligned with the shuffled rows).
    Per-leaf counts differ by at most one, every vector reaches its
    assigned leaf under traversal, and unconstrained features are uniform
    over the domain.
    """
    rng = np.random.default_rng([cfg.seed, _DATA_STREAM])
    n = cfg.num_vectors
    f = cfg.num_features
    if tree.max_fid >= f:
        raise GenerationError(
            f"tree uses feature {tree.max_fid}, beyond num_features={f}"
        )
    constraints = _leaf_constraints(tree, cfg.domain)
    num_leaves = len(constraints)

    lo0, hi0 = _f32(cfg.domain[0]), _f32(cfg.domain[1])
    if cfg.domain == (0.0, 1.0):
        matrix = rng.random((n, f), dtype=np.float32)
    else:
        matrix = np.empty((n, f), dtype=np.float32)
        top = np.nextafter(np.float32(hi0), np.float32(lo0))
        # Drawn a block of rows at a time, so the float64 draws never take
        # more memory than one block; the stream is the same.
        step = max(1, _DRAW_BLOCK // f)
        for start in range(0, n, step):
            block = matrix[start:start + step]
            block[...] = lo0 + (hi0 - lo0) * rng.random(block.shape)
            np.maximum(block, np.float32(lo0), out=block)
            block[block >= hi0] = top

    assigned = np.arange(n, dtype=np.int64) % num_leaves
    for ordinal, bounds in enumerate(constraints):
        rows = np.arange(ordinal, n, num_leaves)
        if rows.size == 0:
            continue
        for fid in sorted(bounds):
            lo, hi = bounds[fid]
            vals = (lo + (hi - lo) * rng.random(rows.size)).astype(np.float32)
            np.maximum(vals, np.float32(lo), out=vals)
            vals[vals >= hi] = np.nextafter(np.float32(hi), np.float32(lo))
            matrix[rows, fid] = vals

    # In place, so the matrix is never copied: shuffle draws the permutation
    # that permutation(n) draws, and the generator is rewound to draw it
    # again for the assignments.
    state = rng.bit_generator.state
    rng.shuffle(matrix)
    rng.bit_generator.state = state
    rng.shuffle(assigned)
    dataset = Dataset(matrix)
    if with_assignments:
        return dataset, assigned
    return dataset
