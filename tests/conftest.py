"""Shared helpers: random model builders and compiler availability."""

import numpy as np
import pytest

from treescore import Ensemble, Node, Tree, find_compiler
from treescore.synth import GenConfig, gen_tree

HAS_COMPILER = find_compiler() is not None

requires_compiler = pytest.mark.skipif(
    not HAS_COMPILER, reason="no host C compiler available")


def random_unbalanced_tree(rng, max_depth: int, num_features: int,
                           prune: float = 0.35) -> Tree:
    """Random tree with early leaves, up to ``max_depth`` deep."""

    def build(level: int) -> Node:
        if level == max_depth or (level > 0 and rng.random() < prune):
            return Node.leaf(rng.random())
        fid = int(rng.integers(num_features))
        return Node.internal(fid, rng.random(), build(level + 1), build(level + 1))

    return Tree(build(0))


def chain_tree(depth: int) -> Tree:
    """``depth`` levels, each a split on feature 0 with a leaf on the right."""
    node = Node.leaf(1.0)
    for level in range(depth):
        node = Node.internal(0, 0.5 / (level + 2), node, Node.leaf(2.0))
    return Tree(node)


def random_ensemble(rng, num_features: int, num_trees: int, max_depth: int,
                    unbalanced: bool = True) -> Ensemble:
    """Mixed ensemble: balanced generator trees and pruned ones, random weights."""
    trees = []
    for t in range(num_trees):
        if unbalanced and t % 2 == 1:
            tree = random_unbalanced_tree(rng, max_depth, num_features)
        else:
            depth = int(rng.integers(0, max_depth + 1))
            cfg = GenConfig(depth=depth, num_features=num_features,
                            seed=int(rng.integers(2**31)))
            tree = gen_tree(cfg)
        weight = float(rng.uniform(0.5, 1.5))
        trees.append((tree, weight))
    return Ensemble(num_features, trees)


def random_matrix(rng, n: int, num_features: int) -> np.ndarray:
    return rng.random((n, num_features), dtype=np.float32)
