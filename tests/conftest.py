"""Shared helpers: random model builders and native-code availability.

At import, before anything is built, ``XDG_CACHE_HOME`` points at a fresh
directory for this session, so the suite never reads or writes the user's
compile cache, and the CLI and demo subprocesses it starts share the
session's cache.  The directory is removed at exit.
"""

import atexit
import os
import shutil
import tempfile

import numpy as np
import pytest

from treescore import (CompilationError, CompilerNotFoundError, Ensemble, Node,
                       Tree, native)
from treescore.synth import GenConfig, gen_tree


SESSION_CACHE_HOME = tempfile.mkdtemp(prefix="treescore-test-cache-")
os.environ["XDG_CACHE_HOME"] = SESSION_CACHE_HOME
atexit.register(shutil.rmtree, SESSION_CACHE_HOME, ignore_errors=True)


def _native_library_builds() -> bool:
    # Needs a C compiler and the Python headers; built once per session.
    try:
        native.load_layout_kernels()
    except (CompilerNotFoundError, CompilationError):
        return False
    return True


HAS_COMPILER = _native_library_builds()

requires_compiler = pytest.mark.skipif(
    not HAS_COMPILER,
    reason="the native library does not build (no C compiler or Python headers)")


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


def complete_table_leaf(ct, x) -> float:
    """Value of the leaf of complete table ``ct`` that ``x`` reaches in d steps."""
    i = 0
    for _ in range(ct.depth):
        i = 2 * i + 2 - (float(x[ct.fids[i]]) < float(ct.thetas[i]))
    return float(ct.leaf_values[i - len(ct.fids)])


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
