"""Random tree construction and leaf-uniform vector generation."""

import tracemalloc

import numpy as np
import pytest

from treescore import Ensemble, Node, Tree, serialize_model, traverse_to_leaf
from treescore import synth
from treescore.synth import (
    GenConfig,
    GenerationError,
    gen_ensemble,
    gen_leaf_uniform_vectors,
    gen_tree,
)


def leaf_hits(tree: Tree, dataset) -> np.ndarray:
    hits = np.zeros(tree.leaf_count, dtype=np.int64)
    for i in range(dataset.count):
        leaf = traverse_to_leaf(tree.root, dataset.matrix[i])
        hits[tree.leaf_ordinal(leaf)] += 1
    return hits


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(depth=-1, num_features=4)
        with pytest.raises(ValueError):
            GenConfig(depth=1, num_features=0)
        with pytest.raises(ValueError):
            GenConfig(depth=1, num_features=4, num_vectors=-1)
        with pytest.raises(ValueError):
            GenConfig(depth=1, num_features=4, domain=(1.0, 1.0))
        with pytest.raises(ValueError):
            GenConfig(depth=1, num_features=4, seed=-3)


class TestGenTree:
    def test_depth_zero_single_leaf(self):
        tree = gen_tree(GenConfig(depth=0, num_features=4, seed=0))
        assert tree.depth == 0 and tree.leaf_count == 1
        assert tree.root.is_leaf

    def test_depth_three_is_complete(self):
        tree = gen_tree(GenConfig(depth=3, num_features=8, seed=0))
        assert tree.depth == 3
        assert tree.leaf_count == 8
        assert tree.node_count == 15

        # Every root-to-leaf path has length exactly 3.
        def paths(node, k):
            if node.is_leaf:
                yield k
            else:
                yield from paths(node.left, k + 1)
                yield from paths(node.right, k + 1)

        assert set(paths(tree.root, 0)) == {3}

    def test_determinism(self):
        cfg = GenConfig(depth=4, num_features=16, seed=77)
        a = serialize_model(Ensemble(16, [gen_tree(cfg)]))
        b = serialize_model(Ensemble(16, [gen_tree(cfg)]))
        assert a == b
        other = GenConfig(depth=4, num_features=16, seed=78)
        c = serialize_model(Ensemble(16, [gen_tree(other)]))
        assert a != c

    def test_domain_closure(self):
        tree = gen_tree(GenConfig(depth=6, num_features=4, seed=5))

        def walk(node):
            if node.is_leaf:
                assert 0.0 <= node.value < 1.0
            else:
                assert 0.0 < node.threshold < 1.0
                walk(node.left)
                walk(node.right)

        walk(tree.root)

    def test_repeated_feature_paths_stay_consistent(self):
        # Few features and many levels force repeated splits per path.
        cfg = GenConfig(depth=8, num_features=2, seed=13, num_vectors=512)
        tree = gen_tree(cfg)
        assert tree.leaf_count == 256
        ds, assigned = gen_leaf_uniform_vectors(tree, cfg, with_assignments=True)
        for i in range(ds.count):
            leaf = traverse_to_leaf(tree.root, ds.matrix[i])
            assert tree.leaf_ordinal(leaf) == assigned[i]

    def test_gen_ensemble_trees_differ(self):
        cfg = GenConfig(depth=3, num_features=8, seed=9)
        ens = gen_ensemble(cfg, 3)
        docs = {serialize_model(Ensemble(8, [t])) for t, _ in ens.trees}
        assert len(docs) == 3
        again = gen_ensemble(cfg, 3)
        assert serialize_model(ens) == serialize_model(again)


def copying_leaf_uniform_vectors(tree: Tree, cfg: GenConfig):
    """Leaf-uniform rows and assignments drawn in one piece and shuffled by
    a copy through ``permutation(n)``: the formula the generator must
    reproduce byte for byte."""
    rng = np.random.default_rng([cfg.seed, synth._DATA_STREAM])
    n, f = cfg.num_vectors, cfg.num_features
    constraints = synth._leaf_constraints(tree, cfg.domain)
    lo0, hi0 = synth._f32(cfg.domain[0]), synth._f32(cfg.domain[1])
    if cfg.domain == (0.0, 1.0):
        matrix = rng.random((n, f), dtype=np.float32)
    else:
        matrix = (lo0 + (hi0 - lo0) * rng.random((n, f))).astype(np.float32)
        np.maximum(matrix, np.float32(lo0), out=matrix)
        matrix[matrix >= hi0] = np.nextafter(np.float32(hi0), np.float32(lo0))
    assigned = np.arange(n, dtype=np.int64) % len(constraints)
    for ordinal, bounds in enumerate(constraints):
        rows = np.arange(ordinal, n, len(constraints))
        if rows.size == 0:
            continue
        for fid in sorted(bounds):
            lo, hi = bounds[fid]
            vals = (lo + (hi - lo) * rng.random(rows.size)).astype(np.float32)
            np.maximum(vals, np.float32(lo), out=vals)
            vals[vals >= hi] = np.nextafter(np.float32(hi), np.float32(lo))
            matrix[rows, fid] = vals
    perm = rng.permutation(n)
    return matrix[perm], assigned[perm]


DOMAINS = [pytest.param((0.0, 1.0), id="unit"),
           pytest.param((-2.0, 2.5), id="scaled"),
           pytest.param((0.1, 0.7), id="inexact")]


class TestLeafUniformVectors:
    def test_depth_one_exact_split(self):
        cfg = GenConfig(depth=1, num_features=4, seed=2, num_vectors=1000)
        tree = gen_tree(cfg)
        ds = gen_leaf_uniform_vectors(tree, cfg)
        hits = leaf_hits(tree, ds)
        assert hits.tolist() == [500, 500]

    def test_depth_zero_fully_random(self):
        cfg = GenConfig(depth=0, num_features=6, seed=2, num_vectors=10)
        tree = gen_tree(cfg)
        ds = gen_leaf_uniform_vectors(tree, cfg)
        assert ds.count == 10 and ds.num_features == 6

    def test_balanced_counts_and_targeting(self):
        cfg = GenConfig(depth=4, num_features=8, seed=4, num_vectors=1603)
        tree = gen_tree(cfg)
        ds, assigned = gen_leaf_uniform_vectors(tree, cfg, with_assignments=True)
        hits = leaf_hits(tree, ds)
        assert hits.max() - hits.min() <= 1
        assert hits.sum() == 1603
        for i in range(ds.count):
            leaf = traverse_to_leaf(tree.root, ds.matrix[i])
            assert tree.leaf_ordinal(leaf) == assigned[i]

    def test_values_inside_domain(self):
        cfg = GenConfig(depth=3, num_features=8, seed=6, num_vectors=400)
        tree = gen_tree(cfg)
        ds = gen_leaf_uniform_vectors(tree, cfg)
        assert float(ds.matrix.min()) >= 0.0
        assert float(ds.matrix.max()) < 1.0

    def test_determinism_and_assignment_flag(self):
        cfg = GenConfig(depth=3, num_features=8, seed=8, num_vectors=64)
        tree = gen_tree(cfg)
        a = gen_leaf_uniform_vectors(tree, cfg)
        b, assigned = gen_leaf_uniform_vectors(tree, cfg, with_assignments=True)
        assert np.array_equal(a.matrix, b.matrix)
        assert assigned.shape == (64,)

    def test_empty_dataset(self):
        cfg = GenConfig(depth=2, num_features=4, seed=1, num_vectors=0)
        tree = gen_tree(cfg)
        ds = gen_leaf_uniform_vectors(tree, cfg)
        assert ds.count == 0

    def test_foreign_contradictory_tree_rejected(self):
        # Right branch demands x0 >= 0.7 inside a subtree that already
        # requires x0 < 0.5: that leaf cannot be reached.
        inner = Node.internal(0, 0.7, Node.leaf(1.0), Node.leaf(2.0))
        tree = Tree(Node.internal(0, 0.5, inner, Node.leaf(3.0)))
        cfg = GenConfig(depth=2, num_features=2, seed=0, num_vectors=8)
        with pytest.raises(GenerationError, match="unreachable"):
            gen_leaf_uniform_vectors(tree, cfg)

    def test_chain_deeper_than_the_recursion_limit(self):
        # 1,500 splits on feature 0 with a leaf on the right of each and
        # thresholds rising toward the root, so all 1,501 leaves are
        # reachable.
        depth = 1500
        node = Node.leaf(0.0)
        for k in range(depth):
            node = Node.internal(0, 0.25 + 0.5 * (k + 1) / (depth + 1), node,
                                 Node.leaf(k + 1.0))
        tree = Tree(node)
        cfg = GenConfig(depth=depth, num_features=2, seed=3,
                        num_vectors=2 * (depth + 1))
        data, assigned = gen_leaf_uniform_vectors(tree, cfg,
                                                  with_assignments=True)
        reached = [tree.leaf_ordinal(traverse_to_leaf(tree.root, x))
                   for x in data.matrix]
        assert reached == assigned.tolist()
        assert leaf_hits(tree, data).tolist() == [2] * (depth + 1)

    def test_feature_count_mismatch_rejected(self):
        tree = gen_tree(GenConfig(depth=2, num_features=8, seed=3))
        cfg = GenConfig(depth=2, num_features=2, seed=3, num_vectors=4)
        with pytest.raises(GenerationError, match="beyond num_features"):
            gen_leaf_uniform_vectors(tree, cfg)

    def test_custom_domain(self):
        cfg = GenConfig(depth=2, num_features=4, seed=5, num_vectors=200,
                        domain=(-2.0, 2.0))
        tree = gen_tree(cfg)
        ds, assigned = gen_leaf_uniform_vectors(tree, cfg, with_assignments=True)
        assert float(ds.matrix.min()) >= -2.0
        assert float(ds.matrix.max()) < 2.0
        for i in range(ds.count):
            leaf = traverse_to_leaf(tree.root, ds.matrix[i])
            assert tree.leaf_ordinal(leaf) == assigned[i]

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("seed, depth, f, n", [
        (0, 3, 8, 0), (1, 0, 5, 1), (7, 4, 16, 2500), (12, 5, 3, 12001)])
    def test_in_place_shuffle_matches_copying_shuffle(self, domain, seed,
                                                      depth, f, n):
        cfg = GenConfig(depth=depth, num_features=f, seed=seed, num_vectors=n,
                        domain=domain)
        tree = gen_tree(cfg)
        ds, assigned = gen_leaf_uniform_vectors(tree, cfg, with_assignments=True)
        matrix, expected = copying_leaf_uniform_vectors(tree, cfg)
        assert ds.matrix.tobytes() == matrix.tobytes()
        assert np.array_equal(assigned, expected)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_peak_memory_is_about_one_matrix(self, domain):
        cfg = GenConfig(depth=4, num_features=64, seed=3, num_vectors=20_000,
                        domain=domain)
        tree = gen_tree(cfg)
        tracemalloc.start()
        try:
            ds = gen_leaf_uniform_vectors(tree, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * ds.matrix.nbytes, peak / ds.matrix.nbytes
