"""Model types, expansion, stats, and the text format."""

import math

import numpy as np
import pytest

from treescore import (
    MAX_DEPTH,
    CompleteTree,
    DepthLimitError,
    Ensemble,
    ModelSemanticError,
    ModelSyntaxError,
    Node,
    Tree,
    expand_to_complete,
    parse_model,
    reference_predict,
    serialize_model,
    traverse_to_leaf,
    tree_stats,
)
from treescore.model import DUMMY_FID, DUMMY_THETA, _f32
from treescore.synth import GenConfig, gen_tree

from conftest import (complete_table_leaf, random_ensemble,
                      random_unbalanced_tree)


def chain_tree(depth: int, fid: int = 0) -> Tree:
    """Left-leaning chain of the given depth."""
    node = Node.leaf(1.0)
    for level in range(depth):
        node = Node.internal(fid, 0.5 / (level + 2), node, Node.leaf(2.0))
    return Tree(node)


def recursive_expansion(tree: Tree) -> CompleteTree:
    """The complete tree of ``tree``, one recursive visit per table slot:
    the formula ``expand_to_complete`` must reproduce."""
    d = tree.depth
    n_internal = (1 << d) - 1
    fids = np.zeros(n_internal, dtype=np.int32)
    thetas = np.empty(n_internal, dtype=np.float32)
    leaves = np.empty(1 << d, dtype=np.float32)

    def fill(node: Node, slot: int):
        if slot >= n_internal:
            leaves[slot - n_internal] = node.value
            return
        if node.is_leaf:
            fids[slot] = DUMMY_FID
            thetas[slot] = DUMMY_THETA
            fill(node, 2 * slot + 1)
            fill(node, 2 * slot + 2)
        else:
            fids[slot] = node.fid
            thetas[slot] = node.threshold
            fill(node.left, 2 * slot + 1)
            fill(node.right, 2 * slot + 2)

    fill(tree.root, 0)
    return CompleteTree(d, fids, thetas, leaves)


class TestNodes:
    def test_leaf_and_internal_shape(self):
        leaf = Node.leaf(0.5)
        assert leaf.is_leaf and leaf.left is None and leaf.right is None
        split = Node.internal(2, 0.25, Node.leaf(0.0), Node.leaf(1.0))
        assert not split.is_leaf
        assert split.left.is_leaf and split.right.is_leaf

    def test_values_narrowed_to_float32(self):
        node = Node.internal(0, 0.1, Node.leaf(1.0 / 3.0), Node.leaf(0.0))
        assert node.threshold == float(np.float32(0.1))
        assert node.left.value == float(np.float32(1.0 / 3.0))

    def test_invalid_nodes_rejected(self):
        with pytest.raises(ModelSemanticError):
            Node.leaf(math.nan)
        with pytest.raises(ModelSemanticError):
            Node.internal(0, math.inf, Node.leaf(0.0), Node.leaf(1.0))
        with pytest.raises(ModelSemanticError):
            Node.internal(-1, 0.5, Node.leaf(0.0), Node.leaf(1.0))
        with pytest.raises(ModelSemanticError):
            Node.internal(0, 1e39, Node.leaf(0.0), Node.leaf(1.0))

    def test_shared_node_rejected(self):
        shared = Node.leaf(1.0)
        with pytest.raises(ModelSemanticError):
            Tree(Node.internal(0, 0.5, shared, shared))

    def test_tree_stats_fields(self):
        t = chain_tree(2)
        assert (t.depth, t.leaf_count, t.node_count) == (2, 3, 5)
        single = Tree(Node.leaf(0.25))
        assert (single.depth, single.leaf_count) == (0, 1)


FLT_MAX = float(np.finfo(np.float32).max)
# Halfway between FLT_MAX and 2**128: the smallest double that rounds to a
# float32 inf (a tie, and FLT_MAX's last mantissa bit is odd).
HALFWAY = 3.4028235677973366e38


class TestFloat32Narrowing:
    def test_equals_numpy(self):
        values = [FLT_MAX, HALFWAY, math.nextafter(HALFWAY, 0.0),
                  math.nextafter(HALFWAY, math.inf), 1e39, math.inf,
                  2.0 ** -149, 2.0 ** -150, 3 * 2.0 ** -151, 1e-40, 1e-46,
                  0.0, 1.0 / 3.0, 0.1, 7, True, False, np.float64(0.1),
                  np.float32(0.1), np.int64(3), 10 ** 30]
        values += [-v for v in values]
        values += list(np.logspace(-45, 40, 2000))
        for x in values:
            with np.errstate(over="ignore"):
                want = float(np.float32(x))
            got = _f32(x)
            assert got == want and math.copysign(1.0, got) == math.copysign(
                1.0, want), x
        assert math.isnan(_f32(math.nan))

    def test_halfway_rejected_and_flt_max_accepted(self):
        for sign in (1.0, -1.0):
            inf = repr(sign * math.inf)
            with pytest.raises(ModelSemanticError,
                               match=f"^leaf value must be finite, got {inf}$"):
                Node.leaf(sign * HALFWAY)
            with pytest.raises(ModelSemanticError,
                               match=f"^threshold must be finite, got {inf}$"):
                Node.internal(0, sign * HALFWAY, Node.leaf(0.0), Node.leaf(1.0))
            assert Node.leaf(sign * FLT_MAX).value == sign * FLT_MAX
            below = math.nextafter(sign * HALFWAY, 0.0)
            node = Node.internal(0, below, Node.leaf(0.0), Node.leaf(1.0))
            assert node.threshold == sign * FLT_MAX

    def test_halfway_rejected_and_flt_max_accepted_in_documents(self):
        def document(theta, leaf):
            return (f"ensemble 2 1\ntree 1.0\nnode 0 0 {theta!r} 1 2\n"
                    f"leaf 1 {leaf!r}\nleaf 2 1.0\nend\n")

        for x in (HALFWAY, -HALFWAY):
            with pytest.raises(ModelSemanticError,
                               match="^tree 0, line 3: threshold must be finite$"):
                parse_model(document(x, 0.0))
            with pytest.raises(ModelSemanticError,
                               match="^tree 0, line 4: leaf value must be finite$"):
                parse_model(document(0.5, x))
        root = parse_model(document(FLT_MAX, -FLT_MAX)).trees[0][0].root
        assert (root.threshold, root.left.value) == (FLT_MAX, -FLT_MAX)


class TestTraversal:
    def test_tie_goes_right(self):
        tree = Tree(Node.internal(0, 0.5, Node.leaf(-1.0), Node.leaf(1.0)))
        below = np.array([0.4999], dtype=np.float32)
        at = np.array([0.5], dtype=np.float32)
        assert traverse_to_leaf(tree.root, below).value == -1.0
        assert traverse_to_leaf(tree.root, at).value == 1.0

    def test_exactly_one_leaf_reached(self):
        rng = np.random.default_rng(5)
        tree = random_unbalanced_tree(rng, 6, 16)
        for _ in range(100):
            x = rng.random(16, dtype=np.float32)
            leaf = traverse_to_leaf(tree.root, x)
            assert leaf.is_leaf


class TestEnsemble:
    def test_feature_range_enforced(self):
        tree = Tree(Node.internal(5, 0.5, Node.leaf(0.0), Node.leaf(1.0)))
        Ensemble(6, [tree])
        with pytest.raises(ModelSemanticError):
            Ensemble(5, [tree])

    def test_rejects_empty_and_bad_weight(self):
        with pytest.raises(ModelSemanticError):
            Ensemble(4, [])
        with pytest.raises(ModelSemanticError):
            Ensemble(4, [(Tree(Node.leaf(1.0)), math.inf)])

    def test_stats_trivial_cases(self):
        complete3 = gen_tree(GenConfig(depth=3, num_features=8, seed=1))
        stats = tree_stats(Ensemble(8, [complete3]))
        assert stats.avg_depth == 3.0 and stats.avg_leaves == 8.0

        two = Ensemble(8, [chain_tree(2), chain_tree(4)])
        stats = tree_stats(two)
        assert stats.avg_depth == 3.0 and stats.max_depth == 4

    def test_stats_match_recursive_oracle(self):
        rng = np.random.default_rng(11)
        ens = random_ensemble(rng, 16, 50, 6)

        def depth_of(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth_of(node.left), depth_of(node.right))

        def leaves_of(node):
            if node.is_leaf:
                return 1
            return leaves_of(node.left) + leaves_of(node.right)

        depths = [depth_of(t.root) for t, _ in ens.trees]
        leaves = [leaves_of(t.root) for t, _ in ens.trees]
        stats = tree_stats(ens)
        assert stats.avg_depth == sum(depths) / len(depths)
        assert stats.max_depth == max(depths)
        assert stats.avg_leaves == sum(leaves) / len(leaves)


class TestExpansion:
    def test_complete_tree_is_fixed_point(self):
        tree = gen_tree(GenConfig(depth=2, num_features=4, seed=9))
        ct = expand_to_complete(tree)
        assert ct.depth == 2
        assert len(ct.fids) == 3 and len(ct.leaf_values) == 4
        order = [tree.root, tree.root.left, tree.root.right]
        for i, node in enumerate(order):
            assert ct.fids[i] == node.fid
            assert float(ct.thetas[i]) == node.threshold
        bottom = [tree.root.left.left, tree.root.left.right,
                  tree.root.right.left, tree.root.right.right]
        assert [float(v) for v in ct.leaf_values] == [n.value for n in bottom]

    def test_single_leaf_tree(self):
        ct = expand_to_complete(Tree(Node.leaf(1.25)))
        assert ct.depth == 0
        assert len(ct.fids) == 0
        assert ct.leaf_values.tolist() == [1.25]

    def test_unbalanced_three_leaf_probe_oracle(self):
        # Root splits on f0; only the right side splits again, on f1.
        tree = Tree(Node.internal(
            0, 0.5,
            Node.leaf(1.0),
            Node.internal(1, 0.25, Node.leaf(2.0), Node.leaf(3.0)),
        ))
        ct = expand_to_complete(tree)
        assert ct.depth == 2
        # One probe per (f0, f1) predicate combination.
        for x0 in (0.1, 0.9):
            for x1 in (0.1, 0.9):
                x = np.array([x0, x1], dtype=np.float32)
                expected = traverse_to_leaf(tree.root, x).value
                assert complete_table_leaf(ct, x) == expected

    def test_dummy_nodes_marked_with_sentinel(self):
        tree = Tree(Node.internal(0, 0.5, Node.leaf(1.0),
                                  Node.internal(1, 0.25, Node.leaf(2.0),
                                                Node.leaf(3.0))))
        ct = expand_to_complete(tree)
        assert ct.fids[1] == 0 and math.isinf(float(ct.thetas[1]))
        assert ct.leaf_values[0] == ct.leaf_values[1] == 1.0

    def test_preserves_predictions_bit_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            tree = random_unbalanced_tree(rng, 7, 12)
            ct = expand_to_complete(tree)
            for _ in range(25):
                x = rng.random(12, dtype=np.float32)
                assert complete_table_leaf(ct, x) \
                    == traverse_to_leaf(tree.root, x).value

    def test_matches_the_recursive_expansion(self):
        # Every tree shape the expansion meets: random unbalanced trees,
        # a single leaf, the deepest chain and a complete depth-11 tree.
        rng = np.random.default_rng(22)
        trees = [random_unbalanced_tree(rng, int(rng.integers(1, 9)), 12)
                 for _ in range(30)]
        trees += [Tree(Node.leaf(-0.5)), chain_tree(MAX_DEPTH, fid=3),
                  gen_tree(GenConfig(depth=11, num_features=64, seed=23))]
        for tree in trees:
            got, want = expand_to_complete(tree), recursive_expansion(tree)
            assert got.depth == want.depth == tree.depth
            assert got.fids.dtype == np.int32
            assert np.array_equal(got.fids, want.fids)
            assert got.thetas.tobytes() == want.thetas.tobytes()
            assert got.leaf_values.tobytes() == want.leaf_values.tobytes()

    def test_depth_limit(self):
        expand_to_complete(chain_tree(12))
        with pytest.raises(DepthLimitError):
            expand_to_complete(chain_tree(MAX_DEPTH + 1))

    def test_breadth_first_index_algebra(self):
        d = 6
        for i in range((1 << d) - 1):
            assert ((2 * i + 1) - 1) // 2 == i
            assert ((2 * i + 2) - 1) // 2 == i


class TestFormat:
    def test_minimal_document(self):
        doc = "ensemble 32 1\ntree 1.0\nleaf 0 0.5\nend\n"
        ens = parse_model(doc)
        assert ens.num_features == 32
        assert len(ens.trees) == 1
        tree, weight = ens.trees[0]
        assert tree.depth == 0 and weight == 1.0
        assert tree.root.value == 0.5

    def test_single_leaf_serializes_to_four_lines(self):
        ens = Ensemble(32, [Tree(Node.leaf(0.5))])
        lines = serialize_model(ens).splitlines()
        assert len(lines) == 4
        assert lines == ["ensemble 32 1", "tree 1.0", "leaf 0 0.5", "end"]

    def test_tree_blocks_keep_ensemble_order(self):
        ens = Ensemble(4, [(Tree(Node.leaf(1.0)), 0.25),
                           (Tree(Node.leaf(2.0)), 0.75)])
        doc = serialize_model(ens)
        first = doc.index("leaf 0 1.0")
        second = doc.index("leaf 0 2.0")
        assert first < second
        assert doc.index("tree 0.25") < doc.index("tree 0.75")

    def test_feature_id_out_of_range(self):
        doc = ("ensemble 4 1\n"
               "tree 1.0\n"
               "node 0 4 0.5 1 2\n"
               "leaf 1 0.0\n"
               "leaf 2 1.0\n"
               "end\n")
        with pytest.raises(ModelSemanticError, match="feature id 4 out of range"):
            parse_model(doc)

    def test_comments_and_blank_lines_ignored(self):
        doc = ("# header comment\n\n"
               "ensemble 2 1\n"
               "tree 1.0\n"
               "  # indented comment\n"
               "leaf 0 0.5\n"
               "end\n")
        assert parse_model(doc).trees[0][0].root.value == 0.5

    @pytest.mark.parametrize("doc,fragment", [
        ("", "empty document"),
        ("ensemble 2\n", "expected header"),
        ("ensemble 2 1\ntrees 1.0\nleaf 0 0.5\nend\n", "expected 'tree"),
        ("ensemble 2 1\ntree 1.0\nleaf 0 0.5\n", "missing 'end'"),
        ("ensemble 2 1\ntree x\nleaf 0 0.5\nend\n", "expected float weight"),
        ("ensemble 2 1\ntree 1.0\nnode 0 0 0.5 1\nleaf 1 0.0\nend\n",
         "expected 'node"),
        ("ensemble 2 2\ntree 1.0\nleaf 0 0.5\nend\n", "expected 2 tree"),
        ("ensemble 2 1\ntree 1.0\nleaf 0 0.5\nend\nleaf 1 0.0\n",
         "unexpected content"),
    ])
    def test_syntax_errors(self, doc, fragment):
        with pytest.raises(ModelSyntaxError, match=fragment):
            parse_model(doc)

    def test_syntax_error_reports_line_and_column(self):
        doc = "ensemble 2 1\ntree 1.0\nleaf zero 0.5\nend\n"
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(doc)
        assert err.value.line == 3
        assert err.value.col == 6

    @pytest.mark.parametrize("doc,fragment", [
        # dangling child id
        ("ensemble 2 1\ntree 1.0\nnode 0 0 0.5 1 7\nleaf 1 0.0\nend\n",
         "dangling child"),
        # duplicate id
        ("ensemble 2 1\ntree 1.0\nleaf 0 0.5\nleaf 0 0.7\nend\n",
         "duplicate node id"),
        # non-dense ids
        ("ensemble 2 1\ntree 1.0\nnode 0 0 0.5 1 3\nleaf 1 0.0\nleaf 3 1.0\nend\n",
         "dense"),
        # one node with two parents (left == right)
        ("ensemble 2 1\ntree 1.0\nnode 0 0 0.5 1 1\nleaf 1 0.0\nend\n",
         "multiple parents"),
        # root referenced as a child (cycle)
        ("ensemble 2 1\ntree 1.0\nnode 0 0 0.5 0 1\nleaf 1 0.0\nend\n",
         "root"),
        # disconnected pair, mutually parented
        ("ensemble 2 1\ntree 1.0\nnode 0 0 0.5 1 2\nleaf 1 0.0\nleaf 2 1.0\n"
         "node 3 1 0.5 4 3\nleaf 4 0.0\nend\n",
         "multiple parents|unreachable"),
        # infinite threshold
        ("ensemble 2 1\ntree 1.0\nnode 0 0 inf 1 2\nleaf 1 0.0\nleaf 2 1.0\nend\n",
         "finite"),
    ])
    def test_semantic_errors(self, doc, fragment):
        with pytest.raises(ModelSemanticError, match=fragment):
            parse_model(doc)

    def test_roundtrip_is_byte_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            ens = random_ensemble(rng, int(rng.choice([2, 8, 32])),
                                  int(rng.integers(1, 6)), 5)
            doc = serialize_model(ens)
            assert serialize_model(parse_model(doc)) == doc

    def test_reparsed_model_predicts_identically(self):
        cfg = GenConfig(depth=5, num_features=32, seed=3)
        tree = gen_tree(cfg)
        ens = Ensemble(32, [(tree, 0.7)])
        reparsed = parse_model(serialize_model(ens))
        rng = np.random.default_rng(17)
        for _ in range(1000):
            x = rng.random(32, dtype=np.float32)
            assert reference_predict(reparsed, x) == reference_predict(ens, x)
