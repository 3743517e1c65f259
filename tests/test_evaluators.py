"""Strategy builds, prediction equivalence, kernels, and tracing."""

import gc
import re
import sys
import sysconfig
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from treescore import (
    MAX_DEPTH,
    Ensemble,
    Node,
    StrategyKind,
    Tree,
    build,
    predict_ensemble_traced,
    reference_batch,
    reference_predict,
    serialize_model,
    traverse_to_leaf,
)
from treescore import Dataset, codegen, native
from treescore.synth import GenConfig, gen_leaf_uniform_vectors, gen_tree

from conftest import (
    HAS_COMPILER,
    chain_tree,
    random_ensemble,
    random_matrix,
    random_unbalanced_tree,
    requires_compiler,
)

SCALAR_KINDS = (StrategyKind.HEAP_LINKED, StrategyKind.COMPACT_LINKED,
                StrategyKind.CONTIGUOUS, StrategyKind.PREDICATED)


def all_evaluators(ensemble, batch_sizes=(1, 4, 16)):
    evs = [build(ensemble, kind) for kind in SCALAR_KINDS]
    evs += [build(ensemble, StrategyKind.VPREDICATED, v) for v in batch_sizes]
    return evs


class TestBuild:
    @requires_compiler
    def test_single_leaf_all_kinds(self):
        ens = Ensemble(4, [(Tree(Node.leaf(1.5)), 2.0)])
        x = np.zeros(4, dtype=np.float32)
        for ev in all_evaluators(ens):
            assert ev.predict(x) == 3.0
            assert ev.predict(np.ones(4, dtype=np.float32)) == 3.0

    @requires_compiler
    def test_depth_boundary_for_predicated(self):
        # One level past the deepest tree expand_to_complete builds: no
        # strategy, the predicated pair included, limits the depth.
        assert_layouts_match_reference(*falling_chain(MAX_DEPTH + 1))

    def test_build_argument_errors(self):
        ens = Ensemble(4, [Tree(Node.leaf(1.0))])
        with pytest.raises(ValueError, match="batch_size"):
            build(ens, StrategyKind.VPREDICATED)
        with pytest.raises(ValueError, match="batch_size"):
            build(ens, StrategyKind.CONTIGUOUS, 8)
        with pytest.raises(ValueError, match="build_generated"):
            build(ens, StrategyKind.GENERATED)
        with pytest.raises(ValueError):
            build(ens, StrategyKind.VPREDICATED, 0)
        with pytest.raises(ValueError):
            build(ens, "no_such_kind")
        with pytest.raises(ValueError, match="no table layout"):
            native.layout_kernel(ens, "generated")

    @requires_compiler
    def test_kind_accepts_string_names(self):
        ens = Ensemble(4, [Tree(Node.leaf(1.0))])
        ev = build(ens, "contiguous")
        assert ev.kind is StrategyKind.CONTIGUOUS

    @requires_compiler
    def test_cross_strategy_agreement_random(self):
        rng = np.random.default_rng(100)
        for trial in range(25):
            f = int(rng.choice([8, 32]))
            ens = random_ensemble(rng, f, int(rng.integers(1, 7)), 6)
            X = random_matrix(rng, 60, f)
            expected = reference_batch(ens, X)
            for ev in all_evaluators(ens):
                assert np.array_equal(ev.predict_batch(X), expected), ev.kind


@requires_compiler
class TestPredict:
    def test_two_single_leaf_trees_sum(self):
        ens = Ensemble(4, [(Tree(Node.leaf(1.0)), 1.0),
                           (Tree(Node.leaf(2.0)), 1.0)])
        x = np.zeros(4, dtype=np.float32)
        for ev in all_evaluators(ens):
            assert ev.predict(x) == 3.0

    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(7)
        trees = [(gen_tree(GenConfig(depth=3, num_features=8, seed=s)), 0.0)
                 for s in range(3)]
        ens = Ensemble(8, trees)
        x = rng.random(8, dtype=np.float32)
        for ev in all_evaluators(ens):
            assert ev.predict(x) == 0.0

    def test_heap_equals_vpred16_bit_exact(self):
        rng = np.random.default_rng(8)
        ens = random_ensemble(rng, 32, 8, 7)
        X = random_matrix(rng, 1000, 32)
        heap = build(ens, StrategyKind.HEAP_LINKED).predict_batch(X)
        vpred = build(ens, StrategyKind.VPREDICATED, 16).predict_batch(X)
        assert np.array_equal(heap, vpred)

    def test_dimension_mismatch(self):
        ens = Ensemble(4, [Tree(Node.leaf(1.0))])
        ev = build(ens, StrategyKind.CONTIGUOUS)
        with pytest.raises(ValueError, match="feature vector"):
            ev.predict(np.zeros(5, dtype=np.float32))
        with pytest.raises(ValueError, match="dataset"):
            ev.predict_batch(np.zeros((3, 5), dtype=np.float32))


@requires_compiler
class TestPredictBatch:
    def test_empty_input(self):
        ens = Ensemble(4, [Tree(Node.leaf(1.0))])
        for ev in all_evaluators(ens):
            out = ev.predict_batch(np.zeros((0, 4), dtype=np.float32))
            assert out.shape == (0,)

    def test_remainder_rows_equal_single_row_scores(self):
        rng = np.random.default_rng(9)
        ens = random_ensemble(rng, 8, 3, 5)
        X = random_matrix(rng, 5, 8)
        ev = build(ens, StrategyKind.VPREDICATED, 4)
        out = ev.predict_batch(X)
        per_row = np.array([ev.predict(X[i]) for i in range(5)])
        assert np.array_equal(out, per_row)

    def test_batch_larger_than_input(self):
        rng = np.random.default_rng(10)
        ens = random_ensemble(rng, 8, 2, 4)
        X = random_matrix(rng, 3, 8)
        ev = build(ens, StrategyKind.VPREDICATED, 64)
        assert np.array_equal(ev.predict_batch(X), reference_batch(ens, X))

    def test_all_kinds_and_batch_sizes_identical(self):
        rng = np.random.default_rng(11)
        ens = random_ensemble(rng, 32, 5, 6)
        X = random_matrix(rng, 2000, 32)
        # Non-finite features in a block long enough for full lockstep
        # batches: NaN and +inf go right everywhere, -inf goes left.
        block = X[:64]
        mask = rng.random(block.shape) < 0.3
        block[mask] = rng.choice([np.nan, np.inf, -np.inf], size=int(mask.sum()))
        expected = reference_batch(ens, X)
        evs = all_evaluators(ens, batch_sizes=(1, 8, 16, 32, 64))
        if HAS_COMPILER:
            evs.append(codegen.build_generated(ens))
        for ev in evs:
            assert np.array_equal(ev.predict_batch(X), expected), ev.kind

    def test_permutation_independence(self):
        rng = np.random.default_rng(12)
        ens = random_ensemble(rng, 16, 4, 5)
        X = random_matrix(rng, 257, 16)
        perm = rng.permutation(257)
        for ev in all_evaluators(ens):
            base = ev.predict_batch(X)
            shuffled = ev.predict_batch(X[perm])
            unshuffled = np.empty_like(shuffled)
            unshuffled[perm] = shuffled
            assert np.array_equal(unshuffled, base)

    def test_mixed_depth_ensemble_under_vpred(self):
        trees = [gen_tree(GenConfig(depth=d, num_features=8, seed=d))
                 for d in (0, 2, 5)]
        ens = Ensemble(8, [(t, 1.0) for t in trees])
        rng = np.random.default_rng(13)
        X = random_matrix(rng, 333, 8)
        ev = build(ens, StrategyKind.VPREDICATED, 16)
        assert np.array_equal(ev.predict_batch(X), reference_batch(ens, X))


class TestPredicationKernel:
    def test_index_range_property(self):
        # Every index the update visits from a root lies in its tree's
        # entries, and the leaf it reaches after depth steps loops to
        # itself: two more steps leave it there.
        rng = np.random.default_rng(15)
        trees = [gen_tree(GenConfig(depth=depth, num_features=8, seed=depth))
                 for depth in (1, 3, 6, 9)]
        trees += [random_unbalanced_tree(rng, 8, 8) for _ in range(4)]
        ens = Ensemble(8, trees)
        nodes, roots = native._predicated_entries(*ens.node_table)
        ends = np.append(roots[1:], nodes.shape[0])
        X = random_matrix(rng, 64, 8)
        rows = np.arange(X.shape[0])
        for (tree, _), root, end in zip(ens.trees, roots.tolist(), ends):
            i = np.full(X.shape[0], root)
            for step in range(tree.depth + 2):
                if step == tree.depth:
                    leaves = i
                e = nodes[i]
                i = e["left"] + 1 - (X[rows, e["fid"]] < e["theta"])
                assert np.all((root <= i) & (i < end))
            assert np.array_equal(i, leaves)
            assert np.isnan(nodes["theta"][leaves]).all()


@requires_compiler
class TestStorage:
    def test_contiguous_packs_tightly(self):
        rng = np.random.default_rng(17)
        tree = random_unbalanced_tree(rng, 6, 8)
        ens = Ensemble(8, [tree])
        contiguous = build(ens, StrategyKind.CONTIGUOUS)
        assert contiguous.stored_node_count == tree.node_count

    def test_predicated_stores_complete_table(self):
        rng = np.random.default_rng(18)
        tree = random_unbalanced_tree(rng, 6, 8)
        d = tree.depth
        ens = Ensemble(8, [tree])
        predicated = build(ens, StrategyKind.PREDICATED)
        assert predicated.stored_node_count == (1 << (d + 1)) - 1
        assert predicated.stored_node_count >= tree.node_count

    def test_linked_counts(self):
        rng = np.random.default_rng(19)
        tree = random_unbalanced_tree(rng, 5, 8)
        ens = Ensemble(8, [tree])
        for kind in (StrategyKind.HEAP_LINKED, StrategyKind.COMPACT_LINKED):
            assert build(ens, kind).stored_node_count == tree.node_count

    def test_table_bytes(self):
        # Two trees, one weight (8 bytes) each: 6 nodes, a depth-2 tree of
        # 5 with its complete table of 3 internal entries and 4 leaves,
        # and a single leaf (depth 0: 1 leaf).
        ens = Ensemble(4, [
            (Tree(Node.internal(2, 0.5, Node.leaf(1.0), Node.internal(
                3, 0.25, Node.leaf(2.0), Node.leaf(3.0)))), 0.5),
            (Tree(Node.leaf(4.0)), 2.0)])
        weights = 2 * 8
        # A 16-byte entry per node (int32 fid, float32 value, uint32 left
        # and right offsets); uint32 roots.
        contiguous = 6 * 4 * 4 + 2 * 4 + weights
        # A pointer to each root and a 24-byte record per node.
        compact = 2 * 8 + 6 * 24 + weights
        # A pointer to each root, a 32-byte object per internal node (type
        # pointer, fid, threshold, two children) and a 16-byte one per leaf
        # (type pointer, value).
        heap = 2 * 8 + 2 * 32 + 4 * 16 + weights
        # A 16-byte entry per node (int32 fid, float32 theta, int32 left,
        # float32 value); per tree an int32 root and an int32 depth.
        predicated = 6 * 16 + 2 * 4 + 2 * 4 + weights
        for kind, v, want in ((StrategyKind.CONTIGUOUS, None, contiguous),
                              (StrategyKind.COMPACT_LINKED, None, compact),
                              (StrategyKind.HEAP_LINKED, None, heap),
                              (StrategyKind.PREDICATED, None, predicated),
                              (StrategyKind.VPREDICATED, 4, predicated)):
            assert build(ens, kind, v).table_bytes == want, kind
        assert codegen.build_generated(ens).table_bytes == 0


class TestNodeTables:
    """``Ensemble.node_table``, the breadth-first node tables every
    in-process layout is packed from: the linked layouts allocate their
    objects in table order, so the order decides where they are placed."""

    # An unbalanced tree whose left subtree is the deeper one, a single
    # leaf, and a stump, each with its weight.
    ENSEMBLE = Ensemble(4, [
        (Tree(Node.internal(
            0, 0.5,
            Node.internal(1, 0.25, Node.leaf(1.0), Node.internal(
                2, 0.125, Node.leaf(2.0), Node.leaf(3.0))),
            Node.leaf(4.0))), 1.0),
        (Tree(Node.leaf(5.0)), 1.0),
        (Tree(Node.internal(3, 0.75, Node.leaf(6.0), Node.leaf(7.0))), 1.0)])

    @staticmethod
    def assert_tables(tables, fids, values, left, roots):
        assert len(tables) == 4
        for got, want, dtype in zip(tables, (fids, values, left, roots),
                                    (np.int32, np.float32, np.int32, np.int32)):
            assert got.dtype == dtype
            assert got.tolist() == want

    def test_breadth_first(self):
        self.assert_tables(
            self.ENSEMBLE.node_table,
            fids=[0, 1, -1, -1, 2, -1, -1, -1, 3, -1, -1],
            values=[0.5, 0.25, 4.0, 1.0, 0.125, 2.0, 3.0, 5.0, 0.75, 6.0, 7.0],
            left=[1, 3, 0, 0, 5, 0, 0, 0, 9, 0, 0],
            roots=[0, 7, 8])

    def test_orders_on_random_ensembles(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            ens = random_ensemble(rng, 8, int(rng.integers(1, 12)),
                                  int(rng.integers(0, 8)))
            count = sum(tree.node_count for tree, _ in ens.trees)
            fids, _, left, roots = ens.node_table
            assert fids.shape == (count,)
            internal = np.flatnonzero(fids >= 0)
            # Children come after their parent.
            assert np.all(left[internal] > internal)
            # With the right child at ``left + 1``, every node but the
            # roots is the child of exactly one node.
            children = np.concatenate([left[internal], left[internal] + 1])
            assert sorted(children.tolist() + roots.tolist()) == list(
                range(count))

    def test_contiguous_entries(self):
        # The breadth-first tables as 16-byte entries; children and roots
        # by byte offset.
        nodes, roots = native._contiguous_entries(*self.ENSEMBLE.node_table)
        assert nodes.dtype == native.CONTIGUOUS_ENTRY
        assert nodes.dtype.itemsize == 16
        assert nodes["fid"].tolist() == [0, 1, -1, -1, 2, -1, -1, -1, 3, -1, -1]
        assert nodes["value"].tolist() == [0.5, 0.25, 4.0, 1.0, 0.125, 2.0,
                                           3.0, 5.0, 0.75, 6.0, 7.0]
        assert nodes["left"].tolist() == [16, 48, 0, 0, 80, 0, 0, 0, 144, 0, 0]
        assert nodes["right"].tolist() == [32, 64, 0, 0, 96, 0, 0, 0, 160, 0,
                                           0]
        assert roots.dtype == np.uint32
        assert roots.tolist() == [0, 112, 128]

    def test_contiguous_table_limit(self, monkeypatch):
        # Offsets are uint32, so the table may span at most 4 GiB.
        tables = self.ENSEMBLE.node_table
        monkeypatch.setattr(native, "CONTIGUOUS_TABLE_LIMIT", 11 * 16)
        native._contiguous_entries(*tables)
        monkeypatch.setattr(native, "CONTIGUOUS_TABLE_LIMIT", 11 * 16 - 1)
        with pytest.raises(ValueError, match="11 nodes exceed"):
            native._contiguous_entries(*tables)

    # The same trees with the single leaf first, where its self-loop is
    # left = -1, then the stump and the unbalanced tree.
    LEAF_FIRST = Ensemble(4, ENSEMBLE.trees[1:] + ENSEMBLE.trees[:1])

    def test_predicated_entries(self):
        # A split holds its left child's index, and a leaf fid 0, theta
        # NaN and its own index - 1.
        nodes, roots = native._predicated_entries(*self.LEAF_FIRST.node_table)
        assert nodes.dtype == native.PREDICATED_ENTRY
        assert nodes.dtype.itemsize == 16
        assert nodes["fid"].tolist() == [0, 3, 0, 0, 0, 1, 0, 0, 2, 0, 0]
        leaf = [0, 2, 3, 6, 7, 9, 10]
        assert np.isnan(nodes["theta"][leaf]).all()
        assert np.delete(nodes["theta"], leaf).tolist() == [0.75, 0.5, 0.25,
                                                            0.125]
        assert nodes["left"].tolist() == [-1, 2, 1, 2, 5, 7, 5, 6, 9, 8, 9]
        assert nodes["value"].tolist() == [5.0, 0.0, 6.0, 7.0, 0.0, 0.0, 4.0,
                                           1.0, 0.0, 2.0, 3.0]
        assert roots.dtype == np.int32
        assert roots.tolist() == [0, 1, 4]

    def test_predicated_table_limit(self, monkeypatch):
        # Indices are int32, so the table may hold at most 2^31 entries.
        tables = self.LEAF_FIRST.node_table
        monkeypatch.setattr(native, "PREDICATED_TABLE_LIMIT", 11)
        native._predicated_entries(*tables)
        monkeypatch.setattr(native, "PREDICATED_TABLE_LIMIT", 10)
        with pytest.raises(ValueError, match="11 nodes exceed"):
            native._predicated_entries(*tables)

    def test_predicated_update_ends_on_the_reference_leaf(self):
        # The kernel's update, applied depth times from each root, ends on
        # the breadth-first index of the leaf the reference walk reaches,
        # on rows with ties, NaN and infinities.
        rng = np.random.default_rng(41)
        for _ in range(10):
            ens = random_ensemble(rng, 8, int(rng.integers(1, 12)),
                                  int(rng.integers(0, 8)))
            nodes, roots = native._predicated_entries(*ens.node_table)
            pool = [n.threshold for t, _ in ens.trees for n in _nodes(t)
                    if not n.is_leaf] + [np.nan, np.inf, -np.inf]
            X = random_matrix(rng, 64, 8)
            X[:16] = rng.choice(np.array(pool, dtype=np.float32), size=(16, 8))
            index = {}          # id of a node -> its breadth-first index
            for tree, _ in ens.trees:
                level = [tree.root]
                while level:
                    for node in level:
                        index[id(node)] = len(index)
                    level = [c for n in level if not n.is_leaf
                             for c in (n.left, n.right)]
            for (tree, _), root in zip(ens.trees, roots.tolist()):
                assert root == index[id(tree.root)]
                i = np.full(X.shape[0], root)
                for _ in range(tree.depth):
                    e = nodes[i]
                    i = e["left"] + 1 - (X[np.arange(X.shape[0]), e["fid"]]
                                         < e["theta"])
                want = [index[id(traverse_to_leaf(tree.root, x))] for x in X]
                assert i.tolist() == want

    @requires_compiler
    def test_read_only_and_left_as_built(self):
        # The ensemble numbers its nodes once; the layouts and
        # serialize_model only read the table.
        ens = random_ensemble(np.random.default_rng(42), 8, 6, 5)
        table = ens.node_table
        before = [a.copy() for a in table]
        for array in table:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        for kind, v in TABLE_BUILDS:
            build(ens, kind, v)
        serialize_model(ens)
        assert all(a is b for a, b in zip(ens.node_table, table))
        for got, want in zip(table, before):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


LINKED_LAYOUTS = ((StrategyKind.HEAP_LINKED, None),
                  (StrategyKind.COMPACT_LINKED, None),
                  (StrategyKind.CONTIGUOUS, None))
# The five in-process strategies; v = 300 is above the 256 lanes a
# lockstep block steps at once, so its blocks go 256 rows at a time.
TABLE_BUILDS = LINKED_LAYOUTS + ((StrategyKind.PREDICATED, None),) + tuple(
    (StrategyKind.VPREDICATED, v) for v in (1, 3, 16, 300))


@pytest.fixture(params=[pytest.param("native", marks=requires_compiler)])
def layout_path(request):
    """The path the table strategies run on: their native kernels, which
    need a host compiler."""
    return request.param


def assert_layouts_match_reference(ens, X, builds=TABLE_BUILDS):
    """Every build's ``predict_batch`` and ``predict`` scores are the
    reference's, bit for bit."""
    expected = reference_batch(ens, X).view(np.uint64)
    for kind, v in builds:
        ev = build(ens, kind, v)
        assert np.array_equal(ev.predict_batch(X).view(np.uint64),
                              expected), (kind, v)
        rows = np.array([ev.predict(X[i]) for i in range(X.shape[0])],
                        dtype=np.float64)
        assert np.array_equal(rows.view(np.uint64), expected), (kind, v)


def falling_chain(depth: int):
    """A ``depth``-level chain whose thresholds fall level by level, next to
    shallow trees, and rows that leave it at every level, between
    thresholds and exactly on them."""
    node = Node.leaf(-1.0)
    for level in range(depth):
        node = Node.internal(0, (level + 1) / 32, node, Node.leaf(level))
    rng = np.random.default_rng(35)
    ens = Ensemble(2, [(Tree(node), 0.5),
                       (random_unbalanced_tree(rng, 4, 2), 1.5),
                       (Tree(Node.leaf(3.0)), 1.0)])
    X = rng.random((2 * depth + 2, 2), dtype=np.float32)
    X[:, 0] = np.arange(2 * depth + 2) / 64
    return ens, X


@pytest.mark.usefixtures("layout_path")
class TestLayoutKernels:
    def test_mixed_ensembles(self):
        rng = np.random.default_rng(30)
        for _ in range(8):
            f = int(rng.choice([4, 32, 128]))
            ens = random_ensemble(rng, f, int(rng.integers(2, 40)),
                                  int(rng.integers(0, 9)))
            assert_layouts_match_reference(ens, random_matrix(rng, 200, f))

    def test_depth_zero_trees(self):
        ens = Ensemble(3, [(Tree(Node.leaf(1.5)), 0.5),
                           (chain_tree(2), 2.0),
                           (Tree(Node.leaf(-4.0)), 1.25)])
        X = random_matrix(np.random.default_rng(31), 50, 3)
        assert_layouts_match_reference(ens, X)
        single = Ensemble(3, [(Tree(Node.leaf(-4.0)), 0.75)])
        assert_layouts_match_reference(single, X)

    def test_ties_go_right(self):
        tree = Tree(Node.internal(1, 0.5, Node.leaf(-1.0), Node.leaf(1.0)))
        ens = Ensemble(2, [tree])
        X = np.array([[0.0, 0.5], [0.0, 0.25]], dtype=np.float32)
        assert_layouts_match_reference(ens, X)
        for kind, v in TABLE_BUILDS:
            assert build(ens, kind, v).predict(X[0]) == 1.0
        # Every feature of every row sits exactly on one of its thresholds.
        rng = np.random.default_rng(32)
        ens = random_ensemble(rng, 8, 6, 6)
        thresholds = {}
        for t, _ in ens.trees:
            for node in _nodes(t):
                if not node.is_leaf:
                    thresholds.setdefault(node.fid, []).append(node.threshold)
        X = random_matrix(rng, 300, 8)
        for fid, values in thresholds.items():
            X[:, fid] = rng.choice(values, size=X.shape[0])
        assert_layouts_match_reference(ens, X)

    def test_nonfinite_features(self):
        tree = Tree(Node.internal(0, 0.5, Node.leaf(-1.0), Node.leaf(1.0)))
        ens = Ensemble(1, [tree])
        X = np.array([[np.nan], [np.inf], [-np.inf]], dtype=np.float32)
        assert_layouts_match_reference(ens, X)
        for kind, v in TABLE_BUILDS:
            assert list(build(ens, kind, v).predict_batch(X)) == [1.0, 1.0, -1.0]
        rng = np.random.default_rng(33)
        ens = random_ensemble(rng, 16, 8, 7)
        X = random_matrix(rng, 400, 16)
        mask = rng.random(X.shape) < 0.3
        X[mask] = rng.choice([np.nan, np.inf, -np.inf], size=int(mask.sum()))
        assert_layouts_match_reference(ens, X)

    def test_very_deep_chain(self):
        # Past the interpreter's recursion limit: every linked walk loops,
        # and the predicated lanes step through all the levels.
        X = np.array([[0.0, 0.0], [1e-4, 0.0], [0.9, 0.0]], dtype=np.float32)
        for depth in (1500, 3000):
            ens = Ensemble(2, [(chain_tree(depth), 0.5)])
            assert_layouts_match_reference(ens, X)

    def test_max_depth_tree(self):
        # A chain as deep as the deepest tree expand_to_complete builds.
        assert_layouts_match_reference(*falling_chain(MAX_DEPTH))

    def test_feature_ids_at_the_table_limit(self):
        # Splits on the two largest ids a uint16 holds and on ids 0 and 1,
        # in an unbalanced tree, so self-looping leaves (fid 0) sit among
        # them.
        top = 65_535
        f = top + 1
        tree = Tree(Node.internal(
            top, 0.5,
            Node.internal(0, 0.25, Node.leaf(-1.0), Node.leaf(-2.0)),
            Node.internal(top - 1, 0.75, Node.leaf(3.0), Node.internal(
                top, 2.0, Node.leaf(4.0), Node.leaf(5.0)))))
        ens = Ensemble(f, [(tree, 1.5), (Tree(Node.internal(
            1, 0.5, Node.leaf(0.25), Node.leaf(0.5))), -1.0)])
        rng = np.random.default_rng(39)
        X = np.zeros((48, f), dtype=np.float32)
        X[:, :2] = rng.random((48, 2), dtype=np.float32)
        X[:, top] = np.resize(np.array(
            [np.nan, np.inf, -np.inf, 0.5, 0.25, 1.0, 2.0, 3.0],
            dtype=np.float32), 48)
        X[:, top - 1] = np.resize(np.array([0.5, 0.75, np.nan],
                                           dtype=np.float32), 48)
        # The rows reach every leaf of the tree the limit ids decide.
        assert {traverse_to_leaf(tree.root, x).value for x in X} == {
            -1.0, -2.0, 3.0, 4.0, 5.0}
        assert_layouts_match_reference(
            ens, X, ((StrategyKind.PREDICATED, None),
                     (StrategyKind.VPREDICATED, 4)))

    def test_feature_id_above_the_table_limit(self):
        # Every table holds int32 ids, so a split on id 65,536, which a
        # uint16 would wrap to 0, scores bit-exactly on every layout.
        f = 65_537
        ens = Ensemble(f, [(Tree(Node.leaf(0.5)), 1.0), (Tree(Node.internal(
            f - 1, 0.5, Node.leaf(1.0), Node.leaf(2.0))), 1.0)])
        X = np.zeros((6, f), dtype=np.float32)
        X[:, 0] = 1.0
        X[:, f - 1] = (0.25, 0.75, 0.5, np.nan, np.inf, -np.inf)
        assert_layouts_match_reference(ens, X)
        for kind, v in TABLE_BUILDS:
            scores = build(ens, kind, v).predict_batch(X)
            assert scores.tolist() == [1.5, 2.5, 2.5, 2.5, 2.5, 1.5], (kind, v)

    def test_predicated_lanes_bit_exact(self):
        # Unbalanced trees, so lanes park on self-looping leaves, over rows
        # of ties, NaN and infinities; n below v and not a multiple of v.
        rng = np.random.default_rng(42)
        ens = random_ensemble(rng, 8, 12, 7)
        thresholds = sorted({n.threshold for t, _ in ens.trees
                             for n in _nodes(t) if not n.is_leaf})
        pool = np.array(thresholds + [np.nan, np.inf, -np.inf],
                        dtype=np.float32)
        for n in (2, 37, 101):
            X = random_matrix(rng, n, 8)
            mask = rng.random(X.shape) < 0.5
            X[mask] = rng.choice(pool, size=int(mask.sum()))
            expected = reference_batch(ens, X).view(np.uint64)
            for v in (1, 3, 16, 64):
                ev = build(ens, StrategyKind.VPREDICATED, v)
                assert np.array_equal(ev.predict_batch(X).view(np.uint64),
                                      expected), (n, v)
            ev = build(ens, StrategyKind.PREDICATED)
            rows = np.array([ev.predict(x) for x in X])
            assert np.array_equal(rows.view(np.uint64), expected), n

    def test_lane_counts_and_remainders(self):
        # The empty batch, and row counts below and above each v (and the
        # 256-lane bound) that leave a short last block for v = 3, 16 and
        # 300.
        rng = np.random.default_rng(36)
        ens = random_ensemble(rng, 16, 6, 7)
        for n in (0, 1, 2, 17, 299, 701):
            assert_layouts_match_reference(ens, random_matrix(rng, n, 16))

    def test_read_only_inputs(self):
        rng = np.random.default_rng(38)
        ens = random_ensemble(rng, 8, 5, 6)
        X = random_matrix(rng, 40, 8)
        X.flags.writeable = False
        assert_layouts_match_reference(ens, X)

    def test_concurrent_predict_batch(self):
        rng = np.random.default_rng(37)
        ens = random_ensemble(rng, 32, 10, 8)
        evaluators = [build(ens, kind, v) for kind, v in TABLE_BUILDS]
        evaluators.append(codegen.build_generated(ens))
        labels = TABLE_BUILDS + ((StrategyKind.GENERATED, None),)
        inputs = [random_matrix(rng, int(rng.integers(1, 400)), 32)
                  for _ in range(8)]
        expected = [reference_batch(ens, X) for X in inputs]

        def score(k):
            return [[ev.predict_batch(inputs[k]) for ev in evaluators]
                    for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(score, k) for k in range(len(inputs))]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, rounds in enumerate(results):
            for scores in rounds:
                for (kind, v), out in zip(labels, scores):
                    assert np.array_equal(out, expected[k]), (kind, v, k)


@pytest.mark.usefixtures("layout_path")
class TestTreeLanes:
    """The rows of a short ``vpredicated`` block (all of a call of fewer
    than v rows, else the last n mod v) are scored one at a time,
    ``ROW_LANES`` = 8 trees at a time; an ensemble of fewer trees keeps a
    short block of fewer lanes."""

    @staticmethod
    def ensemble(rng, num_trees, f=6):
        # The first tree is a single leaf, the table's first entry, so its
        # self-loop stores left = -1; the rest mix depths 0 to 7, balanced
        # and pruned.
        trees = [(Tree(Node.leaf(float(rng.normal()))), 0.75)]
        for t in range(1, num_trees):
            depth = int(rng.integers(0, 8))
            tree = (random_unbalanced_tree(rng, depth, f) if t % 2 else
                    gen_tree(GenConfig(depth=depth, num_features=f,
                                       seed=int(rng.integers(2**31)))))
            trees.append((tree, float(rng.uniform(-1.5, 1.5))))
        return Ensemble(f, trees)

    @staticmethod
    def rows(rng, ens, n):
        # Half the values tie with a threshold or are NaN or +-inf.
        pool = np.array(sorted({node.threshold for t, _ in ens.trees
                                for node in _nodes(t) if not node.is_leaf})
                        + [np.nan, np.inf, -np.inf], dtype=np.float32)
        X = random_matrix(rng, n, ens.num_features)
        mask = rng.random(X.shape) < 0.5
        X[mask] = rng.choice(pool, size=int(mask.sum()))
        return X

    @pytest.mark.parametrize("num_trees", [1, 7, 8, 9, 13])
    def test_every_row_count_bit_exact(self, num_trees):
        rng = np.random.default_rng(50 + num_trees)
        ens = self.ensemble(rng, num_trees)
        X = read_only(self.rows(rng, ens, 2 * 64 + 1))
        expected = reference_batch(ens, X).view(np.uint64)
        for v in (2, 3, 16, 64):
            ev = build(ens, StrategyKind.VPREDICATED, v)
            for n in range(2 * v + 2):
                got = ev.predict_batch(X[:n]).view(np.uint64)
                assert np.array_equal(got, expected[:n]), (num_trees, v, n)
            rows = np.array([ev.predict(x) for x in X]).view(np.uint64)
            assert np.array_equal(rows, expected), (num_trees, v)


@pytest.mark.usefixtures("layout_path")
class TestNextTreePrefetch:
    """A vpredicated block of more than one lane prefetches the entries of
    tree t + 1, up to tree t + 2's root, before it walks tree t; the last
    tree is not prefetched.  Full blocks score bit-exactly at every edge
    of that range: the first, middle and last tree a single leaf (one
    entry, or the table's first), ensembles too small to prefetch
    anything, and calls that end in a one-lane block or a short block of
    row lanes."""

    @pytest.mark.parametrize("num_trees,leaf_at", [
        (1, None), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
        (9, None), (9, 0), (9, 4), (9, 8)])
    def test_full_blocks_bit_exact(self, num_trees, leaf_at):
        rng = np.random.default_rng(60 + 10 * num_trees + (leaf_at or 0))
        trees = [(Tree(Node.leaf(float(rng.normal()))) if t == leaf_at
                  else random_unbalanced_tree(rng, int(rng.integers(1, 8)), 6),
                  float(rng.uniform(-1.5, 1.5))) for t in range(num_trees)]
        ens = Ensemble(6, trees)
        # Ties and random values, with NaN, +inf and -inf 12 times each.
        X = TestTreeLanes.rows(rng, ens, 3 * 16)
        spots = rng.choice(X.size, 36, replace=False)
        X.reshape(-1)[spots] = np.resize([np.nan, np.inf, -np.inf], 36)
        expected = reference_batch(ens, X).view(np.uint64)
        for v in (2, 16):
            ev = build(ens, StrategyKind.VPREDICATED, v)
            for n in (v, v + 1, 3 * v):
                got = ev.predict_batch(X[:n]).view(np.uint64)
                assert np.array_equal(got, expected[:n]), (v, n)


class TestLaneBound:
    """A lockstep block steps at most 256 lanes at once; a larger v scores
    each of its blocks 256 rows at a time.  Scores stay bit-exact on both
    sides of the bound, for ensembles of fewer trees than a short block's
    row lanes (every row goes through the lockstep blocks) and of more."""

    @pytest.mark.parametrize("num_trees", [3, 12])
    def test_bit_exact_across_the_bound(self, num_trees):
        rng = np.random.default_rng(70 + num_trees)
        ens = TestTreeLanes.ensemble(rng, num_trees)
        X = TestTreeLanes.rows(rng, ens, 1001)
        # Whole rows of NaN, +inf and -inf, at the edges of 256-lane blocks.
        X[[0, 255, 256, 600]] = np.array(
            [np.nan, np.inf, -np.inf, np.nan], dtype=np.float32)[:, None]
        expected = reference_batch(ens, X).view(np.uint64)
        for v in (255, 256, 257, 1000):
            ev = build(ens, StrategyKind.VPREDICATED, v)
            for n in (256, 257, 515, 1001):
                got = ev.predict_batch(X[:n]).view(np.uint64)
                assert np.array_equal(got, expected[:n]), (v, n)
            rows = np.array([ev.predict(x) for x in X], dtype=np.float64)
            assert np.array_equal(rows.view(np.uint64), expected), v


def native_evaluators(ens):
    """One evaluator of each of the six strategies, by name."""
    evaluators = {str(kind): build(ens, kind, v) for kind, v in (
        LINKED_LAYOUTS + ((StrategyKind.PREDICATED, None),
                          (StrategyKind.VPREDICATED, 16)))}
    evaluators["generated"] = codegen.build_generated(ens)
    return evaluators


def strided(a):
    """``a`` as a non-contiguous view of the same shape and values."""
    return np.repeat(a, 2, axis=-1)[..., ::2]


def read_only(a):
    a.flags.writeable = False
    return a


@requires_compiler
def test_native_evaluators_call_the_binding_directly():
    rng = np.random.default_rng(40)
    ens = random_ensemble(rng, 8, 4, 5)
    builds = [((kind, v), build(ens, kind, v)) for kind, v in TABLE_BUILDS]
    builds.append(((StrategyKind.GENERATED, None), codegen.build_generated(ens)))
    binding = native.load_layout_kernels().Kernel
    assert [name for name in dir(binding) if not name.startswith("_")] == [
        "predict", "predict_batch"]
    for (kind, v), ev in builds:
        # No Python layer between predict/predict_batch and the binding.
        kernel = ev.predict.__self__
        assert type(kernel) is binding, kind
        assert ev.predict_batch.__self__ is kernel, kind
        assert ev.kind is kind
        assert ev.batch_size == v, kind
        assert ev.native is True, kind


def outcome(call, arg):
    """What ``call(arg)`` gives: its type and bytes, or the type and text
    of what it raises."""
    try:
        result = call(arg)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc), str(exc)
    return type(result), np.asarray(result).dtype, np.asarray(result).tobytes()


ROW_INPUTS = {
    "float32": lambda X: X[0],
    "float64": lambda X: X[0].astype(np.float64),
    "fortran-order": lambda X: np.asfortranarray(X)[0],
    "strided": lambda X: strided(X[0]),
    "byte-swapped": lambda X: X[0].astype(">f4"),
    "read-only": lambda X: read_only(X[0].copy()),
    "list": lambda X: X[0].tolist(),
    "dataset": lambda X: Dataset(X[:1]),
    "empty": lambda X: X[0, :0],
    "wrong-width": lambda X: X[0, :-1],
    "wrong-ndim": lambda X: X[:1],
    "scalar": lambda X: X[0, 0],
    "non-buffer": lambda X: object(),
}
BATCH_INPUTS = {
    "float32": lambda X: X,
    "float64": lambda X: X.astype(np.float64),
    "fortran-order": np.asfortranarray,
    "strided": strided,
    "byte-swapped": lambda X: X.astype(">f4"),
    "read-only": lambda X: read_only(X.copy()),
    "list": lambda X: X.tolist(),
    "dataset": Dataset,
    "0-rows": lambda X: X[:0],
    "wrong-width": lambda X: X[:, :-1],
    "wrong-ndim": lambda X: X[None],
    "1-d": lambda X: X[0],
    "non-buffer": lambda X: object(),
}


class PythonOracle:
    """``predict`` and ``predict_batch`` in Python: the coercion and checks
    of :func:`treescore.native.as_rows`, then the reference traversal."""

    def __init__(self, ensemble):
        self.ensemble = ensemble

    def predict(self, x):
        return reference_predict(
            self.ensemble, native.as_rows(x, self.ensemble.num_features, 1))

    def predict_batch(self, data):
        return reference_batch(
            self.ensemble, native.as_rows(data, self.ensemble.num_features, 2))


@requires_compiler
class TestNativeRequests:
    """``predict`` and ``predict_batch`` of the binding against
    :class:`PythonOracle`: the same bits, or the same error."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(41)
        ens = random_ensemble(rng, 8, 6, 6)
        X = random_matrix(rng, 13, 8)
        return ens, X, PythonOracle(ens), native_evaluators(ens)

    @pytest.mark.parametrize("name", ROW_INPUTS)
    def test_predict(self, case, name):
        ens, X, oracle, evaluators = case
        x = ROW_INPUTS[name](X)
        expected = outcome(oracle.predict, x)
        for kind, ev in evaluators.items():
            assert outcome(ev.predict, x) == expected, kind
        if name in ("float32", "float64", "fortran-order", "strided",
                    "byte-swapped", "read-only", "list"):
            assert expected == outcome(float, reference_predict(ens, X[0]))

    @pytest.mark.parametrize("name", BATCH_INPUTS)
    def test_predict_batch(self, case, name):
        ens, X, oracle, evaluators = case
        data = BATCH_INPUTS[name](X)
        expected = outcome(oracle.predict_batch, data)
        for kind, ev in evaluators.items():
            assert outcome(ev.predict_batch, data) == expected, kind
        if name in ("float32", "float64", "fortran-order", "strided",
                    "byte-swapped", "read-only", "list", "dataset"):
            assert expected == outcome(np.asarray, reference_batch(ens, X))
        if name == "0-rows":
            assert expected == outcome(np.asarray, np.empty(0))

    def test_arguments_are_counted(self, case):
        _, X, _, evaluators = case
        for ev in evaluators.values():
            with pytest.raises(TypeError):
                ev.predict()
            with pytest.raises(TypeError):
                ev.predict_batch(X, X)

    def test_freed_on_del_without_the_cycle_collector(self, case, monkeypatch):
        ens, X, _, _ = case
        freed = []
        release = native._free_records

        def spy(lib, nodes):
            freed.append(nodes.shape[0])
            release(lib, nodes)

        monkeypatch.setattr(native, "_free_records", spy)
        gc.collect()
        gc.disable()
        try:
            evaluators = native_evaluators(ens)
            for kind in list(evaluators):
                ev = evaluators.pop(kind)
                # Both paths of both calls, the Python coercion included.
                ev.predict(X[0])
                ev.predict(X[0].tolist())
                ev.predict_batch(X)
                ev.predict_batch(X.tolist())
                alive = weakref.ref(ev)
                del ev
                assert alive() is None, kind
        finally:
            gc.enable()
        # The heap_linked objects, then the compact_linked records.
        assert freed == [sum(t.node_count for t, _ in ens.trees)] * 2


class TestLayoutKernelResources:
    def test_missing_python_headers_raise_compiler_not_found(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "_LIBRARY", None)
        paths = dict(sysconfig.get_paths(), include=str(tmp_path))
        monkeypatch.setattr(sysconfig, "get_paths", lambda *args: paths)
        with pytest.raises(codegen.CompilerNotFoundError,
                           match=re.escape(str(tmp_path))):
            native.load_layout_kernels()
        with pytest.raises(codegen.CompilerNotFoundError):
            build(Ensemble(2, [chain_tree(3)]), StrategyKind.CONTIGUOUS)

    def test_no_compiler_raises_for_table_strategies(self, monkeypatch):
        monkeypatch.setattr(native, "_LIBRARY", None)
        monkeypatch.setenv("PATH", "")
        monkeypatch.delenv("TREESCORE_CC", raising=False)
        ens = Ensemble(2, [chain_tree(4)])
        for kind, v in TABLE_BUILDS:
            with pytest.raises(codegen.CompilerNotFoundError):
                build(ens, kind, v)
        with pytest.raises(codegen.CompilerNotFoundError):
            codegen.build_generated(ens)

    @requires_compiler
    def test_failed_build_raises_compilation_error(self, monkeypatch):
        monkeypatch.setattr(native, "_LIBRARY", None)
        monkeypatch.setenv("TREESCORE_CC", "false")
        with pytest.raises(codegen.CompilationError, match="compiler failed"):
            build(Ensemble(2, [chain_tree(3)]), StrategyKind.CONTIGUOUS)
        # A failure is not remembered: the next build tries again.
        with pytest.raises(codegen.CompilationError):
            native.load_layout_kernels()

    @requires_compiler
    def test_library_built_once_per_process(self, monkeypatch):
        lib = native.load_layout_kernels()
        compiles = []
        compile_shared_object = codegen.compile_shared_object

        def spy(*args, **kwargs):
            compiles.append(args)
            return compile_shared_object(*args, **kwargs)

        monkeypatch.setattr(codegen, "compile_shared_object", spy)
        ens = Ensemble(2, [chain_tree(3)])
        for _ in range(3):
            for kind, v in TABLE_BUILDS:
                build(ens, kind, v)
        assert native.load_layout_kernels() is lib
        assert compiles == []

    @requires_compiler
    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    def test_tables_of_another_dtype_are_refused(self, monkeypatch, dtype):
        # The entries read as plain words of another dtype.
        predicated_entries = native._predicated_entries

        def reinterpreted(*tables):
            nodes, roots = predicated_entries(*tables)
            return nodes.view(dtype), roots

        monkeypatch.setattr(native, "_predicated_entries", reinterpreted)
        ens = Ensemble(2, [chain_tree(3)])
        for kind, v in ((StrategyKind.PREDICATED, None),
                        (StrategyKind.VPREDICATED, 4)):
            with pytest.raises(TypeError, match="the kernel reads"):
                build(ens, kind, v)

    @requires_compiler
    def test_linked_objects_freed_with_evaluator(self, monkeypatch):
        freed = []
        release = native._free_records

        def spy(lib, nodes):
            freed.append(nodes.shape[0])
            release(lib, nodes)

        monkeypatch.setattr(native, "_free_records", spy)
        for kind in (StrategyKind.HEAP_LINKED, StrategyKind.COMPACT_LINKED):
            freed.clear()
            ev = build(Ensemble(2, [chain_tree(5), chain_tree(2)]), kind)
            assert ev.stored_node_count == 16
            del ev
            gc.collect()
            assert freed == [16], kind


class TestTracing:
    def test_single_split_visits_its_feature(self):
        tree = Tree(Node.internal(3, 0.5, Node.leaf(0.0), Node.leaf(1.0)))
        ens = Ensemble(10, [tree])
        traced = predict_ensemble_traced(ens, np.zeros(10, dtype=np.float32))
        assert traced.visited_features == frozenset({3})
        assert traced.visited_leaves == (0,)

    def test_single_leaf_visits_nothing(self):
        ens = Ensemble(10, [Tree(Node.leaf(0.5))])
        traced = predict_ensemble_traced(ens, np.zeros(10, dtype=np.float32))
        assert traced.visited_features == frozenset()
        assert traced.score == 0.5

    def test_matches_brute_force_path_walk(self):
        rng = np.random.default_rng(21)
        ens = random_ensemble(rng, 16, 6, 6)
        for _ in range(50):
            x = rng.random(16, dtype=np.float32)
            expected_feats = set()
            for tree, _ in ens.trees:
                node = tree.root
                while not node.is_leaf:
                    expected_feats.add(node.fid)
                    node = node.left if x[node.fid] < node.threshold \
                        else node.right
            traced = predict_ensemble_traced(ens, x)
            assert traced.visited_features == frozenset(expected_feats)
            assert traced.score == reference_predict(ens, x)


def _nodes(tree: Tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack += [node.left, node.right]
