"""Strategy builds, prediction equivalence, kernels, and tracing."""

import gc
import re
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from treescore import (
    MAX_DEPTH,
    DepthLimitError,
    Ensemble,
    Node,
    StrategyKind,
    Tree,
    build,
    expand_to_complete,
    leaf_index_predicated,
    predicated_index_path,
    predict_ensemble_traced,
    reference_batch,
    reference_predict,
    vpredicated_index_paths,
)
from treescore import codegen, native
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
        ens12 = Ensemble(2, [chain_tree(12)])
        build(ens12, StrategyKind.PREDICATED)
        ens17 = Ensemble(2, [chain_tree(17)])
        with pytest.raises(DepthLimitError):
            build(ens17, StrategyKind.PREDICATED)
        with pytest.raises(DepthLimitError):
            build(ens17, StrategyKind.VPREDICATED, 8)
        # Linked strategies still work past the complete-table limit.
        x = np.full(2, 0.9, dtype=np.float32)
        for kind in (StrategyKind.HEAP_LINKED, StrategyKind.COMPACT_LINKED,
                     StrategyKind.CONTIGUOUS):
            assert build(ens17, kind).predict(x) == reference_predict(ens17, x)

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
            native.layout_kernel(ens, "heap_linked")

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

    def test_remainder_rows_use_scalar_path(self):
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
    def test_depth_one_left_right_and_tie(self):
        tree = Tree(Node.internal(0, 0.5, Node.leaf(-1.0), Node.leaf(1.0)))
        ct = expand_to_complete(tree)
        assert leaf_index_predicated(ct, np.array([0.3], dtype=np.float32)) == 0
        assert leaf_index_predicated(ct, np.array([0.5], dtype=np.float32)) == 1
        assert leaf_index_predicated(ct, np.array([0.7], dtype=np.float32)) == 1

    def test_matches_recursive_traversal(self):
        rng = np.random.default_rng(14)
        cfg = GenConfig(depth=3, num_features=8, seed=15)
        tree = gen_tree(cfg)
        ct = expand_to_complete(tree)
        for _ in range(512):
            x = rng.random(8, dtype=np.float32)
            leaf = ct.leaf_values[leaf_index_predicated(ct, x)]
            assert float(leaf) == traverse_value(tree, x)

    def test_index_range_property(self):
        rng = np.random.default_rng(15)
        for depth in (1, 3, 6, 9):
            tree = gen_tree(GenConfig(depth=depth, num_features=8, seed=depth))
            ct = expand_to_complete(tree)
            lo, hi = (1 << depth) - 1, (1 << (depth + 1)) - 1
            for _ in range(64):
                x = rng.random(8, dtype=np.float32)
                path = predicated_index_path(ct, x)
                assert path[0] == 0 and len(path) == depth + 1
                assert lo <= path[-1] < hi

    def test_vpred_v1_step_sequence_equals_scalar(self):
        tree = gen_tree(GenConfig(depth=6, num_features=8, seed=19))
        ct = expand_to_complete(tree)
        rng = np.random.default_rng(20)
        for _ in range(50):
            x = rng.random(8, dtype=np.float32)
            scalar_path = predicated_index_path(ct, x)
            batch_paths = vpredicated_index_paths(ct, x[None, :])
            assert batch_paths.shape == (7, 1)
            assert [int(v) for v in batch_paths[:, 0]] == scalar_path


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


LINKED_LAYOUTS = ((StrategyKind.COMPACT_LINKED, None),
                  (StrategyKind.CONTIGUOUS, None))
# The four table strategies with native kernels; v = 300 is above the 256
# lanes the lockstep kernel keeps on the stack.
TABLE_BUILDS = LINKED_LAYOUTS + ((StrategyKind.PREDICATED, None),) + tuple(
    (StrategyKind.VPREDICATED, v) for v in (1, 3, 16, 300))


@pytest.fixture(params=[pytest.param("native", marks=requires_compiler)])
def layout_path(request):
    """The path the table strategies run on: their native kernels, which
    need a host compiler."""
    return request.param


def assert_layouts_match_reference(ens, X, builds=TABLE_BUILDS):
    expected = reference_batch(ens, X)
    for kind, v in builds:
        ev = build(ens, kind, v)
        assert np.array_equal(ev.predict_batch(X), expected), (kind, v)
        rows = np.array([ev.predict(X[i]) for i in range(X.shape[0])])
        assert np.array_equal(rows, expected), (kind, v)


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
            stack = [t.root]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    thresholds.setdefault(node.fid, []).append(node.threshold)
                    stack += [node.left, node.right]
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
        ens = Ensemble(2, [(chain_tree(3000), 0.5)])
        X = np.array([[0.0, 0.0], [1e-4, 0.0], [0.9, 0.0]], dtype=np.float32)
        assert_layouts_match_reference(ens, X, LINKED_LAYOUTS)

    def test_max_depth_tree(self):
        # A depth-16 chain (131,071 complete-table entries) whose thresholds
        # fall level by level, so that the rows leave it at every level,
        # between thresholds and exactly on them, next to shallow trees.
        node = Node.leaf(-1.0)
        for level in range(MAX_DEPTH):
            node = Node.internal(0, (level + 1) / 32, node, Node.leaf(level))
        rng = np.random.default_rng(35)
        ens = Ensemble(2, [(Tree(node), 0.5),
                           (random_unbalanced_tree(rng, 4, 2), 1.5),
                           (Tree(Node.leaf(3.0)), 1.0)])
        X = rng.random((2 * MAX_DEPTH + 2, 2), dtype=np.float32)
        X[:, 0] = np.arange(2 * MAX_DEPTH + 2) / 64
        assert_layouts_match_reference(ens, X)

    def test_lane_counts_and_remainders(self):
        # The empty batch, and row counts below and above each v (and the
        # stack cap) that leave a short last block for v = 3, 16 and 300.
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


def native_kernels(ens):
    """The binding of each of the five native strategies, by name."""
    evaluators = {f"{kind}{v or ''}": build(ens, kind, v)
                  for kind, v in LINKED_LAYOUTS + ((StrategyKind.PREDICATED, None),
                                                   (StrategyKind.VPREDICATED, 16))}
    evaluators["generated"] = codegen.build_generated(ens)
    return {name: ev._predict_into.__self__ for name, ev in evaluators.items()}


def strided(a):
    """``a`` as a non-contiguous view of the same shape and values."""
    return np.repeat(a, 2, axis=-1)[..., ::2]


def read_only(a):
    a.flags.writeable = False
    return a


@requires_compiler
class TestBinding:
    """The array checks the binding makes before any native kernel runs."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(39)
        ens = random_ensemble(rng, 8, 5, 6)
        X = random_matrix(rng, 24, 8)
        return native_kernels(ens), X, reference_batch(ens, X)

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda X: X.astype(np.float64), id="float64"),
        pytest.param(strided, id="non-contiguous"),
        pytest.param(lambda X: X.astype(">f4"), id="byte-swapped"),
        pytest.param(lambda X: X[:, :-1].copy(), id="wrong-width"),
        pytest.param(lambda X: X[0].copy(), id="1-d-batch"),
    ])
    def test_bad_matrix_raises(self, case, bad):
        kernels, X, _ = case
        matrix = bad(X)
        for kernel in kernels.values():
            with pytest.raises(ValueError, match="matrix must be"):
                kernel.score_into(matrix, np.empty(X.shape[0]))

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda x: x.astype(np.float64), id="float64"),
        pytest.param(strided, id="non-contiguous"),
        pytest.param(lambda x: x.astype(">f4"), id="byte-swapped"),
        pytest.param(lambda x: x[:-1].copy(), id="wrong-width"),
        pytest.param(lambda x: x[None, :].copy(), id="2-d-row"),
    ])
    def test_bad_row_raises(self, case, bad):
        kernels, X, _ = case
        x = bad(X[0])
        for kernel in kernels.values():
            with pytest.raises(ValueError, match="x must be"):
                kernel.score_row(x)

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda n: np.zeros(n, dtype=np.float32), id="float32"),
        pytest.param(lambda n: np.zeros(n + 1), id="too-long"),
        pytest.param(lambda n: np.zeros(n - 1), id="too-short"),
        pytest.param(lambda n: np.zeros((n, 1)), id="2-d"),
        pytest.param(lambda n: strided(np.zeros(n)), id="non-contiguous"),
        pytest.param(lambda n: np.zeros(n, dtype=">f8"), id="byte-swapped"),
        pytest.param(lambda n: read_only(np.zeros(n)), id="read-only"),
    ])
    def test_bad_out_raises(self, case, bad):
        kernels, X, _ = case
        out = bad(X.shape[0])
        for name, kernel in kernels.items():
            with pytest.raises(ValueError, match="out must be"):
                kernel.score_into(X, out)
            assert not out.any(), name

    def test_read_only_and_empty_inputs_score(self, case):
        kernels, X, expected = case
        X = read_only(X.copy())
        for name, kernel in kernels.items():
            out = np.empty(X.shape[0])
            kernel.score_into(X, out)
            assert np.array_equal(out, expected), name
            assert [kernel.score_row(x) for x in X] == list(expected), name
            kernel.score_into(X[:0], np.empty(0))

    def test_non_buffers_raise_type_error(self, case):
        kernels, X, _ = case
        for kernel in kernels.values():
            with pytest.raises(TypeError):
                kernel.score_into(X.tolist(), np.empty(X.shape[0]))
            with pytest.raises(TypeError):
                kernel.score_row(X[0].tolist())
            with pytest.raises(TypeError):
                kernel.score_row()


@requires_compiler
def test_native_evaluators_call_the_binding_directly():
    rng = np.random.default_rng(40)
    ens = random_ensemble(rng, 8, 4, 5)
    builds = [((kind, v), build(ens, kind, v)) for kind, v in TABLE_BUILDS]
    builds.append(((StrategyKind.GENERATED, None), codegen.build_generated(ens)))
    binding = native.load_layout_kernels().Kernel
    for (kind, v), ev in builds:
        # No Python layer between predict/predict_batch and the binding.
        kernel = ev._predict_into.__self__
        assert type(kernel) is binding, kind
        assert ev._predict_row.__self__ is kernel, kind
        assert ev.kind is kind
        assert ev.batch_size == v, kind
        assert ev.native is True, kind


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
        X = random_matrix(np.random.default_rng(34), 20, 2)
        heap = build(ens, StrategyKind.HEAP_LINKED)
        assert np.array_equal(heap.predict_batch(X), reference_batch(ens, X))

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
    def test_compact_records_freed_with_evaluator(self, monkeypatch):
        freed = []
        release = native._free_records

        def spy(lib, nodes):
            freed.append(nodes.shape[0])
            release(lib, nodes)

        monkeypatch.setattr(native, "_free_records", spy)
        ev = build(Ensemble(2, [chain_tree(5), chain_tree(2)]),
                   StrategyKind.COMPACT_LINKED)
        assert ev.stored_node_count == 16
        del ev
        gc.collect()
        assert freed == [16]


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


def traverse_value(tree: Tree, x) -> float:
    node = tree.root
    while not node.is_leaf:
        node = node.left if float(x[node.fid]) < node.threshold else node.right
    return node.value
