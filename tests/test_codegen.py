"""C emission, compilation, loading, and differential equivalence."""

import gc

import numpy as np
import pytest

from treescore import (
    Ensemble,
    Node,
    StrategyKind,
    Tree,
    build,
    build_generated,
    emit_source,
    reference_batch,
)
from treescore.codegen import (
    MAX_INDENT,
    CompilationError,
    CompilerNotFoundError,
    SymbolResolutionError,
    compile_and_load,
    find_compiler,
)

from conftest import chain_tree, random_ensemble, random_matrix, requires_compiler


class TestEmission:
    def test_single_leaf_tree_is_one_return(self):
        ens = Ensemble(4, [(Tree(Node.leaf(2.5)), 1.0)])
        source = emit_source(ens)
        body = source.split("static float tree_0")[1].split("}")[0]
        assert body.count("return") == 1
        assert "if" not in body
        assert float.hex(2.5) + "f" in body

    def test_depth_one_tree_structure(self):
        tree = Tree(Node.internal(1, 0.5, Node.leaf(0.0), Node.leaf(1.0)))
        source = emit_source(Ensemble(4, [tree]))
        tree_fn = source.split("static float tree_0")[1].split("\n\n")[0]
        assert tree_fn.count("if") == 1
        assert tree_fn.count("return") == 2
        assert "x[1] <" in tree_fn

    def test_nested_if_else_text(self):
        tree = Tree(Node.internal(2, 0.5, Node.leaf(-1.0), Node.internal(
            0, 0.25, Node.leaf(0.75), Node.leaf(2.0))))
        source = emit_source(Ensemble(3, [(tree, 0.5)]))
        assert source.split("\n\n")[1] == """\
static float tree_0(const float *x) {
    if (x[2] < 0x1.0000000000000p-1f) {
        return -0x1.0000000000000p+0f;
    } else {
        if (x[0] < 0x1.0000000000000p-2f) {
            return 0x1.8000000000000p-1f;
        } else {
            return 0x1.0000000000000p+1f;
        }
    }
}"""

    def test_emission_is_deterministic(self):
        rng = np.random.default_rng(1)
        ens = random_ensemble(rng, 8, 4, 5)
        assert emit_source(ens) == emit_source(ens)

    def test_deep_chain_source_grows_linearly(self):
        # Four spaces per level would make this 18 MB; the indentation
        # stops growing at MAX_INDENT levels.
        source = emit_source(Ensemble(2, [(chain_tree(1500), 0.5)]))
        assert len(source) < 1_000_000
        assert "    " * (MAX_INDENT + 1) + "if" not in source
        assert "    " * MAX_INDENT + "if" in source

    def test_weights_and_order_in_ensemble_function(self):
        ens = Ensemble(4, [(Tree(Node.leaf(1.0)), 0.25),
                           (Tree(Node.leaf(2.0)), 0.5)])
        source = emit_source(ens)
        fn = source.split("double score_ensemble")[1]
        assert fn.index("tree_0") < fn.index("tree_1")
        assert float.hex(0.25) in fn and float.hex(0.5) in fn


@requires_compiler
class TestCompileAndLoad:
    def test_single_leaf_scores_constant(self, tmp_path):
        ens = Ensemble(4, [(Tree(Node.leaf(2.5)), 1.0)])
        unit = compile_and_load(emit_source(ens), tmp_path)
        for values in ([0, 0, 0, 0], [9, 9, 9, 9]):
            x = np.array(values, dtype=np.float32)
            assert unit.kernel.score_row(x) == 2.5
        assert (tmp_path / "scorer.c").exists()
        assert (tmp_path / "scorer.so").exists()

    def test_corrupted_source_surfaces_diagnostics(self, tmp_path):
        with pytest.raises(CompilationError) as err:
            compile_and_load("double score_ensemble(const float *x { return",
                             tmp_path)
        assert "error" in str(err.value).lower()

    def test_missing_symbol(self, tmp_path):
        source = "double something_else(const float *x) { return 0.0; }\n"
        with pytest.raises(SymbolResolutionError):
            compile_and_load(source, tmp_path)

    def test_units_are_isolated(self, tmp_path):
        ens_a = Ensemble(2, [(Tree(Node.leaf(1.0)), 1.0)])
        ens_b = Ensemble(2, [(Tree(Node.leaf(7.0)), 1.0)])
        unit_a = compile_and_load(emit_source(ens_a), tmp_path / "a")
        unit_b = compile_and_load(emit_source(ens_b), tmp_path / "b")
        x = np.zeros(2, dtype=np.float32)
        assert unit_a.kernel.score_row(x) == 1.0
        assert unit_b.kernel.score_row(x) == 7.0
        # Loading b must not have rebound a's symbols.
        assert unit_a.kernel.score_row(x) == 1.0

    def test_owned_workdir_removed_with_unit(self):
        ens = Ensemble(2, [(Tree(Node.leaf(1.0)), 1.0)])
        unit = compile_and_load(emit_source(ens))
        workdir = unit.workdir
        assert (workdir / "scorer.so").exists()
        del unit
        gc.collect()
        assert not workdir.exists()

    def test_given_workdir_outlives_the_unit(self, tmp_path):
        ens = Ensemble(2, [(Tree(Node.leaf(1.0)), 1.0)])
        given = compile_and_load(emit_source(ens), tmp_path)
        del given
        gc.collect()
        assert (tmp_path / "scorer.c").exists()


@requires_compiler
class TestGeneratedEvaluator:
    def test_differential_vs_reference(self):
        rng = np.random.default_rng(2)
        ens = random_ensemble(rng, 32, 4, 7)
        X = random_matrix(rng, 2000, 32)
        generated = build_generated(ens)
        assert generated.kind is StrategyKind.GENERATED
        assert np.array_equal(generated.predict_batch(X),
                              reference_batch(ens, X))

    def test_matches_vpredicated_bit_exact(self):
        rng = np.random.default_rng(3)
        ens = random_ensemble(rng, 16, 10, 6)
        X = random_matrix(rng, 2000, 16)
        generated = build_generated(ens)
        vpred = build(ens, StrategyKind.VPREDICATED, 16)
        assert np.array_equal(generated.predict_batch(X),
                              vpred.predict_batch(X))

    def test_chain_deeper_than_the_recursion_limit(self):
        ens = Ensemble(2, [(chain_tree(1500), 0.5)])
        X = np.array([[0.0, 0.0], [1e-4, 0.0], [0.9, 0.0], [np.nan, 0.0],
                      [np.inf, 0.0], [-np.inf, 0.0]], dtype=np.float32)
        generated = build_generated(ens)
        assert np.array_equal(generated.predict_batch(X),
                              reference_batch(ens, X))
        assert [generated.predict(x) for x in X] == list(reference_batch(ens, X))

    def test_read_only_inputs(self):
        rng = np.random.default_rng(5)
        ens = random_ensemble(rng, 8, 3, 5)
        X = random_matrix(rng, 16, 8)
        X.flags.writeable = False
        generated = build_generated(ens)
        expected = reference_batch(ens, X)
        assert np.array_equal(generated.predict_batch(X), expected)
        assert [generated.predict(x) for x in X] == list(expected)

    def test_scalar_and_batch_entry_points_agree(self):
        rng = np.random.default_rng(4)
        ens = random_ensemble(rng, 8, 3, 5)
        X = random_matrix(rng, 64, 8)
        generated = build_generated(ens)
        batch = generated.predict_batch(X)
        scalar = np.array([generated.predict(X[i]) for i in range(64)])
        assert np.array_equal(batch, scalar)


class TestAvailability:
    def test_no_compiler_reports_unavailable(self, monkeypatch):
        monkeypatch.setenv("PATH", "")
        monkeypatch.delenv("TREESCORE_CC", raising=False)
        assert find_compiler() is None
        ens = Ensemble(2, [(Tree(Node.leaf(1.0)), 1.0)])
        with pytest.raises(CompilerNotFoundError):
            build_generated(ens)

    def test_env_override_is_honored(self, monkeypatch):
        cc = find_compiler()
        if cc is None:
            pytest.skip("no host C compiler available")
        monkeypatch.setenv("TREESCORE_CC", cc)
        assert find_compiler() == cc
