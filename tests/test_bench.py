"""Harness protocol, CSV round trips, coverage, and tuning."""

import math
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import treescore
from treescore import (
    ALL_STRATEGIES,
    BenchConfig,
    BenchReport,
    BenchRow,
    CorrectnessGateError,
    Dataset,
    Ensemble,
    Node,
    StrategyKind,
    TimerResolutionError,
    Tree,
    best_batch_sizes,
    build,
    export_csv,
    measure_feature_coverage,
    parse_csv,
    run_fixed,
    run_sweep,
)
from treescore import bench as bench_mod, native
from treescore.bench import (CSV_HEADER, _correctness_gate, _timed_pass,
                             t_quantile_975)
from treescore.codegen import GENERATED_FLAGS, OPT_FLAGS
from treescore.synth import GenConfig, gen_leaf_uniform_vectors, gen_tree

from conftest import random_ensemble, requires_compiler

FAST = (StrategyKind.CONTIGUOUS,)


def small_cfg(**overrides):
    base = dict(strategies=FAST, depths=(3,), feature_sizes=(32,),
                batch_sizes=(4,), instances=1024, trials=2, seed=1)
    base.update(overrides)
    return BenchConfig(**base)


class TestConfig:
    def test_defaults_follow_the_standard_grid(self):
        cfg = BenchConfig()
        assert cfg.depths == (3, 5, 7, 9, 11)
        assert cfg.feature_sizes == (32, 128, 512)
        assert cfg.batch_sizes == (1, 8, 16, 32, 64)
        assert cfg.instances == 524288
        assert cfg.trials == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(trials=1)
        with pytest.raises(ValueError):
            small_cfg(instances=0)
        # No strategy limits the depth.
        cfg = small_cfg(strategies=(StrategyKind.CONTIGUOUS,
                                    StrategyKind.PREDICATED,
                                    StrategyKind.VPREDICATED), depths=(3, 17))
        assert cfg.depths == (3, 17)

    @requires_compiler
    def test_feature_limit(self):
        # No feature width limits the predicated strategies, whose tables
        # hold int32 ids: a model that splits on id 65,536, which a uint16
        # would wrap to 0, passes the gate and scores bit-exactly.
        f = 65_537
        for kind in (StrategyKind.PREDICATED, StrategyKind.VPREDICATED):
            small_cfg(strategies=(StrategyKind.CONTIGUOUS, kind),
                      feature_sizes=(32, f))
        trees = [(Tree(Node.internal(f - 1, 0.5, Node.leaf(1.0), Node.internal(
            0, 0.25, Node.leaf(2.0), Node.leaf(float(t))))), 0.5)
            for t in range(64)]
        ens = Ensemble(f, trees)
        X = np.zeros((64, f), dtype=np.float32)
        X[:, 0] = np.resize(np.array([0.0, 0.25, 1.0], dtype=np.float32), 64)
        X[:, f - 1] = np.resize(np.array([0.25, 0.5, 0.75, np.nan, np.inf,
                                          -np.inf], dtype=np.float32), 64)
        report = run_fixed(ens, Dataset(X), strategies=(
            StrategyKind.PREDICATED, StrategyKind.VPREDICATED),
            batch_sizes=(4,), trials=2)
        assert [row.key() for row in report.rows] == [
            ("predicated", 2, f, None), ("vpredicated", 2, f, 4)]
        expected = treescore.reference_batch(ens, X).view(np.uint64)
        for kind, v in ((StrategyKind.PREDICATED, None),
                        (StrategyKind.VPREDICATED, 4)):
            scores = build(ens, kind, v).predict_batch(X)
            assert np.array_equal(scores.view(np.uint64), expected), kind

    def test_strategy_names_coerced(self):
        cfg = small_cfg(strategies=("contiguous", "predicated"))
        assert cfg.strategies == (StrategyKind.CONTIGUOUS,
                                  StrategyKind.PREDICATED)


def assert_every_row_unavailable(report, reason):
    for row in report.rows:
        assert not row.available and row.trial_elapsed_ns == []
        assert reason in row.note
    assert len(report.rows) == 6  # one vpredicated row, at v=4


class TestRunSweep:
    @requires_compiler
    def test_report_shape(self):
        report = run_sweep(small_cfg())
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.strategy == "contiguous"
        assert (row.depth, row.features, row.batch) == (3, 32, None)
        assert len(row.trial_elapsed_ns) == 2
        assert row.instances == 1024
        assert row.mean_ns > 0 and row.ci95_ns >= 0.0

    def test_per_instance_times_consistent(self):
        report = run_sweep(small_cfg())
        row = report.rows[0]
        for elapsed, per in zip(row.trial_elapsed_ns, row.ns_per_instance):
            assert abs(per * row.instances - elapsed) < 1e-6

    def test_row_order_is_deterministic(self):
        cfg = small_cfg(strategies=(StrategyKind.CONTIGUOUS,
                                    StrategyKind.VPREDICATED,
                                    StrategyKind.PREDICATED),
                        depths=(3, 5), batch_sizes=(1, 4))
        report = run_sweep(cfg)
        keys = [row.key() for row in report.rows]
        expected = []
        for d in (3, 5):
            expected += [("contiguous", d, 32, None),
                         ("vpredicated", d, 32, 1),
                         ("vpredicated", d, 32, 4),
                         ("predicated", d, 32, None)]
        assert keys == expected

    @requires_compiler
    def test_generated_marked_unavailable_without_compiler(self, monkeypatch):
        monkeypatch.setattr(bench_mod, "build_generated",
                            _raise_compiler_missing)
        cfg = small_cfg(strategies=(StrategyKind.CONTIGUOUS,
                                    StrategyKind.GENERATED))
        report = run_sweep(cfg)
        generated = report.row(StrategyKind.GENERATED, 3, 32)
        assert not generated.available
        assert generated.trial_elapsed_ns == []
        assert "compiler" in generated.note
        # The rest of the run carried on.
        assert len(report.row(StrategyKind.CONTIGUOUS, 3, 32).trial_elapsed_ns) == 2
        assert "unavailable" in export_csv(report)

    def test_table_strategies_marked_unavailable_without_compiler(
            self, monkeypatch):
        monkeypatch.setattr(native, "_LIBRARY", None)
        monkeypatch.setenv("PATH", "")
        monkeypatch.delenv("TREESCORE_CC", raising=False)
        assert_every_row_unavailable(run_sweep(small_cfg(
            strategies=ALL_STRATEGIES)), "compiler")

    def test_native_strategies_marked_unavailable_without_python_headers(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "_LIBRARY", None)
        paths = dict(sysconfig.get_paths(), include=str(tmp_path))
        monkeypatch.setattr(sysconfig, "get_paths", lambda *args: paths)
        assert_every_row_unavailable(run_sweep(small_cfg(
            strategies=ALL_STRATEGIES)), "Python.h")

    def test_metadata_present(self):
        report = run_sweep(small_cfg())
        for key in ("cpu", "python", "numpy", "date", "timer_resolution_ns"):
            assert key in report.metadata
        assert report.metadata["compiler_flags"] == " ".join(OPT_FLAGS)
        assert report.metadata["generated_flags"] == " ".join(GENERATED_FLAGS)


class TestRunFixed:
    @requires_compiler
    def test_fixed_model_and_data(self):
        tree = gen_tree(GenConfig(depth=4, num_features=16, seed=3))
        ens = Ensemble(16, [tree])
        data = gen_leaf_uniform_vectors(
            tree, GenConfig(depth=4, num_features=16, num_vectors=2048, seed=3))
        report = run_fixed(ens, data, strategies=FAST, trials=3)
        row = report.row(StrategyKind.CONTIGUOUS, 4, 16)
        assert len(row.trial_elapsed_ns) == 3
        assert row.instances == 2048


class TestGateAndTimer:
    def test_gate_catches_wrong_scores(self):
        tree = gen_tree(GenConfig(depth=3, num_features=8, seed=4))
        ens = Ensemble(8, [tree])
        data = gen_leaf_uniform_vectors(
            tree, GenConfig(depth=3, num_features=8, num_vectors=64, seed=4))

        class Broken:
            def predict_batch(self, matrix):
                return np.zeros(np.asarray(matrix).shape[0]) + 123.0

        with pytest.raises(CorrectnessGateError, match="broken"):
            _correctness_gate(ens, [("broken", Broken())], data.matrix)

    @requires_compiler
    def test_gate_passes_real_strategies(self):
        tree = gen_tree(GenConfig(depth=3, num_features=8, seed=5))
        ens = Ensemble(8, [tree])
        data = gen_leaf_uniform_vectors(
            tree, GenConfig(depth=3, num_features=8, num_vectors=64, seed=5))
        evaluators = [(k, build(ens, k)) for k in FAST]
        _correctness_gate(ens, evaluators, data.matrix)

    @requires_compiler
    def test_timer_resolution_guard(self, monkeypatch):
        tree = gen_tree(GenConfig(depth=2, num_features=4, seed=6))
        ens = Ensemble(4, [tree])
        data = gen_leaf_uniform_vectors(
            tree, GenConfig(depth=2, num_features=4, num_vectors=16, seed=6))
        ev = build(ens, StrategyKind.CONTIGUOUS)
        monkeypatch.setattr(bench_mod, "_TIMER_RESOLUTION_NS", 10**12)
        with pytest.raises(TimerResolutionError, match="instance count"):
            _timed_pass(ev, data.matrix, warmup=False)


class TestCoverage:
    def test_single_split_tree_coverage(self):
        tree = Tree(Node.internal(3, 0.5, Node.leaf(0.0), Node.leaf(1.0)))
        ens = Ensemble(10, [tree])
        rng = np.random.default_rng(7)
        data = Dataset(rng.random((50, 10), dtype=np.float32))
        report = measure_feature_coverage(ens, data)
        assert report.mean_fraction == pytest.approx(0.1)
        assert report.variance == pytest.approx(0.0, abs=1e-18)
        assert report.num_instances == 50

    def test_all_features_examined(self):
        trees = [Tree(Node.internal(k, 0.5, Node.leaf(0.0), Node.leaf(1.0)))
                 for k in range(3)]
        ens = Ensemble(3, [(t, 1.0) for t in trees])
        rng = np.random.default_rng(8)
        data = Dataset(rng.random((20, 3), dtype=np.float32))
        report = measure_feature_coverage(ens, data)
        assert report.mean_fraction == 1.0

    def test_empty_dataset(self):
        ens = Ensemble(3, [Tree(Node.leaf(1.0))])
        report = measure_feature_coverage(
            ens, Dataset(np.zeros((0, 3), dtype=np.float32)))
        assert report.num_instances == 0


class TestTune:
    @requires_compiler
    def test_single_batch_size_wins_trivially(self):
        cfg = small_cfg(strategies=(StrategyKind.VPREDICATED,),
                        batch_sizes=(1,))
        assert best_batch_sizes(run_sweep(cfg)) == {(3, 32): 1}

    def test_report_without_vpredicated_rows_is_empty(self):
        assert best_batch_sizes(run_sweep(small_cfg())) == {}
        assert best_batch_sizes(BenchReport([], {})) == {}

    def test_fastest_mean_wins_and_ties_go_to_smaller_v(self):
        rows = [BenchRow("vpredicated", 3, 32, 16, 100, [500, 700]),
                BenchRow("vpredicated", 3, 32, 8, 100, [600, 600]),
                BenchRow("vpredicated", 3, 32, 32, 100, [400, 900]),
                BenchRow("vpredicated", 3, 32, 4, 100, [100], available=False),
                BenchRow("contiguous", 3, 32, None, 100, [10, 10]),
                BenchRow("vpredicated", 5, 32, 64, 100, [300, 300]),
                BenchRow("vpredicated", 5, 32, 1, 100, [500, 100])]
        assert best_batch_sizes(BenchReport(rows, {})) == {(3, 32): 8,
                                                         (5, 32): 1}

    @requires_compiler
    def test_fixed_run_emits_curve(self):
        tree = gen_tree(GenConfig(depth=3, num_features=8, seed=9))
        ens = Ensemble(8, [tree])
        data = gen_leaf_uniform_vectors(
            tree, GenConfig(depth=3, num_features=8, num_vectors=1024, seed=9))
        report = run_fixed(ens, data, strategies=(StrategyKind.VPREDICATED,),
                           batch_sizes=(1, 8), trials=2)
        best = best_batch_sizes(report)
        assert set(best) == {(3, 8)}
        assert best[(3, 8)] in (1, 8)
        assert len(report.rows) == 2


# scipy.stats.t.ppf(0.975, dof), computed once with scipy 1.17.1.
T_975_SCIPY = {
    1: 12.706204736174694, 2: 4.302652729749462, 3: 3.1824463052837078,
    5: 2.5705818356363146, 10: 2.228138851986274, 20: 2.085963447265864,
    21: 2.0796138447276795, 25: 2.0595385527532972, 30: 2.0422724563012378,
    31: 2.039513446396408, 50: 2.008559112100761, 100: 1.9839715185235518,
    120: 1.9799304050824402, 500: 1.9647198374673676,
    1000: 1.9623390808264083,
}


@pytest.mark.parametrize("dof", sorted(T_975_SCIPY))
def test_t_quantile_matches_scipy(dof):
    assert abs(t_quantile_975(dof) - T_975_SCIPY[dof]) < 1e-6


def test_ci95_uses_the_t_quantile():
    row = BenchRow("contiguous", 3, 32, None, 10, [100, 130, 110])
    sd = float(np.std([10.0, 13.0, 11.0], ddof=1))
    assert row.ci95_ns == t_quantile_975(2) * sd / math.sqrt(3)


def test_import_leaves_scipy_unloaded():
    # numpy is the package's only dependency: scipy, which once gave
    # BenchRow.ci95_ns its t quantile, would dominate the import time.
    code = "import sys, treescore; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(treescore.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=env)
    assert result.stdout.strip() == "False"


class TestCsv:
    def test_empty_report_is_header_only(self):
        assert export_csv(BenchReport([], {})) == CSV_HEADER + "\n"

    def test_single_trial_row_report(self):
        row = BenchRow("contiguous", 3, 32, None, 1000, [1234567])
        text = export_csv(BenchReport([row], {}))
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "contiguous,3,32,,0,1234567,1000,1234.567000"
        assert lines[2].startswith("contiguous,3,32,,mean,,1000,")
        assert lines[3].startswith("contiguous,3,32,,ci95,,1000,")

    def test_roundtrip_byte_exact(self):
        rng = np.random.default_rng(10)
        rows = []
        for d in (3, 5):
            for v in (None, 8):
                elapsed = [int(rng.integers(10**6, 10**9)) for _ in range(5)]
                strategy = "vpredicated" if v else "predicated"
                rows.append(BenchRow(strategy, d, 32, v, 4096, elapsed))
        rows.append(BenchRow("generated", 3, 32, None, 4096, [],
                             available=False, note="compiler not found"))
        report = BenchReport(rows, {"cpu": "test-cpu", "date": "2026-01-01"})
        text = export_csv(report)
        parsed = parse_csv(text)
        assert export_csv(parsed) == text
        for before, after in zip(report.rows, parsed.rows):
            assert before.key() == after.key()
            assert before.trial_elapsed_ns == after.trial_elapsed_ns
            assert before.available == after.available
            if before.trial_elapsed_ns:
                assert after.mean_ns == before.mean_ns
                assert after.ci95_ns == before.ci95_ns

    def test_real_report_roundtrip(self):
        report = run_sweep(small_cfg())
        text = export_csv(report)
        assert export_csv(parse_csv(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_csv("not,a,header\n1,2,3\n")
        with pytest.raises(Exception):
            parse_csv(CSV_HEADER + "\ncontiguous,3,32,,0,99,100\n")


def _raise_compiler_missing(*args, **kwargs):
    from treescore.codegen import CompilerNotFoundError
    raise CompilerNotFoundError("no C compiler found on PATH")
