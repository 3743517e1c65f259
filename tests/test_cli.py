"""CLI surface: flags, exit codes, and end-to-end pipelines."""

import sysconfig

import numpy as np
import pytest

from treescore import (Dataset, Ensemble, Node, Tree, native, parse_csv,
                       read_csv, read_fvec, save_model, write_fvec)
from treescore import bench as bench_mod
from treescore.cli import main
from treescore.codegen import GENERATED_FLAGS

from conftest import requires_compiler


def run(argv):
    return main(argv)


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "m.tree"
    assert run(["gen-model", "--depth", "3", "--features", "32",
                "--seed", "1", "--out", str(path)]) == 0
    return path


@pytest.fixture
def data_path(tmp_path, model_path):
    path = tmp_path / "d.fvec"
    assert run(["gen-data", "--model", str(model_path), "--count", "1500",
                "--seed", "2", "--out", str(path)]) == 0
    return path


class TestGenAndValidate:
    def test_gen_model_then_validate(self, model_path, capsys):
        assert run(["validate", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out and "max_depth=3" in out

    def test_validate_missing_file(self, tmp_path):
        assert run(["validate", str(tmp_path / "nope.tree")]) == 2

    def test_validate_corrupt_model(self, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("ensemble 2 1\ntree 1.0\nleaf 0 0.5\n")
        assert run(["validate", str(bad)]) == 2

    def test_gen_model_multiple_trees(self, tmp_path, capsys):
        path = tmp_path / "multi.tree"
        assert run(["gen-model", "--depth", "2", "--features", "8",
                    "--trees", "3", "--seed", "4", "--out", str(path)]) == 0
        assert run(["validate", str(path)]) == 0
        assert "trees=3" in capsys.readouterr().out

    def test_gen_data_fvec_and_csv(self, tmp_path, model_path):
        fvec = tmp_path / "d.fvec"
        csv = tmp_path / "d.csv"
        assert run(["gen-data", "--model", str(model_path), "--count", "100",
                    "--seed", "3", "--out", str(fvec)]) == 0
        assert run(["gen-data", "--model", str(model_path), "--count", "100",
                    "--seed", "3", "--out", str(csv), "--csv"]) == 0
        a = read_fvec(fvec)
        b = read_csv(csv, num_features=32)
        assert a.count == b.count == 100
        assert np.array_equal(a.matrix, b.matrix)

    def test_gen_data_multitree_uniform_fallback(self, tmp_path, capsys):
        model = tmp_path / "multi.tree"
        run(["gen-model", "--depth", "2", "--features", "8", "--trees", "2",
             "--seed", "4", "--out", str(model)])
        out_path = tmp_path / "u.fvec"
        assert run(["gen-data", "--model", str(model), "--count", "64",
                    "--seed", "5", "--out", str(out_path)]) == 0
        assert "uniform" in capsys.readouterr().out


class TestUsageErrors:
    def test_missing_command(self):
        assert run([]) == 1

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_bench_requires_model_or_sweep(self):
        assert run(["bench"]) == 1

    def test_bench_vpredicated_without_batch(self, model_path):
        assert run(["bench", "--model", str(model_path),
                    "--strategies", "vpredicated"]) == 1

    def test_bench_unknown_strategy(self, model_path):
        assert run(["bench", "--model", str(model_path),
                    "--strategies", "warp_drive"]) == 1

    def test_bench_sweep_with_data_conflicts(self, tmp_path):
        assert run(["bench", "--sweep", "--data", str(tmp_path / "x")]) == 1

    def test_bench_instances_with_data_conflicts(self, model_path, data_path,
                                                 capsys):
        # The dataset's rows are the instances; --instances would be ignored.
        assert run(["bench", "--model", str(model_path), "--data",
                    str(data_path), "--instances", "64"]) == 1
        assert "--instances applies without --data" in capsys.readouterr().err

    def test_bench_bad_trials(self, model_path, data_path):
        assert run(["bench", "--model", str(model_path), "--data",
                    str(data_path), "--trials", "1"]) == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("gen-model", "--trees", "0"),
        ("gen-model", "--depth", "-1"),
        ("gen-model", "--features", "0"),
        ("gen-model", "--seed", "-1"),
        ("gen-data", "--count", "-1"),
        ("gen-data", "--seed", "-1"),
    ])
    def test_gen_flag_out_of_range(self, tmp_path, model_path, capsys,
                                   command, flag, value):
        # An out-of-range flag is a usage error, not a data error, and
        # nothing is written.
        out = tmp_path / "out"
        argv = {"gen-model": ["gen-model", "--depth", "2", "--features", "4",
                              "--seed", "1"],
                "gen-data": ["gen-data", "--model", str(model_path),
                             "--count", "8", "--seed", "1"]}[command]
        assert run(argv + [flag, value, "--out", str(out)]) == 1
        assert f"{flag} must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0
        assert run(["bench", "--help"]) == 0


class TestBenchAndTune:
    @requires_compiler
    def test_bench_fixed_pipeline(self, tmp_path, model_path, data_path):
        out = tmp_path / "r.csv"
        code = run(["bench", "--model", str(model_path),
                    "--data", str(data_path),
                    "--strategies", "contiguous,predicated,vpredicated",
                    "--batch", "1,8", "--trials", "2", "--out", str(out)])
        assert code == 0
        report = parse_csv(out.read_text())
        keys = {row.key() for row in report.rows}
        assert ("contiguous", 3, 32, None) in keys
        assert ("vpredicated", 3, 32, 8) in keys
        for row in report.rows:
            assert len(row.trial_elapsed_ns) == 2

    @requires_compiler
    def test_bench_generates_data_when_missing(self, tmp_path, model_path):
        out = tmp_path / "r.csv"
        code = run(["bench", "--model", str(model_path),
                    "--strategies", "contiguous", "--trials", "2",
                    "--instances", "512", "--out", str(out)])
        assert code == 0
        report = parse_csv(out.read_text())
        assert report.rows[0].instances == 512

    @requires_compiler
    def test_bench_sweep_small(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["bench", "--sweep", "--strategies", "contiguous",
                    "--trials", "2", "--instances", "128", "--out", str(out)])
        assert code == 0
        report = parse_csv(out.read_text())
        # Default grid: 5 depths x 3 feature sizes.
        assert len(report.rows) == 15

    @requires_compiler
    def test_bench_to_stdout(self, model_path, data_path, capsys):
        code = run(["bench", "--model", str(model_path), "--data",
                    str(data_path), "--strategies", "contiguous",
                    "--trials", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith("contiguous")

    @requires_compiler
    def test_bench_on_a_dataset_without_rows_is_a_data_error(
            self, tmp_path, model_path, capsys):
        data = tmp_path / "empty.fvec"
        write_fvec(data, Dataset(np.zeros((0, 32), dtype=np.float32)))
        assert run(["bench", "--model", str(model_path), "--data", str(data),
                    "--strategies", "heap_linked", "--trials", "2"]) == 2
        assert "no rows" in capsys.readouterr().err

    @requires_compiler
    def test_bench_under_the_timer_resolution_is_a_data_error(
            self, tmp_path, model_path, monkeypatch, capsys):
        data = tmp_path / "tiny.fvec"
        write_fvec(data, Dataset(np.zeros((3, 32), dtype=np.float32)))
        # A clock so coarse that every pass is too short to time, as a
        # pass over three rows is on a real one.
        monkeypatch.setattr(bench_mod, "_TIMER_RESOLUTION_NS", 10**12)
        assert run(["bench", "--model", str(model_path), "--data", str(data),
                    "--strategies", "heap_linked", "--trials", "2"]) == 2
        assert "instance count" in capsys.readouterr().err

    @requires_compiler
    def test_timer_resolution_error_names_the_dataset(
            self, tmp_path, model_path, monkeypatch, capsys):
        data = tmp_path / "tiny.fvec"
        write_fvec(data, Dataset(np.zeros((3, 32), dtype=np.float32)))
        monkeypatch.setattr(bench_mod, "_TIMER_RESOLUTION_NS", 10**12)
        assert run(["bench", "--model", str(model_path), "--data", str(data),
                    "--strategies", "heap_linked", "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert f"{data} has only 3 rows" in err
        assert "increase the instance count" not in err
        # Without --data, --instances sets the count, so the error says so.
        assert run(["bench", "--model", str(model_path), "--instances", "3",
                    "--strategies", "heap_linked", "--trials", "2"]) == 2
        err = capsys.readouterr().err
        assert "the generated dataset (--instances) has only 3 rows" in err

    @pytest.mark.parametrize("missing", ["compiler", "headers"])
    def test_bench_and_tune_without_native_code_are_env_errors(
            self, tmp_path, model_path, data_path, monkeypatch, capsys,
            missing):
        # No strategy can be built, so there is no report to print.
        monkeypatch.setattr(native, "_LIBRARY", None)
        if missing == "compiler":
            monkeypatch.setenv("PATH", "")
            monkeypatch.delenv("TREESCORE_CC", raising=False)
            text = "no C compiler found on PATH"
        else:
            paths = dict(sysconfig.get_paths(), include=str(tmp_path))
            monkeypatch.setattr(sysconfig, "get_paths", lambda *args: paths)
            text = f"no Python.h in {tmp_path}"
        out = tmp_path / "r.csv"
        model, data = str(model_path), str(data_path)
        for argv in (["bench", "--model", model, "--data", data],
                     ["bench", "--model", model, "--strategies", "heap_linked",
                      "--instances", "64"],
                     ["bench", "--sweep", "--strategies", "heap_linked",
                      "--instances", "64"],
                     ["tune", "--model", model, "--data", data]):
            capsys.readouterr()
            assert run(argv + ["--out", str(out)]) == 3, argv
            captured = capsys.readouterr()
            assert text in captured.err, argv
            assert captured.out == "", argv
        assert not out.exists()

    @requires_compiler
    def test_tune(self, tmp_path, model_path, data_path, capsys):
        out = tmp_path / "tune.csv"
        code = run(["tune", "--model", str(model_path),
                    "--data", str(data_path), "--batches", "1,4",
                    "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "best batch size" in err
        report = parse_csv(out.read_text())
        assert {row.batch for row in report.rows} == {1, 4}


    @requires_compiler
    def test_feature_id_past_uint16_scores_bit_exactly(self, tmp_path):
        # A split on feature id 65,536, which a uint16 would wrap to 0: the
        # predicated tables hold int32 ids, so bench and tune pass their
        # bit-exact gate on it and exit 0.
        f = 65_537
        model = tmp_path / "wide.tree"
        save_model(Ensemble(f, [(Tree(Node.internal(
            f - 1, 0.5, Node.leaf(1.0), Node.leaf(float(t)))), 0.5)
            for t in range(64)]), model)
        X = np.zeros((64, f), dtype=np.float32)
        X[:, f - 1] = np.resize(np.array([0.25, 0.5, np.nan, -np.inf],
                                         dtype=np.float32), 64)
        data = tmp_path / "wide.fvec"
        write_fvec(data, Dataset(X))
        assert run(["validate", str(model)]) == 0
        for argv, strategy in (
                (["bench", "--strategies", "predicated", "--trials", "2"],
                 "predicated"),
                (["tune", "--batches", "4"], "vpredicated")):
            out = tmp_path / "r.csv"
            assert run(argv + ["--model", str(model), "--data", str(data),
                               "--out", str(out)]) == 0
            rows = parse_csv(out.read_text()).rows
            assert [(row.strategy, row.features) for row in rows] == [
                (strategy, f)]


class TestCoverageCommand:
    def test_coverage_output(self, model_path, data_path, capsys):
        assert run(["coverage", "--model", str(model_path),
                    "--data", str(data_path)]) == 0
        out = capsys.readouterr().out
        assert "mean fraction of features examined" in out
        assert "instances: 1500" in out


class TestCodegenCommand:
    def test_emit_only(self, tmp_path, model_path):
        outdir = tmp_path / "gen"
        assert run(["codegen", "--model", str(model_path),
                    "--out", str(outdir)]) == 0
        assert (outdir / "scorer.c").exists()
        assert not (outdir / "scorer.so").exists()

    @requires_compiler
    def test_compile_removes_source_unless_kept(self, tmp_path, model_path,
                                                capsys):
        outdir = tmp_path / "gen1"
        assert run(["codegen", "--model", str(model_path), "--out",
                    str(outdir), "--compile"]) == 0
        # The unit names the flags it was compiled at.
        assert " ".join(GENERATED_FLAGS) in capsys.readouterr().out
        assert (outdir / "scorer.so").exists()
        assert not (outdir / "scorer.c").exists()

        outdir2 = tmp_path / "gen2"
        assert run(["codegen", "--model", str(model_path), "--out",
                    str(outdir2), "--compile", "--keep-sources"]) == 0
        assert (outdir2 / "scorer.so").exists()
        assert (outdir2 / "scorer.c").exists()

    def test_compile_without_python_headers_is_env_error(
            self, tmp_path, model_path, monkeypatch, capsys):
        monkeypatch.setattr(native, "_LIBRARY", None)
        paths = dict(sysconfig.get_paths(), include=str(tmp_path))
        monkeypatch.setattr(sysconfig, "get_paths", lambda *args: paths)
        assert run(["codegen", "--model", str(model_path), "--out",
                    str(tmp_path / "gen4"), "--compile"]) == 3
        assert f"no Python.h in {tmp_path}" in capsys.readouterr().err

    def test_compile_without_compiler_is_env_error(self, tmp_path, model_path,
                                                   monkeypatch):
        monkeypatch.setenv("PATH", "")
        monkeypatch.delenv("TREESCORE_CC", raising=False)
        outdir = tmp_path / "gen3"
        assert run(["codegen", "--model", str(model_path), "--out",
                    str(outdir), "--compile"]) == 3
