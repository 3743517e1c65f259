"""The compile cache under ``codegen.compile_shared_object``: a second build
of a source with the same toolchain copies the cached object and runs no
compiler, anything else in the key makes a miss, and neither a failed
build nor an unsafe directory leaves anything in it."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import random_ensemble, random_matrix, requires_compiler
from treescore import bench, codegen, native, save_model
from treescore.evaluators import StrategyKind, build, reference_batch

ROOT = Path(__file__).resolve().parents[1]
SOURCE = "int answer(void) { return 42; }\n"
TABLE_BUILDS = ((StrategyKind.COMPACT_LINKED, None),
                (StrategyKind.CONTIGUOUS, None),
                (StrategyKind.PREDICATED, None),
                (StrategyKind.VPREDICATED, 8))

pytestmark = requires_compiler


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty cache of this test's own; its directory, not yet made."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "treescore"


@pytest.fixture
def compiles(monkeypatch):
    """The compiler commands run during the test, probes left out."""
    commands = []
    run = subprocess.run

    def spy(cmd, *args, **kwargs):
        if "-o" in cmd:
            commands.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    return commands


def compile_in(tmp_path, source=SOURCE):
    """Build ``source`` in a fresh workdir; whether it was a cache hit."""
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    lib_path, hit = codegen.compile_shared_object(source, workdir)
    assert lib_path == workdir / "scorer.so" and lib_path.is_file()
    assert (workdir / "scorer.c").read_text() == source
    assert sorted(p.name for p in workdir.iterdir()) == ["scorer.c", "scorer.so"]
    return hit


def entries(cache):
    return sorted(cache.iterdir()) if cache.exists() else []


def as_bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.uint64)


def test_rebuilt_library_runs_no_compile(monkeypatch, cache, compiles):
    monkeypatch.setattr(native, "_LIBRARY", None)
    first = native.load_layout_kernels()
    assert not first.cache_hit and native.library_cache_hit() is False
    assert len(compiles) == 1
    monkeypatch.setattr(native, "_LIBRARY", None)
    second = native.load_layout_kernels()
    assert second is not first
    assert second.cache_hit and native.library_cache_hit() is True
    assert len(compiles) == 1
    assert len(entries(cache)) == 1


def test_hit_copies_the_cached_object(cache, tmp_path, compiles):
    assert not compile_in(tmp_path)
    workdir = tmp_path / "hit"
    workdir.mkdir()
    lib_path, hit = codegen.compile_shared_object(SOURCE, workdir)
    assert hit and len(compiles) == 1
    (entry,) = entries(cache)
    assert lib_path.read_bytes() == entry.read_bytes()
    assert os.access(lib_path, os.X_OK)


def test_source_flags_and_compiler_are_in_the_key(monkeypatch, cache,
                                                  tmp_path):
    assert not compile_in(tmp_path)
    assert not compile_in(tmp_path, SOURCE + "/* another source */\n")
    assert compile_in(tmp_path, SOURCE + "/* another source */\n")

    opt_flags = codegen.OPT_FLAGS
    monkeypatch.setattr(codegen, "OPT_FLAGS", ("-O2",))
    assert not compile_in(tmp_path)
    assert compile_in(tmp_path)
    monkeypatch.setattr(codegen, "OPT_FLAGS", opt_flags)

    # The same compiler behind another path is another toolchain.
    wrapper = tmp_path / "wrapped-cc"
    wrapper.write_text(f'#!/bin/sh\nexec {codegen.find_compiler()} "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv(codegen.COMPILER_ENV_VAR, str(wrapper))
    assert not compile_in(tmp_path)
    assert compile_in(tmp_path)
    assert len(entries(cache)) == 4


def test_generated_and_library_flags_key_entries_apart(monkeypatch, cache,
                                                        tmp_path, compiles):
    native.load_layout_kernels()  # the binding a unit is called through
    before = len(entries(cache))
    source = codegen.emit_source(random_ensemble(np.random.default_rng(44),
                                                 6, 3, 4))
    unit = codegen.compile_and_load(source)
    assert unit.flags == codegen.GENERATED_FLAGS and not unit.cache_hit
    assert compiles[-1][1:1 + len(unit.flags)] == list(unit.flags)
    # The same source at the library's flags is another entry.
    assert not compile_in(tmp_path, source)
    assert codegen.compile_and_load(source).cache_hit
    assert compile_in(tmp_path, source)

    # Changing either set of flags leaves the other's entry valid.
    monkeypatch.setattr(codegen, "GENERATED_FLAGS",
                        (*codegen.GENERATED_FLAGS, "-g0"))
    assert not codegen.compile_and_load(source).cache_hit
    assert compile_in(tmp_path, source)
    monkeypatch.setattr(codegen, "OPT_FLAGS", ("-O2",))
    assert not compile_in(tmp_path, source)
    assert codegen.compile_and_load(source).cache_hit
    assert len(entries(cache)) == before + 4


def test_failed_compile_stores_nothing(monkeypatch, cache, tmp_path):
    monkeypatch.setenv(codegen.COMPILER_ENV_VAR, "false")
    with pytest.raises(codegen.CompilationError):
        codegen.compile_shared_object(SOURCE, tmp_path)
    monkeypatch.delenv(codegen.COMPILER_ENV_VAR)
    with pytest.raises(codegen.CompilationError):
        codegen.compile_shared_object("this is not C\n", tmp_path)
    assert entries(cache) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scorer.c", "xdg"]


def test_a_world_writable_cache_is_bypassed(cache, tmp_path, compiles):
    cache.mkdir(parents=True)
    cache.chmod(0o777)
    assert codegen.cache_dir() is None
    assert not compile_in(tmp_path)
    assert not compile_in(tmp_path)
    assert len(compiles) == 2
    assert entries(cache) == []


def test_the_cache_directory_is_private(cache):
    assert codegen.cache_dir() == cache
    assert cache.stat().st_mode & 0o777 == 0o700


def test_least_recently_used_entries_are_evicted(monkeypatch, cache,
                                                 tmp_path):
    sources = [SOURCE + f"/* {k} */\n" for k in range(3)]
    assert not compile_in(tmp_path, sources[0])
    (a,) = entries(cache)
    assert not compile_in(tmp_path, sources[1])
    (b,) = set(entries(cache)) - {a}
    # b was used after a; then a hit makes a the most recently used.
    os.utime(a, (100, 100))
    os.utime(b, (200, 200))
    assert compile_in(tmp_path, sources[0])
    size = b.stat().st_size
    monkeypatch.setattr(codegen, "CACHE_BYTES",
                        a.stat().st_size + size + size // 2)
    assert not compile_in(tmp_path, sources[2])
    left = entries(cache)
    assert a in left and b not in left and len(left) == 2


def test_hit_scores_equal_a_fresh_compile(monkeypatch, cache):
    rng = np.random.default_rng(41)
    ens = random_ensemble(rng, 12, 6, 5)
    X = random_matrix(rng, 300, 12)
    expected = as_bits(reference_batch(ens, X))
    scores = []
    for hit in (False, True):
        monkeypatch.setattr(native, "_LIBRARY", None)
        for kind, v in TABLE_BUILDS:
            scores.append(as_bits(build(ens, kind, v).predict_batch(X)))
        assert native.library_cache_hit() is hit
        unit = codegen.compile_and_load(codegen.emit_source(ens))
        assert unit.cache_hit is hit
        scores.append(as_bits(
            codegen.GeneratedEvaluator(ens, unit).predict_batch(X)))
    for got in scores:
        assert np.array_equal(got, expected)


def test_generated_unit_reports_its_compile(cache):
    rng = np.random.default_rng(42)
    source = codegen.emit_source(random_ensemble(rng, 8, 4, 4))
    cold = codegen.compile_and_load(source)
    warm = codegen.compile_and_load(source)
    assert not cold.cache_hit and warm.cache_hit
    assert 0 < warm.compile_s < cold.compile_s


def test_environment_names_the_cache_and_the_library_build(monkeypatch,
                                                           cache):
    monkeypatch.setattr(native, "_LIBRARY", None)
    env = bench.collect_environment()
    assert env["compile_cache"] == str(cache)
    assert env["layout_kernels_build"] == "not built"
    native.load_layout_kernels()
    assert bench.collect_environment()["layout_kernels_build"] == "compiled"
    monkeypatch.setattr(native, "_LIBRARY", None)
    native.load_layout_kernels()
    assert bench.collect_environment()["layout_kernels_build"] == "cache hit"
    cache.chmod(0o777)
    assert bench.collect_environment()["compile_cache"] == "off"


RACER = r"""
import sys, time
from pathlib import Path
import numpy as np
from treescore import build, load_model, native

barrier, name, model, rows = Path(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
(barrier / name).touch()
deadline = time.monotonic() + 60
while len(list(barrier.iterdir())) < 2 and time.monotonic() < deadline:
    time.sleep(0.001)
scores = build(load_model(model), "contiguous").predict_batch(np.load(rows))
print(native.library_cache_hit(), *scores.view(np.uint64).tolist())
"""


def test_racing_processes_both_score_and_leave_one_entry(cache, tmp_path):
    rng = np.random.default_rng(43)
    ens = random_ensemble(rng, 10, 5, 4)
    model, rows = tmp_path / "m.tree", tmp_path / "rows.npy"
    save_model(ens, model)
    X = random_matrix(rng, 64, 10)
    np.save(rows, X)
    barrier = tmp_path / "barrier"
    barrier.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    racers = [subprocess.Popen(
        [sys.executable, "-c", RACER, str(barrier), name, str(model),
         str(rows)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True) for name in ("a", "b")]
    expected = reference_batch(ens, X).view(np.uint64).tolist()
    for racer in racers:
        out, err = racer.communicate(timeout=120)
        assert racer.returncode == 0, err
        hit, *bits = out.split()
        assert hit in ("True", "False")
        assert list(map(int, bits)) == expected
    (entry,) = entries(cache)
    assert entry.suffix == ".so"
