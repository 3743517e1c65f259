"""The generated strategy: emit C for an ensemble, compile it, load it.

``emit_source`` turns each tree into a hard-coded nested if-else function
(strict ``<`` goes left, mirroring the shared tie rule) plus
``score_ensemble``, which sums the weighted tree scores in order, and one
exported entry point, ``score_rows``, which applies it row by row with the
row stride baked in as a constant.  ``score_rows`` has the signature of the
native layout kernels, ``int (const void *, const float *, int64_t,
double *)``, so a unit is called through the same CPython binding
(:mod:`treescore.native`) as every other native strategy, while the
emitted source stays plain C.  Emission is deterministic, so goldens are
diffable.  Float constants are written as C99 hex literals, which are
exact, keeping the compiled scorer bit-identical to the in-process
strategies.

``compile_and_load`` shells out to the host C compiler at
:data:`GENERATED_FLAGS` (through ``compile_shared_object``, which the
native layout kernels of :mod:`treescore.native` share at
:data:`OPT_FLAGS`), loads the shared object, and binds its entry point.
A unit is compiled at ``-O1``: a large ensemble compiles in about half the
time it takes at ``-O3``, and the nested branches it compiles to run as
fast.  ``compile_shared_object`` keeps every object it builds in a
per-user cache (:func:`cache_dir`), keyed by the source and the toolchain
(flags included), so a process that builds a source some process on the
same machine already built copies the object instead of compiling.
:class:`GeneratedEvaluator` is the
:class:`~treescore.evaluators.Evaluator` over that binding, so its
``predict`` and ``predict_batch`` are the binding's own and a request runs
no Python code unless its input needs coercing; the model lives in machine
code, so it stores no table.  The compiler is
discovered on PATH (cc, gcc, clang) or overridden with the
``TREESCORE_CC`` environment variable.  When no compiler (or no Python C
headers, which the binding needs) exists the strategy reports itself
unavailable; the benchmark harness marks the row and carries on instead of
failing the run.

Changing a model means regenerating and recompiling, which is exactly the
flexibility cost this strategy exists to demonstrate.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import time
import weakref
from pathlib import Path

import numpy as np

from . import native
from .evaluators import Evaluator, StrategyKind
from .model import Ensemble, Node

COMPILER_ENV_VAR = "TREESCORE_CC"
# The layout-kernel library is compiled at OPT_FLAGS, each generated unit
# at GENERATED_FLAGS.  -ffp-contract=off keeps ``acc += w * v`` a multiply
# and an add, as in the reference traversal, on targets whose compilers
# would fuse them.
OPT_FLAGS = ("-O3", "-fomit-frame-pointer", "-pipe", "-ffp-contract=off")
GENERATED_FLAGS = ("-O1", "-fomit-frame-pointer", "-pipe", "-ffp-contract=off")
LINK_FLAGS = ("-shared", "-fPIC")
# The compile cache keeps at most this many bytes of objects; the least
# recently used go first.
CACHE_BYTES = 256 << 20
ENTRY_SYMBOL = "score_rows"
FEATURES_SYMBOL = "num_features"
# Nesting deeper than this many levels is emitted at this indentation, so
# the source of a deep tree grows linearly with its depth.
MAX_INDENT = 16


class CompilerNotFoundError(RuntimeError):
    """No usable host C compiler; the generated strategy is unavailable."""


class CompilationError(RuntimeError):
    """Compiler exited nonzero; carries its diagnostics verbatim."""


class SymbolResolutionError(RuntimeError):
    """Built unit could not be loaded or its entry points resolved."""


def find_compiler() -> str | None:
    """Locate the host C compiler, honoring the environment override."""
    override = os.environ.get(COMPILER_ENV_VAR)
    if override:
        return shutil.which(override) or override
    for candidate in ("cc", "gcc", "clang"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _c_float(value: float) -> str:
    # Hex float literals are exact; the value is float32-exact already.
    return float.hex(float(np.float32(value))) + "f"


def _c_double(value: float) -> str:
    return float.hex(float(value))


def _emit_tree(root: Node, lines: list) -> None:
    # Iterative, so trees deeper than the recursion limit emit too; the
    # lines are those of the nested if-else a recursive walk would write.
    pending = [(root, 1)]
    while pending:
        item, indent = pending.pop()
        pad = "    " * min(indent, MAX_INDENT)
        if isinstance(item, str):
            lines.append(pad + item)
        elif item.is_leaf:
            lines.append(f"{pad}return {_c_float(item.value)};")
        else:
            lines.append(f"{pad}if (x[{item.fid}] < {_c_float(item.threshold)}) {{")
            pending += [("}", indent), (item.right, indent + 1),
                        ("} else {", indent), (item.left, indent + 1)]


def emit_source(ensemble: Ensemble) -> str:
    """Emit deterministic C source scoring ``ensemble``.

    One static ``float tree_<k>(const float *x)`` per tree (separate
    functions keep compile times tolerable for large ensembles),
    ``double score_ensemble(const float *x)``, the exported entry point
    ``int score_rows(const void *model, const float *x, int64_t n,
    double *out)`` (``model`` is unused) and ``const int64_t
    num_features``.
    """
    f = ensemble.num_features
    lines = [
        "/* Generated tree-ensemble scorer. Do not edit. */",
        f"/* trees={len(ensemble.trees)} num_features={f} */",
        "#include <stdint.h>",
        "",
    ]
    for k, (tree, _) in enumerate(ensemble.trees):
        lines.append(f"static float tree_{k}(const float *x) {{")
        _emit_tree(tree.root, lines)
        lines.append("}")
        lines.append("")
    lines.append("double score_ensemble(const float *x) {")
    lines.append("    double acc = 0.0;")
    for k, (_, weight) in enumerate(ensemble.trees):
        lines.append(f"    acc += {_c_double(weight)} * (double) tree_{k}(x);")
    lines.append("    return acc;")
    lines.append("}")
    lines.append("")
    lines.append(f"const int64_t {FEATURES_SYMBOL} = {f};")
    lines.append("")
    lines.append(f"int {ENTRY_SYMBOL}(const void *model, const float *x, "
                 "int64_t n, double *out) {")
    lines.append("    int64_t i;")
    lines.append("    (void) model;")
    lines.append("    for (i = 0; i < n; i++) {")
    lines.append(f"        out[i] = score_ensemble(x + i * {f});")
    lines.append("    }")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


class GeneratedUnit:
    """A compiled and loaded scorer: source text, artifacts, entry point.

    ``kernel`` is the unit's entry point bound through
    :mod:`treescore.native`, whose ``predict(x)`` and
    ``predict_batch(data)`` take what an evaluator takes.  ``flags`` are
    the optimisation flags ``lib_path`` was compiled at.  ``compile_s``
    is the wall time of building ``lib_path``, and ``cache_hit`` says
    whether it was copied from the compile cache rather than compiled
    (then ``compile_s`` is a few milliseconds).  A workdir the
    unit created (``owns_workdir``) is removed when the unit is collected,
    or at exit; a workdir it was given stays.  The loaded library stays
    mapped for the life of the process.
    """

    def __init__(self, source_text: str, workdir: Path, lib_path: Path,
                 compiler: str, flags: tuple, owns_workdir: bool, *,
                 compile_s: float, cache_hit: bool):
        self.source_text = source_text
        self.workdir = workdir
        self.lib_path = lib_path
        self.compiler = compiler
        self.flags = flags
        self.compile_s = compile_s
        self.cache_hit = cache_hit
        binding = native.load_layout_kernels().Kernel
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError as exc:
            raise SymbolResolutionError(f"failed to load {lib_path}: {exc}") from exc
        try:
            entry = native.function_address(getattr(lib, ENTRY_SYMBOL))
            num_features = ctypes.c_int64.in_dll(lib, FEATURES_SYMBOL).value
        except (AttributeError, ValueError) as exc:
            raise SymbolResolutionError(
                f"missing symbol in {lib_path}: {exc}") from exc
        self.kernel = binding(entry, 0, num_features, lib)
        if owns_workdir:
            weakref.finalize(self, shutil.rmtree, workdir, ignore_errors=True)


def _require_compiler() -> str:
    compiler = find_compiler()
    if compiler is None:
        raise CompilerNotFoundError(
            f"no C compiler found on PATH (install cc/gcc/clang or set "
            f"${COMPILER_ENV_VAR})"
        )
    return compiler


def cache_dir() -> Path | None:
    """The directory of the compile cache, created with mode 0700.

    ``$XDG_CACHE_HOME/treescore`` (an absolute ``XDG_CACHE_HOME`` only, as
    the XDG specification asks), else ``~/.cache/treescore``.  ``None``,
    which turns the cache off, unless the directory exists or can be made,
    the current user owns it, and neither group nor others may write it.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            return None
    directory = Path(base, "treescore")
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = directory.stat()
    except OSError:
        return None
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid()
            or st.st_mode & 0o022):
        return None
    return directory


# ``compiler --version`` per compiler, or None where it failed.
_VERSIONS: dict = {}


def _compiler_version(compiler: str) -> str | None:
    if compiler not in _VERSIONS:
        try:
            proc = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True, errors="replace")
        except OSError:
            proc = None
        _VERSIONS[compiler] = (proc.stdout if proc and proc.returncode == 0
                               else None)
    return _VERSIONS[compiler]


def _cache_entry(compiler: str, flags: list, source: str) -> Path | None:
    """Where the cache keeps the object of ``source`` built with
    ``compiler`` and ``flags``; ``None`` when there is no cache, or the
    compiler cannot say its version."""
    directory = cache_dir()
    version = _compiler_version(compiler)
    if directory is None or version is None:
        return None
    toolchain = [os.path.realpath(compiler), version, flags, sys.version,
                 sysconfig.get_config_var("EXT_SUFFIX"), platform.machine()]
    key = hashlib.sha256(json.dumps(toolchain).encode())
    key.update(b"\0")
    key.update(source.encode("utf-8"))
    return directory / f"{key.hexdigest()}.so"


def _copy_into(src: Path, dst: Path) -> None:
    """Copy ``src`` (contents and mode) to ``dst`` through a temporary file
    beside it, so that no reader, nor a library mapped from ``dst``, ever
    sees a partly written file."""
    fd, tmp = tempfile.mkstemp(prefix=".", suffix=".tmp", dir=dst.parent)
    os.close(fd)
    try:
        shutil.copy(src, tmp)
        os.replace(tmp, dst)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _evict(directory: Path) -> None:
    """Delete the least recently used objects until the rest fit in
    :data:`CACHE_BYTES`."""
    entries = []
    for path in directory.glob("*.so"):
        with contextlib.suppress(OSError):
            st = path.stat()
            entries.append((st.st_mtime_ns, st.st_size, path))
    total = sum(size for _, size, _ in entries)
    for _, size, path in sorted(entries):
        if total <= CACHE_BYTES:
            break
        with contextlib.suppress(OSError):
            path.unlink()
        total -= size


def compile_shared_object(source: str, workdir: Path, *,
                          opt_flags: tuple | None = None,
                          include_dirs: tuple = ()) -> tuple[Path, bool]:
    """Write ``source`` to ``workdir/scorer.c`` and build ``scorer.so`` there.

    Compiles at ``opt_flags`` (by default :data:`OPT_FLAGS`, read at call
    time), searching ``include_dirs`` for headers,
    and returns the shared object's path and whether it came from the
    compile cache.  The cache (:func:`cache_dir`) is keyed by a sha256 of
    the source, the resolved compiler and its ``--version``, the flags,
    the include directories, the interpreter's version and extension
    suffix, and the machine.  A hit copies the cached object to
    ``workdir/scorer.so`` and compiles nothing; a miss compiles as if
    there were no cache, then publishes the object under its key with an
    atomic rename, so a concurrent process sees all of it or nothing.  A
    hit marks its entry most recently used; past :data:`CACHE_BYTES`,
    the least recently used entries are deleted.  Without a usable cache
    directory, or when ``--version`` fails, every build compiles.
    Raises :class:`CompilerNotFoundError` when no compiler is discoverable,
    whatever the cache holds, and :class:`CompilationError` (with the
    compiler's diagnostics) on a failed build, which stores nothing.
    """
    compiler = _require_compiler()
    src_path = workdir / "scorer.c"
    lib_path = workdir / "scorer.so"
    src_path.write_text(source, encoding="utf-8")
    if opt_flags is None:
        opt_flags = OPT_FLAGS
    flags = [*opt_flags, *LINK_FLAGS, *(f"-I{d}" for d in include_dirs)]
    entry = _cache_entry(compiler, flags, source)
    if entry is not None:
        try:
            os.utime(entry)  # raises on a miss
            _copy_into(entry, lib_path)
            return lib_path, True
        except OSError:
            pass  # not cached, or evicted meanwhile: compile it
    cmd = [compiler, *flags, "-o", str(lib_path), str(src_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except FileNotFoundError as exc:
        raise CompilerNotFoundError(f"compiler {compiler!r} not found") from exc
    if proc.returncode != 0:
        raise CompilationError(
            f"compiler failed (exit {proc.returncode}): {' '.join(cmd)}\n"
            f"{proc.stderr or proc.stdout}"
        )
    if entry is not None:
        with contextlib.suppress(OSError):  # a cache that cannot take it
            _copy_into(lib_path, entry)
            _evict(entry.parent)
    return lib_path, False


def compile_and_load(source: str, workdir=None) -> GeneratedUnit:
    """Compile C ``source`` at :data:`GENERATED_FLAGS` into a shared object
    and bind its entry point.

    Raises :class:`CompilerNotFoundError` when no compiler is discoverable
    or the binding of :mod:`treescore.native` (built with the discovered
    compiler) lacks the Python headers, :class:`CompilationError` (with
    the compiler's diagnostics) on a failed build, and
    :class:`SymbolResolutionError` if the built unit cannot be loaded or
    lacks the documented symbols.
    """
    # The binding the unit is called through: without it, fail before
    # compiling anything.
    native.load_layout_kernels()
    compiler = _require_compiler()
    owns_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="treescore-gen-")) if owns_workdir \
        else Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    flags = GENERATED_FLAGS
    lib_path, cache_hit = compile_shared_object(source, workdir,
                                                opt_flags=flags)
    return GeneratedUnit(source, workdir, lib_path, compiler, flags,
                         owns_workdir, compile_s=time.perf_counter() - start,
                         cache_hit=cache_hit)


class GeneratedEvaluator(Evaluator):
    """The evaluator over a compiled unit, interchangeable with the rest."""

    def __init__(self, ensemble: Ensemble, unit: GeneratedUnit):
        super().__init__(StrategyKind.GENERATED, ensemble, unit.kernel, 0)
        self.unit = unit


def build_generated(ensemble: Ensemble) -> GeneratedEvaluator:
    """Emit, compile, and wrap ``ensemble`` as a generated evaluator."""
    return GeneratedEvaluator(ensemble, compile_and_load(emit_source(ensemble)))
