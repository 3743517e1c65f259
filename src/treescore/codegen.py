"""The generated strategy: emit C for an ensemble, compile it, load it.

``emit_source`` turns each tree into a hard-coded nested if-else function
(strict ``<`` goes left, mirroring the shared tie rule) plus one exported
``score_ensemble`` function that sums the weighted tree scores in order,
and a ``score_batch`` helper that applies it row by row.  Emission is
deterministic, so goldens are diffable.  Float constants are written as
C99 hex literals, which are exact, keeping the compiled scorer
bit-identical to the in-process strategies.

``compile_and_load`` shells out to the host C compiler at full
optimization (through ``compile_shared_object``, which the native layout
kernels of :mod:`treescore.native` share), loads the shared object with
ctypes, and resolves the fixed entry symbol ``score_ensemble``.  The
compiler is discovered on PATH (cc, gcc, clang) or overridden with the
``TREESCORE_CC`` environment variable.  When no compiler exists the
strategy reports itself unavailable; the benchmark harness marks the row
and carries on instead of failing the run.

Changing a model means regenerating and recompiling, which is exactly the
flexibility cost this strategy exists to demonstrate.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path

import numpy as np

from .model import Ensemble, Node
from .evaluators import Evaluator, StrategyKind
from .native import address

COMPILER_ENV_VAR = "TREESCORE_CC"
OPT_FLAGS = ("-O3", "-fomit-frame-pointer", "-pipe")
ENTRY_SYMBOL = "score_ensemble"
BATCH_SYMBOL = "score_batch"
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
    functions keep compile times tolerable for large ensembles), plus the
    exported ``double score_ensemble(const float *x)`` and
    ``void score_batch(const float *x, int64_t n, int64_t f, double *out)``.
    """
    lines = [
        "/* Generated tree-ensemble scorer. Do not edit. */",
        f"/* trees={len(ensemble.trees)} num_features={ensemble.num_features} */",
        "#include <stdint.h>",
        "",
    ]
    for k, (tree, _) in enumerate(ensemble.trees):
        lines.append(f"static float tree_{k}(const float *x) {{")
        _emit_tree(tree.root, lines)
        lines.append("}")
        lines.append("")
    lines.append(f"double {ENTRY_SYMBOL}(const float *x) {{")
    lines.append("    double acc = 0.0;")
    for k, (_, weight) in enumerate(ensemble.trees):
        lines.append(f"    acc += {_c_double(weight)} * (double) tree_{k}(x);")
    lines.append("    return acc;")
    lines.append("}")
    lines.append("")
    lines.append(f"void {BATCH_SYMBOL}(const float *x, int64_t n, int64_t f, "
                 "double *out) {")
    lines.append("    int64_t i;")
    lines.append("    for (i = 0; i < n; i++) {")
    lines.append(f"        out[i] = {ENTRY_SYMBOL}(x + i * f);")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


class GeneratedUnit:
    """A compiled and loaded scorer: source text, artifacts, entry points.

    A workdir the unit created (``owns_workdir``) is removed when the unit
    is collected, or at exit, unless ``keep_sources`` is set.  The loaded
    library stays mapped for the life of the process.
    """

    def __init__(self, source_text: str, workdir: Path, lib_path: Path,
                 compiler: str, flags: tuple, keep_sources: bool,
                 owns_workdir: bool):
        self.source_text = source_text
        self.workdir = workdir
        self.lib_path = lib_path
        self.compiler = compiler
        self.flags = flags
        self.keep_sources = keep_sources
        try:
            self._lib = ctypes.CDLL(str(lib_path))
        except OSError as exc:
            raise SymbolResolutionError(f"failed to load {lib_path}: {exc}") from exc
        try:
            self._entry = getattr(self._lib, ENTRY_SYMBOL)
            self._batch = getattr(self._lib, BATCH_SYMBOL)
        except AttributeError as exc:
            raise SymbolResolutionError(
                f"missing symbol in {lib_path}: {exc}") from exc
        self._entry.restype = ctypes.c_double
        self._entry.argtypes = [ctypes.c_void_p]
        self._batch.restype = None
        self._batch.argtypes = [ctypes.c_void_p, ctypes.c_int64,
                                ctypes.c_int64, ctypes.c_void_p]
        if owns_workdir and not keep_sources:
            weakref.finalize(self, shutil.rmtree, workdir, ignore_errors=True)

    def score(self, x: np.ndarray) -> float:
        """Score one C-contiguous float32 feature vector."""
        return self._entry(address(x))

    def score_batch_into(self, matrix: np.ndarray, out: np.ndarray) -> None:
        """Score the rows of a C-contiguous float32 matrix into float64 ``out``."""
        n, f = matrix.shape
        if n:
            self._batch(address(matrix), n, f, address(out))


def _require_compiler(compiler: str | None) -> str:
    compiler = compiler or find_compiler()
    if compiler is None:
        raise CompilerNotFoundError(
            f"no C compiler found on PATH (install cc/gcc/clang or set "
            f"${COMPILER_ENV_VAR})"
        )
    return compiler


def compile_shared_object(source: str, workdir: Path, *,
                          compiler: str | None = None) -> Path:
    """Write ``source`` to ``workdir/scorer.c`` and build ``scorer.so`` there.

    Compiles at :data:`OPT_FLAGS` and returns the shared object's path.
    Raises :class:`CompilerNotFoundError` when no compiler is discoverable
    and :class:`CompilationError` (with the compiler's diagnostics) on a
    failed build.
    """
    compiler = _require_compiler(compiler)
    src_path = workdir / "scorer.c"
    lib_path = workdir / "scorer.so"
    src_path.write_text(source, encoding="utf-8")
    cmd = [compiler, *OPT_FLAGS, "-shared", "-fPIC",
           "-o", str(lib_path), str(src_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except FileNotFoundError as exc:
        raise CompilerNotFoundError(f"compiler {compiler!r} not found") from exc
    if proc.returncode != 0:
        raise CompilationError(
            f"compiler failed (exit {proc.returncode}): {' '.join(cmd)}\n"
            f"{proc.stderr or proc.stdout}"
        )
    return lib_path


def compile_and_load(source: str, workdir=None, *, compiler: str | None = None,
                     keep_sources: bool = False) -> GeneratedUnit:
    """Compile C ``source`` into a shared object and load its entry points.

    Raises :class:`CompilerNotFoundError` when no compiler is discoverable,
    :class:`CompilationError` (with the compiler's diagnostics) on a failed
    build, and :class:`SymbolResolutionError` if the built unit cannot be
    loaded or lacks the documented symbols.
    """
    compiler = _require_compiler(compiler)
    owns_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="treescore-gen-")) if owns_workdir \
        else Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    lib_path = compile_shared_object(source, workdir, compiler=compiler)
    return GeneratedUnit(source, workdir, lib_path, compiler, OPT_FLAGS,
                         keep_sources, owns_workdir)


class GeneratedEvaluator(Evaluator):
    """Evaluator facade over a compiled unit, interchangeable with the rest."""

    kind = StrategyKind.GENERATED

    def __init__(self, ensemble: Ensemble, unit: GeneratedUnit):
        super().__init__(ensemble)
        self.unit = unit

    def _predict_row(self, x) -> float:
        return self.unit.score(x)

    def _predict_into(self, matrix, out) -> None:
        self.unit.score_batch_into(matrix, out)

    @property
    def stored_node_count(self) -> int:
        # The model lives in machine code, not node tables.
        return 0


def build_generated(ensemble: Ensemble, workdir=None, *,
                    compiler: str | None = None,
                    keep_sources: bool = False) -> GeneratedEvaluator:
    """Emit, compile, and wrap ``ensemble`` as a generated evaluator."""
    unit = compile_and_load(emit_source(ensemble), workdir,
                            compiler=compiler, keep_sources=keep_sources)
    return GeneratedEvaluator(ensemble, unit)
