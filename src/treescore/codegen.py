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

``compile_and_load`` shells out to the host C compiler at full
optimization (through ``compile_shared_object``, which the native layout
kernels of :mod:`treescore.native` share), loads the shared object, and
binds its entry point.  :class:`GeneratedEvaluator` is the
:class:`~treescore.evaluators.NativeEvaluator` over that binding; the
model lives in machine code, so it stores no table.  The compiler is
discovered on PATH (cc, gcc, clang) or overridden with the
``TREESCORE_CC`` environment variable.  When no compiler (or no Python C
headers, which the binding needs) exists the strategy reports itself
unavailable; the benchmark harness marks the row and carries on instead of
failing the run.

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

from . import native
from .evaluators import NativeEvaluator, StrategyKind
from .model import Ensemble, Node

COMPILER_ENV_VAR = "TREESCORE_CC"
OPT_FLAGS = ("-O3", "-fomit-frame-pointer", "-pipe")
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
    lines.append("    for (i = 0; i < n; i++) {")
    lines.append(f"        out[i] = score_ensemble(x + i * {f});")
    lines.append("    }")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


class GeneratedUnit:
    """A compiled and loaded scorer: source text, artifacts, entry point.

    ``kernel`` is the unit's entry point bound through
    :mod:`treescore.native`; its ``score_row(x)`` and
    ``score_into(matrix, out)`` check their arrays.  A workdir the unit
    created (``owns_workdir``) is removed when the unit is collected, or at
    exit; a workdir it was given stays.  The loaded library stays mapped
    for the life of the process.
    """

    def __init__(self, source_text: str, workdir: Path, lib_path: Path,
                 compiler: str, flags: tuple, owns_workdir: bool):
        self.source_text = source_text
        self.workdir = workdir
        self.lib_path = lib_path
        self.compiler = compiler
        self.flags = flags
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


def compile_shared_object(source: str, workdir: Path, *,
                          include_dirs: tuple = ()) -> Path:
    """Write ``source`` to ``workdir/scorer.c`` and build ``scorer.so`` there.

    Compiles at :data:`OPT_FLAGS`, searching ``include_dirs`` for headers,
    and returns the shared object's path.
    Raises :class:`CompilerNotFoundError` when no compiler is discoverable
    and :class:`CompilationError` (with the compiler's diagnostics) on a
    failed build.
    """
    compiler = _require_compiler()
    src_path = workdir / "scorer.c"
    lib_path = workdir / "scorer.so"
    src_path.write_text(source, encoding="utf-8")
    cmd = [compiler, *OPT_FLAGS, "-shared", "-fPIC",
           *(f"-I{d}" for d in include_dirs), "-o", str(lib_path), str(src_path)]
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


def compile_and_load(source: str, workdir=None) -> GeneratedUnit:
    """Compile C ``source`` into a shared object and bind its entry point.

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
    lib_path = compile_shared_object(source, workdir)
    return GeneratedUnit(source, workdir, lib_path, compiler, OPT_FLAGS,
                         owns_workdir)


class GeneratedEvaluator(NativeEvaluator):
    """The evaluator over a compiled unit, interchangeable with the rest."""

    def __init__(self, ensemble: Ensemble, unit: GeneratedUnit):
        super().__init__(StrategyKind.GENERATED, ensemble, unit.kernel, 0)
        self.unit = unit


def build_generated(ensemble: Ensemble) -> GeneratedEvaluator:
    """Emit, compile, and wrap ``ensemble`` as a generated evaluator."""
    return GeneratedEvaluator(ensemble, compile_and_load(emit_source(ensemble)))
