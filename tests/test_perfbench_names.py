"""The names the benchmark in ``perfbench/run.py`` reads from the package.

Only ``test_perfbench_run.py`` runs that script's traced mode, and only
with a compiler, so without one a name it reads only there
(``expand_to_complete``, say) could be deleted from the package with
every other test still passing.  This test reads the script's source and
checks that every attribute it takes from a module it imports by
``importlib.import_module`` exists.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _module_name(node):
    """The module named by ``importlib.import_module("<name>")``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "import_module" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)):
        return node.args[0].value
    return None


def names_read(tree):
    """``(module, attribute)`` for every attribute read from an imported
    module or from a variable bound to one (``ts``, ``codegen``)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _module_name(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = _module_name(node.value)
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = _module_name(node.value)
        if module is None and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id)
        if module is not None:
            reads.add((module, node.attr))
    return reads


def test_every_name_perfbench_reads_exists():
    reads = names_read(ast.parse(RUN.read_text(encoding="utf-8")))
    # The names read only in the traced mode.
    assert {("treescore", "expand_to_complete"),
            ("treescore.native", "load_layout_kernels"),
            ("treescore.codegen", "GeneratedEvaluator")} <= reads
    missing = sorted((module, name) for module, name in reads
                     if not hasattr(importlib.import_module(module), name))
    assert not missing
