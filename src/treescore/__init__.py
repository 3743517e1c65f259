"""treescore: tree-ensemble inference strategies and a timing harness.

Build an :class:`Ensemble` (parse a model file, or generate one with
:mod:`treescore.synth`), turn it into an evaluator with :func:`build` or
:func:`treescore.codegen.build_generated`, and score feature vectors.  All
strategies return bit-identical scores; they differ in memory layout and
branch behavior, which is what :mod:`treescore.bench` measures.
"""

from .model import (
    MAX_DEPTH,
    CompleteTree,
    DepthLimitError,
    Ensemble,
    ModelError,
    ModelSemanticError,
    ModelSyntaxError,
    Node,
    Tree,
    TreeStats,
    expand_to_complete,
    load_model,
    parse_model,
    reference_predict,
    save_model,
    serialize_model,
    traverse_to_leaf,
    tree_stats,
)
from .data import (
    DataFormatError,
    Dataset,
    read_csv,
    read_fvec,
    write_csv,
    write_fvec,
)
from .evaluators import (
    ALL_STRATEGIES,
    Evaluator,
    StrategyKind,
    TracedPrediction,
    build,
    predict_ensemble_traced,
    reference_batch,
)
from .codegen import (
    CompilationError,
    CompilerNotFoundError,
    GeneratedUnit,
    SymbolResolutionError,
    build_generated,
    compile_and_load,
    emit_source,
    find_compiler,
)
from .synth import (
    GenConfig,
    GenerationError,
    gen_ensemble,
    gen_leaf_uniform_vectors,
    gen_tree,
)
from .bench import (
    BenchConfig,
    BenchReport,
    BenchRow,
    CorrectnessGateError,
    CoverageReport,
    TimerResolutionError,
    best_batch_sizes,
    export_csv,
    measure_feature_coverage,
    parse_csv,
    run_fixed,
    run_sweep,
)

__version__ = "0.1.0"
