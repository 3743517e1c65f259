"""Timing harness: strategy x depth x feature-size x batch-size sweeps.

One driver serves every mode.  It takes a stream of cells, each a
(depth, features, ensemble, matrix) tuple, and for each cell builds every
requested strategy (one ``vpredicated`` evaluator per batch size), asserts
that all of them agree with the reference traversal on a 1,000-instance
prefix (the correctness gate; timings are never reported for a strategy
that fails it), then times a number of passes, strategy after strategy.
Each pass is one optional untimed warmup pass and one timed full pass over
all instances on the monotonic clock: a single clock-read pair around one
``predict_batch`` call over the whole dataset; per-instance times are
elapsed/n.
Means and 95% confidence intervals (Student's t over trial means) are
computed across a row's trials.

:func:`run_sweep` feeds the driver a freshly seeded tree and leaf-uniform
dataset per (trial, depth, features), one pass each; :func:`run_fixed`
feeds it one fixed model and dataset with ``trials`` passes.
:func:`best_batch_sizes` reads the batch-size winners off any report.

Timings include the weighted ensemble accumulation and the allocation of
the output, because every strategy is timed through the same
``predict_batch`` call, and all six go through the one CPython binding
of :mod:`treescore.native`, with the same array checks.
These facts are recorded in the report metadata.

CSV layout (also parsed back by :func:`parse_csv`)::

    strategy,depth,features,batch,trial,elapsed_ns,instances,ns_per_instance

with one row per trial, aggregate rows using ``trial=mean`` and
``trial=ci95``, unavailable strategies marked with ``trial=unavailable``,
and environment metadata in leading ``#`` comment lines.  Among them,
``compiler_flags`` and ``generated_flags`` are the optimisation flags of
the layout-kernel library and of ``generated`` units,
``compile_cache`` names the compile cache's directory (or ``off``), and
``layout_kernels_build`` says whether the process compiled its
layout-kernel library, copied it from that cache, or never built it.
"""

from __future__ import annotations

import math
import platform
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import native
from .codegen import (CompilerNotFoundError, build_generated, cache_dir,
                      find_compiler, GENERATED_FLAGS, OPT_FLAGS)
from .data import Dataset
from .evaluators import (
    ALL_STRATEGIES,
    StrategyKind,
    build,
    predict_ensemble_traced,
    reference_batch,
)
from .model import Ensemble, tree_stats
from .synth import GenConfig, gen_leaf_uniform_vectors, gen_tree

CSV_HEADER = "strategy,depth,features,batch,trial,elapsed_ns,instances,ns_per_instance"

# The vpredicated batch sizes a benchmark or tuning run measures by default.
DEFAULT_BATCH_SIZES = (1, 8, 16, 32, 64)

# The 0.975 quantile of Student's t with 1 to 20 degrees of freedom, to 10
# decimals.  Above 20, t_quantile_975 uses the Cornish-Fisher expansion.
T_975 = (12.7062047362, 4.3026527297, 3.1824463053, 2.7764451052,
         2.5705818356, 2.4469118511, 2.3646242516, 2.3060041352,
         2.2621571628, 2.2281388520, 2.2009851601, 2.1788128297,
         2.1603686565, 2.1447866879, 2.1314495456, 2.1199052992,
         2.1098155778, 2.1009220402, 2.0930240544, 2.0859634473)
# The 0.975 quantile of the standard normal distribution.
Z_975 = 1.959963984540054


def t_quantile_975(dof: int) -> float:
    """The 0.975 quantile of Student's t with ``dof`` >= 1 degrees of
    freedom, within 1e-6.

    Up to 20 degrees of freedom it is read from :data:`T_975`.  Above,
    it is the normal quantile plus the first four terms of the
    Cornish-Fisher expansion in 1/dof (Abramowitz & Stegun 26.7.5), whose
    error is below 2e-7 at 21 degrees of freedom and falls from there.
    """
    if dof <= len(T_975):
        return T_975[dof - 1]
    z = Z_975
    z2 = z * z
    g1 = z * (z2 + 1) / 4
    g2 = z * ((5 * z2 + 16) * z2 + 3) / 96
    g3 = z * (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384
    g4 = z * ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160
    return z + (g1 + (g2 + (g3 + g4 / dof) / dof) / dof) / dof


class TimerResolutionError(RuntimeError):
    """Elapsed time too close to clock granularity to be meaningful."""


class CorrectnessGateError(RuntimeError):
    """A strategy disagreed with the reference traversal before timing."""


class BenchCsvError(Exception):
    """Malformed benchmark CSV document."""


@dataclass(frozen=True)
class BenchConfig:
    """Sweep shape.  Defaults are the standard experimental grid."""

    strategies: tuple = ALL_STRATEGIES
    depths: tuple = (3, 5, 7, 9, 11)
    feature_sizes: tuple = (32, 128, 512)
    batch_sizes: tuple = DEFAULT_BATCH_SIZES
    instances: int = 524288
    trials: int = 5
    seed: int = 0
    warmup: bool = True

    def __post_init__(self):
        object.__setattr__(self, "strategies",
                           tuple(StrategyKind(s) for s in self.strategies))
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.trials < 2:
            raise ValueError("trials must be >= 2 (confidence intervals need variance)")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if any(v < 1 for v in self.batch_sizes):
            raise ValueError("batch sizes must be >= 1")


@dataclass
class BenchRow:
    """One (strategy, depth, features, batch) cell with its trial timings."""

    strategy: str
    depth: int
    features: int
    batch: int | None
    instances: int
    trial_elapsed_ns: list = field(default_factory=list)
    available: bool = True
    note: str = ""

    @property
    def ns_per_instance(self) -> list:
        return [e / self.instances for e in self.trial_elapsed_ns]

    @property
    def mean_ns(self) -> float:
        per = self.ns_per_instance
        return sum(per) / len(per)

    @property
    def ci95_ns(self) -> float:
        """Half-width of the 95% CI over trial means (Student's t, k-1 dof)."""
        per = self.ns_per_instance
        k = len(per)
        if k < 2:
            return 0.0
        sd = float(np.std(per, ddof=1))
        return t_quantile_975(k - 1) * sd / math.sqrt(k)

    def key(self):
        return (self.strategy, self.depth, self.features, self.batch)


@dataclass
class BenchReport:
    rows: list
    metadata: dict = field(default_factory=dict)

    def row(self, strategy, depth: int, features: int,
            batch: int | None = None) -> BenchRow:
        strategy = str(StrategyKind(strategy))
        for row in self.rows:
            if row.key() == (strategy, depth, features, batch):
                return row
        raise KeyError((strategy, depth, features, batch))


@dataclass(frozen=True)
class CoverageReport:
    """Fraction of the feature space examined per prediction."""

    mean_fraction: float
    variance: float
    num_instances: int


# ---------------------------------------------------------------------------
# Environment and timing plumbing
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


_TIMER_RESOLUTION_NS = max(
    1, int(time.get_clock_info("perf_counter").resolution * 1e9))


_LIBRARY_BUILDS = {None: "not built", True: "cache hit", False: "compiled"}
# What a TimerResolutionError suggests when the instance count is a setting.
_MORE_INSTANCES = "increase the instance count"


def collect_environment() -> dict:
    compiler = find_compiler()
    return {
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "compiler": compiler or "unavailable",
        "compiler_flags": " ".join(OPT_FLAGS),
        "generated_flags": " ".join(GENERATED_FLAGS),
        "compile_cache": str(cache_dir() or "off"),
        "layout_kernels_build": _LIBRARY_BUILDS[native.library_cache_hit()],
        "timer_resolution_ns": str(_TIMER_RESOLUTION_NS),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "notes": ("timings include weighted ensemble accumulation and "
                  "output allocation; every strategy is timed through "
                  "predict_batch of the same CPython binding"),
    }


def _timed_pass(evaluator, matrix, warmup: bool,
                remedy: str = _MORE_INSTANCES) -> int:
    """One whole-pass timing on the monotonic clock; returns elapsed ns.

    A pass too short to time raises :class:`TimerResolutionError`, whose
    message ends with ``remedy``.
    """
    if warmup:
        evaluator.predict_batch(matrix)
    t0 = time.perf_counter_ns()
    evaluator.predict_batch(matrix)
    elapsed = time.perf_counter_ns() - t0
    if elapsed < 1000 * _TIMER_RESOLUTION_NS:
        raise TimerResolutionError(
            f"elapsed {elapsed} ns is under 1000x the clock granularity "
            f"({_TIMER_RESOLUTION_NS} ns); {remedy}"
        )
    return elapsed


def _correctness_gate(ensemble: Ensemble, evaluators, matrix) -> None:
    """Every strategy must match reference traversal on a prefix, exactly."""
    prefix = matrix[: min(1000, matrix.shape[0])]
    expected = reference_batch(ensemble, prefix)
    for name, evaluator in evaluators:
        got = evaluator.predict_batch(prefix)
        if not np.array_equal(got, expected):
            bad = int(np.nonzero(got != expected)[0][0])
            raise CorrectnessGateError(
                f"strategy {name} disagrees with reference traversal at "
                f"prefix row {bad}: {got[bad]!r} != {expected[bad]!r}"
            )


def _cell_seed(seed: int, trial: int, depth: int, features: int) -> int:
    return int(np.random.SeedSequence(
        [seed, 3, trial, depth, features]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def _run(cells, cfg: BenchConfig, passes: int, progress=None,
         remedy: str = _MORE_INSTANCES) -> BenchReport:
    """Build, gate and time ``cfg.strategies`` on each cell.

    ``cells`` yields ``(depth, features, ensemble, matrix)`` and is consumed
    one cell at a time.  Each cell gets every strategy (one ``vpredicated``
    per batch size), one correctness gate, then ``passes`` timed passes,
    strategy after strategy.  Rows are keyed (strategy, depth, features,
    batch) and kept in first-seen order; a strategy that cannot be built
    for want of a compiler or the Python headers has its rows marked
    unavailable, and the run carries on (without either, every row is).
    ``progress``, when given, receives one line per timed pass.
    ``remedy`` ends the message of a :class:`TimerResolutionError`.
    """
    rows: dict = {}
    for depth, features, ensemble, matrix in cells:
        n = matrix.shape[0]
        built = []
        for kind in cfg.strategies:
            for batch in (cfg.batch_sizes
                          if kind is StrategyKind.VPREDICATED else (None,)):
                key = (str(kind), depth, features, batch)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = BenchRow(*key, n)
                label = f"{kind}{f' v={batch}' if batch else ''}"
                try:
                    evaluator = (build_generated(ensemble)
                                 if kind is StrategyKind.GENERATED
                                 else build(ensemble, kind, batch))
                except CompilerNotFoundError as exc:
                    row.available = False
                    row.note = str(exc)
                    continue
                built.append((label, row, evaluator))
        _correctness_gate(ensemble, [(label, evaluator)
                                     for label, _, evaluator in built], matrix)
        for _ in range(passes):
            for label, row, evaluator in built:
                elapsed = _timed_pass(evaluator, matrix, cfg.warmup, remedy)
                row.trial_elapsed_ns.append(elapsed)
                if progress is not None:
                    progress(f"trial {len(row.trial_elapsed_ns) - 1} "
                             f"d={depth} f={features} {label}: "
                             f"{elapsed / n:.1f} ns/instance")
    return BenchReport(list(rows.values()), collect_environment())


def run_sweep(cfg: BenchConfig, progress=None) -> BenchReport:
    """Run the full synthetic sweep defined by ``cfg``.

    Each (trial, depth, features) cell gets a freshly seeded tree and
    dataset, generated only when the cell is timed.
    """
    def cells():
        for trial in range(cfg.trials):
            for depth in cfg.depths:
                for features in cfg.feature_sizes:
                    gen = GenConfig(depth=depth, num_features=features,
                                    num_vectors=cfg.instances,
                                    seed=_cell_seed(cfg.seed, trial, depth,
                                                    features))
                    tree = gen_tree(gen)
                    yield (depth, features, Ensemble(features, [(tree, 1.0)]),
                           gen_leaf_uniform_vectors(tree, gen).matrix)

    return _run(cells(), cfg, 1, progress)


def run_fixed(ensemble: Ensemble, data: Dataset, strategies=ALL_STRATEGIES,
              batch_sizes=DEFAULT_BATCH_SIZES, trials: int = 5,
              warmup: bool = True, progress=None,
              data_name: str = "the dataset") -> BenchReport:
    """Benchmark a fixed model on a fixed dataset (no regeneration).

    The depth/features columns report the model's max depth and feature
    count.  The same correctness gate and timing protocol as
    :func:`run_sweep` apply; trials repeat timing on identical inputs.
    Raises ``ValueError`` for a dataset without rows, which has no time
    per instance, and :class:`TimerResolutionError`, naming the dataset
    as ``data_name`` and its row count, for one too small to time.
    """
    if data.count == 0:
        raise ValueError("the dataset has no rows to time")
    depth = tree_stats(ensemble).max_depth
    features = ensemble.num_features
    cfg = BenchConfig(strategies=strategies, depths=(depth,),
                      feature_sizes=(), batch_sizes=tuple(batch_sizes),
                      instances=data.count, trials=trials, warmup=warmup)
    return _run([(depth, features, ensemble, data.matrix)], cfg, trials,
                progress, f"{data_name} has only {data.count} rows, an "
                          "instance count too small to time: use a larger "
                          "dataset")


def best_batch_sizes(report: BenchReport) -> dict:
    """Fastest ``vpredicated`` batch size per (depth, features) cell.

    Reads the timed ``vpredicated`` rows of any report; ties go to the
    smaller batch size.  A report without such rows gives ``{}``.
    """
    best: dict = {}
    for row in report.rows:
        if (row.strategy == str(StrategyKind.VPREDICATED) and row.available
                and row.trial_elapsed_ns):
            cell = (row.depth, row.features)
            best[cell] = min(best.get(cell, (math.inf, 0)),
                             (row.mean_ns, row.batch))
    return {cell: v for cell, (_, v) in best.items()}


# ---------------------------------------------------------------------------
# Feature coverage
# ---------------------------------------------------------------------------

def measure_feature_coverage(ensemble: Ensemble, data: Dataset) -> CoverageReport:
    """Mean fraction of features examined while scoring each instance.

    Uses the traced traversal, so only the splits of the logical trees
    count.
    """
    f = ensemble.num_features
    matrix = data.matrix
    n = matrix.shape[0]
    if n == 0:
        return CoverageReport(0.0, 0.0, 0)
    fractions = np.empty(n, dtype=np.float64)
    for i in range(n):
        traced = predict_ensemble_traced(ensemble, matrix[i])
        fractions[i] = len(traced.visited_features) / f
    return CoverageReport(float(fractions.mean()), float(fractions.var()), n)


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------

def export_csv(report: BenchReport) -> str:
    """Render a report as CSV with metadata comments and aggregate rows."""
    lines = [f"# {key}: {value}" for key, value in report.metadata.items()]
    lines.append(CSV_HEADER)
    for row in report.rows:
        batch = "" if row.batch is None else str(row.batch)
        prefix = f"{row.strategy},{row.depth},{row.features},{batch}"
        if not row.available:
            lines.append(f"{prefix},unavailable,,{row.instances},")
            continue
        for t, elapsed in enumerate(row.trial_elapsed_ns):
            lines.append(f"{prefix},{t},{elapsed},{row.instances},"
                         f"{elapsed / row.instances:.6f}")
        if row.trial_elapsed_ns:
            lines.append(f"{prefix},mean,,{row.instances},{row.mean_ns:.6f}")
            lines.append(f"{prefix},ci95,,{row.instances},{row.ci95_ns:.6f}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> BenchReport:
    """Parse :func:`export_csv` output back into a report.

    Aggregate rows are consistency-checked against the re-derived values
    rather than stored, so parse(export(r)) reproduces r's aggregates.
    """
    metadata: dict = {}
    rows: dict = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ": " in body:
                key, value = body.split(": ", 1)
                metadata[key] = value
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise BenchCsvError(f"line {lineno}: unexpected header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise BenchCsvError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        strategy, depth_s, features_s, batch_s, trial_s, elapsed_s, n_s, per_s = parts
        try:
            depth = int(depth_s)
            features = int(features_s)
            batch = None if batch_s == "" else int(batch_s)
            instances = int(n_s)
        except ValueError as exc:
            raise BenchCsvError(f"line {lineno}: {exc}") from exc
        key = (strategy, depth, features, batch)
        row = rows.get(key)
        if row is None:
            row = rows[key] = BenchRow(strategy, depth, features, batch, instances)
        if trial_s == "unavailable":
            row.available = False
        elif trial_s in ("mean", "ci95"):
            expected = row.mean_ns if trial_s == "mean" else row.ci95_ns
            if per_s and abs(float(per_s) - expected) > 1e-6 + 1e-9 * abs(expected):
                raise BenchCsvError(
                    f"line {lineno}: {trial_s} {per_s} inconsistent with trial "
                    f"rows ({expected:.6f})"
                )
        else:
            try:
                trial = int(trial_s)
                elapsed = int(elapsed_s)
            except ValueError as exc:
                raise BenchCsvError(f"line {lineno}: {exc}") from exc
            if trial != len(row.trial_elapsed_ns):
                raise BenchCsvError(
                    f"line {lineno}: trial {trial} out of order for {key}")
            row.trial_elapsed_ns.append(elapsed)
    if not header_seen:
        raise BenchCsvError("missing CSV header")
    return BenchReport(list(rows.values()), metadata)
