#!/usr/bin/env python3
"""The benchmark: per-strategy cost per scored row, and set-up time.

Usage, from the root of a source tree (``src/treescore`` next to this
directory)::

    python3 perfbench/run.py --workload ensemble_f136 --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each call is sent when the previous
one has returned.  The run makes the workload's inputs from the seed
(:mod:`gen`), scores them with the oracle (:mod:`oracle`), then times one
cold set-up (import the package, ``load_model``, ``read_fvec``, build all
six evaluators) and scores the workload in whole rounds until ``--seconds``
have passed.  A round gives every strategy its fixed number of passes, in
strategy order; a pass is one large ``predict_batch`` call (batch
workloads) or the whole list of online requests.  The first round warms up
and is not timed.  Each strategy's metric is the median over its passes of
the pass time divided by the rows scored, scaled to a nominal host speed
(:class:`References`).  Every output is compared with the oracle, bit for
bit.

With ``--trace 1`` the run reports the per-layer metrics instead: spans
around each call into the package (kept in memory and written at the end
to ``perfbench/traces/``), node counts, allocation peaks, per-call
latency, empty-call overhead, a ``vpredicated`` batch-size sweep, and the
tracing overhead, from alternate rounds with and without call spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one call; the only operations that may fail without making the run
incorrect are the NaN-carrying online requests.
"""

import sys

sys.dont_write_bytecode = True  # leave nothing behind in the source tree

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

STRATEGIES = ("heap_linked", "compact_linked", "contiguous", "predicated",
              "vpredicated", "generated")
IN_PROCESS = STRATEGIES[:-1]
V = 16  # vpredicated batch size; see README
V_SWEEP = (1, 8, 16, 32, 64)

# Per workload and strategy: rows per predict_batch call (batch workloads)
# and passes per round.  A pass of a batch workload is one call; a pass of
# online_requests is one block of 32 requests (see gen.py).  Chosen so that
# a pass takes 5 to 25 ms and every strategy's share of a round is 20 to
# 40 ms on a 2-vCPU Xeon, so that a run holds many passes of each, and every
# batch call is large against its fixed cost.  Multiples of 16, so
# vpredicated never takes its scalar remainder path.
ROWS_PER_CALL = {
    "deep_tree_wide_rows": {"heap_linked": 2048, "compact_linked": 16384,
                            "contiguous": 16384, "predicated": 2048,
                            "vpredicated": 2048, "generated": 16384},
    "ensemble_f136": {"heap_linked": 32, "compact_linked": 512,
                      "contiguous": 512, "predicated": 16,
                      "vpredicated": 16, "generated": 1024},
}
PASSES_PER_ROUND = {
    "deep_tree_wide_rows": {"heap_linked": 4, "compact_linked": 6,
                            "contiguous": 6, "predicated": 4,
                            "vpredicated": 4, "generated": 6},
    "ensemble_f136": {"heap_linked": 2, "compact_linked": 3,
                      "contiguous": 3, "predicated": 1,
                      "vpredicated": 1, "generated": 3},
    "online_requests": {"heap_linked": 4, "compact_linked": 32,
                        "contiguous": 32, "predicated": 2,
                        "vpredicated": 2, "generated": 32},
}
# Rows per call in the vpredicated batch-size sweep: multiples of 64, so
# that no batch size in V_SWEEP leaves a remainder.
SWEEP_ROWS = {"deep_tree_wide_rows": 2048, "ensemble_f136": 64,
              "online_requests": 64}
MIN_TIMED_ROUNDS = 2
INTERPRETED = ("heap_linked", "predicated", "vpredicated")
# Seed of the host-speed references; they are the same in every run.
REFERENCE_SEED = 1212
EMPTY_CALLS = 201        # predict_batch on 0 rows, per strategy (trace)
SWEEP_SECONDS = 0.4      # per batch size in the vpredicated sweep (trace)


class Tracer:
    """Spans (name, parent, start ns, end ns, attributes) kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def record(self, name, start, end, **attrs):
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, parent, start, end, attrs))

    def seconds(self, name) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for n, _, start, end, _ in self.spans
                   if n == name) / 1e9

    def write(self, path: Path, env: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for k, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "parent": parent,
                                     "start_ns": start, "end_ns": end,
                                     **attrs}) + "\n")


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.index = len(self.tracer.spans)
        self.tracer.spans.append(None)  # placeholder keeps parents first
        self.tracer._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack.pop()
        parent = self.tracer._stack[-1] if self.tracer._stack else None
        self.tracer.spans[self.index] = (self.name, parent, self.start, end,
                                         self.attrs)
        return False


def _span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer else contextlib.nullcontext()


# -- host-speed references --------------------------------------------------------

class References:
    """Three computations of the benchmark's own that tell how fast the
    host runs each kind of work at the moment.

    The host is shared, and its speed moves by up to 2x between phases
    that last from seconds to minutes, by different amounts for different
    kinds of work (see README).  So each strategy's block of passes is
    preceded by one timing of the reference whose cost profile is closest
    to where that strategy spends its time on the workload, and each pass
    is scaled by that reference's nominal time over its measured one:

    ``tree_walk``
        A CPython walk of the workload's own trees, as nested tuples,
        over a fixed number of the workload's float32 rows, one numpy
        scalar per step: the per-row work of the interpreted strategies,
        with the same node count and the same rows.
    ``ffi_calls``
        The Python side of a call into native code, as the native
        strategies make it on small online requests, where it takes most
        of the time: coerce a small float32 array, allocate the output,
        read both arrays' ``.ctypes.data`` and pass them through ctypes to
        the C library's ``memcpy``.
    ``gather``
        A random gather from a fixed 128 MiB array: the native kernels on
        large calls, bound by cache misses.

    The fixed inputs come from their own seed, not ``--seed``.  Nothing
    here calls the program.
    """

    # Rows of the workload that one tree_walk scores: about 2 ms each.
    TREE_WALK_ROWS = {"deep_tree_wide_rows": 640, "ensemble_f136": 12,
                      "online_requests": 96}
    # Each reference's time (ns) on a 2-vCPU Xeon VM.  These only set the
    # scale of the figures.
    NOMINAL_NS = {"tree_walk": 2.0e6, "ffi_calls": 1.2e6, "gather": 3.0e6}

    def __init__(self, workload, trees, matrix):
        def nested(tree, k=0):
            if tree.fid[k] < 0:
                return float(tree.value[k])
            return (int(tree.fid[k]), float(tree.value[k]),
                    nested(tree, int(tree.left[k])),
                    nested(tree, int(tree.right[k])))

        self._workload_trees = [nested(tree) for tree in trees]
        self._workload_rows = [matrix[i]
                               for i in range(self.TREE_WALK_ROWS[workload])]

        rng = np.random.default_rng([REFERENCE_SEED])
        self._small_arrays = [rng.random((n, 136), dtype=np.float32)
                              for n in (1, 1, 1, 2, 8, 40) * 32]
        self._memcpy = ctypes.CDLL(None).memcpy
        self._memcpy.restype = ctypes.c_void_p
        self._memcpy.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                 ctypes.c_size_t]
        self._table = rng.random(1 << 24)
        self._index = rng.integers(0, 1 << 24, 200_000)

    def _walk(self):
        total = 0.0
        for x in self._workload_rows:
            for node in self._workload_trees:
                while type(node) is tuple:
                    node = node[2] if x[node[0]] < node[1] else node[3]
                total += node
        return total

    def _ffi_calls(self):
        for array in self._small_arrays:
            matrix = np.ascontiguousarray(array, dtype=np.float32)
            if matrix.ndim != 2 or not matrix.flags.c_contiguous:
                raise ValueError("expected a C-contiguous matrix")
            out = np.empty(matrix.shape[0], dtype=np.float64)
            self._memcpy(out.ctypes.data, matrix.ctypes.data, out.nbytes)

    def time(self, name) -> int:
        """Run reference ``name`` once; returns its time in ns."""
        clock = time.perf_counter_ns
        start = clock()
        if name == "tree_walk":
            self._walk()
        elif name == "ffi_calls":
            self._ffi_calls()
        else:
            self._table.take(self._index).sum()
        return clock() - start


def reference_for(workload, strategy) -> str:
    """The reference whose cost profile matches ``strategy`` on ``workload``."""
    if strategy in INTERPRETED:
        return "tree_walk"
    return "ffi_calls" if workload == "online_requests" else "gather"


# -- set-up ----------------------------------------------------------------------

def setup(model_path, data_path, tracer):
    """Import the package, load the inputs and build the six evaluators.

    Returns ``(ts, ensemble, dataset, evaluators, seconds)``.  With a
    tracer, the layout-kernel library is loaded by an explicit first call
    and ``generated`` is built in its two steps, each in its own span.
    """
    start = time.perf_counter()
    with _span(tracer, "setup"):
        with _span(tracer, "treescore.import"):
            ts = importlib.import_module("treescore")
            codegen = importlib.import_module("treescore.codegen")
        with _span(tracer, "model.load"):
            ensemble = ts.load_model(model_path)
        with _span(tracer, "data.read"):
            dataset = ts.read_fvec(data_path)
        if tracer:
            with tracer.span("native.library"):
                importlib.import_module("treescore.native").load_layout_kernels()
        evaluators = {}
        for name in IN_PROCESS:
            with _span(tracer, f"build.{name}"):
                evaluators[name] = ts.build(
                    ensemble, name, batch_size=V if name == "vpredicated" else None)
        if tracer:
            with tracer.span("codegen.emit"):
                source = codegen.emit_source(ensemble)
            with tracer.span("codegen.compile"):
                unit = codegen.compile_and_load(source)
                evaluators["generated"] = codegen.GeneratedEvaluator(ensemble, unit)
        else:
            evaluators["generated"] = ts.build_generated(ensemble)
    return ts, ensemble, dataset, evaluators, time.perf_counter() - start


# -- the work -----------------------------------------------------------------------

class Work:
    """The calls of one pass: ``(single, array, expected, nan)`` tuples."""

    def __init__(self, calls):
        self.calls = calls
        self.rows = sum(1 if single else a.shape[0] for single, a, _, _ in calls)


def batch_passes(matrix, expected, rows_per_call):
    n = matrix.shape[0]
    return [Work([(False, matrix[a:a + rows_per_call],
                   expected[a:a + rows_per_call], False)])
            for a in range(0, n - rows_per_call + 1, rows_per_call)]


def online_passes(inputs, matrix):
    """The request blocks as raw arrays, with NaN set where a request
    carries it, and each request's oracle scores."""
    calls = []
    for req in inputs.requests:
        rows = np.array(matrix[req.start:req.start + req.rows])
        if req.nan:
            rows[0, gen.NAN_FEATURE] = np.nan
        expected = oracle.predict(inputs.trees, rows)
        if req.single:
            calls.append((True, rows[0], float(expected[0]), req.nan))
        else:
            calls.append((False, rows, expected, req.nan))
    size = len(calls) // gen.ONLINE_BLOCKS
    return [Work(calls[k:k + size]) for k in range(0, len(calls), size)]


def run_pass(evaluator, work, spans=None):
    """Score one pass; returns (elapsed ns, outputs).  With ``spans``, each
    call is timed on its own and appended to it."""
    predict, predict_batch = evaluator.predict, evaluator.predict_batch
    clock = time.perf_counter_ns
    outputs = []
    if spans is None:
        start = clock()
        for single, array, _, _ in work.calls:
            outputs.append(predict(array) if single else predict_batch(array))
        return clock() - start, outputs
    elapsed = 0
    for single, array, _, _ in work.calls:
        a = clock()
        outputs.append(predict(array) if single else predict_batch(array))
        b = clock()
        spans.append((a, b))
        elapsed += b - a
    return elapsed, outputs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = {name: 0 for name in STRATEGIES}
        self.mismatches = collections.Counter()  # strategy -> count

    def check(self, strategy, work, outputs):
        for (single, _, expected, nan), out in zip(work.calls, outputs):
            self.attempted += 1
            same = (out == expected) if single else np.array_equal(out, expected)
            if same:
                continue
            if nan:
                self.failed[strategy] += 1
            else:
                self.mismatches[strategy] += 1


def measure(evaluators, passes, per_round, seconds, tally, references,
            reference, tracer=None):
    """Whole rounds until ``seconds`` are spent.

    Each strategy's block of passes in a round is preceded by one timing
    of its reference (``reference[name]``).  Returns per-strategy lists of
    scaled ns/row, untraced and traced (traced only with a tracer, on
    every other round), of unscaled ns/row from the untraced rounds, of
    reference times (ns), and of per-call latencies (ns) from the traced
    rounds."""
    plain = {name: [] for name in STRATEGIES}
    traced = {name: [] for name in STRATEGIES}
    raw = {name: [] for name in STRATEGIES}
    host = collections.defaultdict(list)
    calls = {name: [] for name in STRATEGIES}
    cursor = dict.fromkeys(STRATEGIES, 0)
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        start = time.perf_counter()
        longest = 0.0
        rounds = 0
        while True:
            used = time.perf_counter() - start
            timed_rounds = rounds - 1
            if timed_rounds >= MIN_TIMED_ROUNDS and used + longest > seconds:
                break
            round_start = time.perf_counter()
            traced_round = tracer is not None and rounds % 2 == 1
            for name in STRATEGIES:
                ref = reference[name]
                ref_ns = references.time(ref)
                scale = References.NOMINAL_NS[ref] / ref_ns
                if rounds > 0:
                    host[ref].append(ref_ns)
                for _ in range(per_round[name]):
                    work = passes[name][cursor[name] % len(passes[name])]
                    cursor[name] += 1
                    spans = [] if traced_round else None
                    elapsed, outputs = run_pass(evaluators[name], work, spans)
                    tally.check(name, work, outputs)
                    if rounds == 0:
                        continue  # warm-up
                    per_row = elapsed / work.rows
                    (traced if traced_round else plain)[name].append(
                        per_row * scale)
                    if not traced_round:
                        raw[name].append(per_row)
                    if traced_round:
                        for a, b in spans:
                            tracer.record("call", a, b, strategy=name)
                        calls[name].extend(b - a for a, b in spans)
            if rounds > 0:
                longest = max(longest, time.perf_counter() - round_start)
            rounds += 1
    finally:
        gc.enable()
        gc.unfreeze()
    return plain, traced, raw, host, calls


# -- per-layer extras (trace mode) ------------------------------------------------

def quantile(values, q):
    if len(values) < 40:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def empty_call_us(evaluator, num_features):
    empty = np.empty((0, num_features), dtype=np.float32)
    times = []
    for _ in range(EMPTY_CALLS):
        a = time.perf_counter_ns()
        evaluator.predict_batch(empty)
        times.append(time.perf_counter_ns() - a)
    return statistics.median(times) / 1e3


def vpredicated_sweep(ts, ensemble, evaluators, passes, tally, tracer):
    result = {}
    for k in V_SWEEP:
        if k == V:
            evaluator = evaluators["vpredicated"]
        else:
            with tracer.span(f"build.vpredicated_v{k}"):
                evaluator = ts.build(ensemble, "vpredicated", batch_size=k)
        samples, start, n = [], time.perf_counter(), 0
        while n < 3 or time.perf_counter() - start < SWEEP_SECONDS:
            work = passes[n % len(passes)]
            elapsed, outputs = run_pass(evaluator, work)
            tally.check("vpredicated", work, outputs)
            samples.append(elapsed / work.rows)
            n += 1
        result[k] = statistics.median(samples)
    return result


def allocation_peaks(ts, codegen, ensemble):
    """tracemalloc peak while building each in-process evaluator, and while
    emitting the generated source (the compiler runs in its own process)."""
    peaks = {}
    for name in STRATEGIES:
        tracemalloc.start()
        try:
            if name == "generated":
                codegen.emit_source(ensemble)
            else:
                ts.build(ensemble, name,
                         batch_size=V if name == "vpredicated" else None)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


# -- the run --------------------------------------------------------------------

def environment(evaluators):
    codegen = importlib.import_module("treescore.codegen")
    compiler = codegen.find_compiler()
    version = "unavailable"
    if compiler:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True, check=False)
        version = (proc.stdout.splitlines() or ["unknown"])[0]
    return {
        "compiler": compiler or "unavailable",
        "compiler_version": version,
        "compiler_flags": " ".join(codegen.OPT_FLAGS),
        "layout_kernels": ("native" if evaluators["compact_linked"].native
                           else "python"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, workdir: Path):
    inputs = gen.make(args.workload, args.seed)
    model_path, data_path = gen.write(inputs, workdir / "inputs")
    trees = inputs.trees
    logical_nodes = sum(t.node_count for t in trees)
    complete_nodes = sum((1 << (t.depth + 1)) - 1 for t in trees)
    correct = True
    if inputs.requests is None:
        expected = oracle.predict(trees, inputs.matrix)
        if inputs.target is not None and not np.array_equal(expected, inputs.target):
            print("oracle disagrees with the generated target leaves",
                  file=sys.stderr)
            correct = False
    inputs.matrix = None  # the program reads its own copy from the file

    tracer = Tracer() if args.trace else None
    ts, ensemble, dataset, evaluators, setup_s = setup(model_path, data_path,
                                                       tracer)
    env = environment(evaluators)
    print("env " + json.dumps(env, sort_keys=True))

    nodes = {name: evaluators[name].stored_node_count for name in IN_PROCESS}
    for name, count in nodes.items():
        want = complete_nodes if "predicated" in name else logical_nodes
        if count != want:
            print(f"{name}: stored_node_count {count}, expected {want}",
                  file=sys.stderr)
            correct = False

    if inputs.requests is None:
        rows = ROWS_PER_CALL[args.workload]
        passes = {name: batch_passes(dataset.matrix, expected, rows[name])
                  for name in STRATEGIES}
    else:
        passes = dict.fromkeys(STRATEGIES, online_passes(inputs, dataset.matrix))
    tally = Tally()
    references = References(args.workload, trees, dataset.matrix)
    reference = {name: reference_for(args.workload, name)
                 for name in STRATEGIES}
    plain, traced, raw, host, calls = measure(
        evaluators, passes, PASSES_PER_ROUND[args.workload], args.seconds,
        tally, references, reference, tracer)

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = metric(setup_s, "s")
        for name in STRATEGIES:
            metrics[f"{name}_ns_per_row"] = metric(
                statistics.median(plain[name]), "ns")
    else:
        codegen = importlib.import_module("treescore.codegen")
        with tracer.span("model.expand"):
            for tree, _ in ensemble.trees:
                ts.expand_to_complete(tree)
        unit = evaluators["generated"].unit
        if inputs.requests is not None:
            expected = oracle.predict(trees, dataset.matrix)
        sweep_passes = batch_passes(dataset.matrix, expected,
                                    SWEEP_ROWS[args.workload])
        # Checked like every other call, but not counted: the share of
        # failed operations must not depend on the mode.
        sweep_tally = Tally()
        sweep = vpredicated_sweep(ts, ensemble, evaluators, sweep_passes,
                                  sweep_tally, tracer)
        tally.mismatches.update(sweep_tally.mismatches)
        peaks = allocation_peaks(ts, codegen, ensemble)
        for name in ("treescore.import", "model.load", "model.expand",
                     "data.read", "native.library", "codegen.emit",
                     "codegen.compile"):
            metrics[f"{name}_s"] = metric(tracer.seconds(name), "s")
        metrics["codegen.source_bytes"] = metric(
            len(unit.source_text.encode("utf-8")), "bytes")
        metrics["codegen.library_bytes"] = metric(
            os.path.getsize(unit.lib_path), "bytes")
        for name in IN_PROCESS:
            metrics[f"evaluators.build_s.{name}"] = metric(
                tracer.seconds(f"build.{name}"), "s")
            metrics[f"evaluators.nodes.{name}"] = metric(nodes[name], "count")
        for name in STRATEGIES:
            metrics[f"evaluators.alloc_bytes.{name}"] = metric(peaks[name], "bytes")
            metrics[f"evaluators.overhead_us.{name}"] = metric(
                empty_call_us(evaluators[name], ensemble.num_features), "us")
            metrics[f"evaluators.call_p50_us.{name}"] = metric(
                quantile(calls[name], 50) / 1e3, "us")
            metrics[f"evaluators.call_p99_us.{name}"] = metric(
                quantile(calls[name], 99) / 1e3, "us")
        for k, value in sweep.items():
            metrics[f"evaluators.vpredicated_v{k}_ns_per_row"] = metric(value, "ns")
        for name in STRATEGIES:
            metrics[f"raw.{name}_ns_per_row"] = metric(
                statistics.median(raw[name]), "ns")
        for ref in References.NOMINAL_NS:
            times = host[ref] or [references.time(ref) for _ in range(15)]
            metrics[f"host.{ref}_ms"] = metric(statistics.median(times) / 1e6,
                                               "ms")
        ratios = [statistics.median(traced[name]) / statistics.median(plain[name])
                  for name in STRATEGIES]
        metrics["trace.overhead_pct"] = metric(
            100.0 * (statistics.median(ratios) - 1.0), "%")
        tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl",
                     env)

    failed = sum(tally.failed.values())
    if tally.mismatches:
        print("mismatches against the oracle: "
              + json.dumps(dict(tally.mismatches)), file=sys.stderr)
        correct = False
    for name, value in metrics.items():
        print(f"{name:<48} {value['value']:>16.6g} {value['unit']}")
    print(f"operations attempted {tally.attempted}, failed {failed} "
          + json.dumps(tally.failed))
    return {"correct": correct, "attempted": tally.attempted,
            "failed": failed, "metrics": metrics}


def pin_to_current_cpu() -> None:
    """Keep this process on the CPU it started on, so that a strategy's
    passes run where its reference was timed (Linux only)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treescore benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treescore" / "__init__.py").is_file():
        print(f"no treescore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_current_cpu()

    workdir = HERE / ".work" / str(os.getpid())
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    # Compiled kernels and generated scorers (and the compiler's own
    # temporary files) stay inside the source tree.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
