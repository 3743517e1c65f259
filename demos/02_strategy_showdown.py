"""All six strategies on one synthetic workload: same bits, different speed.

Generates a deep tree and a leaf-uniform dataset, verifies every strategy
agrees with the reference traversal bit-for-bit, then times one pass each.
Then the online shape: single-row `predict` calls on a 48-tree ensemble,
where `vpredicated` has fewer rows than lanes and steps 8 trees of the
row at a time instead.  Timings here are illustrative one-shot numbers;
the real harness (`treescore bench`, demo 04) adds trials, warmup, and
confidence intervals.
"""

import time

import numpy as np

import treescore as ts


def build_all(ensemble, v):
    """One evaluator per strategy.  Every strategy runs native code: it
    needs a C compiler and the Python headers."""
    return [ts.build(ensemble, kind) for kind in (
        "heap_linked", "compact_linked", "contiguous", "predicated")] + [
        ts.build(ensemble, "vpredicated", batch_size=v),
        ts.build_generated(ensemble)]


def label(ev):
    return str(ev.kind) + (f"(v={ev.batch_size})" if ev.batch_size else "")


DEPTH, FEATURES, N = 9, 128, 100_000

cfg = ts.GenConfig(depth=DEPTH, num_features=FEATURES, num_vectors=N, seed=11)
tree = ts.gen_tree(cfg)
ensemble = ts.Ensemble(FEATURES, [(tree, 1.0)])
data = ts.gen_leaf_uniform_vectors(tree, cfg)
print(f"workload: depth {DEPTH}, {FEATURES} features, {N} instances")

try:
    evaluators = build_all(ensemble, 64)
except ts.CompilerNotFoundError as exc:
    print(f"note: {exc}; no strategy can run, only the reference traversal")
    evaluators = []

reference = ts.reference_batch(ensemble, data.matrix[:1000])

print(f"\n{'strategy':<16} {'ns/instance':>12}   agreement")
for ev in evaluators:
    assert np.array_equal(ev.predict_batch(data.matrix[:1000]), reference)
    ev.predict_batch(data)  # warmup
    t0 = time.perf_counter_ns()
    out = ev.predict_batch(data)
    elapsed = time.perf_counter_ns() - t0
    print(f"{label(ev):<16} {elapsed / N:>12.1f}   bit-exact vs reference")

print("\nstorage (node slots per strategy):")
for ev in evaluators:
    if ev.stored_node_count:
        print(f"  {str(ev.kind):<16} {ev.stored_node_count:>8}")
print(f"  (logical tree has {tree.node_count} nodes; the predicated pair "
      f"counts its complete tree, 2^(d+1)-1 = {2 ** (DEPTH + 1) - 1})")

TREES, F, CALLS = 48, 136, 300
online = ts.gen_ensemble(ts.GenConfig(depth=4, num_features=F, seed=12), TREES)
rows = np.random.default_rng(12).random((CALLS, F), dtype=np.float32)
expected = [ts.reference_predict(online, x) for x in rows]
online_evaluators = build_all(online, 16) if evaluators else []
print(f"\nsingle-row predict, {TREES} trees of depth 4 over {F} features "
      f"({CALLS} calls):")
print(f"{'strategy':<16} {'ns/call':>12}   agreement")
for ev in online_evaluators:
    assert [ev.predict(x) for x in rows] == expected  # also the warmup
    t0 = time.perf_counter_ns()
    for x in rows:
        ev.predict(x)
    elapsed = time.perf_counter_ns() - t0
    print(f"{label(ev):<16} {elapsed / CALLS:>12.1f}   bit-exact vs reference")
