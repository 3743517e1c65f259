"""All six strategies on one synthetic workload: same bits, different speed.

Generates a deep tree and a leaf-uniform dataset, verifies every strategy
agrees with the reference traversal bit-for-bit, then times one pass each.
Timings here are illustrative one-shot numbers; the real harness
(`treescore bench`, demo 04) adds trials, warmup, and confidence
intervals.
"""

import time

import numpy as np

import treescore as ts

DEPTH, FEATURES, N = 9, 128, 100_000

cfg = ts.GenConfig(depth=DEPTH, num_features=FEATURES, num_vectors=N, seed=11)
tree = ts.gen_tree(cfg)
ensemble = ts.Ensemble(FEATURES, [(tree, 1.0)])
data = ts.gen_leaf_uniform_vectors(tree, cfg)
print(f"workload: depth {DEPTH}, {FEATURES} features, {N} instances")

evaluators = [ts.build(ensemble, "heap_linked")]
try:
    # The five native strategies need a C compiler and the Python headers.
    evaluators += [
        ts.build(ensemble, "compact_linked"),
        ts.build(ensemble, "contiguous"),
        ts.build(ensemble, "predicated"),
        ts.build(ensemble, "vpredicated", batch_size=64),
        ts.build_generated(ensemble),
    ]
except ts.CompilerNotFoundError as exc:
    print(f"note: {exc}; skipping the native strategies")

reference = ts.reference_batch(ensemble, data.matrix[:1000])

print(f"\n{'strategy':<16} {'ns/instance':>12}   agreement")
for ev in evaluators:
    assert np.array_equal(ev.predict_batch(data.matrix[:1000]), reference)
    ev.predict_batch(data)  # warmup
    t0 = time.perf_counter_ns()
    out = ev.predict_batch(data)
    elapsed = time.perf_counter_ns() - t0
    label = str(ev.kind) + (f"(v={ev.batch_size})" if ev.batch_size else "")
    print(f"{label:<16} {elapsed / N:>12.1f}   bit-exact vs reference")

print("\nstorage (node slots per strategy):")
for ev in evaluators:
    if ev.stored_node_count:
        print(f"  {str(ev.kind):<16} {ev.stored_node_count:>8}")
print(f"  (logical tree has {tree.node_count} nodes; complete tables pay "
      f"2^(d+1)-1 = {2 ** (DEPTH + 1) - 1})")
