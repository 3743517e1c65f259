"""Emit C for an ensemble, compile and load it, and trace feature coverage.

The generated strategy trades flexibility (changing the model means
recompiling) for hard-coded speed; the coverage tracer answers a design
question about serving systems: if predictions examine nearly the whole
feature vector anyway, computing all features up front costs little.
"""

import numpy as np

import treescore as ts

cfg = ts.GenConfig(depth=4, num_features=16, num_vectors=20_000, seed=5)
ensemble = ts.gen_ensemble(cfg, num_trees=3)
tree0 = ensemble.trees[0][0]
data = ts.gen_leaf_uniform_vectors(tree0, cfg)

print("--- emitted C (first tree function) ---")
source = ts.emit_source(ensemble)
print(source.split("\n\n")[1])
print(f"... {len(source.splitlines())} lines total, deterministic bytes\n")

if ts.find_compiler() is None:
    print("no C compiler found; skipping the compile-and-load half")
else:
    unit = ts.compile_and_load(source)
    print(f"compiled with {unit.compiler} {' '.join(unit.flags)}")
    x = data.matrix[0]
    print(f"unit.kernel.score_row(row 0) = {unit.kernel.score_row(x)}")

    generated = ts.build_generated(ensemble)
    vpred = ts.build(ensemble, "vpredicated", batch_size=32)
    same = np.array_equal(generated.predict_batch(data),
                          vpred.predict_batch(data))
    print(f"generated == vpredicated on {data.count} rows, bit-exact: {same}")

print("\n--- feature coverage ---")
coverage = ts.measure_feature_coverage(ensemble, data)
print(f"instances: {coverage.num_instances}")
print(f"mean fraction of features examined: {coverage.mean_fraction:.4f}")
print(f"variance: {coverage.variance:.6f}")
print("(figures for externally trained ranking models require those exact "
      "models; see README)")
