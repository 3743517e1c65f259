"""Sweep the lockstep batch size and watch the latency-hiding tradeoff.

Small batches leave per-level overhead unamortized; very large batches
stop helping once memory latency is hidden.  The sweet spot is a property
of the machine and of the feature-vector size, which is why `tune` exists
instead of a hard-coded constant.
"""

import treescore as ts

DEPTH, N = 9, 200_000

for features in (32, 512):
    cfg = ts.GenConfig(depth=DEPTH, num_features=features,
                       num_vectors=N, seed=21)
    tree = ts.gen_tree(cfg)
    ensemble = ts.Ensemble(features, [(tree, 1.0)])
    data = ts.gen_leaf_uniform_vectors(tree, cfg)

    report = ts.run_fixed(ensemble, data,
                          strategies=(ts.StrategyKind.VPREDICATED,),
                          batch_sizes=(1, 8, 16, 32, 64, 128), trials=3)
    print(f"\nf={features}, d={DEPTH}, n={N}:")
    print(f"  {'v':>4} {'mean ns/inst':>14} {'ci95':>8}")
    for row in report.rows:
        if row.available:
            print(f"  {row.batch:>4} {row.mean_ns:>14.1f} {row.ci95_ns:>8.1f}")
        else:
            print(f"  {row.batch:>4} unavailable: {row.note}")
    best = ts.best_batch_sizes(report).get((DEPTH, features))
    if best is not None:
        print(f"  best batch size: {best}  "
              "(v=1 is exactly the one-instance predicated path)")
