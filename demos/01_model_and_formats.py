"""Build a small ensemble by hand, serialize it, and expand it.

Walks the logical model layer: nodes, trees, ensembles, the text format,
and the complete-table expansion, which models the d steps per tree that
the predicated strategies take.  Then it scores one row with the shipped
``predicated`` evaluator, whose table stores one entry per node and lets a
leaf loop to itself instead of sitting on a dummy subtree (it needs a C
compiler; without one, only the reference traversal scores).
"""

import numpy as np

import treescore as ts

# A 2-feature ensemble: one unbalanced tree plus one stump, weighted.
#
#   tree 0 (weight 0.6):        tree 1 (weight 1.0):
#       [x0 < 0.5]                  [x1 < 0.25]
#       /        \                  /          \
#     2.0     [x1 < 0.4]          -1.0         1.0
#              /      \
#            0.5      1.5
deep = ts.Node.internal(0, 0.5,
                        ts.Node.leaf(2.0),
                        ts.Node.internal(1, 0.4, ts.Node.leaf(0.5),
                                         ts.Node.leaf(1.5)))
stump = ts.Node.internal(1, 0.25, ts.Node.leaf(-1.0), ts.Node.leaf(1.0))
ensemble = ts.Ensemble(2, [(ts.Tree(deep), 0.6), (ts.Tree(stump), 1.0)])

print("stats:", ts.tree_stats(ensemble))

print("\n--- canonical text form ---")
doc = ts.serialize_model(ensemble)
print(doc)

reparsed = ts.parse_model(doc)
print("byte-exact round trip:", ts.serialize_model(reparsed) == doc)

print("\n--- scoring ---")
for raw in ([0.2, 0.1], [0.2, 0.9], [0.9, 0.1], [0.5, 0.4]):
    x = np.array(raw, dtype=np.float32)
    traced = ts.predict_ensemble_traced(ensemble, x)
    print(f"x={raw}  score={traced.score:+.3f}  "
          f"features examined={sorted(traced.visited_features)}  "
          f"leaves={traced.visited_leaves}")

print("\n--- complete-table expansion ---")
tree = ensemble.trees[0][0]
ct = ts.expand_to_complete(tree)
print(f"depth {ct.depth}: {len(ct.fids)} internal slots, "
      f"{len(ct.leaf_values)} leaves")
print("fids:  ", ct.fids.tolist())
print("thetas:", ct.thetas.tolist(), "   (+inf marks a dummy slot)")
print("leaves:", ct.leaf_values.tolist())

x = np.array([0.2, 0.9], dtype=np.float32)
reference = ts.traverse_to_leaf(tree.root, x).value
print(f"\nreference traversal for x={x.tolist()}: leaf value {reference}")
single = ts.Ensemble(2, [tree])
try:
    predicated = ts.build(single, "predicated")
except ts.CompilerNotFoundError as exc:
    print(f"note: {exc}; the predicated strategy cannot run")
else:
    score = predicated.predict(x)
    print(f"predicated strategy: score {score}, matches: {score == reference}")
    print(f"its table: {predicated.table_bytes} bytes for {tree.node_count} "
          f"nodes; stored_node_count {predicated.stored_node_count} counts "
          "the complete tree above")
