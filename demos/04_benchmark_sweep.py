"""A desk-scale run of the full benchmark protocol.

Per trial and configuration the harness regenerates a fresh seeded tree
and leaf-uniform dataset, gates every strategy against the reference
traversal on a 1,000-instance prefix, then times whole passes.  The CSV
written at the end is the same format `treescore bench` emits.
"""

import sys

import treescore as ts

cfg = ts.BenchConfig(
    strategies=("compact_linked", "contiguous", "predicated", "vpredicated"),
    depths=(3, 7, 11),
    feature_sizes=(32, 128),
    batch_sizes=(16, 64),
    instances=50_000,     # desk scale; the acceptance suite runs 524,288
    trials=3,
    seed=99,
)

report = ts.run_sweep(cfg, progress=lambda line: print("  " + line,
                                                       file=sys.stderr))

print(f"\n{'strategy':<14} {'d':>3} {'f':>4} {'v':>4} "
      f"{'mean ns/inst':>13} {'ci95':>7}")
for row in report.rows:
    batch = row.batch if row.batch is not None else "-"
    cell = f"{row.strategy:<14} {row.depth:>3} {row.features:>4} {batch:>4}"
    if row.available:
        print(f"{cell} {row.mean_ns:>13.1f} {row.ci95_ns:>7.1f}")
    else:
        print(f"{cell} unavailable: {row.note}")

out = "sweep_demo.csv"
with open(out, "w", encoding="utf-8") as fh:
    fh.write(ts.export_csv(report))
print(f"\nwrote {out} ({len(report.rows)} configurations x {cfg.trials} trials)")

parsed = ts.parse_csv(open(out, encoding="utf-8").read())
print("csv round-trips:", ts.export_csv(parsed) == ts.export_csv(report))
