"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``pytest -s`` to see them live).  Equivalence criteria are
zero-tolerance (bit-exact).  Performance criteria are direction-only, at
full scale (512k instances, 5 trials), and pass when the direction holds
in at least 4 of 5 trials; absolute nanosecond figures are machine
properties and are intentionally not asserted.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from treescore import (
    BenchConfig,
    BenchReport,
    BenchRow,
    Ensemble,
    Node,
    StrategyKind,
    Tree,
    build,
    build_generated,
    expand_to_complete,
    export_csv,
    measure_feature_coverage,
    parse_csv,
    parse_model,
    predict_ensemble_traced,
    reference_batch,
    run_sweep,
    serialize_model,
    traverse_to_leaf,
)
from treescore.data import Dataset
from treescore.synth import GenConfig, gen_leaf_uniform_vectors, gen_tree

from conftest import (
    HAS_COMPILER,
    complete_table_leaf,
    random_ensemble,
    random_matrix,
    random_unbalanced_tree,
    requires_compiler,
)

SCALAR_KINDS = (StrategyKind.HEAP_LINKED, StrategyKind.COMPACT_LINKED,
                StrategyKind.CONTIGUOUS, StrategyKind.PREDICATED)

FULL_INSTANCES = 524288
FULL_TRIALS = 5


def _line(criterion: str, status: str, detail: str):
    print(f"[acceptance] {criterion}: {status} ({detail})", flush=True)


def _mixed_ensemble(rng, num_features: int, depth: int, num_trees: int) -> Ensemble:
    """Tree 0 is a complete tree of exactly ``depth``; the rest alternate
    between balanced and pruned trees of depth <= depth."""
    trees = [(gen_tree(GenConfig(depth=depth, num_features=num_features,
                                 seed=int(rng.integers(2**31)))),
              float(rng.uniform(0.5, 1.5)))]
    for t in range(1, num_trees):
        if t % 2 == 0:
            sub_depth = int(rng.integers(0, depth + 1))
            tree = gen_tree(GenConfig(depth=sub_depth, num_features=num_features,
                                      seed=int(rng.integers(2**31))))
        else:
            tree = random_unbalanced_tree(rng, depth, num_features)
        trees.append((tree, float(rng.uniform(0.5, 1.5))))
    return Ensemble(num_features, trees)


# ---------------------------------------------------------------------------
# 1. Cross-strategy equivalence
# ---------------------------------------------------------------------------

def test_1_cross_strategy_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    feature_sizes = (32, 128, 512)
    ensembles = 0
    vectors_checked = 0
    generated_checked = 0
    for i in range(200):
        f = feature_sizes[i % 3]
        slot = i % 40
        if slot == 7:
            depth, trees = 11, 1
        elif slot == 15:
            depth, trees = 9, 1
        elif slot == 23:
            depth, trees = 2, 50
        elif slot == 31:
            depth, trees = 7, 2
        else:
            depth = int(rng.integers(0, 7))
            trees = 1 + int(min(rng.geometric(0.35), 49))
            trees = min(trees, max(1, 512 >> depth))
        ens = _mixed_ensemble(rng, f, depth, trees)
        X = random_matrix(rng, 100, f)
        expected = reference_batch(ens, X)
        evaluators = [build(ens, kind) for kind in SCALAR_KINDS]
        evaluators.append(build(ens, StrategyKind.VPREDICATED, 16))
        if HAS_COMPILER:
            evaluators.append(build_generated(ens))
            generated_checked += 1
        for ev in evaluators:
            got = ev.predict_batch(X)
            assert np.array_equal(got, expected), \
                f"{ev.kind} diverged (ensemble {i}, d={depth}, f={f}, t={trees})"
        ensembles += 1
        vectors_checked += X.shape[0]
    elapsed = time.perf_counter() - started
    _line("1 cross-strategy equivalence", "PASS",
          f"{ensembles} ensembles x 100 vectors, bit-exact across "
          f"{5 + (1 if generated_checked else 0)} strategies, "
          f"generated compiled {generated_checked}x, {elapsed:.1f}s")
    if not HAS_COMPILER:
        pytest.skip("generated strategy unavailable: no host compiler")


# ---------------------------------------------------------------------------
# 2. Predication kernel oracle
# ---------------------------------------------------------------------------

def _ordinal_ensemble(tree: Tree, num_features: int) -> Ensemble:
    """``tree`` with each leaf's value replaced by its left-to-right ordinal
    (exact in float32), at weight 1, so a score is the ordinal of the leaf
    reached."""

    def relabel(node: Node) -> Node:
        if node.is_leaf:
            return Node.leaf(tree.leaf_ordinal(node))
        return Node.internal(node.fid, node.threshold, relabel(node.left),
                             relabel(node.right))

    return Ensemble(num_features, [(Tree(relabel(tree.root)), 1.0)])


def _predicated_ordinals(ens: Ensemble, X) -> list:
    """The leaf ordinals ``predicated`` and ``vpredicated`` at v in {3, 16}
    score for the rows of ``X``."""
    return [build(ens, kind, v).predict_batch(X) for kind, v in (
        (StrategyKind.PREDICATED, None), (StrategyKind.VPREDICATED, 3),
        (StrategyKind.VPREDICATED, 16))]


@requires_compiler
def test_2_predication_kernel_oracle():
    checked = 0
    # Exhaustive per-leaf probes for complete trees up to depth 8.
    for depth in range(1, 9):
        for seed in (depth, depth + 100):
            cfg = GenConfig(depth=depth, num_features=16,
                            num_vectors=1 << depth, seed=seed)
            tree = gen_tree(cfg)
            ds, assigned = gen_leaf_uniform_vectors(tree, cfg,
                                                    with_assignments=True)
            reached = [tree.leaf_ordinal(traverse_to_leaf(tree.root, x))
                       for x in ds.matrix]
            assert reached == list(assigned)
            for scores in _predicated_ordinals(_ordinal_ensemble(tree, 16),
                                               ds.matrix):
                assert scores.tolist() == reached
            checked += ds.count
    # Random probes at the deep end.
    rng = np.random.default_rng(202)
    for depth in (9, 11):
        tree = gen_tree(GenConfig(depth=depth, num_features=32, seed=depth))
        X = random_matrix(rng, 10000, 32)
        reached = [tree.leaf_ordinal(traverse_to_leaf(tree.root, x)) for x in X]
        for scores in _predicated_ordinals(_ordinal_ensemble(tree, 32), X):
            assert scores.tolist() == reached
        checked += X.shape[0]
    _line("2 predication kernel oracle", "PASS",
          f"{checked} probes: exhaustive d<=8 plus 10k random at d in {{9,11}}, "
          "scored by predicated and vpredicated (v=3, 16)")


# ---------------------------------------------------------------------------
# 3. Lockstep batch at v=1 scores as the scalar kernel
# ---------------------------------------------------------------------------

@requires_compiler
def test_3_vpred_v1_scores_equal_pred():
    rng = np.random.default_rng(303)
    instances = 0
    # A complete tree, and a pruned one whose lanes park on leaves above
    # the bottom level.
    complete = gen_tree(GenConfig(depth=7, num_features=32, seed=33))
    pruned = random_unbalanced_tree(np.random.default_rng(34), 8, 16)
    for tree, f, n in ((complete, 32, 1000), (pruned, 16, 200)):
        ens = Ensemble(f, [tree])
        X = random_matrix(rng, n, f)
        pred = build(ens, StrategyKind.PREDICATED)
        vpred = build(ens, StrategyKind.VPREDICATED, 1)
        want = pred.predict_batch(X).view(np.uint64)
        assert np.array_equal(vpred.predict_batch(X).view(np.uint64), want)
        rows = np.array([vpred.predict(x) for x in X])
        assert np.array_equal(rows.view(np.uint64), want)
        instances += n
    _line("3 vpredicated(v=1) = predicated", "PASS",
          f"uint64-identical scores on {instances} instances")


# ---------------------------------------------------------------------------
# 4. Leaf uniformity
# ---------------------------------------------------------------------------

def test_4_leaf_uniformity():
    cfg = GenConfig(depth=5, num_features=32, num_vectors=100000, seed=44)
    tree = gen_tree(cfg)
    ds, assigned = gen_leaf_uniform_vectors(tree, cfg, with_assignments=True)
    hits = np.bincount(assigned, minlength=tree.leaf_count)
    spread = int(hits.max() - hits.min())
    assert spread <= 1
    for i in range(ds.count):
        leaf = traverse_to_leaf(tree.root, ds.matrix[i])
        assert tree.leaf_ordinal(leaf) == assigned[i]
    _line("4 leaf uniformity", "PASS",
          f"d=5 f=32 n=100000: count spread {spread} <= 1, all 100000 vectors "
          "reached their assigned leaf")


# ---------------------------------------------------------------------------
# 5. Dummy-expansion semantics
# ---------------------------------------------------------------------------

def test_5_expansion_preserves_predictions():
    rng = np.random.default_rng(505)
    pairs = 0
    for _ in range(50):
        tree = random_unbalanced_tree(rng, int(rng.integers(1, 11)), 16)
        ct = expand_to_complete(tree)
        for _ in range(20):
            x = rng.random(16, dtype=np.float32)
            source = traverse_to_leaf(tree.root, x).value
            assert complete_table_leaf(ct, x) == source
            pairs += 1
    assert pairs == 1000
    _line("5 dummy-expansion semantics", "PASS",
          f"{pairs} (unbalanced tree, vector) pairs bit-exact")


# ---------------------------------------------------------------------------
# 6. Performance direction checks (full scale, direction-only)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_f128():
    strategies = list(SCALAR_KINDS) + [StrategyKind.VPREDICATED]
    if HAS_COMPILER:
        strategies.append(StrategyKind.GENERATED)
    cfg = BenchConfig(strategies=tuple(strategies), depths=(3, 11),
                      feature_sizes=(128,), batch_sizes=(16,),
                      instances=FULL_INSTANCES, trials=FULL_TRIALS, seed=606)
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def sweep_vpred_f512():
    cfg = BenchConfig(strategies=(StrategyKind.PREDICATED,
                                  StrategyKind.VPREDICATED),
                      depths=(11,), feature_sizes=(512,),
                      batch_sizes=(1, 8, 16, 32, 64),
                      instances=FULL_INSTANCES, trials=FULL_TRIALS, seed=607)
    return run_sweep(cfg)


def _wins(times_a, times_b) -> int:
    """Trials where a < b (same trial index shares tree and data)."""
    return sum(1 for a, b in zip(times_a, times_b) if a < b)


def test_6a_vpred_beats_pred_deep_wide(sweep_vpred_f512):
    report = sweep_vpred_f512
    pred = report.row(StrategyKind.PREDICATED, 11, 512)
    best_v = min((report.row(StrategyKind.VPREDICATED, 11, 512, v).mean_ns, v)
                 for v in (1, 8, 16, 32, 64))[1]
    vrow = report.row(StrategyKind.VPREDICATED, 11, 512, best_v)
    wins = _wins(vrow.trial_elapsed_ns, pred.trial_elapsed_ns)
    detail = (f"d=11 f=512 n={FULL_INSTANCES}: vpredicated(v={best_v}) "
              f"{vrow.mean_ns:.0f} ns vs predicated {pred.mean_ns:.0f} ns, "
              f"faster in {wins}/{FULL_TRIALS} trials")
    status = "PASS" if wins >= 4 else "FAIL"
    _line("6a vpredicated(best v) < predicated", status, detail)
    assert wins >= 4, detail


def test_6b_contiguous_not_slower_than_compact_deep(sweep_f128):
    report = sweep_f128
    contig = report.row(StrategyKind.CONTIGUOUS, 11, 128)
    compact = report.row(StrategyKind.COMPACT_LINKED, 11, 128)
    wins = sum(1 for c, k in zip(contig.trial_elapsed_ns,
                                 compact.trial_elapsed_ns) if c <= k)
    detail = (f"d=11 f=128: contiguous {contig.mean_ns:.0f} ns vs "
              f"compact_linked {compact.mean_ns:.0f} ns, <= in "
              f"{wins}/{FULL_TRIALS} trials")
    status = "PASS" if wins >= 4 else "FAIL"
    _line("6b contiguous <= compact_linked", status, detail)
    assert wins >= 4, detail


def test_6c_heap_linked_is_slowest_linked(sweep_f128):
    report = sweep_f128
    heap = report.row(StrategyKind.HEAP_LINKED, 11, 128)
    compact = report.row(StrategyKind.COMPACT_LINKED, 11, 128)
    contig = report.row(StrategyKind.CONTIGUOUS, 11, 128)
    wins = sum(1 for h, k, c in zip(heap.trial_elapsed_ns,
                                    compact.trial_elapsed_ns,
                                    contig.trial_elapsed_ns)
               if h > k and h > c)
    detail = (f"d=11 f=128: heap_linked {heap.mean_ns:.0f} ns vs compact "
              f"{compact.mean_ns:.0f} / contiguous {contig.mean_ns:.0f} ns, "
              f"slowest in {wins}/{FULL_TRIALS} trials")
    status = "PASS" if wins >= 4 else "FAIL"
    _line("6c heap_linked slowest", status, detail)
    assert wins >= 4, detail


def test_6d_deeper_trees_are_slower(sweep_f128):
    report = sweep_f128
    failures = []
    details = []
    for row11 in report.rows:
        if row11.depth != 11 or not row11.available:
            continue
        row3 = report.row(row11.strategy, 3, row11.features, row11.batch)
        wins = _wins(row3.trial_elapsed_ns, row11.trial_elapsed_ns)
        details.append(f"{row11.strategy} {wins}/{FULL_TRIALS}")
        if wins < 4:
            failures.append(row11.strategy)
    detail = f"f=128, d=3 < d=11 per strategy: {', '.join(details)}"
    status = "PASS" if not failures else "FAIL"
    _line("6d deeper is slower", status, detail)
    assert not failures, detail


# ---------------------------------------------------------------------------
# 7. Generated-strategy differential
# ---------------------------------------------------------------------------

def test_7_generated_differential():
    if not HAS_COMPILER:
        _line("7 generated differential", "UNAVAILABLE",
              "no host compiler; generated strategy skipped")
        pytest.skip("generated strategy unavailable: no host compiler")
    rng = np.random.default_rng(707)
    for i in range(20):
        f = (32, 128)[i % 2]
        depth = int(rng.integers(0, 9))
        trees = 1 + int(rng.integers(0, 8))
        ens = _mixed_ensemble(rng, f, depth, trees)
        X = random_matrix(rng, 10000, f)
        generated = build_generated(ens)
        vpred = build(ens, StrategyKind.VPREDICATED, 16)
        assert np.array_equal(generated.predict_batch(X),
                              vpred.predict_batch(X)), f"ensemble {i}"
    _line("7 generated differential", "PASS",
          "20 ensembles x 10000 vectors, generated == vpredicated bit-exact")


# ---------------------------------------------------------------------------
# 8. Coverage tracer
# ---------------------------------------------------------------------------

def test_8_coverage_tracer_oracle():
    # Known path-feature sets: one split on feature 3 out of 10.
    single = Ensemble(10, [Tree(Node.internal(3, 0.5, Node.leaf(0.0),
                                              Node.leaf(1.0)))])
    rng = np.random.default_rng(808)
    data = Dataset(rng.random((200, 10), dtype=np.float32))
    report = measure_feature_coverage(single, data)
    assert report.mean_fraction == 200 * (1 / 10) / 200

    # Every path of this ensemble touches all three features.
    full = Ensemble(3, [(Tree(Node.internal(k, 0.5, Node.leaf(0.0),
                                            Node.leaf(1.0))), 1.0)
                        for k in range(3)])
    data3 = Dataset(rng.random((100, 3), dtype=np.float32))
    assert measure_feature_coverage(full, data3).mean_fraction == 1.0

    # Random ensembles against an independent path walk.
    for seed in range(5):
        local = np.random.default_rng(900 + seed)
        ens = random_ensemble(local, 16, 5, 6)
        X = random_matrix(local, 300, 16)
        fractions = np.empty(300)
        for i in range(300):
            feats = set()
            for tree, _ in ens.trees:
                node = tree.root
                while not node.is_leaf:
                    feats.add(node.fid)
                    node = node.left if float(X[i][node.fid]) < node.threshold \
                        else node.right
            fractions[i] = len(feats) / 16
            traced = predict_ensemble_traced(ens, X[i])
            assert traced.visited_features == frozenset(feats)
        measured = measure_feature_coverage(ens, Dataset(X))
        assert measured.mean_fraction == float(fractions.mean())
        assert measured.variance == float(fractions.var())

    # Coverage figures for externally trained ranking models need those
    # models; the README must say so rather than pretend to reproduce them.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "not reproducible" in readme.read_text(encoding="utf-8")

    _line("8 coverage tracer", "PASS",
          "constructed + random ensembles match the brute-force walk exactly; "
          "external-model figures documented as not reproducible")


# ---------------------------------------------------------------------------
# 9. Format round trips
# ---------------------------------------------------------------------------

def test_9_format_round_trips():
    rng = np.random.default_rng(909)
    for i in range(100):
        f = int(rng.choice([2, 8, 32, 128]))
        ens = random_ensemble(rng, f, int(rng.integers(1, 8)),
                              int(rng.integers(0, 7)))
        doc = serialize_model(ens)
        assert serialize_model(parse_model(doc)) == doc, f"model {i}"

    reports = 0
    for seed in range(20):
        local = np.random.default_rng(1000 + seed)
        rows = []
        for d in (3, 7):
            for v in (None, 8, 32):
                strategy = "vpredicated" if v else "contiguous"
                elapsed = [int(local.integers(10**5, 10**10))
                           for _ in range(5)]
                rows.append(BenchRow(strategy, d, 32, v, 524288, elapsed))
        report = BenchReport(rows, {"cpu": "x", "date": f"2026-01-{seed+1:02d}"})
        text = export_csv(report)
        parsed = parse_csv(text)
        assert export_csv(parsed) == text
        for before, after in zip(report.rows, parsed.rows):
            assert after.mean_ns == before.mean_ns
            assert after.ci95_ns == before.ci95_ns
        reports += 1

    _line("9 format round trips", "PASS",
          f"100 models byte-exact; {reports} reports value-exact through CSV")
