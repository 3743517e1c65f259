"""Property-based agreement of every strategy with the reference.

Hypothesis draws random and degenerate ensembles (single leaves, chains up
to ``MAX_DEPTH``, thresholds drawn from a small pool that the features
reuse, so ties are common) and batches with NaN, +inf and -inf features,
the empty batch included.  Every strategy must reproduce
:func:`reference_batch` bit for bit, also over ``TOP_FID + 1`` features
with splits on the largest id a uint16 holds and the one past it, so no
narrowing of the ids could pass unseen.  ``generated`` compiles a unit per
example, so it gets a small budget of random trees only.  The search is
derandomized, so each run checks the same examples.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from treescore import (
    MAX_DEPTH,
    Ensemble,
    Node,
    StrategyKind,
    Tree,
    build,
    build_generated,
    reference_batch,
)

from conftest import requires_compiler

BATCH_SIZES = (1, 3, 16)

# Float32 values, so that features equal to a threshold compare equal.
THRESHOLDS = tuple(float(np.float32(t)) for t in
                   (-1.5, -0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 3.0e8))
finite = st.floats(-1e6, 1e6, width=32)
values = st.one_of(finite, st.sampled_from(THRESHOLDS))
features = st.one_of(values, st.sampled_from((np.nan, np.inf, -np.inf)))
# The ids split on in the wide cases: the two smallest, the largest a
# uint16 holds, and the one past it.
TOP_FID = 65_536
LIMIT_FIDS = (0, 1, TOP_FID - 1, TOP_FID)


@st.composite
def random_trees(draw, fids):
    max_depth = draw(st.integers(0, 6))

    def grow(depth):
        if depth == max_depth or not draw(st.booleans()):
            return Node.leaf(draw(values))
        return Node.internal(draw(fids),
                             draw(st.sampled_from(THRESHOLDS)),
                             grow(depth + 1), grow(depth + 1))

    return Tree(grow(0))


@st.composite
def chains(draw, fids):
    """A path of up to ``MAX_DEPTH`` splits, a leaf on the other side of each."""
    node = Node.leaf(draw(values))
    # The deepest chain is drawn on purpose: a uniform draw rarely hits it.
    levels = st.sampled_from((1, MAX_DEPTH)) | st.integers(0, MAX_DEPTH)
    for _ in range(draw(levels)):
        fid = draw(fids)
        threshold = draw(st.sampled_from(THRESHOLDS))
        leaf = Node.leaf(draw(values))
        node = (Node.internal(fid, threshold, node, leaf) if draw(st.booleans())
                else Node.internal(fid, threshold, leaf, node))
    return Tree(node)


@st.composite
def cases(draw, with_chains=True, wide=False):
    """An ensemble and a batch.  ``wide`` cases have ``TOP_FID + 1``
    features and split on :data:`LIMIT_FIDS` only; the other features of
    their rows are 0."""
    if wide:
        f, columns = TOP_FID + 1, list(LIMIT_FIDS)
        fids = st.sampled_from(LIMIT_FIDS)
    else:
        f = draw(st.integers(1, 6))
        columns, fids = list(range(f)), st.integers(0, f - 1)
    shapes = st.one_of(random_trees(fids), chains(fids)) if with_chains \
        else random_trees(fids)
    # Negative weights on zero leaves give -0.0 products.
    trees = draw(st.lists(
        st.tuples(shapes,
                  st.sampled_from((-1.0, -0.0)) | st.floats(-8.0, 8.0)),
        min_size=1, max_size=5))
    rows = draw(st.integers(0, 24))
    size = rows * len(columns)
    matrix = np.zeros((rows, f), dtype=np.float32)
    matrix[:, columns] = np.array(
        draw(st.lists(features, min_size=size, max_size=size)),
        dtype=np.float32).reshape(rows, len(columns))
    return Ensemble(f, trees), matrix


def bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.uint64)


@requires_compiler
@settings(derandomize=True, deadline=None, max_examples=40, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases())
# A single tree's -0.0 product must still score 0.0 + -0.0 = 0.0.
@example((Ensemble(1, [(Tree(Node.leaf(0.0)), -1.0)]),
          np.zeros((1, 1), dtype=np.float32)))
def test_every_strategy_matches_reference_bit_for_bit(case):
    assert_every_strategy_matches_reference(case)


# A tree that splits on the two largest ids, one of them twice, with a
# leaf at depth 1 that loops to itself (fid 0) beside them; the rows carry
# NaN, +inf and -inf in both ids.
_LIMIT_TREE = Tree(Node.internal(
    TOP_FID, 0.5, Node.leaf(1.0),
    Node.internal(TOP_FID - 1, 0.25, Node.leaf(2.0), Node.internal(
        TOP_FID, 1.0, Node.leaf(3.0), Node.leaf(4.0)))))
_LIMIT_ROWS = np.zeros((6, TOP_FID + 1), dtype=np.float32)
_LIMIT_ROWS[:, TOP_FID] = (np.nan, np.inf, -np.inf, 0.5, 0.75, 1.0)
_LIMIT_ROWS[:, TOP_FID - 1] = (0.25, np.nan, 0.0, 0.5, -np.inf, np.inf)


@requires_compiler
@settings(derandomize=True, deadline=None, max_examples=15, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases(wide=True))
@example((Ensemble(TOP_FID + 1, [(_LIMIT_TREE, 0.5),
                                (Tree(Node.leaf(0.5)), 1.0)]),
          _LIMIT_ROWS))
def test_every_strategy_matches_reference_at_the_fid_limit(case):
    assert_every_strategy_matches_reference(case)


def assert_every_strategy_matches_reference(case):
    ens, X = case
    expected = bits(reference_batch(ens, X))
    builds = [(kind, None) for kind in (
        StrategyKind.HEAP_LINKED, StrategyKind.COMPACT_LINKED,
        StrategyKind.CONTIGUOUS, StrategyKind.PREDICATED)]
    builds += [(StrategyKind.VPREDICATED, v) for v in BATCH_SIZES]
    for kind, v in builds:
        ev = build(ens, kind, v)
        assert np.array_equal(bits(ev.predict_batch(X)), expected), (kind, v)
        rows = [ev.predict(x) for x in X[:3]]
        assert np.array_equal(bits(rows), expected[:3]), (kind, v)


@requires_compiler
@settings(derandomize=True, deadline=None, max_examples=8, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases(with_chains=False))
def test_generated_matches_reference_bit_for_bit(case):
    ens, X = case
    expected = bits(reference_batch(ens, X))
    ev = build_generated(ens)
    assert np.array_equal(bits(ev.predict_batch(X)), expected)
    assert np.array_equal(bits([ev.predict(x) for x in X]), expected)
