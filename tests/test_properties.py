"""Property-based agreement of every strategy with the reference.

Hypothesis draws random and degenerate ensembles (single leaves, chains up
to ``MAX_DEPTH``, thresholds drawn from a small pool that the features
reuse, so ties are common) and batches with NaN, +inf and -inf features,
the empty batch included.  Every strategy must reproduce
:func:`reference_batch` bit for bit.  ``generated`` compiles a unit per
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


@st.composite
def random_trees(draw, num_features):
    max_depth = draw(st.integers(0, 6))

    def grow(depth):
        if depth == max_depth or not draw(st.booleans()):
            return Node.leaf(draw(values))
        return Node.internal(draw(st.integers(0, num_features - 1)),
                             draw(st.sampled_from(THRESHOLDS)),
                             grow(depth + 1), grow(depth + 1))

    return Tree(grow(0))


@st.composite
def chains(draw, num_features):
    """A path of up to ``MAX_DEPTH`` splits, a leaf on the other side of each."""
    node = Node.leaf(draw(values))
    # The deepest chain is drawn on purpose: a uniform draw rarely hits it.
    levels = st.sampled_from((1, MAX_DEPTH)) | st.integers(0, MAX_DEPTH)
    for _ in range(draw(levels)):
        fid = draw(st.integers(0, num_features - 1))
        threshold = draw(st.sampled_from(THRESHOLDS))
        leaf = Node.leaf(draw(values))
        node = (Node.internal(fid, threshold, node, leaf) if draw(st.booleans())
                else Node.internal(fid, threshold, leaf, node))
    return Tree(node)


@st.composite
def cases(draw, with_chains=True):
    f = draw(st.integers(1, 6))
    shapes = st.one_of(random_trees(f), chains(f)) if with_chains \
        else random_trees(f)
    # Negative weights on zero leaves give -0.0 products.
    trees = draw(st.lists(
        st.tuples(shapes,
                  st.sampled_from((-1.0, -0.0)) | st.floats(-8.0, 8.0)),
        min_size=1, max_size=5))
    rows = draw(st.integers(0, 24))
    matrix = np.array(draw(st.lists(features, min_size=rows * f,
                                    max_size=rows * f)),
                      dtype=np.float32).reshape(rows, f)
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
