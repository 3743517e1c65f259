"""Tests of the benchmark's oracle and generator.

Run from the repository root::

    python3 -m pytest perfbench/test_oracle.py -q

The oracle cases use hand-built trees whose scores are worked out here by
hand, so a wrong rule in the oracle (tie, NaN or infinity routing, depth-0
trees, accumulation order or precision) fails a test.
"""

import math

import numpy as np
import pytest

import gen
import oracle


def leaf(value):
    return [-1, value, -1, -1]


def tree(weight, nodes):
    """Nodes are [fid, threshold-or-leaf-value, left, right] rows."""
    fid, value, left, right = zip(*nodes)
    return gen.TreeArrays(weight, np.array(fid, dtype=np.int32),
                          np.array(value, dtype=np.float32),
                          np.array(left, dtype=np.int32),
                          np.array(right, dtype=np.int32))


STUMP = tree(1.0, [[1, 0.5, 1, 2], leaf(-1.0), leaf(1.0)])


def score(trees, *rows):
    return oracle.predict(trees, np.array(rows, dtype=np.float32)).tolist()


@pytest.mark.parametrize("x, expected", [
    (0.25, -1.0),
    (0.5, 1.0),                                   # a tie goes right
    (float(np.nextafter(np.float32(0.5), np.float32(0))), -1.0),
    (math.nan, 1.0),                              # NaN goes right
    (math.inf, 1.0),
    (-math.inf, -1.0),
])
def test_routing(x, expected):
    assert score([STUMP], [0.0, x]) == [expected]


def test_rows_are_compared_in_float32():
    # 0.1 in float32 is above 0.1 in float64: comparing the float64 row
    # without narrowing it would send it left.
    t = tree(1.0, [[0, 0.1, 1, 2], leaf(-1.0), leaf(1.0)])
    assert oracle.predict([t], np.array([[0.1]])).tolist() == [1.0]


def test_depth_zero_tree():
    constant = tree(0.5, [leaf(3.0)])
    assert score([constant], [0.0, 0.0], [9.0, math.nan]) == [1.5, 1.5]


def test_two_levels_follow_left_and_right_children():
    t = tree(1.0, [[0, 0.5, 1, 2], [1, 0.5, 3, 4], [1, 0.25, 5, 6],
                   leaf(1.0), leaf(2.0), leaf(3.0), leaf(4.0)])
    assert score([t], [0.0, 0.0], [0.0, 0.9], [0.9, 0.0], [0.9, 0.3]) == \
        [1.0, 2.0, 3.0, 4.0]


def test_weights_accumulate_in_tree_order_in_float64():
    big = tree(1e16, [leaf(1.0)])
    one = tree(1.0, [leaf(1.0)])
    minus_big = tree(-1e16, [leaf(1.0)])
    # In tree order the 1.0 is absorbed by 1e16; any other order keeps it.
    assert score([big, one, minus_big], [0.0]) == [0.0]
    assert score([big, minus_big, one], [0.0]) == [1.0]
    # weight * leaf in float64: float32 arithmetic would round 0.1 * 0.1f.
    tenth = tree(0.1, [leaf(0.1)])
    assert score([tenth], [0.0]) == [0.1 * float(np.float32(0.1))]


def test_matches_a_node_by_node_walk_on_generated_ensembles():
    inputs = gen.make("online_requests", 5)
    rows = inputs.matrix[:50].copy()
    rows[::7, gen.NAN_FEATURE] = np.nan

    def walk(row):
        acc = 0.0
        for t in inputs.trees:
            k = 0
            while t.fid[k] >= 0:
                k = t.left[k] if row[t.fid[k]] < t.value[k] else t.right[k]
            acc += t.weight * float(t.value[k])
        return acc

    assert oracle.predict(inputs.trees, rows).tolist() == [walk(r) for r in rows]


def test_deep_rows_reach_their_target_leaves():
    # The generator's own construction, on a small tree.
    rng = np.random.default_rng(3)
    t = gen._complete_tree(rng, 5, 12)
    x, target_leaf = gen._leaf_uniform_rows(rng, t, 5, 320, 12)
    assert np.bincount(target_leaf).tolist() == [10] * 32
    expected = t.value[31 + target_leaf].astype(np.float64)
    assert np.array_equal(oracle.predict([t], x), expected)


def test_nan_requests_change_the_score_when_sent_left():
    inputs = gen.make("online_requests", 9)
    nan_requests = [r for r in inputs.requests if r.nan]
    assert len(nan_requests) == gen.ONLINE_BLOCKS
    tree0 = inputs.trees[0]
    assert tree0.fid[0] == gen.NAN_FEATURE
    assert gen.NAN_FEATURE not in tree0.fid[1:]
    assert all(gen.NAN_FEATURE not in t.fid for t in inputs.trees[1:])
    # Sending the NaN left instead of right swaps a negative leaf of tree 0
    # for a positive one, whatever the other features are.
    row = inputs.matrix[nan_requests[0].start:nan_requests[0].start + 1].copy()
    row[0, gen.NAN_FEATURE] = np.nan
    right = oracle.predict(inputs.trees, row)[0]
    row[0, gen.NAN_FEATURE] = -np.inf
    left = oracle.predict(inputs.trees, row)[0]
    assert right - left >= tree0.weight * 1.0


def test_inputs_depend_on_the_seed_only():
    a, b = gen.make("ensemble_f136", 4), gen.make("ensemble_f136", 4)
    assert gen.model_text(136, a.trees) == gen.model_text(136, b.trees)
    assert np.array_equal(a.matrix, b.matrix)
    c = gen.make("ensemble_f136", 5)
    assert not np.array_equal(a.matrix, c.matrix)
    assert all(t.depth <= gen.ENSEMBLE_MAX_DEPTH for t in a.trees)
    assert all(t.node_count == 2 * gen.ENSEMBLE_LEAVES - 1 for t in a.trees)


def test_deep_tree_leaves_stay_distinct_when_a_draw_collides():
    # Seed 11's first draw of 2,048 float32 leaf values holds a repeat.
    tree = gen._complete_tree(np.random.default_rng([11, 1]), gen.DEEP_DEPTH,
                              gen.DEEP_FEATURES)
    leaves = tree.value[tree.fid < 0]
    assert leaves.shape[0] == 1 << gen.DEEP_DEPTH
    assert np.unique(leaves).shape[0] == leaves.shape[0]
