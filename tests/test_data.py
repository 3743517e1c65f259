"""Dataset container and FVEC/CSV round trips."""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import random_ensemble, random_matrix, requires_compiler
from treescore import (
    ALL_STRATEGIES,
    DataFormatError,
    Dataset,
    StrategyKind,
    build,
    build_generated,
    read_csv,
    read_fvec,
    reference_batch,
    write_csv,
    write_fvec,
)


def with_non_finite(rng, n, num_features):
    """A random matrix with about a third of its values NaN or +-inf."""
    X = random_matrix(rng, n, num_features)
    mask = rng.random(X.shape) < 0.3
    X[mask] = rng.choice([np.nan, np.inf, -np.inf], size=int(mask.sum()))
    return X


def test_dataset_validation():
    ds = Dataset(np.zeros((3, 4), dtype=np.float32))
    assert ds.count == 3 and ds.num_features == 4 and len(ds) == 3
    with pytest.raises(ValueError):
        Dataset(np.zeros(3, dtype=np.float32))
    # Any float32 is a feature value, NaN and +-inf included.
    special = np.array([[np.nan, np.inf], [-np.inf, 0.0]], dtype=np.float32)
    assert np.array_equal(Dataset(special).matrix.view(np.uint32),
                          special.view(np.uint32))


def test_dataset_narrows_to_float32():
    ds = Dataset([[0.1, 0.2], [0.3, 0.4]])
    assert ds.matrix.dtype == np.float32
    assert ds.matrix.flags.c_contiguous


def test_fvec_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    ds = Dataset(rng.random((17, 5), dtype=np.float32))
    path = tmp_path / "d.fvec"
    write_fvec(path, ds)
    back = read_fvec(path)
    assert np.array_equal(back.matrix, ds.matrix)


def test_fvec_empty(tmp_path):
    path = tmp_path / "e.fvec"
    write_fvec(path, Dataset(np.zeros((0, 7), dtype=np.float32)))
    back = read_fvec(path)
    assert back.count == 0 and back.num_features == 7


def test_fvec_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.fvec"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="magic"):
        read_fvec(path)
    path.write_bytes(b"FV")
    with pytest.raises(DataFormatError, match="truncated"):
        read_fvec(path)
    path.write_bytes(struct.pack("<4sII", b"FVEC", 2, 3) + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="payload"):
        read_fvec(path)


@pytest.mark.parametrize("count, f, payload", [
    (2, 3, 20),            # short
    (2, 3, 28),            # trailing bytes
    (1 << 20, 256, 64),    # a header promising 1 GiB
    (2**32 - 1, 2**32 - 1, 0),
])
def test_fvec_payload_length_is_checked_before_allocating(tmp_path, count, f,
                                                          payload):
    path = tmp_path / "bad.fvec"
    path.write_bytes(struct.pack("<4sII", b"FVEC", count, f)
                     + b"\x00" * payload)
    expected = f"FVEC payload is {payload} bytes, expected {count * f * 4}$"
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match=expected):
            read_fvec(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("extra", [b"", b"\x00"])
def test_fvec_from_a_pipe(tmp_path, extra):
    """A pipe has no size to check up front; its payload is checked as
    read."""
    # 72 KB, more than a pipe buffer holds.
    X = random_matrix(np.random.default_rng(5), 2000, 9)
    path = tmp_path / "d.fvec"
    write_fvec(path, Dataset(X))
    r, w = os.pipe()
    writer = threading.Thread(
        target=lambda: (os.write(w, path.read_bytes() + extra), os.close(w)))
    writer.start()
    try:
        if extra:
            with pytest.raises(DataFormatError, match="payload"):
                read_fvec(f"/dev/fd/{r}")
        else:
            assert np.array_equal(read_fvec(f"/dev/fd/{r}").matrix, X)
    finally:
        writer.join(timeout=60)
        os.close(r)
    assert not writer.is_alive()


def test_roundtrips_keep_nan_and_infinities(tmp_path):
    X = with_non_finite(np.random.default_rng(3), 40, 6)
    path = tmp_path / "d.fvec"
    write_fvec(path, Dataset(X))
    assert path.stat().st_size == 12 + X.nbytes
    back = read_fvec(path)
    assert np.array_equal(back.matrix.view(np.uint32), X.view(np.uint32))
    write_csv(tmp_path / "d.csv", Dataset(X))
    back = read_csv(tmp_path / "d.csv", num_features=6)
    assert np.array_equal(back.matrix, X, equal_nan=True)


@requires_compiler
def test_non_finite_dataset_scores_like_the_reference(tmp_path):
    rng = np.random.default_rng(4)
    ens = random_ensemble(rng, 8, 6, 5)
    path = tmp_path / "d.fvec"
    write_fvec(path, Dataset(with_non_finite(rng, 300, 8)))
    data = read_fvec(path)
    expected = reference_batch(ens, data.matrix).view(np.uint64)
    for kind in ALL_STRATEGIES:
        if kind is StrategyKind.GENERATED:
            evaluator = build_generated(ens)
        else:
            evaluator = build(ens, kind, 8 if kind is StrategyKind.VPREDICATED
                              else None)
        got = evaluator.predict_batch(data).view(np.uint64)
        assert np.array_equal(got, expected), kind


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    ds = Dataset(rng.random((9, 4), dtype=np.float32))
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    back = read_csv(path, num_features=4)
    assert np.array_equal(back.matrix, ds.matrix)


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,not_a_number\n")
    with pytest.raises(DataFormatError):
        read_csv(path)
    path.write_text("1.0,2.0\n")
    with pytest.raises(DataFormatError, match="expected 3"):
        read_csv(path, num_features=3)
