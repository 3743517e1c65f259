"""Dataset container and FVEC/CSV round trips."""

import numpy as np
import pytest

from treescore import (
    DataFormatError,
    Dataset,
    read_csv,
    read_fvec,
    write_csv,
    write_fvec,
)


def test_dataset_validation():
    ds = Dataset(np.zeros((3, 4), dtype=np.float32))
    assert ds.count == 3 and ds.num_features == 4 and len(ds) == 3
    with pytest.raises(ValueError):
        Dataset(np.zeros(3, dtype=np.float32))
    bad = np.zeros((2, 2), dtype=np.float32)
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        Dataset(bad)


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
    import struct
    path.write_bytes(struct.pack("<4sII", b"FVEC", 2, 3) + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="payload"):
        read_fvec(path)


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
