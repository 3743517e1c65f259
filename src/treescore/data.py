"""Packed feature-vector datasets and their on-disk formats.

A feature vector is a dense array of ``f`` 32-bit floats; a dataset is a
row-major ``n x f`` float32 matrix, one vector per row.  Any float32 is a
feature value, NaN and +-inf included: every strategy scores them like the
reference traversal (a NaN fails ``x[fid] < theta`` and goes right), so a
dataset holds them as they are.  The binary FVEC format is::

    magic "FVEC" | u32 count | u32 num_features | count*f float32, row-major

all little-endian.  :func:`read_fvec` checks the payload's length against
the header before it allocates the matrix, and reads the payload straight
into it.  A one-row-per-line CSV import/export is provided for
convenience.
"""

from __future__ import annotations

import os
import stat
import struct

import numpy as np

FVEC_MAGIC = b"FVEC"
_HEADER = struct.Struct("<4sII")


class DataFormatError(Exception):
    """Malformed FVEC or CSV dataset."""


class Dataset:
    """An immutable-by-convention packed matrix of feature vectors."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.ascontiguousarray(matrix, dtype=np.float32)
        if m.ndim != 2:
            raise ValueError(f"dataset must be 2-D, got shape {m.shape}")
        self.matrix = m

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_features(self) -> int:
        return self.matrix.shape[1]

    def __len__(self):
        return self.matrix.shape[0]

    def row(self, i: int) -> np.ndarray:
        return self.matrix[i]

    def __repr__(self):
        return f"Dataset(count={self.count}, num_features={self.num_features})"


def write_fvec(path, dataset: Dataset) -> None:
    # A no-op on little-endian hosts: the rows are written from the
    # dataset's own buffer.
    matrix = np.ascontiguousarray(dataset.matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FVEC_MAGIC, dataset.count, dataset.num_features))
        fh.write(matrix.data)


def _check_payload(size: int, expected: int) -> None:
    if size != expected:
        raise DataFormatError(
            f"FVEC payload is {size} bytes, expected {expected}"
        )


def read_fvec(path) -> Dataset:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataFormatError("truncated FVEC header")
        magic, count, f = _HEADER.unpack(header)
        if magic != FVEC_MAGIC:
            raise DataFormatError(f"bad magic {magic!r}, expected {FVEC_MAGIC!r}")
        expected = count * f * 4
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            # A header that promises more than the file holds fails here,
            # before the matrix it describes is allocated.
            _check_payload(st.st_size - fh.tell(), expected)
            matrix = np.empty((count, f), dtype="<f4")
            # Checked again, as the file may have changed since fstat.
            _check_payload(fh.readinto(matrix) + len(fh.read()), expected)
        else:
            # A pipe has no size to check first: read what it holds.
            payload = fh.read()
            _check_payload(len(payload), expected)
            matrix = np.frombuffer(payload, dtype="<f4").reshape(count, f)
    # Dataset converts the little-endian rows to native order, a no-op on
    # little-endian hosts.
    return Dataset(matrix)


def write_csv(path, dataset: Dataset) -> None:
    # %.9g keeps all float32 information, so CSV round-trips exactly.
    np.savetxt(path, dataset.matrix, delimiter=",", fmt="%.9g")


def read_csv(path, num_features: int | None = None) -> Dataset:
    try:
        matrix = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"malformed CSV dataset: {exc}") from exc
    if matrix.size == 0:
        matrix = matrix.reshape(0, num_features or 0)
    if num_features is not None and matrix.shape[1] != num_features:
        raise DataFormatError(
            f"CSV rows have {matrix.shape[1]} values, expected {num_features}"
        )
    return Dataset(matrix)
