"""Packed feature-vector datasets and their on-disk formats.

A feature vector is a dense array of ``f`` finite 32-bit floats; a dataset
is a row-major ``n x f`` float32 matrix, one vector per row.  The binary
FVEC format is::

    magic "FVEC" | u32 count | u32 num_features | count*f float32, row-major

all little-endian.  A one-row-per-line CSV import/export is provided for
convenience.
"""

from __future__ import annotations

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
        # min and max are NaN or infinite iff some value is, and unlike
        # isfinite they allocate nothing the size of the matrix.
        if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
            raise ValueError("dataset contains non-finite values")
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
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FVEC_MAGIC, dataset.count, dataset.num_features))
        fh.write(np.ascontiguousarray(dataset.matrix, dtype="<f4").tobytes())


def read_fvec(path) -> Dataset:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataFormatError("truncated FVEC header")
        magic, count, f = _HEADER.unpack(header)
        if magic != FVEC_MAGIC:
            raise DataFormatError(f"bad magic {magic!r}, expected {FVEC_MAGIC!r}")
        payload = fh.read()
    expected = count * f * 4
    if len(payload) != expected:
        raise DataFormatError(
            f"FVEC payload is {len(payload)} bytes, expected {expected}"
        )
    matrix = np.frombuffer(payload, dtype="<f4").reshape(count, f)
    try:
        return Dataset(matrix)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc


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
    try:
        return Dataset(matrix)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
