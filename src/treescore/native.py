"""Native kernels for the four table strategies.

One fixed C source holds the kernels of ``compact_linked``, ``contiguous``
and the predicated pair.  It is compiled once per process with the
compiler, flags and build step of :mod:`treescore.codegen`, and the loaded
library is cached for the life of the process.  Like ``generated``, the
four strategies need a C compiler: without one :func:`load_layout_kernels`
raises :class:`~treescore.codegen.CompilerNotFoundError`, and so does
building any of them.

Each kernel scores a whole ensemble in one call.  Per row it walks every
tree in order, goes left iff ``x[fid] < threshold`` (ties, NaN and +inf
go right), and accumulates ``weight * leaf`` in double precision in tree
order: the arithmetic of :func:`treescore.model.reference_predict`, so the
scores are bit-identical to it.

contiguous
    Breadth-first parallel arrays, concatenated over the trees: int32
    feature id (-1 marks a leaf), float32 threshold or leaf value, int32
    left and right child index.  Walked by index.
compact_linked
    One individually ``malloc``'d record per node (feature id, threshold
    or leaf value, two child pointers), allocated in depth-first post-order,
    tree after tree, and chased by pointer.  The records are freed when
    the kernel object that owns them is collected.
predicated and vpredicated
    The complete tables of every tree, concatenated: int32 feature ids and
    float32 thresholds of the internal nodes, float32 leaves.  Rows go in
    blocks of ``v`` lanes (``v = 1`` for ``predicated``); per tree every
    lane starts at index 0 and, one level at a time, every lane applies
    ``i = (i << 1) + 2 - (x[fid[i]] < theta[i])``.  A short last block
    simply has fewer lanes.
"""

from __future__ import annotations

import ctypes
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

typedef struct node {
    int32_t fid;                /* -1 marks a leaf */
    float value;                /* threshold, or the leaf value */
    const struct node *left;
    const struct node *right;
} node;

/* What a kernel reads besides the rows, bound once per evaluator so that
   a call passes four arguments.  ``table`` is per kernel (see each). */
typedef struct {
    const void *table[7];
    const double *weights;
    int64_t num_trees;
    int64_t f;                  /* features per row */
    int64_t v;                  /* lanes per block, predicated_score only */
} model;

/* table: int32 fid, float32 value, int32 left, int32 right, int32 roots */
void contiguous_score(const model *m, const float *x, int64_t n, double *out)
{
    const int32_t *fid = m->table[0], *left = m->table[2],
                  *right = m->table[3], *roots = m->table[4];
    const float *value = m->table[1];
    for (int64_t i = 0; i < n; i++) {
        const float *row = x + i * m->f;
        double acc = 0.0;
        for (int64_t t = 0; t < m->num_trees; t++) {
            int32_t j = roots[t];
            while (fid[j] >= 0) {
                if (row[fid[j]] < value[j])
                    j = left[j];
                else
                    j = right[j];
            }
            acc += m->weights[t] * (double) value[j];
        }
        out[i] = acc;
    }
}

void compact_free(node **nodes, int64_t count)
{
    for (int64_t k = 0; k < count; k++)
        free(nodes[k]);
}

/* One malloc per table entry, in table order; children are linked by
   table index.  Returns -1 (with nothing left allocated) when out of
   memory. */
int compact_build(const int32_t *fid, const float *value,
                  const int32_t *left, const int32_t *right, int64_t count,
                  node **nodes)
{
    for (int64_t k = 0; k < count; k++) {
        nodes[k] = malloc(sizeof(node));
        if (nodes[k] == NULL) {
            compact_free(nodes, k);
            return -1;
        }
    }
    for (int64_t k = 0; k < count; k++) {
        nodes[k]->fid = fid[k];
        nodes[k]->value = value[k];
        nodes[k]->left = fid[k] >= 0 ? nodes[left[k]] : NULL;
        nodes[k]->right = fid[k] >= 0 ? nodes[right[k]] : NULL;
    }
    return 0;
}

/* table: the root record of each tree */
void compact_score(const model *m, const float *x, int64_t n, double *out)
{
    const node *const *roots = m->table[0];
    for (int64_t i = 0; i < n; i++) {
        const float *row = x + i * m->f;
        double acc = 0.0;
        for (int64_t t = 0; t < m->num_trees; t++) {
            const node *p = roots[t];
            while (p->fid >= 0) {
                if (row[p->fid] < p->value)
                    p = p->left;
                else
                    p = p->right;
            }
            acc += m->weights[t] * (double) p->value;
        }
        out[i] = acc;
    }
}

/* Lane scratch on the stack up to this many lanes, on the heap above. */
#define STACK_LANES 256

/* One block of b rows of predicated_score, scored into out[0..b). */
static inline __attribute__((always_inline))
void predicated_block(const model *m, const float *rows, int64_t b,
                      int64_t *index, double *out)
{
    const int32_t *fid = m->table[0], *depth = m->table[5];
    const float *theta = m->table[1], *leaf = m->table[2];
    const int64_t *nodes = m->table[3], *leaves = m->table[4];
    for (int64_t k = 0; k < b; k++)
        out[k] = 0.0;
    for (int64_t t = 0; t < m->num_trees; t++) {
        const int32_t *tree_fid = fid + nodes[t];
        const float *tree_theta = theta + nodes[t];
        const int32_t first_leaf = (1 << depth[t]) - 1;
        const double weight = m->weights[t];
        for (int64_t k = 0; k < b; k++)
            index[k] = 0;
        for (int32_t level = 0; level < depth[t]; level++)
            for (int64_t k = 0; k < b; k++) {
                const int64_t i = index[k];
                index[k] = (i << 1) + 2
                    - (rows[k * m->f + tree_fid[i]] < tree_theta[i]);
            }
        for (int64_t k = 0; k < b; k++)
            out[k] += weight * (double) leaf[leaves[t] + index[k] - first_leaf];
    }
}

/* Lockstep predication, v rows per block.  table: int32 fid and float32
   theta of the internal nodes, float32 leaves, then per tree the int64
   offsets of its internal nodes and of its leaves, and its int32 depth.
   Returns -1 (having written nothing) when out of memory. */
int predicated_score(const model *m, const float *x, int64_t n, double *out)
{
    const int64_t lanes = m->v < n ? m->v : n;
    int64_t stack_index[STACK_LANES];
    int64_t *index = stack_index;
    if (lanes > STACK_LANES && !(index = malloc(lanes * sizeof *index)))
        return -1;
    for (int64_t start = 0; start < n; start += lanes) {
        const int64_t b = n - start < lanes ? n - start : lanes;
        /* With a constant single lane its index stays in a register
           instead of making a store and a load on every level. */
        if (b == 1)
            predicated_block(m, x + start * m->f, 1, index, out + start);
        else
            predicated_block(m, x + start * m->f, b, index, out + start);
    }
    if (index != stack_index)
        free(index);
    return 0;
}
"""


class _Model(ctypes.Structure):
    """The C ``model`` a kernel is bound to."""

    _fields_ = [("table", ctypes.c_void_p * 7), ("weights", ctypes.c_void_p),
                ("num_trees", ctypes.c_int64), ("f", ctypes.c_int64),
                ("v", ctypes.c_int64)]


# The loaded library, once built.
_LIBRARY = None
_LOCK = threading.Lock()


def _build_library(codegen) -> ctypes.CDLL:
    # The shared object may be unlinked once loaded, so nothing outlives
    # the temporary directory but the mapping itself.
    with tempfile.TemporaryDirectory(prefix="treescore-kernels-") as tmp:
        lib = ctypes.CDLL(str(codegen.compile_shared_object(_SOURCE, Path(tmp))))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    score = [ptr, ptr, i64, ptr]
    signatures = {
        "contiguous_score": (None, score),
        "compact_build": (ctypes.c_int, [ptr] * 4 + [i64, ptr]),
        "compact_free": (None, [ptr, i64]),
        "compact_score": (None, score),
        "predicated_score": (ctypes.c_int, score),
    }
    for name, (restype, argtypes) in signatures.items():
        entry = getattr(lib, name)
        entry.restype = restype
        entry.argtypes = argtypes
    return lib


def load_layout_kernels() -> ctypes.CDLL:
    """The layout-kernel library, built on first use.

    Raises :class:`~treescore.codegen.CompilerNotFoundError` without a
    compiler and :class:`~treescore.codegen.CompilationError` on a failed
    build.  Neither is remembered, so the next call tries again.
    """
    global _LIBRARY
    # Deferred: codegen imports evaluators, which imports this module.
    from . import codegen

    with _LOCK:
        if _LIBRARY is None:
            _LIBRARY = _build_library(codegen)
        return _LIBRARY


def address(array: np.ndarray) -> int:
    """The address of the first byte of a non-empty C-contiguous array.

    ``c_char.from_buffer`` costs a fraction of ``array.ctypes.data`` but
    needs a writable buffer; read-only arrays take the slower path.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except TypeError:
        return array.ctypes.data


class LayoutKernel:
    """A native whole-ensemble scorer bound to its tables.

    ``score(model, x, n, out)`` is one of the library's ``*_score``
    functions; a nonzero return means it ran out of memory and wrote
    nothing.  ``tables`` are the arrays of ``model.table``, in order.
    """

    def __init__(self, score, num_features: int, tables, weights, v: int = 1):
        self.num_features = num_features
        self._score = score
        weights = np.array(weights, dtype=np.float64)
        self._buffers = (*tables, weights)  # every array the model points to
        model = _Model((ctypes.c_void_p * 7)(*(a.ctypes.data for a in tables)),
                       weights.ctypes.data, len(weights), num_features, v)
        self._model = ctypes.byref(model)  # holds ``model``

    def score_into(self, matrix: np.ndarray, out: np.ndarray) -> None:
        """Score every row of ``matrix`` into ``out``."""
        if (matrix.dtype != np.float32 or not matrix.flags.c_contiguous
                or matrix.ndim != 2 or matrix.shape[1] != self.num_features):
            raise ValueError("matrix must be a C-contiguous float32 array of "
                             f"shape (n, {self.num_features})")
        n = matrix.shape[0]
        if (out.dtype != np.float64 or not out.flags.c_contiguous
                or out.shape != (n,)):
            raise ValueError("out must be a C-contiguous float64 array of "
                             f"shape ({n},)")
        if n and self._score(self._model, address(matrix), n, address(out)):
            raise MemoryError("out of memory scoring a batch")

    def score_row(self, x: np.ndarray) -> float:
        """Score one C-contiguous float32 vector of ``num_features`` values.

        The caller checks the vector (``Evaluator._coerce_vector`` does).
        """
        score = ctypes.c_double()
        if self._score(self._model, address(x), 1, ctypes.byref(score)):
            raise MemoryError("out of memory scoring a row")
        return score.value


def _node_arrays(tables):
    fids, slots, left, right, _ = tables
    return (np.array(fids, dtype=np.int32), np.array(slots, dtype=np.float32),
            np.array(left, dtype=np.int32), np.array(right, dtype=np.int32))


def contiguous_kernel(lib, num_features: int, tables, weights) -> LayoutKernel:
    """Native scorer over breadth-first node tables (see ``_pack_nodes``)."""
    arrays = (*_node_arrays(tables), np.array(tables[4], dtype=np.int32))
    return LayoutKernel(lib.contiguous_score, num_features, arrays, weights)


def _free_records(lib, nodes: np.ndarray) -> None:
    lib.compact_free(nodes.ctypes.data, nodes.shape[0])


def compact_kernel(lib, num_features: int, tables, weights) -> LayoutKernel:
    """Native scorer over per-node ``malloc``'d records.

    ``tables`` are depth-first node tables (see ``_pack_nodes``); one
    record is allocated per entry, in table order.
    """
    fids, slots, left, right = _node_arrays(tables)
    nodes = np.zeros(fids.shape[0], dtype=np.uintp)
    if lib.compact_build(fids.ctypes.data, slots.ctypes.data, left.ctypes.data,
                         right.ctypes.data, fids.shape[0], nodes.ctypes.data):
        raise MemoryError("out of memory allocating compact_linked node records")
    kernel = LayoutKernel(lib.compact_score, num_features,
                          (nodes[tables[4]],), weights)
    weakref.finalize(kernel, _free_records, lib, nodes)
    return kernel


def predicated_kernel(lib, num_features: int, tables, weights,
                      v: int) -> LayoutKernel:
    """Native lockstep scorer over ``CompleteTree`` tables, ``v`` rows at a time."""
    depths = np.array([ct.depth for ct in tables], dtype=np.int32)
    arrays = (
        np.concatenate([ct.fids for ct in tables]),
        np.concatenate([ct.thetas for ct in tables]),
        np.concatenate([ct.leaf_values for ct in tables]),
        np.concatenate([[0], np.cumsum((1 << depths[:-1]) - 1)]).astype(np.int64),
        np.concatenate([[0], np.cumsum(1 << depths[:-1])]).astype(np.int64),
        depths,
    )
    return LayoutKernel(lib.predicated_score, num_features, arrays, weights, v)
