"""Native kernels for the four table strategies, the tables they walk, and
the CPython binding every native strategy is called through.

One fixed C source holds the kernels of ``compact_linked``, ``contiguous``
and the predicated pair, and a small CPython extension, ``Kernel``, in the
same translation unit.  It is compiled once per process with the compiler,
flags and build step of :mod:`treescore.codegen` (plus the interpreter's
C headers), and the loaded library is cached for the life of the process.
Like ``generated``, the four strategies need a C compiler and the Python
headers: without either, :func:`load_layout_kernels` raises
:class:`~treescore.codegen.CompilerNotFoundError`, and so does building
any of them.

This module owns every table format.  :func:`layout_kernel` packs an
ensemble into the tables of one strategy and binds its kernel to them;
:mod:`treescore.evaluators` wraps the result and knows no format.

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
    The complete tables of every tree (see
    :func:`~treescore.model.expand_to_complete`), concatenated: int32
    feature ids and float32 thresholds of the internal nodes, float32
    leaves.  Rows go in blocks of ``v`` lanes (``v = 1`` for
    ``predicated``); per tree every lane starts at index 0 and, one level
    at a time, every lane applies ``i = (i << 1) + 2 - (x[fid[i]] <
    theta[i])``.  A short last block simply has fewer lanes.

Every kernel, the entry point of a ``generated`` unit included, has the
signature ``int score(const void *model, const float *x, int64_t n,
double *out)`` and returns nonzero when it ran out of memory, having
written nothing.  ``Kernel(score, model, num_features, owner)`` binds one
to its model (both given as addresses) once per evaluator; its
``score_into(matrix, out)`` and ``score_row(x)`` check their arrays in C
through the buffer protocol (C-contiguous, native-order float32 rows of
``num_features``, a writable float64 ``out`` of one score per row; anything
else raises ``ValueError``), release the GIL around the kernel and return
the score as a Python float.  ``owner`` is kept alive with the binding and
must hold everything the model points to.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sysconfig
import tempfile
import threading
import weakref
from collections import deque
from pathlib import Path

import numpy as np

from .model import Ensemble, expand_to_complete

_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct node {
    int32_t fid;                /* -1 marks a leaf */
    float value;                /* threshold, or the leaf value */
    const struct node *left;
    const struct node *right;
} node;

/* What a kernel reads besides the rows, bound once per evaluator.
   ``table`` is per kernel (see each). */
typedef struct {
    const void *table[7];
    const double *weights;
    int64_t num_trees;
    int64_t f;                  /* features per row */
    int64_t v;                  /* lanes per block, predicated_score only */
} model;

/* table: int32 fid, float32 value, int32 left, int32 right, int32 roots

   The first kernel starts on a 64-byte boundary and the others follow it
   in source order, so every kernel keeps its offset within the 64-byte
   blocks the front end fetches and caches decoded code in, whatever the
   object holds before them (the binding, the PLT).  Those offsets move a
   kernel's speed by a few percent. */
__attribute__((aligned(64)))
int contiguous_score(const void *bound, const float *x, int64_t n, double *out)
{
    const model *m = bound;
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
    return 0;
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
int compact_score(const void *bound, const float *x, int64_t n, double *out)
{
    const model *m = bound;
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
    return 0;
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
   offsets of its internal nodes and of its leaves, and its int32 depth. */
int predicated_score(const void *bound, const float *x, int64_t n, double *out)
{
    const model *m = bound;
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

/* The CPython binding: a kernel bound to its model. */

typedef int (*score_fn)(const void *, const float *, int64_t, double *);

typedef struct {
    PyObject_HEAD
    score_fn score;
    const void *model;
    Py_ssize_t f;
    PyObject *owner;            /* holds what the model points to */
} Kernel;

/* Takes a read-only view of obj if it is a C-contiguous array of ndim
   dimensions, the last of them width long, whose items have the struct
   format code in native byte order and are itemsize bytes long (what the
   code implies, unless the exporter is broken: the kernels read that
   many).  Returns 1, holding no view, for any other array, and -1
   (exception set) if obj exports no buffer. */
static int get_view(PyObject *obj, Py_buffer *view, char code,
                    Py_ssize_t itemsize, int ndim, Py_ssize_t width)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *format = view->format;
    if (format != NULL && (*format == '@' || *format == '='
                           || *format == (PY_LITTLE_ENDIAN ? '<' : '>')))
        format++;
    if (format != NULL && format[0] == code && format[1] == '\0'
            && view->itemsize == itemsize && view->ndim == ndim
            && view->shape[ndim - 1] == width
            && PyBuffer_IsContiguous(view, 'C'))
        return 0;
    PyBuffer_Release(view);
    return 1;
}

static PyObject *kernel_score_into(Kernel *self, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    Py_buffer x, out;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "score_into() takes 2 arguments (%zd given)", nargs);
    switch (get_view(args[0], &x, 'f', 4, 2, self->f)) {
    case -1:
        return NULL;
    case 1:
        return PyErr_Format(PyExc_ValueError, "matrix must be a C-contiguous "
                            "float32 array of shape (n, %zd)", self->f);
    }
    const Py_ssize_t n = x.shape[0];
    const int bad = get_view(args[1], &out, 'd', 8, 1, n);
    if (bad || out.readonly) {
        if (!bad)
            PyBuffer_Release(&out);
        PyBuffer_Release(&x);
        if (bad < 0)
            return NULL;
        return PyErr_Format(PyExc_ValueError, "out must be a writable "
                            "C-contiguous float64 array of shape (%zd,)", n);
    }
    int status = 0;
    if (n > 0) {
        Py_BEGIN_ALLOW_THREADS
        status = self->score(self->model, x.buf, n, out.buf);
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&out);
    PyBuffer_Release(&x);
    if (status)
        return PyErr_NoMemory();
    Py_RETURN_NONE;
}

static PyObject *kernel_score_row(Kernel *self, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    Py_buffer x;
    double score;
    int status;
    if (nargs != 1)
        return PyErr_Format(PyExc_TypeError,
                            "score_row() takes 1 argument (%zd given)", nargs);
    switch (get_view(args[0], &x, 'f', 4, 1, self->f)) {
    case -1:
        return NULL;
    case 1:
        return PyErr_Format(PyExc_ValueError, "x must be a C-contiguous "
                            "float32 array of shape (%zd,)", self->f);
    }
    Py_BEGIN_ALLOW_THREADS
    status = self->score(self->model, x.buf, 1, &score);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&x);
    if (status)
        return PyErr_NoMemory();
    return PyFloat_FromDouble(score);
}

static PyObject *kernel_new(PyTypeObject *type, PyObject *args,
                            PyObject *kwargs)
{
    static char *keywords[] = {"score", "model", "num_features", "owner", NULL};
    PyObject *score, *model, *owner;
    Py_ssize_t f;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!O!nO", keywords,
                                     &PyLong_Type, &score, &PyLong_Type,
                                     &model, &f, &owner))
        return NULL;
    void *fn = PyLong_AsVoidPtr(score);
    const void *bound = PyLong_AsVoidPtr(model);
    if (PyErr_Occurred())
        return NULL;
    if (fn == NULL || f < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "need a kernel address and num_features >= 0");
        return NULL;
    }
    Kernel *self = (Kernel *) type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->score = (score_fn) fn;
    self->model = bound;
    self->f = f;
    self->owner = Py_NewRef(owner);
    return (PyObject *) self;
}

static void kernel_dealloc(Kernel *self)
{
    PyTypeObject *type = Py_TYPE(self);
    Py_DECREF(self->owner);
    type->tp_free(self);
    Py_DECREF(type);
}

static PyMethodDef kernel_methods[] = {
    {"score_into", (PyCFunction) (void (*)(void)) kernel_score_into,
     METH_FASTCALL, "score_into(matrix, out)\n--\n\n"
     "Score every row of a float32 (n, num_features) array into float64 out."},
    {"score_row", (PyCFunction) (void (*)(void)) kernel_score_row,
     METH_FASTCALL, "score_row(x)\n--\n\n"
     "The score of one float32 vector of num_features values."},
    {NULL, NULL, 0, NULL}
};

static PyType_Slot kernel_slots[] = {
    {Py_tp_new, kernel_new},
    {Py_tp_dealloc, kernel_dealloc},
    {Py_tp_methods, kernel_methods},
    {Py_tp_doc, "Kernel(score, model, num_features, owner)\n--\n\n"
                "A native kernel bound to its model."},
    {0, NULL}
};

static PyType_Spec kernel_spec = {
    "_treescore_kernels.Kernel", sizeof(Kernel), 0, Py_TPFLAGS_DEFAULT,
    kernel_slots
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT, "_treescore_kernels", NULL, -1, NULL,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__treescore_kernels(void)
{
    PyObject *module = PyModule_Create(&kernels_module);
    if (module == NULL)
        return NULL;
    PyObject *type = PyType_FromSpec(&kernel_spec);
    if (type == NULL || PyModule_AddObjectRef(module, "Kernel", type) < 0) {
        Py_XDECREF(type);
        Py_DECREF(module);
        return NULL;
    }
    Py_DECREF(type);
    return module;
}
"""

# The module name the binding's init function is named after.
_MODULE = "_treescore_kernels"


class _Model(ctypes.Structure):
    """The C ``model`` a kernel is bound to."""

    _fields_ = [("table", ctypes.c_void_p * 7), ("weights", ctypes.c_void_p),
                ("num_trees", ctypes.c_int64), ("f", ctypes.c_int64),
                ("v", ctypes.c_int64)]


# The loaded library, once built.
_LIBRARY = None
_LOCK = threading.Lock()


def _python_include(codegen) -> str:
    # The binding compiles against the interpreter's own headers.
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise codegen.CompilerNotFoundError(
            f"no Python.h in {include}: the native kernels need the "
            "interpreter's C headers (e.g. the python3-dev package)")
    return include


def _build_library(codegen) -> ctypes.CDLL:
    include = _python_include(codegen)
    # The shared object may be unlinked once loaded, so nothing outlives
    # the temporary directory but the mapping itself.
    with tempfile.TemporaryDirectory(prefix="treescore-kernels-") as tmp:
        path = codegen.compile_shared_object(_SOURCE, Path(tmp),
                                             include_dirs=(include,))
        spec = importlib.util.spec_from_file_location(_MODULE, path)
        binding = importlib.util.module_from_spec(spec)
        lib = ctypes.CDLL(str(path))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.compact_build.restype = ctypes.c_int
    lib.compact_build.argtypes = [ptr] * 4 + [i64, ptr]
    lib.compact_free.restype = None
    lib.compact_free.argtypes = [ptr, i64]
    lib.Kernel = binding.Kernel
    return lib


def load_layout_kernels() -> ctypes.CDLL:
    """The layout-kernel library, built on first use.

    Its ``Kernel`` attribute is the binding type.  Raises
    :class:`~treescore.codegen.CompilerNotFoundError` without a compiler
    or the Python headers, and :class:`~treescore.codegen.CompilationError`
    on a failed build.  Neither is remembered, so the next call tries again.
    """
    global _LIBRARY
    # Deferred: codegen imports evaluators, which imports this module.
    from . import codegen

    with _LOCK:
        if _LIBRARY is None:
            _LIBRARY = _build_library(codegen)
        return _LIBRARY


def function_address(function) -> int:
    """The address of a function loaded with ctypes."""
    return ctypes.cast(function, ctypes.c_void_p).value


def _bind(lib, score, num_features: int, tables, weights, v: int):
    """``score`` bound to a model over ``tables``, the arrays of
    ``model.table`` in order."""
    weights = np.array(weights, dtype=np.float64)
    model = _Model((ctypes.c_void_p * 7)(*(a.ctypes.data for a in tables)),
                   weights.ctypes.data, len(weights), num_features, v)
    return lib.Kernel(function_address(score), ctypes.addressof(model),
                      num_features, (model, tables, weights))


def _pack_nodes(ensemble: Ensemble, breadth_first: bool):
    """Flatten every tree into shared parallel node tables, tree after tree.

    Within a tree, nodes are numbered breadth-first, or depth-first in
    post-order (left subtree, right subtree, then the node: children
    before their parent, the order a recursive copy creates them in).
    Returns the arrays ``(fids, values, left, right, roots)``: int32
    ``fids[k]``, the feature id or -1 for a leaf; float32 ``values[k]``,
    the threshold or leaf value; int32 ``left[k]``/``right[k]``, the
    children's table indices (0 for a leaf); int32 ``roots[t]``, the index
    of tree ``t``'s root.
    """
    fids, values, left, right, roots = [], [], [], [], []
    for tree, _ in ensemble.trees:
        order = []
        pending = deque([tree.root])
        take = pending.popleft if breadth_first else pending.pop
        while pending:
            node = take()
            order.append(node)
            if not node.is_leaf:
                pending.extend((node.left, node.right))
        if not breadth_first:
            # Node, right subtree, left subtree, reversed.
            order.reverse()
        index = {id(node): len(fids) + k for k, node in enumerate(order)}
        roots.append(index[id(tree.root)])
        for node in order:
            if node.is_leaf:
                fids.append(-1)
                values.append(node.value)
                left.append(0)
                right.append(0)
            else:
                fids.append(node.fid)
                values.append(node.threshold)
                left.append(index[id(node.left)])
                right.append(index[id(node.right)])
    return (np.array(fids, dtype=np.int32), np.array(values, dtype=np.float32),
            np.array(left, dtype=np.int32), np.array(right, dtype=np.int32),
            np.array(roots, dtype=np.int32))


def _free_records(lib, nodes: np.ndarray) -> None:
    lib.compact_free(nodes.ctypes.data, nodes.shape[0])


def _compact_roots(lib, fids, values, left, right, roots) -> np.ndarray:
    """The root record of each tree, over one ``malloc``'d record per entry
    of depth-first node tables, allocated in table order.

    The records are freed when the returned array is collected.
    """
    nodes = np.zeros(fids.shape[0], dtype=np.uintp)
    if lib.compact_build(fids.ctypes.data, values.ctypes.data, left.ctypes.data,
                         right.ctypes.data, fids.shape[0], nodes.ctypes.data):
        raise MemoryError("out of memory allocating compact_linked node records")
    root_records = nodes[roots]
    weakref.finalize(root_records, _free_records, lib, nodes)
    return root_records


def _complete_tables(ensemble: Ensemble):
    """The complete tables of every tree, concatenated, and their entry count.

    Raises :class:`~treescore.model.DepthLimitError` for trees deeper than
    :data:`~treescore.model.MAX_DEPTH`.
    """
    tables = [expand_to_complete(tree) for tree, _ in ensemble.trees]
    depths = np.array([ct.depth for ct in tables], dtype=np.int32)
    arrays = (
        np.concatenate([ct.fids for ct in tables]),
        np.concatenate([ct.thetas for ct in tables]),
        np.concatenate([ct.leaf_values for ct in tables]),
        np.concatenate([[0], np.cumsum((1 << depths[:-1]) - 1)]).astype(np.int64),
        np.concatenate([[0], np.cumsum(1 << depths[:-1])]).astype(np.int64),
        depths,
    )
    return arrays, sum(ct.table_entries for ct in tables)


def layout_kernel(ensemble: Ensemble, layout: str, v: int = 1):
    """The kernel of table strategy ``layout`` bound to ``ensemble``.

    ``layout`` is ``compact_linked``, ``contiguous``, ``predicated`` or
    ``vpredicated``; ``v`` is the lanes per block of the predicated kernel.
    Returns ``(kernel, entries)``, with the number of table entries the
    kernel's model stores.  Raises what :func:`load_layout_kernels` raises,
    and :class:`~treescore.model.DepthLimitError` for a predicated layout
    over a tree deeper than :data:`~treescore.model.MAX_DEPTH`.
    """
    if layout in ("predicated", "vpredicated"):
        tables, entries = _complete_tables(ensemble)
        lib = load_layout_kernels()
        score = lib.predicated_score
    elif layout in ("compact_linked", "contiguous"):
        tables = _pack_nodes(ensemble, breadth_first=layout == "contiguous")
        entries = tables[0].shape[0]
        lib = load_layout_kernels()
        if layout == "contiguous":
            score = lib.contiguous_score
        else:
            tables = (_compact_roots(lib, *tables),)
            score = lib.compact_score
    else:
        raise ValueError(f"no table layout named {layout!r}")
    weights = [w for _, w in ensemble.trees]
    return _bind(lib, score, ensemble.num_features, tables, weights, v), entries
