"""Native kernels for the five in-process strategies, the tables they walk,
and the CPython binding every native strategy is called through.

One fixed C source holds the kernels of ``heap_linked``,
``compact_linked``, ``contiguous`` and the predicated pair, and a small
CPython extension, ``Kernel``, in the same translation unit.  It is built
once per process with the compiler, flags and build step of
:mod:`treescore.codegen` (plus the interpreter's C headers), and the
loaded library is cached for the life of the process.
That build step keeps the object in the per-user compile cache of
:func:`~treescore.codegen.compile_shared_object`, so only the first
process on a machine (per compiler and interpreter) runs the compiler;
the others copy the object, and :func:`library_cache_hit` says which
happened.
Like ``generated``, the five strategies need a C compiler and the Python
headers: without either, :func:`load_layout_kernels` raises
:class:`~treescore.codegen.CompilerNotFoundError`, and so does building
any of them.  No strategy scores without them; only
:func:`~treescore.model.reference_predict` does.

The model numbers the nodes, in :attr:`~treescore.model.Ensemble.node_table`,
and this module owns only the layouts' formats: :func:`layout_kernel`
packs that table into the tables of one strategy and binds its kernel to
them; :mod:`treescore.evaluators` wraps the result and knows no format.

Each kernel scores a whole ensemble in one call.  Per row it walks every
tree in order, goes left iff ``x[fid] < threshold`` (ties, NaN and +inf
go right), and accumulates ``weight * leaf`` in double precision in tree
order: the arithmetic of :func:`treescore.model.reference_predict`, so the
scores are bit-identical to it.

heap_linked
    The naive object graph: one individually ``malloc``'d object per node,
    of one of two types (an internal object holds its type pointer, feature
    id, threshold and two child pointers, a leaf its type pointer and
    value), allocated in breadth-first order, tree after tree.  The walk
    calls through every object's type for what it is and where to go next,
    as virtual methods would, and loops, so depth has no limit.
contiguous
    One array of 16-byte entries in breadth-first order, concatenated
    over the trees: int32 feature id (-1 marks a leaf), float32 threshold
    or leaf value, and the uint32 byte offsets of the left and right
    child in the array.  Walked by offset.
compact_linked
    One individually ``malloc``'d record per node (feature id, threshold
    or leaf value, two child pointers), allocated in breadth-first order,
    tree after tree, and chased by pointer.
predicated and vpredicated
    One array of 16-byte entries in breadth-first order, concatenated
    over the trees, so a node's right child follows its left one: int32
    feature id, float32 threshold, the int32 table index of the left child
    and the float32 leaf value.  A leaf has feature id 0, threshold NaN and
    left child its own index - 1, so it loops to itself.  Rows go in
    blocks of ``v`` lanes (``v = 1`` for ``predicated``); per tree every
    lane starts at the root and, ``depth`` times, applies
    ``i = left[i] + 1 - (x[fid[i]] < theta[i])``, then adds its leaf.
    A block steps at most 256 lanes at once, whose offsets live on the
    stack: a larger ``v`` steps each block 256 rows at a time, and as each
    row still adds its trees in order, its score is the same.
    A ``vpredicated`` block of more than one lane first prefetches the
    entries of the next tree, which follow the tree's own, so a call on
    tables that other work has evicted does not wait on each tree's
    refill in turn.  One-lane blocks, and so all of ``predicated``, do
    not: on tables that stay cached the prefetches are only more work,
    and they slowed one-row requests.
    ``vpredicated`` scores each row of a short block (all of a call of
    fewer than ``v`` rows, else the last ``n mod v``) on its own, with
    lanes over its trees instead: 8 trees at a time step as deep as the
    deepest of them, and their leaves are added in tree order.  An
    ensemble of fewer than 8 trees gives a short block fewer row lanes.

The objects of both linked layouts come from one C builder,
``linked_build``: one ``malloc`` per entry of the ensemble's node table,
in table order, each of the layout's size for it.  It returns their bytes,
and ``linked_free`` frees them when the kernel object that owns them is
collected.

The dtype of every array a kernel reads is fixed per layout
(:data:`TABLE_DTYPES`, the ``table:`` comments of the C source), and
binding a kernel to an array of any other dtype raises ``TypeError``.

Every kernel, the entry point of a ``generated`` unit included, has the
signature ``int score(const void *model, const float *x, int64_t n,
double *out)``.  No kernel allocates or can fail: each returns 0, and the
binding does not read it.  The ``int`` stays because the entry point of
a ``generated`` unit is emitted with it, and a unit whose text changed
would miss the compile cache: the 300-tree unit of the ``ensemble_f136``
benchmark took 4.4 to 5.5 s to compile cold against 3 ms to copy from the
cache (2-vCPU Xeon, gcc 12.2), a cost every first set-up would pay.
``Kernel(score, model, num_features, owner)`` binds one
to its model (both given as addresses) once per evaluator.  ``owner`` is
kept alive with the binding and must hold everything the model points to.
The binding has two methods, ``predict(x)`` and ``predict_batch(data)``,
which are the public calls of every native evaluator.  Each checks its
input in C through the buffer protocol and releases the GIL around the
kernel: a C-contiguous, native-order float32 row (or matrix of rows) of
``num_features`` is scored as it is, and ``predict_batch`` allocates its
float64 scores by calling ``numpy.empty``.  Any other input goes through
:func:`as_rows`, which converts it or raises, so every input gives the
same scores, or the same error, on every strategy.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sysconfig
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from .data import Dataset
from .model import Ensemble

_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct node {
    int32_t fid;                /* -1 marks a leaf */
    float value;                /* threshold, or the leaf value */
    const struct node *left;
    const struct node *right;
} node;

/* What a kernel reads besides the rows, bound once per evaluator.
   ``table`` is per kernel (see each). */
typedef struct {
    const void *table[3];
    const double *weights;
    int64_t num_trees;
    int64_t f;                  /* features per row */
    int64_t v;                  /* rows per block, vpredicated only */
} model;

/* A contiguous entry: a node and its children's byte offsets in the
   table. */
typedef struct {
    int32_t fid;                /* -1 marks a leaf */
    float value;                /* threshold, or the leaf value */
    uint32_t left, right;
} entry;

/* The left and right offsets of the 8 bytes that hold both. */
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define LEFT_OF(w) ((w) >> 32)
#define RIGHT_OF(w) ((uint32_t) (w))
#else
#define LEFT_OF(w) ((uint32_t) (w))
#define RIGHT_OF(w) ((w) >> 32)
#endif

/* Reads field of the entry at byte offset o of nodes into var. */
#define READ(var, o, field) \
    memcpy(&(var), nodes + (o) + offsetof(entry, field), sizeof (var))

/* Every exported kernel starts on a 64-byte boundary.  The front end
   fetches and caches decoded code in 64-byte blocks, and a kernel's
   offset within them moves its speed by a few percent, so each keeps
   offset 0 whatever code, exports or imports come before it. */
#define KERNEL __attribute__((aligned(64)))

/* table: entry nodes, uint32 roots (byte offsets)

   The walk keeps the byte offset of its entry, which each read adds to
   the table in its address, and it reads both children in one load
   before the branch, so a mispredicted branch costs no load before the
   next entry is read. */
KERNEL
int contiguous_score(const void *bound, const float *x, int64_t n, double *out)
{
    const model *m = bound;
    const char *nodes = m->table[0];
    const uint32_t *roots = m->table[1];
    for (int64_t i = 0; i < n; i++) {
        const float *row = x + i * m->f;
        double acc = 0.0;
        for (int64_t t = 0; t < m->num_trees; t++) {
            uint64_t o = roots[t], children;
            int32_t fid;
            float value;
            for (;;) {
                READ(fid, o, fid);
                READ(value, o, value);
                if (fid < 0)
                    break;
                READ(children, o, left);
                if (row[fid] < value)
                    o = LEFT_OF(children);
                else
                    o = RIGHT_OF(children);
            }
            acc += m->weights[t] * (double) value;
        }
        out[i] = acc;
    }
    return 0;
}

/* table: the root record of each tree */
KERNEL
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

/* A predicated entry: a node in breadth-first order, so its right child
   follows its left one.  A leaf has fid 0, theta NaN and left its own
   index - 1, so the update below keeps a lane on it. */
typedef struct {
    int32_t fid;
    float theta;
    int32_t left;               /* table index of the left child */
    float value;                /* the leaf value, 0 in a split */
} pentry;

/* The most lanes a lockstep block steps at once, whose offsets are kept
   on the stack.  A larger v scores each of its blocks MAX_LANES rows at a
   time: every row still adds its trees in order, so its score does not
   change. */
#define MAX_LANES 256

/* The byte offset a lane steps to from the entry at offset in nodes: its
   left child's if row[fid] < theta, else its right child's. */
static inline __attribute__((always_inline))
int64_t lane_step(const char *nodes, int64_t offset, const float *row)
{
    const pentry *e = (const pentry *) (nodes + offset);
    return ((int64_t) e->left + 1 - (row[e->fid] < e->theta))
           * (int64_t) sizeof(pentry);
}

/* Prefetches every 64-byte line that holds a byte of [first, end). */
static inline __attribute__((always_inline))
void prefetch_lines(const char *first, const char *end)
{
    for (uintptr_t line = (uintptr_t) first & ~(uintptr_t) 63;
         line < (uintptr_t) end; line += 64)
        __builtin_prefetch((const void *) line);
}

/* One block of b rows of predicated_score, scored into out[0..b).  A
   lane holds its entry's byte offset, the index times 16: holding the
   index instead put two more instructions between each compare and the
   next load, which made one lane about 12% slower on a complete
   depth-11 tree.

   With prefetch set, a block of more than one lane prefetches every line
   of tree t + 1's entries, which run from its root to tree t + 2's,
   before it walks tree t, so that a call on tables that other work has
   evicted does not wait on each tree's refill in turn.  The last tree,
   whose end no root marks, is not prefetched.  One tree ahead is enough:
   b lanes take longer to walk a tree than the next one's entries take to
   arrive, and two trees ahead scored no faster.  A one-lane block never
   prefetches (b is the constant 1 there, so the test folds away): on
   tables that stay cached the prefetches are only more work, and they
   made the one-row requests of a 48-tree ensemble about a tenth
   slower. */
static inline __attribute__((always_inline))
void predicated_block(const model *m, const float *rows, int64_t b,
                      int64_t *offset, double *out, int prefetch)
{
    const char *nodes = m->table[0];
    const int32_t *roots = m->table[1], *depth = m->table[2];
    for (int64_t k = 0; k < b; k++)
        out[k] = 0.0;
    for (int64_t t = 0; t < m->num_trees; t++) {
        const double weight = m->weights[t];
        if (prefetch && b > 1 && t + 2 < m->num_trees)
            prefetch_lines(nodes + (int64_t) roots[t + 1] * sizeof(pentry),
                           nodes + (int64_t) roots[t + 2] * sizeof(pentry));
        for (int64_t k = 0; k < b; k++)
            offset[k] = (int64_t) roots[t] * (int64_t) sizeof(pentry);
        for (int32_t level = 0; level < depth[t]; level++)
            for (int64_t k = 0; k < b; k++)
                offset[k] = lane_step(nodes, offset[k], rows + k * m->f);
        for (int64_t k = 0; k < b; k++)
            out[k] += weight
                * (double) ((const pentry *) (nodes + offset[k]))->value;
    }
}

/* Lockstep predication, v rows per block, or MAX_LANES when v is larger:
   per tree every lane starts at the root and takes the tree's depth in
   steps, a lane on a leaf staying there.  v and prefetch are constants in
   predicated_score, 1 and 0, so its only instance is the one-lane block
   without prefetches (with one body for both kernels, its registers moved
   and it read 4% slower on one deep tree); vpredicated_score passes the
   model's v and 1.  table: pentry nodes, then per tree the int32 index of
   its root and its int32 depth. */
static inline __attribute__((always_inline))
void predicated_blocks(const model *m, const float *x, int64_t n,
                       double *out, int64_t v, int prefetch)
{
    if (v > MAX_LANES)
        v = MAX_LANES;
    const int64_t lanes = v < n ? v : n;
    int64_t offset[MAX_LANES];
    for (int64_t start = 0; start < n; start += lanes) {
        const int64_t b = n - start < lanes ? n - start : lanes;
        /* With a constant single lane its offset stays in a register
           instead of making a store and a load on every level. */
        if (b == 1)
            predicated_block(m, x + start * m->f, 1, offset, out + start,
                             prefetch);
        else
            predicated_block(m, x + start * m->f, b, offset, out + start,
                             prefetch);
    }
}

KERNEL
int predicated_score(const void *bound, const float *x, int64_t n, double *out)
{
    predicated_blocks(bound, x, n, out, 1, 0);
    return 0;
}

/* heap_linked, the naive object graph.  Each node is an object of one of
   two types, and the walk asks every object what it is and where to go
   next through the function table its type pointer names, as a class
   hierarchy with virtual is_leaf(), child() and value() would: two
   indirect calls per level and two at the leaf.  That is how naive
   object-oriented code walks a tree, so it is the shape kept, not the
   one with the fewest calls. */

typedef struct object {
    const struct object_type *type;
} object;

typedef struct object_type {
    int (*is_leaf)(const object *self);
    const object *(*child)(const object *self, const float *row);
    float (*value)(const object *self);
} object_type;

typedef struct {
    object base;
    int32_t fid;
    float threshold;
    const object *left;
    const object *right;
} internal_object;

typedef struct {
    object base;
    float value;
} leaf_object;

static int internal_is_leaf(const object *self)
{
    (void) self;
    return 0;
}

static const object *internal_child(const object *self, const float *row)
{
    const internal_object *o = (const internal_object *) self;
    if (row[o->fid] < o->threshold)
        return o->left;
    return o->right;
}

static int leaf_is_leaf(const object *self)
{
    (void) self;
    return 1;
}

static float leaf_value(const object *self)
{
    return ((const leaf_object *) self)->value;
}

static const object_type internal_type = {internal_is_leaf, internal_child, NULL};
static const object_type leaf_type = {leaf_is_leaf, NULL, leaf_value};

void linked_free(void **nodes, int64_t count)
{
    for (int64_t k = 0; k < count; k++)
        free(nodes[k]);
}

/* The objects of a linked layout: one malloc per table entry, in table
   order, of a compact_linked record (heap 0) or of a heap_linked object
   of its own type's size.  A split's children are linked by the table
   index of the left one, which the right one follows.  Returns
   the bytes of the objects, or -1 (with nothing left allocated) when out
   of memory. */
int64_t linked_build(int heap, const int32_t *fid, const float *value,
                     const int32_t *left, int64_t count, void **nodes)
{
    int64_t bytes = 0;
    for (int64_t k = 0; k < count; k++) {
        const size_t size = !heap ? sizeof(node)
                            : fid[k] >= 0 ? sizeof(internal_object)
                                          : sizeof(leaf_object);
        nodes[k] = malloc(size);
        if (nodes[k] == NULL) {
            linked_free(nodes, k);
            return -1;
        }
        bytes += size;
    }
    for (int64_t k = 0; k < count; k++) {
        if (!heap) {
            node *o = nodes[k];
            o->fid = fid[k];
            o->value = value[k];
            o->left = fid[k] >= 0 ? nodes[left[k]] : NULL;
            o->right = fid[k] >= 0 ? nodes[left[k] + 1] : NULL;
        } else if (fid[k] >= 0) {
            internal_object *o = nodes[k];
            o->base.type = &internal_type;
            o->fid = fid[k];
            o->threshold = value[k];
            o->left = nodes[left[k]];
            o->right = nodes[left[k] + 1];
        } else {
            leaf_object *o = nodes[k];
            o->base.type = &leaf_type;
            o->value = value[k];
        }
    }
    return bytes;
}

/* table: the root object of each tree */
KERNEL
int heap_score(const void *bound, const float *x, int64_t n, double *out)
{
    const model *m = bound;
    const object *const *roots = m->table[0];
    for (int64_t i = 0; i < n; i++) {
        const float *row = x + i * m->f;
        double acc = 0.0;
        for (int64_t t = 0; t < m->num_trees; t++) {
            const object *p = roots[t];
            while (!p->type->is_leaf(p))
                p = p->type->child(p, row);
            acc += m->weights[t] * (double) p->type->value(p);
        }
        out[i] = acc;
    }
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
   format code 'f' in native byte order and are 4 bytes long (what 'f'
   implies, unless the exporter is broken: the kernels read that many).
   Returns 1, holding no view, for any other array, and -1 (exception set)
   if obj exports no buffer. */
static int get_view(PyObject *obj, Py_buffer *view, int ndim,
                    Py_ssize_t width)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    const char *format = view->format;
    if (format != NULL && (*format == '@' || *format == '='
                           || *format == (PY_LITTLE_ENDIAN ? '<' : '>')))
        format++;
    if (format != NULL && format[0] == 'f' && format[1] == '\0'
            && view->itemsize == 4 && view->ndim == ndim
            && view->shape[ndim - 1] == width
            && PyBuffer_IsContiguous(view, 'C'))
        return 0;
    PyBuffer_Release(view);
    return 1;
}

/* Scores the n rows of view x into out with the GIL released, then
   releases x.  A kernel cannot fail, so its return value is not read. */
static void score_view(Kernel *self, Py_buffer *x, Py_ssize_t n, double *out)
{
    if (n > 0) {
        Py_BEGIN_ALLOW_THREADS
        self->score(self->model, x->buf, n, out);
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(x);
}

/* The Python helper that coerces and checks any input the fast path of
   predict and predict_batch does not take, and numpy.empty, which
   allocates the scores of predict_batch.  Set once by setup(). */
static PyObject *as_rows, *empty;

/* Takes a view of obj as the rows a kernel reads: one row (ndim 1) or a
   matrix of rows (ndim 2) of C-contiguous native-order float32.  An input
   that is not such an array already goes through as_rows(obj, f, ndim),
   which converts it or raises.  Returns 0 holding the view, or -1 with an
   exception set. */
static int rows_view(Kernel *self, PyObject *obj, int ndim, Py_buffer *view)
{
    int status = get_view(obj, view, ndim, self->f);
    if (status == 0)
        return 0;
    if (status < 0)
        PyErr_Clear();          /* as_rows says what is wrong with obj */
    PyObject *rows = PyObject_CallFunction(as_rows, "Oni", obj, self->f, ndim);
    if (rows == NULL)
        return -1;
    status = get_view(rows, view, ndim, self->f);
    Py_DECREF(rows);            /* a view holds its exporter */
    if (status > 0)
        PyErr_SetString(PyExc_ValueError, "as_rows() returned an array "
                        "that is not C-contiguous float32 rows");
    return status ? -1 : 0;
}

static PyObject *kernel_predict(Kernel *self, PyObject *const *args,
                                Py_ssize_t nargs)
{
    Py_buffer x;
    double score;
    if (nargs != 1)
        return PyErr_Format(PyExc_TypeError,
                            "predict() takes 1 argument (%zd given)", nargs);
    if (rows_view(self, args[0], 1, &x) < 0)
        return NULL;
    score_view(self, &x, 1, &score);
    return PyFloat_FromDouble(score);
}

static PyObject *kernel_predict_batch(Kernel *self, PyObject *const *args,
                                      Py_ssize_t nargs)
{
    Py_buffer x, out;
    if (nargs != 1)
        return PyErr_Format(PyExc_TypeError,
                            "predict_batch() takes 1 argument (%zd given)", nargs);
    if (rows_view(self, args[0], 2, &x) < 0)
        return NULL;
    const Py_ssize_t n = x.shape[0];
    PyObject *count = PyLong_FromSsize_t(n);
    PyObject *scores = count ? PyObject_CallOneArg(empty, count) : NULL;
    Py_XDECREF(count);
    if (scores == NULL || PyObject_GetBuffer(scores, &out, PyBUF_WRITABLE) < 0) {
        Py_XDECREF(scores);
        PyBuffer_Release(&x);
        return NULL;
    }
    score_view(self, &x, n, out.buf);
    PyBuffer_Release(&out);
    return scores;
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
    if (as_rows == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "setup() has not been called");
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
    {"predict", (PyCFunction) (void (*)(void)) kernel_predict,
     METH_FASTCALL, "predict(x)\n--\n\n"
     "The score of one feature vector, as Evaluator.predict."},
    {"predict_batch", (PyCFunction) (void (*)(void)) kernel_predict_batch,
     METH_FASTCALL, "predict_batch(data)\n--\n\n"
     "A float64 array of the score of every row, as Evaluator.predict_batch."},
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

static PyObject *module_setup(PyObject *module, PyObject *const *args,
                              Py_ssize_t nargs)
{
    (void) module;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "setup() takes 2 arguments (%zd given)", nargs);
    Py_XSETREF(as_rows, Py_NewRef(args[0]));
    Py_XSETREF(empty, Py_NewRef(args[1]));
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"setup", (PyCFunction) (void (*)(void)) module_setup, METH_FASTCALL,
     "setup(as_rows, empty)\n--\n\n"
     "The input coercion and the output allocator of predict and "
     "predict_batch."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT, "_treescore_kernels", NULL, -1, module_methods,
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

/* vpredicated: every full block of v rows goes to the lockstep blocks of
   predicated_score, with the next-tree prefetch, and each row of a short
   block (the whole call when n < v, else the last n mod v rows) is
   scored on its own, ROW_LANES of its trees at a time.
   A group steps as many levels as its deepest tree, a lane on a leaf
   staying there, and then adds its leaves in tree order, so the score is
   bit-identical.  Eight lanes' offsets fit in x86-64's general registers
   beside the pointers the loop needs.  An ensemble of fewer trees keeps
   a short block of fewer lanes.  table: that of predicated_score. */
#define ROW_LANES 8

static double row_lanes_score(const model *m, const float *row)
{
    const char *nodes = m->table[0];
    const int32_t *roots = m->table[1], *depth = m->table[2];
    const int64_t trees = m->num_trees;
    double acc = 0.0;
    for (int64_t t = 0; t < trees; t += ROW_LANES) {
        /* The last group ends at the last tree and adds only the trees no
           group before it added. */
        const int64_t s = t + ROW_LANES <= trees ? t : trees - ROW_LANES;
        int64_t offset[ROW_LANES];
        int32_t levels = 0;
#pragma GCC unroll 8
        for (int k = 0; k < ROW_LANES; k++) {
            offset[k] = (int64_t) roots[s + k] * (int64_t) sizeof(pentry);
            levels = depth[s + k] > levels ? depth[s + k] : levels;
        }
        for (int32_t level = 0; level < levels; level++)
#pragma GCC unroll 8
            for (int k = 0; k < ROW_LANES; k++)
                offset[k] = lane_step(nodes, offset[k], row);
#pragma GCC unroll 8
        for (int k = 0; k < ROW_LANES; k++)
            if (s + k >= t)
                acc += m->weights[s + k]
                    * (double) ((const pentry *) (nodes + offset[k]))->value;
    }
    return acc;
}

KERNEL
int vpredicated_score(const void *bound, const float *x, int64_t n, double *out)
{
    const model *m = bound;
    /* n mod v, without a division when n < v, the common online case */
    const int64_t rest = m->num_trees < ROW_LANES ? 0
                         : n < m->v ? n : n % m->v;
    if (n > rest)
        predicated_blocks(m, x, n - rest, out, m->v, 1);
    for (int64_t i = n - rest; i < n; i++)
        out[i] = row_lanes_score(m, x + i * m->f);
    return 0;
}
"""

# The module name the binding's init function is named after.
_MODULE = "_treescore_kernels"


def as_rows(data, num_features: int, ndim: int) -> np.ndarray:
    """``data`` as the C-contiguous float32 array a kernel reads.

    ``ndim`` 1 asks for one row of ``num_features`` values, ``ndim`` 2 for
    a matrix of such rows (a :class:`~treescore.data.Dataset` gives its
    matrix).  Raises ``ValueError`` for any other shape, and what numpy
    raises for what it cannot convert.  The binding calls it for any input
    it cannot score as it is.
    """
    if ndim == 1:
        x = np.ascontiguousarray(data, dtype=np.float32)
        if x.ndim != 1 or x.shape[0] != num_features:
            raise ValueError(
                f"feature vector has shape {x.shape}, expected ({num_features},)")
        return x
    matrix = data.matrix if isinstance(data, Dataset) else (
        np.ascontiguousarray(data, dtype=np.float32))
    if matrix.ndim != 2 or matrix.shape[1] != num_features:
        raise ValueError(
            f"dataset has shape {matrix.shape}, expected (n, {num_features})")
    return matrix


class _Model(ctypes.Structure):
    """The C ``model`` a kernel is bound to."""

    _fields_ = [("table", ctypes.c_void_p * 3), ("weights", ctypes.c_void_p),
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
        path, cache_hit = codegen.compile_shared_object(
            _SOURCE, Path(tmp), include_dirs=(include,))
        spec = importlib.util.spec_from_file_location(_MODULE, path)
        binding = importlib.util.module_from_spec(spec)
        lib = ctypes.CDLL(str(path))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.linked_build.restype = i64
    lib.linked_build.argtypes = [ctypes.c_int] + [ptr] * 3 + [i64, ptr]
    lib.linked_free.restype = None
    lib.linked_free.argtypes = [ptr, i64]
    binding.setup(as_rows, np.empty)
    lib.Kernel = binding.Kernel
    lib.cache_hit = cache_hit
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


def library_cache_hit() -> bool | None:
    """Whether this process's layout-kernel library was copied from the
    compile cache rather than compiled; ``None`` until it is built."""
    lib = _LIBRARY
    return None if lib is None else lib.cache_hit


def function_address(function) -> int:
    """The address of a function loaded with ctypes."""
    return ctypes.cast(function, ctypes.c_void_p).value


# An ``entry`` of the ``contiguous`` table, and the most bytes its uint32
# offsets can span.
CONTIGUOUS_TABLE_LIMIT = 1 << 32
CONTIGUOUS_ENTRY = np.dtype([("fid", np.int32), ("value", np.float32),
                             ("left", np.uint32), ("right", np.uint32)])

# A ``pentry`` of the predicated table, and the most entries its int32
# indices can reach.
PREDICATED_TABLE_LIMIT = 1 << 31
PREDICATED_ENTRY = np.dtype([("fid", np.int32), ("theta", np.float32),
                             ("left", np.int32), ("value", np.float32)])

# The dtypes of the arrays of ``model.table``, in order, per layout: the
# ``table:`` comments of ``_SOURCE``.
TABLE_DTYPES = {
    "contiguous": (CONTIGUOUS_ENTRY, np.dtype(np.uint32)),
    "heap_linked": (np.dtype(np.uintp),),
    "compact_linked": (np.dtype(np.uintp),),
    "predicated": (PREDICATED_ENTRY, np.dtype(np.int32), np.dtype(np.int32)),
}
TABLE_DTYPES["vpredicated"] = TABLE_DTYPES["predicated"]


def _bind(lib, layout: str, score, num_features: int, tables,
          weights: np.ndarray, v: int):
    """``score`` bound to a model over ``tables``, the arrays of
    ``model.table`` in order, and float64 ``weights``.

    Raises ``TypeError`` unless the arrays have the dtypes
    :data:`TABLE_DTYPES` gives ``layout``, which are what the kernel reads.
    """
    dtypes = tuple(a.dtype for a in tables)
    if dtypes != TABLE_DTYPES[layout]:
        raise TypeError(f"{layout} tables have dtypes {list(map(str, dtypes))}"
                        ", the kernel reads "
                        f"{list(map(str, TABLE_DTYPES[layout]))}")
    model = _Model(tuple(a.ctypes.data for a in tables), weights.ctypes.data,
                   len(weights), num_features, v)
    return lib.Kernel(function_address(score), ctypes.addressof(model),
                      num_features, (model, tables, weights))


def _contiguous_entries(fids, values, left, roots):
    """Breadth-first node tables as one array of ``contiguous`` entries,
    and the byte offsets of the roots.

    Raises ``ValueError`` for tables of more than
    :data:`CONTIGUOUS_TABLE_LIMIT` bytes.
    """
    size = CONTIGUOUS_ENTRY.itemsize
    if fids.shape[0] * size > CONTIGUOUS_TABLE_LIMIT:
        raise ValueError(f"{fids.shape[0]} nodes exceed the "
                         f"{CONTIGUOUS_TABLE_LIMIT}-byte contiguous table")
    nodes = np.empty(fids.shape[0], dtype=CONTIGUOUS_ENTRY)
    nodes["fid"] = fids
    nodes["value"] = values
    nodes["left"] = left.astype(np.uint32) * np.uint32(size)
    # The right child follows the left one; a leaf's offsets stay 0.
    nodes["right"] = np.where(fids < 0, 0, nodes["left"] + np.uint32(size))
    return nodes, roots.astype(np.uint32) * np.uint32(size)


def _free_records(lib, nodes: np.ndarray) -> None:
    lib.linked_free(nodes.ctypes.data, nodes.shape[0])


def _linked_roots(lib, layout: str, fids, values, left, roots):
    """The root object of each tree of linked ``layout``, and the bytes of
    all its objects.

    One object is ``malloc``'d per entry of breadth-first node tables, in
    table order: a ``compact_linked`` record of ``sizeof(node)``, or a
    ``heap_linked`` object of its own type's size.  The objects are freed
    when the returned array is collected.
    """
    count = fids.shape[0]
    nodes = np.zeros(count, dtype=np.uintp)
    size = lib.linked_build(layout == "heap_linked", fids.ctypes.data,
                            values.ctypes.data, left.ctypes.data, count,
                            nodes.ctypes.data)
    if size < 0:
        raise MemoryError(f"out of memory allocating {layout} node objects")
    root_objects = nodes[roots]
    weakref.finalize(root_objects, _free_records, lib, nodes)
    return root_objects, size


def _predicated_entries(fids, values, left, roots):
    """Breadth-first node tables as one array of predicated entries, in
    which every leaf loops to itself, and the root indices.

    Raises ``ValueError`` for tables of more than
    :data:`PREDICATED_TABLE_LIMIT` entries.
    """
    count = fids.shape[0]
    if count > PREDICATED_TABLE_LIMIT:
        raise ValueError(f"{count} nodes exceed the "
                         f"{PREDICATED_TABLE_LIMIT}-entry predicated table")
    leaf = fids < 0
    nodes = np.empty(count, dtype=PREDICATED_ENTRY)
    nodes["fid"] = np.where(leaf, 0, fids)
    nodes["theta"] = np.where(leaf, np.float32(np.nan), values)
    nodes["left"] = np.where(leaf, np.arange(-1, count - 1, dtype=np.int32),
                             left)
    nodes["value"] = np.where(leaf, values, np.float32(0))
    return nodes, roots


def layout_kernel(ensemble: Ensemble, layout: str, v: int = 1):
    """The kernel of in-process strategy ``layout`` bound to ``ensemble``.

    ``layout`` is ``heap_linked``, ``compact_linked``, ``contiguous``,
    ``predicated`` or ``vpredicated``; ``v`` is the lanes per block of
    ``vpredicated``.  Returns ``(kernel, entries, table_bytes)``: the
    number of table entries or node objects the kernel's model stores, and
    the bytes of every array and object it points to, the weights included,
    each ``compact_linked`` record counted at ``sizeof(node)`` and each
    ``heap_linked`` object at the ``sizeof`` of its type.  A predicated
    layout counts the nodes of each tree's complete tree, whose every
    level its lanes step through (a leaf above the bottom loops to
    itself), but builds no complete tree and stores one entry per node,
    so it takes trees of any depth.  Raises what
    :func:`load_layout_kernels` raises.
    """
    if layout not in TABLE_DTYPES:
        raise ValueError(f"no table layout named {layout!r}")
    fids, values, left, roots = ensemble.node_table
    entries, objects = fids.shape[0], 0
    lib = load_layout_kernels()
    if layout == "contiguous":
        tables = _contiguous_entries(fids, values, left, roots)
        score = lib.contiguous_score
    elif layout in ("heap_linked", "compact_linked"):
        root_objects, objects = _linked_roots(lib, layout, fids, values, left,
                                              roots)
        tables = (root_objects,)
        score = (lib.compact_score if layout == "compact_linked"
                 else lib.heap_score)
    else:
        depths = [tree.depth for tree, _ in ensemble.trees]
        tables = (*_predicated_entries(fids, values, left, roots),
                  np.array(depths, dtype=np.int32))
        entries = sum((1 << (d + 1)) - 1 for d in depths)
        score = (lib.vpredicated_score if layout == "vpredicated"
                 else lib.predicated_score)
    weights = np.array([w for _, w in ensemble.trees], dtype=np.float64)
    kernel = _bind(lib, layout, score, ensemble.num_features, tables, weights, v)
    table_bytes = sum(a.nbytes for a in tables) + weights.nbytes + objects
    return kernel, entries, table_bytes
