/* The tuple tail of linear._update_table and the attachment loop of
 * instances._ba_edges, built through the C API.
 *
 * _native.py compiles this file with the system C compiler on first use (a
 * process's first table build or BA graph), caches the shared library and
 * loads it with ctypes.PyDLL, which holds the interpreter lock during the call
 * and raises the exception a failing call sets.  Its SIGNATURES table holds
 * the ctypes signature of every non-static glbopt_* function defined here.
 *
 * Table: the objects are the ones the Python tail makes: per column a tuple
 * of (k, j, w, last) entries, k and j taken from one list of index ints, one
 * float per entry and the True/False singletons.  An entry holds only ints, a
 * float and a bool, and a column only such entries, so neither can be part of
 * a cycle; each is untracked by the garbage collector when filled, as the
 * collector itself would untrack it on its first pass.
 *
 * BA graphs: the draws are those of instances._ScalarDraws.integers, on the
 * same raw PCG64 words, so the edges are those of the Python loop.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Append n column tuples to the list cols.  Column i holds the entries
 * indptr[i] .. indptr[i+1]-1; entry p is (index[k[p]], index[j[p]],
 * float(w[p]), bool(last[p])).  Returns 0, or -1 with an exception set. */
int
glbopt_fill_update_table(PyObject *cols, PyObject *index, Py_ssize_t n,
                         const int64_t *indptr, const int64_t *k, const int64_t *j,
                         const double *w, const uint8_t *last)
{
    if (!PyList_Check(cols) || !PyList_Check(index)) {
        PyErr_SetString(PyExc_TypeError, "cols and index must be lists");
        return -1;
    }
    Py_ssize_t size = PyList_GET_SIZE(index);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t lo = (Py_ssize_t)indptr[i], hi = (Py_ssize_t)indptr[i + 1];
        PyObject *col = PyTuple_New(hi - lo);
        if (col == NULL)
            return -1;
        for (Py_ssize_t p = lo; p < hi; p++) {
            if (k[p] < 0 || k[p] >= size || j[p] < 0 || j[p] >= size) {
                PyErr_SetString(PyExc_IndexError, "table index out of range");
                Py_DECREF(col);
                return -1;
            }
            PyObject *weight = PyFloat_FromDouble(w[p]);
            PyObject *entry = weight ? PyTuple_New(4) : NULL;
            if (entry == NULL) {
                Py_XDECREF(weight);
                Py_DECREF(col);
                return -1;
            }
            PyObject *ki = PyList_GET_ITEM(index, k[p]);
            PyObject *ji = PyList_GET_ITEM(index, j[p]);
            PyObject *flag = last[p] ? Py_True : Py_False;
            Py_INCREF(ki);
            Py_INCREF(ji);
            Py_INCREF(flag);
            PyTuple_SET_ITEM(entry, 0, ki);
            PyTuple_SET_ITEM(entry, 1, ji);
            PyTuple_SET_ITEM(entry, 2, weight);
            PyTuple_SET_ITEM(entry, 3, flag);
            PyObject_GC_UnTrack(entry);
            PyTuple_SET_ITEM(col, p - lo, entry);
        }
        if (hi > lo)  /* the empty tuple is a shared singleton */
            PyObject_GC_UnTrack(col);
        int failed = PyList_Append(cols, col);
        Py_DECREF(col);
        if (failed)
            return -1;
    }
    return 0;
}


/* The raw words of a PCG64 bit generator, fetched `want` at a time by calling
 * its random_raw(want), and the 32-bit halves numpy's bounded integers take
 * from them: the low half of a word first, then its high half. */
typedef struct {
    PyObject *raw;           /* bit_generator.random_raw */
    Py_ssize_t want;         /* words per call */
    Py_buffer view;          /* the last array it returned, while loaded */
    int loaded;
    Py_ssize_t next, size;   /* next unread word, words in the view */
    uint64_t high;           /* the unused high half of the last word */
    int pending;
} raw_words;

static int
raw_refill(raw_words *s)
{
    if (s->loaded) {
        PyBuffer_Release(&s->view);
        s->loaded = 0;
    }
    PyObject *block = PyObject_CallFunction(s->raw, "n", s->want);
    if (block == NULL)
        return -1;
    int failed = PyObject_GetBuffer(block, &s->view, PyBUF_C_CONTIGUOUS);
    Py_DECREF(block);  /* the view keeps its own reference */
    if (failed)
        return -1;
    s->loaded = 1;
    if (s->view.itemsize != 8 || s->view.len < 8) {
        PyErr_SetString(PyExc_TypeError, "random_raw must return a nonempty uint64 array");
        return -1;
    }
    s->next = 0;
    s->size = s->view.len / 8;
    return 0;
}

/* Generator.integers(k) on the words: 32-bit Lemire, redrawing while the low
 * product word is below (2**32 - k) % k; k == 1 consumes nothing.  Stores the
 * draw in *out and returns 0, or returns -1 with an exception set. */
static int
raw_integers(raw_words *s, uint64_t k, uint64_t *out)
{
    if (k < 1 || k > ((uint64_t)1 << 32)) {
        PyErr_Format(PyExc_ValueError, "bound must lie in [1, 2**32], got %llu",
                     (unsigned long long)k);
        return -1;
    }
    if (k == 1) {
        *out = 0;
        return 0;
    }
    uint64_t threshold = (((uint64_t)1 << 32) - k) % k, m;
    do {
        if (s->pending) {
            s->pending = 0;
            m = s->high * k;
        } else {
            if (s->next == s->size && raw_refill(s))
                return -1;
            uint64_t word = ((const uint64_t *)s->view.buf)[s->next++];
            s->high = word >> 32;
            s->pending = 1;
            m = (word & 0xFFFFFFFFu) * k;
        }
    } while ((m & 0xFFFFFFFFu) < threshold);
    *out = m >> 32;
    return 0;
}

static int
compare_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The attachment loop of instances._ba_targets on the words of raw, fetched
 * `block` at a time: node s = m .. n-1 links to the m targets drawn for it,
 * which are written to linked[(s-m)*m .. (s-m)*m + m-1].  Before each node's
 * draws, the pool gets its targets and then m copies of s; draws pick pool
 * entries until m distinct nodes are chosen, and those, sorted, are the next
 * node's targets.  Returns 0, or -1 with an exception set. */
int
glbopt_ba_targets(Py_ssize_t n, Py_ssize_t m, PyObject *raw, Py_ssize_t block,
                  int64_t *linked)
{
    if (m < 1 || n <= m || block < 1) {
        PyErr_SetString(PyExc_ValueError, "need 1 <= m < n and block >= 1");
        return -1;
    }
    if (n - m > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int64_t) / 2 / m) {
        PyErr_NoMemory();
        return -1;
    }
    raw_words words = {.raw = raw, .want = block};
    int64_t *pool = PyMem_Malloc(sizeof(int64_t) * 2 * m * (n - m));
    int64_t *targets = PyMem_Malloc(sizeof(int64_t) * m);
    int64_t *chosen = PyMem_Malloc(sizeof(int64_t) * m);
    int64_t *stamp = PyMem_Malloc(sizeof(int64_t) * n);  /* last node that chose it */
    int status = -1;
    if (pool == NULL || targets == NULL || chosen == NULL || stamp == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t v = 0; v < n; v++)
        stamp[v] = -1;
    for (Py_ssize_t t = 0; t < m; t++)
        targets[t] = t;
    Py_ssize_t size = 0;
    for (Py_ssize_t source = m; source < n; source++) {
        memcpy(linked + (source - m) * m, targets, sizeof(int64_t) * m);
        memcpy(pool + size, targets, sizeof(int64_t) * m);
        size += m;
        for (Py_ssize_t t = 0; t < m; t++)
            pool[size++] = source;
        Py_ssize_t count = 0;
        while (count < m) {
            uint64_t r;
            if (raw_integers(&words, (uint64_t)size, &r))
                goto done;
            int64_t v = pool[r];
            if (stamp[v] != source) {
                stamp[v] = source;
                chosen[count++] = v;
            }
        }
        qsort(chosen, (size_t)m, sizeof(int64_t), compare_int64);
        int64_t *swap = targets;
        targets = chosen;
        chosen = swap;
    }
    status = 0;
done:
    if (words.loaded)
        PyBuffer_Release(&words.view);
    PyMem_Free(pool);
    PyMem_Free(targets);
    PyMem_Free(chosen);
    PyMem_Free(stamp);
    return status;
}
