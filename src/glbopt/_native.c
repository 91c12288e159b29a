/* The tuple tail of linear._update_table, built through the C API.
 *
 * linear.py compiles this file with the system C compiler on the first table
 * build, caches the shared library and loads it with ctypes.PyDLL, which holds
 * the interpreter lock during the call and raises the exception a failing
 * call sets.  The objects are the ones the Python tail makes: per column a
 * tuple of (k, j, w, last) entries, k and j taken from one list of index ints,
 * one float per entry and the True/False singletons.  An entry holds only
 * ints, a float and a bool, and a column only such entries, so neither can be
 * part of a cycle; each is untracked by the garbage collector when filled, as
 * the collector itself would untrack it on its first pass.
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
