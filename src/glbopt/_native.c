/* The tuple tail of linear._update_table, the attachment loop of
 * instances._ba_edges and the list text of instances.save_instance, built
 * through the C API.
 *
 * _native.py compiles this file with the system C compiler on first use (a
 * process's first table build, BA graph or instance save), caches the shared
 * library and loads it with ctypes.PyDLL, which holds the interpreter lock
 * during the call and raises the exception a failing call sets.  Its
 * SIGNATURES table holds the ctypes signature of every non-static glbopt_*
 * function defined here.
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
 *
 * List text: the bytes json.dump(..., indent=1) writes for a list of floats
 * or of [int, ..., float] lists, made straight into a buffer of a bounded
 * number of entries that is handed to a write callable each time it fills.
 * Ints are written as str() writes them, floats as repr() does, from the
 * shortest digits of Ryu (Adams, "Ryu: fast float-to-string conversion",
 * PLDI 2018), which are repr's digits, laid out as repr lays them out.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

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


/* Float text.  A finite nonzero double is mantissa * 2**e2 with a 53-bit
 * mantissa (less for subnormals); Ryu scales the interval of values that
 * round to it by a power of ten through 125-bit approximations of 5**q and
 * 5**-q, and strips digits while both ends of the interval still differ.
 * The tables hold, as (low, high) word pairs, 2**(125 + floor(log2 5**q)) //
 * 5**q + 1 for q < POW5_INV_COUNT and the leading 125 bits of 5**i for i <
 * POW5_COUNT; the caller computes them from exact integers. */
#define POW5_INV_COUNT 342
#define POW5_COUNT 326
#define POW5_BITS 125

/* The high 64 bits of the 128-bit product a * b, and its low ones in *low. */
static uint64_t
mul_64x64(uint64_t a, uint64_t b, uint64_t *low)
{
    uint64_t a_lo = (uint32_t)a, a_hi = a >> 32, b_lo = (uint32_t)b, b_hi = b >> 32;
    uint64_t lo_lo = a_lo * b_lo, hi_lo = a_hi * b_lo;
    uint64_t lo_hi = a_lo * b_hi, hi_hi = a_hi * b_hi;
    uint64_t mid1 = hi_lo + (lo_lo >> 32);
    uint64_t mid2 = lo_hi + (uint32_t)mid1;
    *low = (mid2 << 32) | (uint32_t)lo_lo;
    return hi_hi + (mid1 >> 32) + (mid2 >> 32);
}

/* (m * mul) >> j for a 55-bit m, a 128-bit mul and 64 < j < 128. */
static uint64_t
mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    uint64_t low0, low1, high0 = mul_64x64(m, mul[0], &low0);
    uint64_t high1 = mul_64x64(m, mul[1], &low1);
    uint64_t sum = high0 + low1;
    high1 += sum < high0;
    return (high1 << (128 - j)) | (sum >> (j - 64));
}

/* ceil(log2(5**e)) for e > 0 (1 for e == 0); floor(log10(2**e)) and
 * floor(log10(5**e)) for 0 <= e <= 1650. */
static int32_t pow5_bits(int32_t e) { return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1; }
static int32_t log10_pow2(int32_t e) { return (int32_t)(((uint32_t)e * 78913) >> 18); }
static int32_t log10_pow5(int32_t e) { return (int32_t)(((uint32_t)e * 732923) >> 20); }

static int
multiple_of_pow5(uint64_t value, int32_t p)
{
    int32_t count = 0;
    while (value % 5 == 0) {
        value /= 5;
        count++;
    }
    return count >= p;
}

/* Ryu's d2d: the shortest decimal digits that read back as the finite
 * nonzero double with these IEEE fields, the closest to it among them, ties
 * to an even last digit.  Returns the digits as an integer and stores in *e10
 * the power of ten they scale by. */
static uint64_t
shortest_digits(uint64_t ieee_mantissa, uint32_t ieee_exponent,
                const uint64_t *pow5_inv, const uint64_t *pow5, int32_t *e10)
{
    int32_t e2;
    uint64_t m2;
    if (ieee_exponent == 0) {  /* two more bits for the interval's ends */
        e2 = 1 - 1023 - 52 - 2;
        m2 = ieee_mantissa;
    } else {
        e2 = (int32_t)ieee_exponent - 1023 - 52 - 2;
        m2 = ((uint64_t)1 << 52) | ieee_mantissa;
    }
    int accept_bounds = (m2 & 1) == 0;  /* round-to-even reads the ends back */
    /* the value and the ends of its interval are mv, mv + 2 and mv - 1 -
     * mm_shift quarters of 2**e2; the lower gap is half as wide at a power
     * of two */
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = ieee_mantissa != 0 || ieee_exponent <= 1;
    uint64_t vr, vp, vm;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        int32_t q = log10_pow2(e2) - (e2 > 3);
        int32_t j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *mul = pow5_inv + 2 * q;
        *e10 = q;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 21) {  /* only one of mv, mp and mm can be a multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        int32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - q;
        int32_t j = q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * i;
        *e10 = q + e2;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {  /* mv has at least two trailing zero bits, mp one */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {  /* is mv a multiple of 2**q */
            vr_trailing_zeros = (mv & (((uint64_t)1 << q) - 1)) == 0;
        }
    }
    /* strip digits while the interval still holds a shorter number,
     * tracking whether those removed from vm, and from vr before the last,
     * were zeros (they can be only where an exact product ends in zeros) */
    int32_t removed = 0;
    uint32_t last_removed = 0;
    while (vp / 10 > vm / 10) {
        vm_trailing_zeros &= vm % 10 == 0;
        vr_trailing_zeros &= last_removed == 0;
        last_removed = (uint32_t)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vm_trailing_zeros) {
        while (vm % 10 == 0) {
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
    }
    if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
        last_removed = 4;  /* exactly halfway: round to even */
    uint64_t output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros))
                            || last_removed >= 5);
    *e10 += removed;
    return output;
}

/* The decimal digits of v, written to end just before end.  Returns where
 * they start. */
static char *
put_digits(char *end, uint64_t v)
{
    do {
        *--end = (char)('0' + v % 10);
        v /= 10;
    } while (v);
    return end;
}

/* repr(x) for a finite double into buf (at least 24 bytes): the digits of
 * 0.d1d2...dk * 10**decpt positionally when -4 < decpt <= 16, with ".0" when
 * integral, and otherwise as d1[.d2...dk]e[+-]XX with at least two exponent
 * digits.  Returns the length of the text. */
static Py_ssize_t
float_repr(double x, const uint64_t *pow5_inv, const uint64_t *pow5, char *buf)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    char *out = buf;
    if (bits >> 63)
        *out++ = '-';
    uint64_t ieee_mantissa = bits & (((uint64_t)1 << 52) - 1);
    uint32_t ieee_exponent = (uint32_t)(bits >> 52) & 0x7FF;
    if (ieee_exponent == 0 && ieee_mantissa == 0) {
        memcpy(out, "0.0", 3);
        return out + 3 - buf;
    }
    int32_t e10;
    uint64_t output = shortest_digits(ieee_mantissa, ieee_exponent, pow5_inv, pow5, &e10);
    char digits[20];
    const char *d = put_digits(digits + 20, output);
    int k = (int)(digits + 20 - d);
    int decpt = e10 + k;
    if (-4 < decpt && decpt <= 16) {
        if (decpt <= 0) {
            memcpy(out, "0.000", 2 - decpt);
            out += 2 - decpt;
            memcpy(out, d, k);
            out += k;
        } else if (decpt < k) {
            memcpy(out, d, decpt);
            out += decpt;
            *out++ = '.';
            memcpy(out, d + decpt, k - decpt);
            out += k - decpt;
        } else {
            memcpy(out, d, k);
            out += k;
            memset(out, '0', decpt - k);
            out += decpt - k;
            memcpy(out, ".0", 2);
            out += 2;
        }
    } else {
        *out++ = d[0];
        if (k > 1) {
            *out++ = '.';
            memcpy(out, d + 1, k - 1);
            out += k - 1;
        }
        int exponent = decpt - 1;
        *out++ = 'e';
        *out++ = exponent < 0 ? '-' : '+';
        if (exponent < 0)
            exponent = -exponent;
        if (exponent >= 100)
            *out++ = (char)('0' + exponent / 100);
        *out++ = (char)('0' + exponent / 10 % 10);
        *out++ = (char)('0' + exponent % 10);
    }
    return out - buf;
}

/* str(v) into out (at least 20 bytes); returns the end of the text. */
static char *
put_int(char *out, int64_t v)
{
    char digits[20];
    if (v < 0)
        *out++ = '-';
    const char *d = put_digits(digits + 20, v < 0 ? 0 - (uint64_t)v : (uint64_t)v);
    memcpy(out, d, digits + 20 - d);
    return out + (digits + 20 - d);
}

/* Hand buf[0 .. size-1] to write as a bytes object; 0, or -1 with an
 * exception set. */
static int
flush_text(PyObject *write, const char *buf, Py_ssize_t size)
{
    PyObject *result = PyObject_CallFunction(write, "y#", buf, size);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* Write a list of n entries through write(bytes): head, the entries with sep
 * between two, then tail.  Entry p is index[p*width .. p*width + width-1],
 * each followed by item, then repr(float(values[p])), from the power-of-five
 * tables described above, pow5_inv of inv_count pairs and pow5 of count
 * pairs; a value with the bit pattern of the one before it reuses its text.
 * The text is made in a buffer of `chunk` entries, handed to write each time
 * it is full and at the end.  Returns 0, or -1 with an exception
 * set: ValueError for a non-finite value. */
int
glbopt_write_list(PyObject *write, const int64_t *index, Py_ssize_t width,
                  const double *values, Py_ssize_t n, Py_ssize_t chunk,
                  const char *head, const char *sep, const char *item, const char *tail,
                  const uint64_t *pow5_inv, Py_ssize_t inv_count,
                  const uint64_t *pow5, Py_ssize_t count)
{
    if (inv_count != POW5_INV_COUNT || count != POW5_COUNT) {
        PyErr_Format(PyExc_ValueError, "power-of-five tables must hold %d and %d pairs",
                     POW5_INV_COUNT, POW5_COUNT);
        return -1;
    }
    if (width < 0 || width > 16 || chunk < 1 || chunk > (1 << 20)) {
        PyErr_SetString(PyExc_ValueError, "need 0 <= width <= 16 and 1 <= chunk <= 2**20");
        return -1;
    }
    Py_ssize_t head_len = (Py_ssize_t)strlen(head), sep_len = (Py_ssize_t)strlen(sep);
    Py_ssize_t item_len = (Py_ssize_t)strlen(item), tail_len = (Py_ssize_t)strlen(tail);
    /* the most an entry takes: its separator, then width ints of at most 20
     * characters each with an item, then a float of at most 24 */
    Py_ssize_t most = (head_len > sep_len ? head_len : sep_len) + width * (20 + item_len) + 24;
    char *buf = PyMem_Malloc(chunk * most + tail_len);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    char *out = buf, last[24];
    uint64_t last_bits = 0;
    Py_ssize_t last_len = 0, room = chunk;  /* entries the buffer still takes */
    int status = -1;
    for (Py_ssize_t p = 0; p < n; p++) {
        if (!isfinite(values[p])) {
            PyErr_Format(PyExc_ValueError, "values[%zd] is not finite", p);
            goto done;
        }
        if (room-- == 0) {
            if (flush_text(write, buf, out - buf))
                goto done;
            out = buf;
            room = chunk - 1;
        }
        if (p) {
            memcpy(out, sep, sep_len);
            out += sep_len;
        } else {
            memcpy(out, head, head_len);
            out += head_len;
        }
        for (const int64_t *i = index + p * width; i < index + (p + 1) * width; i++) {
            out = put_int(out, *i);
            memcpy(out, item, item_len);
            out += item_len;
        }
        uint64_t bits;
        memcpy(&bits, values + p, sizeof bits);
        if (!p || bits != last_bits) {  /* else the text of the last value again */
            last_bits = bits;
            last_len = float_repr(values[p], pow5_inv, pow5, last);
        }
        memcpy(out, last, last_len);
        out += last_len;
    }
    memcpy(out, tail, tail_len);
    out += tail_len;
    status = flush_text(write, buf, out - buf);
done:
    PyMem_Free(buf);
    return status;
}
