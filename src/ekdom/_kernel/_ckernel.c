/* Compiled twin of ekdom._kernel.pure.run_elimination.

   Same contract and the same Gauss-Seidel sweep, in input order, as the
   pure kernel: candidate lists per distinct guard post in ascending state
   order, the pos/wit cursors, one budget test per check and
   augmenting-path matching with the i == j or q == 1 shortcut.  The two
   therefore return byte-for-byte equal (alive, rounds, checks, exceeded)
   and leave equal witness tables; see pure.py for the algorithm notes and
   the meaning of the table.  Whether a vertex is occupied is read off the
   sorted state by a merge walk, so the number of vertices is unbounded.

   The caller passes ``wit``, a writable array('i') of len(states) * n
   items, and the sweep keeps its cursors' witnesses in that buffer, so
   the witness table it leaves there costs no copy.  Its size, item type
   and writability are checked before anything is written; its contents
   on entry are ignored.

       python3 setup.py build_ext --inplace
*/
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

/* Scratch for one movement test: can every guard of state a walk to its
   own post of state b? */
typedef struct {
    const long *dist;   /* n x n hop distances, row-major */
    const int *a, *b;   /* source and target posts, q each */
    Py_ssize_t n;
    long k;
    int q;
    int *owner;         /* owner[c]: source guard holding target post c */
    unsigned char *seen;
} Matching;

static int
augment(Matching *m, int p)
{
    const long *row = m->dist + (size_t)m->a[p] * (size_t)m->n;
    for (int c = 0; c < m->q; c++) {
        if (!m->seen[c] && row[m->b[c]] <= m->k) {
            m->seen[c] = 1;
            if (m->owner[c] < 0 || augment(m, m->owner[c])) {
                m->owner[c] = p;
                return 1;
            }
        }
    }
    return 0;
}

static int
feasible(Matching *m, const int *st, Py_ssize_t i, Py_ssize_t j)
{
    if (i == j || m->q == 1)
        return 1;
    m->a = st + (size_t)i * m->q;
    m->b = st + (size_t)j * m->q;
    for (int c = 0; c < m->q; c++)
        m->owner[c] = -1;
    for (int p = 0; p < m->q; p++) {
        memset(m->seen, 0, (size_t)m->q);
        if (!augment(m, p))
            return 0;
    }
    return 1;
}

/* Copy one state into out[0..q); it must be a sorted sequence of q ints
   in range(n).  Returns -1 with an exception set on bad input. */
static int
read_state(PyObject *obj, Py_ssize_t q, Py_ssize_t n, int *out)
{
    PyObject *seq = PySequence_Fast(obj, "each state must be a sequence");
    int rc = -1;
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != q) {
        PyErr_SetString(PyExc_ValueError, "states differ in size");
        goto done;
    }
    for (Py_ssize_t t = 0; t < q; t++) {
        long u = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, t));
        if (u == -1 && PyErr_Occurred())
            goto done;
        if (u < 0 || u >= n || (t > 0 && u < out[t - 1])) {
            PyErr_SetString(PyExc_ValueError,
                            "a state must be a sorted tuple of vertices in range(n)");
            goto done;
        }
        out[t] = (int)u;
    }
    rc = 0;
done:
    Py_DECREF(seq);
    return rc;
}

/* Zeroed array of count items; one spare item keeps zero-length requests
   distinct from allocation failure. */
#define NEW(type, count) ((type *)PyMem_Calloc((size_t)(count) + 1, sizeof(type)))

static PyObject *
run_elimination(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "k", "dist", "states", "wit", "budget", NULL};
    Py_ssize_t n, S = 0, q = 0, nd, i, s, v;
    long k;
    long long budget = 5000000, checks = 0;
    PyObject *dist_obj, *states_obj, *wit_obj;
    PyObject *dseq = NULL, *sseq = NULL, *result = NULL;
    Py_buffer view = {0};
    long *dist = NULL;
    int *st = NULL, *cand = NULL, *pos = NULL, *wit = NULL, *owner = NULL;
    Py_ssize_t *off = NULL;
    unsigned char *alive = NULL, *seen = NULL;
    Matching m;
    int changed = 1, exceeded = 0;
    Py_ssize_t rounds = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nlOOO|L:run_elimination", kwlist,
                                     &n, &k, &dist_obj, &states_obj, &wit_obj, &budget))
        return NULL;
    if ((dseq = PySequence_Fast(dist_obj, "dist must be a sequence")) == NULL
            || (sseq = PySequence_Fast(states_obj, "states must be a sequence")) == NULL)
        goto done;
    nd = PySequence_Fast_GET_SIZE(dseq);
    S = PySequence_Fast_GET_SIZE(sseq);
    if (n < 0 || (n == 0 ? nd != 0 : nd % n != 0 || nd / n != n)) {
        PyErr_SetString(PyExc_ValueError, "dist must hold n*n distances");
        goto done;
    }
    if (S > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many states");
        goto done;
    }
    if (S > 0 && (q = PySequence_Size(PySequence_Fast_GET_ITEM(sseq, 0))) < 0)
        goto done;
    if (PyObject_GetBuffer(wit_obj, &view,
                           PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        goto done;
    if (view.itemsize != sizeof(int) || view.format == NULL
            || strcmp(view.format, "i") != 0) {
        PyErr_SetString(PyExc_TypeError, "wit must be an array('i')");
        goto done;
    }
    if (view.len != (Py_ssize_t)sizeof(int) * S * n) {
        PyErr_SetString(PyExc_ValueError, "wit must hold len(states) * n items");
        goto done;
    }

    dist = NEW(long, nd);
    st = NEW(int, (size_t)S * q);
    off = NEW(Py_ssize_t, n + 1);
    pos = NEW(int, (size_t)S * n);
    wit = (int *)view.buf;
    alive = NEW(unsigned char, S);
    owner = NEW(int, q);
    seen = NEW(unsigned char, q);
    if (!dist || !st || !off || !pos || !alive || !owner || !seen) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < nd; i++) {
        dist[i] = PyLong_AsLong(PySequence_Fast_GET_ITEM(dseq, i));
        if (dist[i] == -1 && PyErr_Occurred())
            goto done;
    }
    for (i = 0; i < S; i++)
        if (read_state(PySequence_Fast_GET_ITEM(sseq, i), q, n, st + (size_t)i * q) < 0)
            goto done;

    /* Candidate lists: off[v]..off[v+1] in cand holds, ascending, every
       state with a guard on v.  Posts are sorted, so repeats are adjacent. */
    for (i = 0; i < S; i++)
        for (s = 0; s < q; s++)
            if (s == 0 || st[i * q + s] != st[i * q + s - 1])
                off[st[i * q + s] + 1]++;
    for (v = 0; v < n; v++)
        off[v + 1] += off[v];
    if ((cand = NEW(int, off[n])) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < S; i++)     /* off[v] advances to the end of v's list */
        for (s = 0; s < q; s++)
            if (s == 0 || st[i * q + s] != st[i * q + s - 1])
                cand[off[st[i * q + s]]++] = (int)i;
    for (v = n; v > 0; v--)     /* and is shifted back to its start */
        off[v] = off[v - 1];
    off[0] = 0;

    m = (Matching){dist, NULL, NULL, n, k, (int)q, owner, seen};
    memset(alive, 1, (size_t)S);
    for (i = 0; i < S * n; i++)
        wit[i] = -1;
    while (S > 0 && changed && !exceeded) {
        changed = 0;
        rounds++;
        for (i = 0; i < S && !exceeded; i++) {
            if (!alive[i])
                continue;
            const int *post = st + (size_t)i * q;
            int *pos_i = pos + (size_t)i * n, *wit_i = wit + (size_t)i * n;
            Py_ssize_t t = 0;
            for (v = 0; v < n; v++) {
                while (t < q && post[t] < v)
                    t++;
                if (t < q && post[t] == v)
                    continue;   /* standing still answers an occupied vertex */
                if (++checks > budget) {
                    exceeded = 1;
                    break;
                }
                int w = wit_i[v];
                if (w >= 0 && alive[w])
                    continue;
                const int *cv = cand + off[v];
                int top = (int)(off[v + 1] - off[v]), p = pos_i[v];
                while (p < top && !(alive[cv[p]] && feasible(&m, st, i, cv[p])))
                    p++;
                pos_i[v] = p;
                if (p < top) {
                    wit_i[v] = cv[p];
                } else {
                    alive[i] = 0;
                    changed = 1;
                    break;
                }
            }
        }
    }
    result = Py_BuildValue("(NnLO)", PyByteArray_FromStringAndSize((char *)alive, S),
                           rounds, checks, exceeded ? Py_True : Py_False);
done:
    Py_XDECREF(dseq);
    Py_XDECREF(sseq);
    PyMem_Free(dist);
    PyMem_Free(st);
    PyMem_Free(off);
    PyMem_Free(cand);
    PyMem_Free(pos);
    if (view.obj != NULL)
        PyBuffer_Release(&view);
    PyMem_Free(alive);
    PyMem_Free(owner);
    PyMem_Free(seen);
    return result;
}

static PyMethodDef methods[] = {
    {"run_elimination", (PyCFunction)(void (*)(void))run_elimination,
     METH_VARARGS | METH_KEYWORDS,
     "run_elimination($module, /, n, k, dist, states, wit, budget=5000000)\n"
     "--\n\n"
     "Greatest-fixed-point elimination; returns (alive, rounds, checks, exceeded)\n"
     "and leaves the witness table in wit, an array('i') of len(states) * n\n"
     "items (see ekdom._kernel.pure)."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_ckernel",
    "Compiled twin of ekdom._kernel.pure (same contract, same results).",
    -1, methods
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    return PyModule_Create(&module);
}
