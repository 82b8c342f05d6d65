/* Compiled twin of ekdom._kernel.pure.

   Three entry points with the contracts of their pure twins, run on C
   arrays read once from the same Python lists and buffers:

   enumerate_states: the same suffix-pruned walk over non-decreasing
   guard placements, on ball masks of any number of 64-bit words, with
   the reach and widest prunes, the limit + 1 cut and the prefix count
   of the pure walk; it returns the same list of tuples in the same
   lexicographic order.

   run_elimination: the same Gauss-Seidel sweep, in input order, as the
   pure kernel: candidate lists per distinct guard post in ascending state
   order, the pos/wit cursors, one budget test per check, and the same
   target-side prefix matcher with its run skips and prefix reuse.  The
   two therefore return byte-for-byte equal (alive, rounds, checks,
   exceeded), leave equal witness tables and count the same work; see
   pure.py for the algorithm notes, the skip and reuse rules, and the
   meaning of the table and the counters.  What differs is how, not
   what: a guard row (the guards of the swept state within reach of a
   post) is an array of 64-bit words here and a Python int there, walked
   in the same ascending guard order; and three searches take shortcuts
   that return what the pure code returns: a run skip gallops from the
   cursor instead of bisecting the rest of the candidate list, place ends
   a one-step path at once, and it clears word 0 of its seen set on its
   own.  Each shortcut stays for the time it saves, measured beside it.

   certificate_rows: the same breadth-first family from the least
   survivor, answering each attack with the least member found so far
   that holds the attacked vertex and is reachable in one step (members
   below the witness are passed without a matching), or else with the
   witness table's entry, which joins the family; each response is
   matched by the sweep's matcher (place) with guards and posts swapped,
   as the pure twin calls its assign, so the rows record the same
   assignments.  It returns the same (members, rows) as the pure twin.

   Whether a vertex is occupied is read off the sorted state by a merge
   walk, so the number of vertices is unbounded.

   All three read the graph only through the ball masks in ``masks``, an
   array('Q') of n * ((n + 63) // 64) words.  The masks must be
   symmetric (t in ball(u) exactly when u in ball(t)), as
   pack_masks(ball_masks(dist, k)) always is: the closure's swapped
   matching relies on it, and masks that are not can only yield rows that
   ekdom verify rejects.  The witness table travels in ``wit``, an
   array('i') of len(states) * n items, and the work counters in the
   optional ``work``, an array('q') of 1 (walk) or 5 (sweep) items; the
   entry points read and write them in place, so none costs a copy.
   Every buffer's size and item type (and, where written, writability)
   is checked before it is used.

       python3 setup.py build_ext --inplace
*/
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

typedef unsigned long long Word;    /* the flags of 64 vertices, or of 64 guards */

/* The index of the lowest set bit of x, which must not be 0. */
static int
lowest(Word x)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(x);
#else
    int c = 0;
    for (; !(x & 1); x >>= 1)
        c++;
    return c;
#endif
}

/* The one augmenting-path matcher: place the posts of b, in order, on
   distinct guards of a, each post trying the guards in ascending order.
   The sweep runs it from the target side (a the swept state, b each
   candidate) and keeps the previous candidate's matching: posts it
   shares with b, up to the ones it placed, keep their guards.  The
   closure runs it with the roles swapped (see moves_to).

   A set of guards is gw = (q + 63) / 64 words, bit p of word p / 64 for
   guard p.  The guard row of vertex t, rows + t * gw, is the set of
   guards of a whose ball holds t.  Rows are filled lazily: a row is
   filled when a post on its vertex is first placed after prefix_reset,
   which the per-vertex stamp records, so a reset costs no work per
   vertex and a matching fills only the rows of the posts it places.
   Every post an augmenting path reaches holds a guard, so its row is
   already filled, and the matcher keeps it next to the guard (own[p]),
   where the search finds it without a detour through the post. */
typedef struct {
    int post, guard;
    const Word *row;    /* the post's guard row */
} Step;

typedef struct {
    const Word *ball;   /* n balls of words words each */
    const int *a, *b;   /* guards' vertices; posts last placed, or NULL */
    Py_ssize_t words, n;
    int q, gw;
    int placed;         /* posts 0..placed-1 of b hold guards */
    int *holder;        /* holder[p]: post held by guard p of a, or -1 */
    const Word **own;   /* own[p]: the guard row of post holder[p] */
    int *guard;         /* guard[c]: guard of a holding post c < placed */
    Word *rows;         /* n guard rows */
    unsigned *stamp;    /* row t is filled for a when stamp[t] == epoch */
    unsigned epoch;
    Word *seen;         /* the guards the current search has tried */
    Step *path;         /* the current search's path, at most q steps */
} Prefix;

/* Fill the guard row of vertex t, unless it is filled for this a. */
static void
fill_row(Prefix *m, int t)
{
    if (m->stamp[t] == m->epoch)
        return;
    const Word *col = m->ball + (t >> 6);   /* the word of ball 0 that holds t */
    const Word bit = (Word)1 << (t & 63);
    Word *row = m->rows + (size_t)t * m->gw;
    m->stamp[t] = m->epoch;
    for (int w = 0; w < m->gw; w++) {
        Word guards = 0;
        for (int p = 64 * w; p < m->q && p < 64 * w + 64; p++)
            if (col[(size_t)m->a[p] * (size_t)m->words] & bit)
                guards |= (Word)1 << (p & 63);
        row[w] = guards;
    }
}

/* Place post c by an augmenting path, searched depth first on an
   explicit stack, as pure.place searches it: each post on the path
   tries the guards of its row it has not tried, in ascending order; a
   free guard ends the path, a held one continues it from its post, and a
   post with none left backs up to the step before.  On success every
   step's guard takes its post; a failed search changes no assignment. */
static int
place(Prefix *m, int c)
{
    const Word *row = m->rows + (size_t)m->b[c] * m->gw;
    const int gw = m->gw;
    Word *seen = m->seen;
    int *holder = m->holder;
    Step *path = m->path;
    int depth = 0, w;

    /* Word 0 on its own: below 65 guards the loop then never runs, and a
       compiler may turn it into a memset call that costs more than a
       short search: one loop from word 0 made the sweep 1.3-1.4x slower
       on P14-P20 and the depth-5 binary tree (12 alternating runs). */
    seen[0] = 0;
    for (w = 1; w < gw; w++)
        seen[w] = 0;
    for (w = 0;;) {
        Word open = 0;
        while (w < gw && (open = row[w] & ~seen[w]) == 0)
            w++;
        if (open != 0) {
            int p = 64 * w + lowest(open);
            /* A free guard of c: a one-step path, off the stack.  Without
               it the sweep took 1.01-1.07x as long on P14-P20 (longer in
               14-16 of 20 alternating pairs). */
            if (depth == 0 && holder[p] < 0) {
                holder[p] = c;
                m->own[p] = row;
                m->guard[c] = p;
                return 1;
            }
            seen[w] |= (Word)1 << (p & 63);
            path[depth++] = (Step){c, p, row};
            if (holder[p] < 0) {
                while (depth > 0) {
                    Step s = path[--depth];
                    holder[s.guard] = s.post;
                    m->own[s.guard] = s.row;
                    m->guard[s.post] = s.guard;
                }
                return 1;
            }
            c = holder[p];
            row = m->own[p];
            w = 0;
        } else if (depth > 0) {
            Step s = path[--depth];
            c = s.post;
            row = s.row;
            w = s.guard >> 6;
        } else {
            return 0;
        }
    }
}

/* Start matching onto state a: no post is placed and no row is filled. */
static void
prefix_reset(Prefix *m, const int *a)
{
    for (int p = 0; p < m->q; p++)
        m->holder[p] = -1;
    if (++m->epoch == 0) {      /* wrapped: an old stamp could match */
        memset(m->stamp, 0, (size_t)m->n * sizeof *m->stamp);
        m->epoch = 1;
    }
    m->a = a;
    m->b = NULL;
    m->placed = 0;
}

/* -1 when every post of b finds its own guard of a, else the first post
   t that cannot be placed.  A failed augmenting path changes no
   assignment, so t does not depend on the kept matching. */
static int
prefix_match(Prefix *m, const int *b)
{
    int c = 0;
    if (m->b != NULL)
        while (c < m->placed && b[c] == m->b[c])
            c++;
    for (int d = c; d < m->placed; d++)
        m->holder[m->guard[d]] = -1;
    m->b = b;
    for (m->placed = c; m->placed < m->q; m->placed++) {
        fill_row(m, b[m->placed]);
        if (!place(m, m->placed))
            return m->placed;
    }
    return -1;
}

/* Can every guard of state from walk to its own post of state to?  Balls
   are symmetric (t lies in ball(u) exactly when u lies in ball(t)), so
   placing the guards of from, in order, on the posts of to is step for
   step the source-side search that lets each guard in turn try the posts
   in ascending order.  On success holder[c] is the guard of from that
   walks to post c of to. */
static int
moves_to(Prefix *m, const int *from, const int *to)
{
    prefix_reset(m, to);
    return prefix_match(m, from) < 0;
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

/* Borrow an array(code) of exactly items items (size names that count),
   e.g. the witness table, an array('i') of S * n items. */
static int
get_array(PyObject *obj, Py_buffer *view, int flags, const char *name, const char *code,
          Py_ssize_t itemsize, Py_ssize_t items, const char *size)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (view->itemsize != itemsize || view->format == NULL
            || strcmp(view->format, code) != 0) {
        PyErr_Format(PyExc_TypeError, "%s must be an array('%s')", name, code);
        return -1;
    }
    if (view->len != itemsize * items) {
        PyErr_Format(PyExc_ValueError, "%s must hold %s items", name, size);
        return -1;
    }
    return 0;
}

/* What both entry points read: ball masks, states, the matcher with its
   scratch, and the holder lists (off[v]..off[v+1] in cand holds,
   ascending, every counted state with a guard on v). */
typedef struct {
    Py_ssize_t n, S, q, words;
    Py_buffer masks;
    int *st, *cand;
    Py_ssize_t *off;
    Prefix m;
} Instance;

static void
free_instance(Instance *in)
{
    if (in->masks.obj != NULL)
        PyBuffer_Release(&in->masks);
    PyMem_Free(in->st);
    PyMem_Free(in->cand);
    PyMem_Free(in->off);
    PyMem_Free(in->m.holder);
    PyMem_Free((void *)in->m.own);
    PyMem_Free(in->m.guard);
    PyMem_Free(in->m.rows);
    PyMem_Free(in->m.stamp);
    PyMem_Free(in->m.seen);
    PyMem_Free(in->m.path);
}

/* Borrow masks (n balls) and read states into in; -1 with an exception
   set on bad input.  The caller frees in with free_instance either way. */
static int
read_instance(Instance *in, Py_ssize_t n, PyObject *masks_obj, PyObject *states_obj)
{
    PyObject *sseq = NULL;
    Prefix *m = &in->m;
    Py_ssize_t i;
    int rc = -1;

    if (n < 0 || n > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "n must be non-negative and fit in an int");
        return -1;
    }
    in->n = n;
    in->words = (n + 63) / 64;
    if (get_array(masks_obj, &in->masks, 0, "masks", "Q", sizeof(Word), n * in->words,
                  "n * ((n + 63) // 64)") < 0
            || (sseq = PySequence_Fast(states_obj, "states must be a sequence")) == NULL)
        goto done;
    in->S = PySequence_Fast_GET_SIZE(sseq);
    if (in->S > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "too many states");
        goto done;
    }
    if (in->S > 0 && (in->q = PySequence_Size(PySequence_Fast_GET_ITEM(sseq, 0))) < 0)
        goto done;
    in->st = NEW(int, (size_t)in->S * in->q);
    in->off = NEW(Py_ssize_t, n + 1);
    m->ball = in->masks.buf;
    m->words = in->words;
    m->n = n;
    m->q = (int)in->q;
    m->gw = (int)((in->q + 63) / 64);
    m->holder = NEW(int, in->q);
    m->own = NEW(const Word *, in->q);
    m->guard = NEW(int, in->q);
    m->rows = NEW(Word, (size_t)n * m->gw);
    m->stamp = NEW(unsigned, n);
    m->seen = NEW(Word, m->gw);
    m->path = NEW(Step, in->q);
    if (!in->st || !in->off || !m->holder || !m->own || !m->guard || !m->rows
            || !m->stamp || !m->seen || !m->path) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < in->S; i++)
        if (read_state(PySequence_Fast_GET_ITEM(sseq, i), in->q, n,
                       in->st + (size_t)i * in->q) < 0)
            goto done;
    rc = 0;
done:
    Py_XDECREF(sseq);
    return rc;
}

/* Holder lists over the states with a nonzero flag in live (all states
   when live is NULL).  Posts are sorted, so repeats are adjacent. */
static int
build_holders(Instance *in, const unsigned char *live)
{
    Py_ssize_t i, s, v, n = in->n, q = in->q;
    const int *st = in->st;
    Py_ssize_t *off = in->off;

    for (i = 0; i < in->S; i++)
        if (live == NULL || live[i])
            for (s = 0; s < q; s++)
                if (s == 0 || st[i * q + s] != st[i * q + s - 1])
                    off[st[i * q + s] + 1]++;
    for (v = 0; v < n; v++)
        off[v + 1] += off[v];
    if ((in->cand = NEW(int, off[n])) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < in->S; i++)     /* off[v] advances to the end of v's list */
        if (live == NULL || live[i])
            for (s = 0; s < q; s++)
                if (s == 0 || st[i * q + s] != st[i * q + s - 1])
                    in->cand[off[st[i * q + s]]++] = (int)i;
    for (v = n; v > 0; v--)         /* and is shifted back to its start */
        off[v] = off[v - 1];
    off[0] = 0;
    return 0;
}

static int
bits(Word x)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_popcountll(x);
#else
    int c = 0;
    for (; x; x &= x - 1)
        c++;
    return c;
#endif
}

static PyObject *
enumerate_states(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "q", "masks", "limit", "work", NULL};
    Py_ssize_t n, q, words, v, w, t, pos = 0;
    long long limit = LLONG_MAX, prefixes = 0;
    int overflow;
    PyObject *masks_obj, *limit_obj = Py_None, *work_obj = Py_None, *out = NULL;
    PyObject *result = NULL;
    Py_buffer mview = {0}, wview = {0};
    const Word *ball;
    Word *full = NULL, *reach = NULL, *cov = NULL;
    long long *widest = NULL, *need = NULL;
    int *state = NULL;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nnO|OO:enumerate_states", kwlist,
                                     &n, &q, &masks_obj, &limit_obj, &work_obj))
        return NULL;
    if (q < 1 || q > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "q must be at least 1 and fit in an int");
        return NULL;
    }
    if (n < 0 || n > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "n must be non-negative and fit in an int");
        return NULL;
    }
    if (limit_obj != Py_None) {     /* an int past the range saturates */
        limit = PyLong_AsLongLongAndOverflow(limit_obj, &overflow);
        if (limit == -1 && PyErr_Occurred())
            return NULL;
        if (overflow)
            limit = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    }
    words = (n + 63) / 64;
    if (get_array(masks_obj, &mview, 0, "masks", "Q", sizeof(Word), n * words,
                  "n * ((n + 63) // 64)") < 0
            || (work_obj != Py_None
                && get_array(work_obj, &wview, PyBUF_WRITABLE, "work", "q",
                             sizeof(long long), 1, "1") < 0))
        goto done;
    ball = (const Word *)mview.buf;
    full = NEW(Word, words);
    reach = NEW(Word, (size_t)(n + 1) * words);     /* reach[n] is empty */
    widest = NEW(long long, n + 1);
    cov = NEW(Word, (size_t)(q + 1) * words);       /* cov[pos]: ball union of posts < pos */
    need = NEW(long long, q);                       /* need[pos]: vertices cov[pos] misses */
    state = NEW(int, q);
    if (!full || !reach || !widest || !cov || !need || !state) {
        PyErr_NoMemory();
        goto done;
    }
    if ((out = PyList_New(0)) == NULL)
        goto done;

    /* reach[v]: the union of the balls of v..n-1; widest[v]: the largest. */
    for (w = 0; w < words; w++)
        full[w] = ~(Word)0;
    if (n % 64)
        full[words - 1] = ((Word)1 << (n % 64)) - 1;
    for (v = n - 1; v >= 0; v--) {
        long long size = 0;
        for (w = 0; w < words; w++) {
            reach[v * words + w] = reach[(v + 1) * words + w] | ball[v * words + w];
            size += bits(ball[v * words + w]);
        }
        widest[v] = size > widest[v + 1] ? size : widest[v + 1];
    }

    /* Depth first: post pos goes to a vertex v at or after the previous
       post.  Both prunes only get stricter as v grows, so the first v
       that fails ends this post's loop and the walk backs up. */
    need[0] = n;
    v = 0;
    while (n > 0) {
        const Word *have = cov + pos * words;
        int fits = v < n && need[pos] <= (q - pos) * widest[v];
        for (w = 0; fits && w < words; w++)
            fits = (have[w] | reach[v * words + w]) == full[w];
        if (!fits) {
            if (pos == 0)
                break;
            v = state[--pos] + 1;
            continue;
        }
        if ((++prefixes & 0xFFFFF) == 0 && PyErr_CheckSignals() < 0)
            goto done;
        state[pos] = (int)v;
        Word *next = cov + (pos + 1) * words;
        long long open = 0;
        for (w = 0; w < words; w++) {
            next[w] = have[w] | ball[v * words + w];
            open += bits(full[w] & ~next[w]);
        }
        if (pos + 1 < q) {
            need[++pos] = open;     /* the next post starts at v again */
            continue;
        }
        if (open == 0) {
            PyObject *tuple = PyTuple_New(q), *x;
            if (tuple == NULL)
                goto done;
            for (t = 0; t < q; t++) {
                if ((x = PyLong_FromLong(state[t])) == NULL) {
                    Py_DECREF(tuple);
                    goto done;
                }
                PyTuple_SET_ITEM(tuple, t, x);
            }
            int rc = PyList_Append(out, tuple);
            Py_DECREF(tuple);
            if (rc < 0)
                goto done;
            if (PyList_GET_SIZE(out) > limit)
                break;
        }
        v++;
    }
    if (wview.obj != NULL)
        memcpy(wview.buf, &prefixes, sizeof prefixes);
    result = out;
    out = NULL;
done:
    if (mview.obj != NULL)
        PyBuffer_Release(&mview);
    if (wview.obj != NULL)
        PyBuffer_Release(&wview);
    PyMem_Free(full);
    PyMem_Free(reach);
    PyMem_Free(widest);
    PyMem_Free(cov);
    PyMem_Free(need);
    PyMem_Free(state);
    Py_XDECREF(out);
    return result;
}

/* First index of cv[lo..hi) holding a state >= stop, or hi. */
static int
bisect(const int *cv, int lo, int hi, int stop)
{
    while (lo < hi) {
        int mid = lo + (hi - lo) / 2;
        if (cv[mid] < stop)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* What bisect returns, found by galloping from lo: probe lo, lo + 1,
   lo + 3, lo + 7, ... until a state >= stop or hi brackets the answer,
   then bisect the last step.  A run of r states costs about 2 log2(r)
   probes near the cursor, not log2 of the rest of the list: bisecting
   the rest, as pure.py does, made the sweep 1.25-1.47x slower on P14-P20
   and the depth-5 binary tree (9 of 9 pairs each, BENCH_gallop.json). */
static int
gallop(const int *cv, int lo, int hi, int stop)
{
    Py_ssize_t step = 1;
    int past = lo;
    while (past < hi && cv[past] < stop) {
        lo = past + 1;
        past = hi - past > step ? past + (int)step : hi;
        step *= 2;
    }
    return bisect(cv, lo, past, stop);
}

enum { WORK_ITEMS = 5 };   /* probes, dead, matchings, matched, jumped */

static PyObject *
run_elimination(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "masks", "states", "wit", "budget", "work", NULL};
    Py_ssize_t n, S, q, i, v;
    long long budget, checks = 0, work[WORK_ITEMS] = {0};
    PyObject *masks_obj, *states_obj, *wit_obj, *work_obj = Py_None, *result = NULL;
    Py_buffer view = {0}, wview = {0};
    Instance in = {0};
    int *pos = NULL, *wit, *skip = NULL;
    const int *st, *cand;
    const Py_ssize_t *off;
    unsigned char *alive = NULL;
    Prefix *m = &in.m;
    int changed = 1, exceeded = 0;
    Py_ssize_t rounds = 0;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nOOOL|O:run_elimination", kwlist,
                                     &n, &masks_obj, &states_obj, &wit_obj, &budget,
                                     &work_obj))
        return NULL;
    if (read_instance(&in, n, masks_obj, states_obj) < 0
            || get_array(wit_obj, &view, PyBUF_WRITABLE, "wit", "i", sizeof(int), in.S * n,
                         "len(states) * n") < 0
            || (work_obj != Py_None
                && get_array(work_obj, &wview, PyBUF_WRITABLE, "work", "q",
                             sizeof(long long), WORK_ITEMS, "5") < 0)
            || build_holders(&in, NULL) < 0)
        goto done;
    S = in.S;
    q = in.q;
    st = in.st;
    cand = in.cand;
    off = in.off;
    pos = NEW(int, (size_t)S * n);
    alive = NEW(unsigned char, S);
    skip = NEW(int, (size_t)S * q);
    if (!pos || !alive || !skip) {
        PyErr_NoMemory();
        goto done;
    }
    wit = (int *)view.buf;

    /* skip[j * q + t]: the first state after j, in input order, whose
       first t + 1 posts differ from j's. */
    for (i = S - 1; i >= 0; i--) {
        const int *s = st + (size_t)i * q;
        Py_ssize_t same = 0, t;
        if (i + 1 < S)
            while (same < q && s[same] == s[q + same])
                same++;
        for (t = 0; t < q; t++)
            skip[i * q + t] = t < same ? skip[(i + 1) * q + t] : (int)i + 1;
    }

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
            prefix_reset(m, post);
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
                while (p < top) {
                    int j, fail, from = p;
                    while (p < top && !alive[cv[p]])
                        p++;
                    work[0] += p - from;    /* dead candidates, probed in one pass */
                    work[1] += p - from;
                    if (p == top)
                        break;
                    j = cv[p];
                    work[0]++;
                    work[2]++;
                    if ((fail = prefix_match(m, st + (size_t)j * q)) < 0) {
                        work[3]++;
                        break;
                    }
                    /* No state sharing j's first fail + 1 posts is reachable. */
                    int next = gallop(cv, p + 1, top, skip[(size_t)j * q + fail]);
                    work[4] += next - p - 1;
                    p = next;
                }
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
    if (wview.obj != NULL)
        memcpy(wview.buf, work, sizeof work);
    result = Py_BuildValue("(NnLO)", PyByteArray_FromStringAndSize((char *)alive, S),
                           rounds, checks, exceeded ? Py_True : Py_False);
done:
    free_instance(&in);
    if (view.obj != NULL)
        PyBuffer_Release(&view);
    if (wview.obj != NULL)
        PyBuffer_Release(&wview);
    PyMem_Free(pos);
    PyMem_Free(alive);
    PyMem_Free(skip);
    return result;
}

/* [next, posts[0], ..., posts[q - 1]] as a new list. */
static PyObject *
new_row(long next, const int *posts, Py_ssize_t q)
{
    PyObject *row = PyList_New(q + 1), *x;
    if (row == NULL)
        return NULL;
    for (Py_ssize_t c = 0; c <= q; c++) {
        if ((x = PyLong_FromLong(c ? posts[c - 1] : next)) == NULL) {
            Py_DECREF(row);
            return NULL;
        }
        PyList_SET_ITEM(row, c, x);
    }
    return row;
}

/* Enter state j into the family: its discovery slot, and its place in
   the ascending member list of each vertex it holds. */
static void
join(const Instance *in, int j, int *order, int *slot, Py_ssize_t *size,
     int *fam, Py_ssize_t *held)
{
    const int *post = in->st + (size_t)j * in->q;
    slot[j] = (int)*size;
    order[(*size)++] = j;
    for (Py_ssize_t t = 0; t < in->q; t++) {
        if (t > 0 && post[t] == post[t - 1])
            continue;
        int *fv = fam + in->off[post[t]];
        Py_ssize_t c = bisect(fv, 0, (int)held[post[t]], j);
        memmove(fv + c + 1, fv + c, (size_t)(held[post[t]] - c) * sizeof(int));
        fv[c] = j;
        held[post[t]]++;
    }
}

static PyObject *
certificate_rows(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "masks", "states", "alive", "wit", "cap", NULL};
    Py_ssize_t n, cap, S, q, i, v, c, r, h, size = 0, room = 0, width;
    PyObject *masks_obj, *states_obj, *alive_obj, *wit_obj;
    PyObject *members = NULL, *rows = NULL, *item, *result = NULL;
    Py_buffer aview = {0}, wview = {0};
    Instance in = {0};
    const unsigned char *alive;
    const int *wit;
    int *order = NULL, *slot = NULL, *resp = NULL, *fam = NULL, *out;
    Py_ssize_t *held = NULL;
    Prefix *m = &in.m;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "nOOOOn:certificate_rows", kwlist,
                                     &n, &masks_obj, &states_obj, &alive_obj, &wit_obj,
                                     &cap))
        return NULL;
    if (read_instance(&in, n, masks_obj, states_obj) < 0
            || PyObject_GetBuffer(alive_obj, &aview, PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        goto done;
    if (aview.itemsize != 1) {
        PyErr_SetString(PyExc_TypeError, "alive must be a bytearray of 0/1 flags");
        goto done;
    }
    if (aview.len != in.S) {
        PyErr_SetString(PyExc_ValueError, "alive must hold len(states) flags");
        goto done;
    }
    alive = (const unsigned char *)aview.buf;
    if (get_array(wit_obj, &wview, 0, "wit", "i", sizeof(int), in.S * n,
                  "len(states) * n") < 0 || build_holders(&in, alive) < 0)
        goto done;
    wit = (const int *)wview.buf;
    S = in.S;
    q = in.q;
    width = n * (q + 1);
    order = NEW(int, S);            /* order[h]: the h-th member found */
    slot = NEW(int, S);             /* slot[s]: h for member s, -1 for other states */
    /* fam[off[v]..off[v] + held[v]): the members holding v, ascending; the
       family holds only live states, so v's live holder count bounds it. */
    fam = NEW(int, in.off[n]);
    held = NEW(Py_ssize_t, n);
    if (!order || !slot || !fam || !held) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < S; i++)
        slot[i] = -1;

    /* Breadth-first from the least survivor.  resp holds the n rows
       [next, t_1, ..., t_q] of each member answered so far, with next
       still a state index until the members are sorted. */
    for (i = 0; i < S && !alive[i]; i++)
        ;
    if (i < S)
        join(&in, (int)i, order, slot, &size, fam, held);
    for (h = 0; h < size && size <= cap; h++) {
        if (h == room) {
            room = room ? 2 * room : 64;
            int *grown = PyMem_Realloc(resp, (size_t)room * width * sizeof(int) + 1);
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            resp = grown;
        }
        i = order[h];
        const int *post = in.st + (size_t)i * q;
        Py_ssize_t t = 0;
        out = resp + (size_t)h * width;
        for (v = 0; v < n; v++, out += q + 1) {
            /* The least member at or after lo that holds v and that i
               reaches.  On an occupied v that is i at the latest; on an
               unoccupied one no live state before the witness w is
               reachable, and w answers and joins when no member does. */
            int j = -1, w = (int)i, lo = 0;
            while (t < q && post[t] < v)
                t++;
            if (t >= q || post[t] != v) {
                w = wit[(size_t)i * n + v];
                lo = w >= 0 && w < S && alive[w] ? w : (int)S;  /* a bad witness: none answers */
            }
            const int *fv = fam + in.off[v];
            for (c = bisect(fv, 0, (int)held[v], lo); c < held[v] && j < 0; c++)
                if (moves_to(m, post, in.st + (size_t)fv[c] * q))
                    j = fv[c];
            if (j < 0 && lo < S && slot[w] < 0
                    && moves_to(m, post, in.st + (size_t)w * q))
                j = w;
            if (j < 0) {
                PyErr_Format(PyExc_ValueError, "no live state answers attack %zd on "
                             "state %zd: the witness table does not fit alive", v, i);
                goto done;
            }
            /* Guard holder[c] walks to post c of j, named by the first post
               of j on the same vertex. */
            const int *dst = in.st + (size_t)j * q;
            int first = 0;
            out[0] = j;
            for (c = 0; c < q; c++) {
                if (c == 0 || dst[c] != dst[c - 1])
                    first = (int)c;
                out[1 + m->holder[c]] = first;
            }
            if (slot[j] < 0)
                join(&in, j, order, slot, &size, fam, held);
        }
    }
    if (size > cap) {
        Py_INCREF(Py_None);
        result = Py_None;
        goto done;
    }

    /* Members in ascending state order; order[r] becomes the discovery
       index of the r-th member and slot its rank. */
    if ((members = PyList_New(size)) == NULL || (rows = PyList_New(size * n)) == NULL)
        goto done;
    for (i = 0, r = 0; i < S; i++) {
        if (slot[i] < 0)
            continue;
        if ((item = PyLong_FromSsize_t(i)) == NULL)
            goto done;
        PyList_SET_ITEM(members, r, item);
        order[r] = slot[i];
        slot[i] = (int)r++;
    }
    for (r = 0; r < size; r++) {
        out = resp + (size_t)order[r] * width;
        for (v = 0; v < n; v++, out += q + 1) {
            if ((item = new_row(slot[out[0]], out + 1, q)) == NULL)
                goto done;
            PyList_SET_ITEM(rows, r * n + v, item);
        }
    }
    result = PyTuple_Pack(2, members, rows);
done:
    free_instance(&in);
    if (aview.obj != NULL)
        PyBuffer_Release(&aview);
    if (wview.obj != NULL)
        PyBuffer_Release(&wview);
    PyMem_Free(order);
    PyMem_Free(slot);
    PyMem_Free(resp);
    PyMem_Free(fam);
    PyMem_Free(held);
    Py_XDECREF(members);
    Py_XDECREF(rows);
    return result;
}

static PyMethodDef methods[] = {
    {"enumerate_states", (PyCFunction)(void (*)(void))enumerate_states,
     METH_VARARGS | METH_KEYWORDS,
     "enumerate_states($module, /, n, q, masks, limit=None, work=None)\n"
     "--\n\n"
     "Size-q multisets whose balls cover range(n), as sorted tuples in\n"
     "lexicographic order, from masks, an array('Q') of n * ((n + 63) // 64)\n"
     "words; stops at limit + 1 states and, when given, leaves the prefixes\n"
     "visited in work, an array('q') of 1 item (see ekdom._kernel.pure)."},
    {"run_elimination", (PyCFunction)(void (*)(void))run_elimination,
     METH_VARARGS | METH_KEYWORDS,
     "run_elimination($module, /, n, masks, states, wit, budget, work=None)\n"
     "--\n\n"
     "Greatest-fixed-point elimination on the balls in masks (as enumerate_states\n"
     "reads them); returns (alive, rounds, checks, exceeded), leaves the witness\n"
     "table in wit, an array('i') of len(states) * n items, and, when given, the\n"
     "work counters in work, an array('q') of 5 items (see ekdom._kernel.pure)."},
    {"certificate_rows", (PyCFunction)(void (*)(void))certificate_rows,
     METH_VARARGS | METH_KEYWORDS,
     "certificate_rows($module, /, n, masks, states, alive, wit, cap)\n"
     "--\n\n"
     "Certificate rows of the family grown from the least survivor, moving on the\n"
     "balls in masks and answering from the family first; returns (members, rows),\n"
     "or None past cap members (see ekdom._kernel.pure)."},
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
