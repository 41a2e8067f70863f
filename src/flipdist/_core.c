/* Compiled search kernel, a CPython extension in C99.
 *
 * Same contract as _searchpure.run_budget and behaviorally identical to it;
 * see that module for the semantics.  Edges are ids a * n + b into flat
 * arrays, which caps point sets at 1024 (the selection layer falls back to the
 * pure kernel above that).  Coordinates are bounded by 2^30, so every
 * orientation determinant fits in a signed 64-bit product.
 *
 * One call parses prep once and steps comp through the compositions of k; a
 * rejected one undoes all its flips, so the next starts from the same state.
 * walk searches one composition in a single loop, with no recursion, so the
 * C stack does not grow with k.
 * All of a call's state, the n*n arrays included, lives in one block that
 * the call allocates and frees, so calls may nest: init reads Python
 * objects, whose methods could call back in.
 *
 * Build: setup.py compiles this file as flipdist._core; without an installed
 * build, flipdist._kernel compiles it on first import into a per-user cache.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdlib.h>
#include <string.h>

#define MAX_POINTS 1024
#define COORD_BOUND (1LL << 30)

/* Search results of walk: accept, reject, or a corrupt apex table (a Python
 * exception is set). */
enum { REJECT = 0, ACCEPT = 1, CORRUPT = -1 };

/* One iteration's cursor: the ordering its start edge came from and the
 * position just past that edge. */
typedef struct {
    const int *olex;
    int len, pos;
} Cursor;

typedef struct {
    int n, t, k_total, E, nec_cnt;
    unsigned long long inv; /* floor(2^32 / n) + 1, see div_n */
    long long *xs, *ys;
    int *ap0;        /* smaller apex per present edge */
    int *ap1;        /* larger apex, -1 on the hull */
    char *present, *targ;
    int *cur_edges;  /* the E current edge ids, unsorted */
    int *pos_of;     /* eid -> index in cur_edges */
    int *comp;       /* the current composition, t parts of k slots */
    int *stack;
    int *opool;      /* k + 1 rows of E ints: the start's ordering, then one
                      * rebuilt ordering per iteration */
    Cursor *cursors; /* k + 1 records, see walk */
    int *wflips;     /* (flipped, created) edge ids per flip, and */
    int *wacts;      /* action codes: the walk's undo log, and the witness */
} Search;

static int cmp_int(const void *x, const void *y)
{
    /* eids are < 1024^2, subtraction cannot overflow */
    return *(const int *)x - *(const int *)y;
}

/* e / n by a multiply, since the walk splits an edge id at every step:
 * e * inv / 2^32 overshoots e / n by less than e / 2^32 < 1 / n for
 * e < 2^20 and n <= 2^10, so its floor is exact. */
static int div_n(const Search *s, int e)
{
    return (int)((unsigned long long)e * s->inv >> 32);
}

static int eid2(const Search *s, int u, int v)
{
    return u < v ? u * s->n + v : v * s->n + u;
}

static int flippable(const Search *s, int e)
{
    int c = s->ap0[e], d = s->ap1[e];
    if (d < 0)
        return 0;
    int a = div_n(s, e), b = e - a * s->n;
    const long long *xs = s->xs, *ys = s->ys;
    long long dx = xs[d] - xs[c], dy = ys[d] - ys[c];
    /* c, d lie on opposite sides of ab: convex iff a, b lie strictly on
     * opposite sides of cd; each determinant can reach 2^62, so compare
     * their signs and never multiply them */
    long long sa = dx * (ys[a] - ys[c]) - dy * (xs[a] - xs[c]);
    long long sb = dx * (ys[b] - ys[c]) - dy * (xs[b] - xs[c]);
    return (sa < 0 && sb > 0) || (sa > 0 && sb < 0);
}

/* The pure kernel's reaction to an apex table that contradicts itself. */
static int corrupt(void)
{
    PyErr_SetString(PyExc_AssertionError, "apex table corrupted");
    return CORRUPT;
}

/* Replace apex old by new_ on side edge (u, v); CORRUPT when the edge is
 * absent or has no such apex. */
static int swap_apex(Search *s, int u, int v, int old, int new_)
{
    int e = eid2(s, u, v);
    if (!s->present[e])
        return corrupt();
    if (s->ap0[e] == old)
        s->ap0[e] = new_;
    else if (s->ap1[e] == old)
        s->ap1[e] = new_;
    else
        return corrupt();
    if (s->ap1[e] >= 0 && s->ap0[e] > s->ap1[e]) {
        int tmp = s->ap0[e];
        s->ap0[e] = s->ap1[e];
        s->ap1[e] = tmp;
    }
    return 0;
}

/* Flip edge e in place (caller checked flippability); returns the new edge's
 * id, or -1 on a corrupt apex table.  Calling again on that id is an exact
 * undo. */
static int do_flip(Search *s, int e)
{
    int n = s->n;
    int a = div_n(s, e), b = e - a * n;
    int c = s->ap0[e], d = s->ap1[e];
    int g = c * n + d;
    int idx, last;
    s->present[e] = 0;
    if (!s->targ[e])
        s->nec_cnt -= 1;
    idx = s->pos_of[e];
    last = s->cur_edges[s->E - 1];
    s->cur_edges[idx] = last;
    s->pos_of[last] = idx;
    s->E -= 1;
    s->present[g] = 1;
    s->ap0[g] = a;
    s->ap1[g] = b;
    if (!s->targ[g])
        s->nec_cnt += 1;
    s->cur_edges[s->E] = g;
    s->pos_of[g] = s->E;
    s->E += 1;
    if (swap_apex(s, a, c, b, d) < 0 || swap_apex(s, b, c, a, d) < 0 ||
        swap_apex(s, a, d, b, c) < 0 || swap_apex(s, b, d, a, c) < 0)
        return -1;
    return g;
}

/* One composition's search: the control flow of _searchpure._walk, step for
 * step, so see there.  Where _walk flips through triangulation._flips_into
 * and _apply_flip on the apex dict and counts missing edges itself, this
 * uses flippable and do_flip on the id arrays above, which keep s->nec_cnt.
 * it counts the iterations begun, cs[i + 1] is iteration i's cursor, and
 * cs[0] holds the start's ordering. */
static int walk(Search *s)
{
    Cursor *cs = s->cursors, *cc;
    int *stack = s->stack, *row;
    int it = 0, ki = 0, m = 0, f = 0, code = 0, top = 0, nf = 0, na = 0;
    int i, cur, nb, g;
    const int n = s->n, k_total = s->k_total;
    for (;;) {
        if (f == ki) { /* the iteration is complete, or none has begun */
            if (it == s->t) {
                if (s->nec_cnt == 0)
                    return ACCEPT;
            } else {
                /* cursor rule: next surviving necessary edge, else rebuild and restart */
                cc = cs + it + 1;
                *cc = cs[it];
                while (cc->pos < cc->len &&
                       (!s->present[cc->olex[cc->pos]] || s->targ[cc->olex[cc->pos]]))
                    cc->pos += 1;
                if (cc->pos == cc->len) {
                    cc->olex = row = s->opool + (size_t)(it + 1) * s->E;
                    cc->len = cc->pos = 0;
                    for (i = 0; i < s->E; i++)
                        if (!s->targ[s->cur_edges[i]])
                            row[cc->len++] = s->cur_edges[i];
                    qsort(row, cc->len, sizeof(int), cmp_int);
                }
                if (cc->pos < cc->len) {
                    stack[top++] = cc->olex[cc->pos++];
                    ki = s->comp[it++];
                    m = f = code = 0;
                    continue;
                }
            }
            if (it == 0)
                return REJECT;
        } else {
            cur = stack[top - 1];
            if (code < 4 && m < ki - 1 && (code < 2 || s->ap1[cur] >= 0)) {
                nb = eid2(s, code & 1 ? cur - div_n(s, cur) * n : div_n(s, cur),
                          code & 2 ? s->ap1[cur] : s->ap0[cur]);
                /* the pure kernel looks up the edge a Move walks to right away */
                if (!s->present[nb])
                    return corrupt();
                stack[top++] = nb;
                s->wacts[na++] = code;
                m += 1;
                code = 0;
                continue;
            }
            if ((f < m || (m == ki - 1 && f == ki - 1)) && flippable(s, cur)) {
                if ((g = do_flip(s, cur)) < 0)
                    return CORRUPT;
                s->wflips[2 * nf] = cur;
                s->wflips[2 * nf + 1] = g;
                nf += 1;
                s->wacts[na++] = 4;
                top -= 1;
                f += 1;
                /* prune: the pop exposes a destroyed edge, or too few flips remain */
                if ((top == 0 || s->present[stack[top - 1]]) && s->nec_cnt <= k_total - nf) {
                    code = 0;
                    continue;
                }
            }
        }
        do { /* retreat past every FlipBack, which has no next action */
            if (m + f == 0) { /* drop an iteration whose start edge has nothing left */
                top -= 1;
                if (--it == 0)
                    return REJECT;
                ki = s->comp[it - 1];
                m = ki - 1;
                f = ki;
            }
            code = s->wacts[--na];
            if (code < 4) {
                top -= 1;
                m -= 1;
            } else {
                nf -= 1;
                if (do_flip(s, s->wflips[2 * nf + 1]) < 0)
                    return CORRUPT;
                stack[top++] = s->wflips[2 * nf];
                f -= 1;
            }
        } while (code == 4);
        code += 1;
    }
}

/* Read the int in seq[i] into *out, requiring lo <= value < hi. */
static int get_int(PyObject *seq, Py_ssize_t i, long long lo, long long hi, long long *out)
{
    PyObject *item = PySequence_GetItem(seq, i);
    if (item == NULL)
        return -1;
    long long v = PyLong_AsLongLong(item);
    Py_DECREF(item);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < lo || v >= hi) {
        PyErr_Format(PyExc_ValueError, "value %lld outside [%lld, %lld)", v, lo, hi);
        return -1;
    }
    *out = v;
    return 0;
}

/* Fill s from prep and k, with comp at (1, ..., 1); -1 with an exception set
 * on bad input.  Every index is range-checked because the search writes
 * through it. */
static int search_init(Search *s, PyObject *prep, long long k)
{
    PyObject *n_obj, *xs_obj, *ys_obj, *edges_obj, *target_obj;
    Py_ssize_t E, nt, i;
    long long n, a, b, c, d;
    int nn;

    if (k < 1 || k >= INT_MAX / 4) {
        PyErr_Format(PyExc_ValueError, "flip budget %lld outside [1, %d)", k, INT_MAX / 4);
        return -1;
    }
    if (!PyArg_ParseTuple(prep, "OOOOO;prep must be (n, xs, ys, edges, target)",
                          &n_obj, &xs_obj, &ys_obj, &edges_obj, &target_obj))
        return -1;
    n = PyLong_AsLongLong(n_obj);
    if (n == -1 && PyErr_Occurred())
        return -1;
    if (n > MAX_POINTS) {
        PyErr_SetString(PyExc_ValueError, "compiled kernel is capped at 1024 points");
        return -1;
    }
    if (n < 1 || PySequence_Size(xs_obj) != n || PySequence_Size(ys_obj) != n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "prep needs n >= 1 and n coordinates per axis");
        return -1;
    }
    nn = (int)(n * n);
    E = PySequence_Size(edges_obj);
    nt = PySequence_Size(target_obj);
    if (E < 0 || nt < 0)
        return -1;
    if (E > nn) {
        PyErr_SetString(PyExc_ValueError, "more edges than the point set allows");
        return -1;
    }
    s->n = (int)n;
    s->inv = (1ULL << 32) / (unsigned long long)n + 1;
    s->E = (int)E;
    s->t = s->k_total = (int)k;
    /* one block per call, freed through xs: the coordinates, the cursors,
     * then comp, cur_edges, stack, opool, wflips, wacts, ap0, ap1 and
     * pos_of, then present and targ */
    s->xs = malloc(2 * n * sizeof(long long) + (k + 1) * sizeof(Cursor) +
                   ((size_t)(k + 1) * E + E + 6 * k + 2 + 3 * (size_t)nn) * sizeof(int) +
                   2 * (size_t)nn);
    if (s->xs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    s->ys = s->xs + n;
    s->cursors = (Cursor *)(s->ys + n);
    s->comp = (int *)(s->cursors + k + 1);
    s->cur_edges = s->comp + k;
    s->stack = s->cur_edges + E;
    s->opool = s->stack + k + 2;
    s->wflips = s->opool + (size_t)(k + 1) * E;
    s->wacts = s->wflips + 2 * k;
    s->ap0 = s->wacts + 2 * k;
    s->ap1 = s->ap0 + nn;
    s->pos_of = s->ap1 + nn;
    /* ap0, ap1 and pos_of are read only where present is set */
    s->present = memset(s->pos_of + nn, 0, 2 * (size_t)nn);
    s->targ = s->present + nn;
    for (i = 0; i < k; i++)
        s->comp[i] = 1;

    for (i = 0; i < n; i++) /* the bound keeps every orientation in 64 bits */
        if (get_int(xs_obj, i, -COORD_BOUND, COORD_BOUND + 1, &s->xs[i]) < 0 ||
            get_int(ys_obj, i, -COORD_BOUND, COORD_BOUND + 1, &s->ys[i]) < 0)
            return -1;
    for (i = 0; i < E; i++) {
        PyObject *tup = PySequence_GetItem(edges_obj, i);
        int bad;
        if (tup == NULL)
            return -1;
        bad = PySequence_Size(tup) != 4 || get_int(tup, 0, 0, n, &a) < 0 ||
              get_int(tup, 1, a + 1, n, &b) < 0 || get_int(tup, 2, 0, n, &c) < 0 ||
              get_int(tup, 3, -1, n, &d) < 0;
        Py_DECREF(tup);
        if (bad) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "prep edges must be (a, b, c, d)");
            return -1;
        }
        int eid = (int)(a * n + b);
        s->present[eid] = 1;
        s->ap0[eid] = (int)c;
        s->ap1[eid] = (int)d;
        s->cur_edges[i] = eid;
        s->pos_of[eid] = (int)i;
    }
    for (i = 0; i < nt; i++) {
        PyObject *tup = PySequence_GetItem(target_obj, i);
        int bad;
        if (tup == NULL)
            return -1;
        bad = PySequence_Size(tup) != 2 || get_int(tup, 0, 0, n, &a) < 0 ||
              get_int(tup, 1, a + 1, n, &b) < 0;
        Py_DECREF(tup);
        if (bad) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "prep target edges must be (a, b)");
            return -1;
        }
        s->targ[a * n + b] = 1;
    }
    for (i = 0; i < E; i++) /* input edges are sorted, so this is ascending */
        if (!s->targ[s->cur_edges[i]])
            s->opool[s->nec_cnt++] = s->cur_edges[i];
    s->cursors[0] = (Cursor){s->opool, s->nec_cnt, 0};
    return 0;
}

/* The accept triple (flips, starts, actions) from the witness buffers. */
static PyObject *witness(const Search *s)
{
    PyObject *flips = PyList_New(s->k_total);
    PyObject *starts = PyList_New(s->t);
    PyObject *actions = PyList_New(s->t);
    int i, j, n = s->n, off = 0;
    if (flips == NULL || starts == NULL || actions == NULL)
        goto fail;
    for (i = 0; i < s->k_total; i++) {
        int e = s->wflips[2 * i], g = s->wflips[2 * i + 1];
        PyObject *item = Py_BuildValue("(iiii)", e / n, e % n, g / n, g % n);
        if (item == NULL)
            goto fail;
        PyList_SET_ITEM(flips, i, item);
    }
    for (i = 0; i < s->t; i++) {
        const Cursor *cc = s->cursors + i + 1;
        int len = 2 * s->comp[i] - 1, e = cc->olex[cc->pos - 1];
        PyObject *item = Py_BuildValue("(ii)", e / n, e % n);
        PyObject *acts = PyList_New(len);
        if (item == NULL || acts == NULL) {
            Py_XDECREF(item);
            Py_XDECREF(acts);
            goto fail;
        }
        PyList_SET_ITEM(starts, i, item);
        PyList_SET_ITEM(actions, i, acts);
        for (j = 0; j < len; j++) {
            PyObject *code = PyLong_FromLong(s->wacts[off++]);
            if (code == NULL)
                goto fail;
            PyList_SET_ITEM(acts, j, code);
        }
    }
    return Py_BuildValue("(NNN)", flips, starts, actions);
fail:
    Py_XDECREF(flips);
    Py_XDECREF(starts);
    Py_XDECREF(actions);
    return NULL;
}

/* Step comp to the next composition in lexicographic order: drop the last
 * part, add one to the part before it, append ones.  0 after (k). */
static int next_composition(Search *s)
{
    int last;
    if (s->t == 1)
        return 0;
    last = s->comp[--s->t];
    s->comp[s->t - 1] += 1;
    while (--last > 0)
        s->comp[s->t++] = 1;
    return 1;
}

static PyObject *run_budget(PyObject *self, PyObject *args)
{
    PyObject *prep, *result = NULL;
    long long k;
    Search s;
    int r;
    (void)self;
    if (!PyArg_ParseTuple(args, "O!L:run_budget", &PyTuple_Type, &prep, &k))
        return NULL;
    memset(&s, 0, sizeof s);
    if (search_init(&s, prep, k) == 0) {
        do
            r = walk(&s);
        while (r == REJECT && next_composition(&s));
        if (r == ACCEPT)
            result = witness(&s);
        else if (r == REJECT)
            result = Py_NewRef(Py_None);
    }
    free(s.xs);
    return result;
}

static PyMethodDef core_methods[] = {
    {"run_budget", run_budget, METH_VARARGS,
     "run_budget(prep, k)\n--\n\n"
     "Drop-in replacement for _searchpure.run_budget (see its doc)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, .m_name = "_core", .m_doc = "Compiled search kernel.",
    .m_size = -1, .m_methods = core_methods,
};

PyMODINIT_FUNC PyInit__core(void)
{
    return PyModule_Create(&core_module);
}
