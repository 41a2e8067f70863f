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
 * The n*n arrays live in module buffers grown to the largest n seen, so a
 * scan over k does not page-fault them in again for every budget.  That
 * makes run_budget non-reentrant: a nested call raises RuntimeError.
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

/* Search results of iterate/descend: accept, reject, or a corrupt apex table
 * (a Python exception is set). */
enum { REJECT = 0, ACCEPT = 1, CORRUPT = -1 };

typedef struct {
    int n, t, k_total, E, nec_cnt, stack_len, olex0_len, wf_cnt, wact_cnt;
    long long *xs, *ys;
    int *ap0;        /* smaller apex per present edge */
    int *ap1;        /* larger apex, -1 on the hull */
    char *present, *targ;
    int *cur_edges;  /* the E current edge ids, unsorted */
    int *pos_of;     /* eid -> index in cur_edges */
    int *comp;       /* the current composition, t parts of k slots */
    int *stack;
    int *olex0;
    int *opool;      /* k rows of E ints: rebuilt orderings, one row per depth */
    int *wflips;     /* witness buffers, only valid on accept */
    int *wstarts;
    int *wacts;
    int *act_off;
} Search;

/* ap0, ap1 and pos_of are read only where present is set; each call clears
 * present and targ before it loads prep. */
static struct {
    size_t cap;
    int busy;
    int *ap0, *ap1, *pos_of;
    char *present, *targ;
} shared;

static int cmp_int(const void *x, const void *y)
{
    /* eids are < 1024^2, subtraction cannot overflow */
    return *(const int *)x - *(const int *)y;
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
    int a = e / s->n, b = e % s->n;
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
    int a = e / n, b = e % n;
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

static int descend(Search *s, int it, const int *olex, int olen, int pos, int ki,
                   int m, int f);

static int iterate(Search *s, int it, const int *olex, int olen, int pos)
{
    int p, e, chosen, i, cnt, r;
    int *row;
    if (it == s->t)
        return s->nec_cnt == 0 ? ACCEPT : REJECT;
    /* cursor rule: next surviving necessary edge, else rebuild and restart */
    chosen = -1;
    p = pos;
    while (p < olen) {
        e = olex[p];
        p += 1;
        if (s->present[e] && !s->targ[e]) {
            chosen = e;
            break;
        }
    }
    if (chosen < 0) {
        row = s->opool + (size_t)it * s->E;
        cnt = 0;
        for (i = 0; i < s->E; i++) {
            e = s->cur_edges[i];
            if (!s->targ[e])
                row[cnt++] = e;
        }
        if (cnt == 0)
            return REJECT;
        qsort(row, cnt, sizeof(int), cmp_int);
        olex = row;
        olen = cnt;
        chosen = row[0];
        p = 1;
    }
    s->wstarts[it] = chosen;
    s->act_off[it] = s->wact_cnt;
    s->stack[0] = chosen;
    s->stack_len = 1;
    r = descend(s, it, olex, olen, p, s->comp[it], 0, 0);
    if (r != REJECT)
        return r;
    s->stack_len = 0;
    return REJECT;
}

static int descend(Search *s, int it, const int *olex, int olen, int pos, int ki,
                   int m, int f)
{
    int cur, a, b, c, d, dd, nb, g, nbcnt, r, may_flip;
    if (f == ki)
        return iterate(s, it + 1, olex, olen, pos);
    cur = s->stack[s->stack_len - 1];
    may_flip = f < m || (m == ki - 1 && f == ki - 1);
    /* an absent edge fails only where the pure kernel would look it up */
    if ((m < ki - 1 || may_flip) && !s->present[cur])
        return corrupt();
    if (m < ki - 1) {
        a = cur / s->n;
        b = cur % s->n;
        c = s->ap0[cur];
        d = s->ap1[cur];
        nbcnt = d < 0 ? 2 : 4;
        for (dd = 0; dd < nbcnt; dd++) {
            if (dd == 0)
                nb = eid2(s, a, c);
            else if (dd == 1)
                nb = eid2(s, b, c);
            else if (dd == 2)
                nb = eid2(s, a, d);
            else
                nb = eid2(s, b, d);
            s->wacts[s->wact_cnt++] = dd;
            s->stack[s->stack_len++] = nb;
            r = descend(s, it, olex, olen, pos, ki, m + 1, f);
            if (r != REJECT)
                return r;
            s->stack_len -= 1;
            s->wact_cnt -= 1;
        }
    }
    if (may_flip && flippable(s, cur)) {
        g = do_flip(s, cur);
        if (g < 0)
            return CORRUPT;
        s->wflips[4 * s->wf_cnt] = cur / s->n;
        s->wflips[4 * s->wf_cnt + 1] = cur % s->n;
        s->wflips[4 * s->wf_cnt + 2] = g / s->n;
        s->wflips[4 * s->wf_cnt + 3] = g % s->n;
        s->wf_cnt += 1;
        s->wacts[s->wact_cnt++] = 4;
        /* prune: the pop exposes a destroyed edge, or too few flips remain */
        s->stack_len -= 1;
        if ((s->stack_len == 0 || s->present[s->stack[s->stack_len - 1]]) &&
            s->nec_cnt <= s->k_total - s->wf_cnt) {
            r = descend(s, it, olex, olen, pos, ki, m, f + 1);
            if (r != REJECT)
                return r;
        }
        s->stack[s->stack_len++] = cur;
        s->wact_cnt -= 1;
        s->wf_cnt -= 1;
        if (do_flip(s, g) < 0)
            return CORRUPT;
    }
    return REJECT;
}

static void shared_free(void)
{
    free(shared.ap0);
    free(shared.ap1);
    free(shared.pos_of);
    free(shared.present);
    free(shared.targ);
    shared.ap0 = shared.ap1 = shared.pos_of = NULL;
    shared.present = shared.targ = NULL;
    shared.cap = 0;
}

static void search_free(Search *s)
{
    free(s->xs);
    free(s->ys);
    free(s->cur_edges);
    free(s->comp);
    free(s->stack);
    free(s->olex0);
    free(s->opool);
    free(s->wflips);
    free(s->wstarts);
    free(s->wacts);
    free(s->act_off);
}

static void *xmalloc(size_t count, size_t size)
{
    return malloc(count > 0 ? count * size : 1);
}

/* Grow the shared buffers to nn entries; -1 with MemoryError on failure. */
static int shared_reserve(size_t nn)
{
    if (nn <= shared.cap)
        return 0;
    shared_free();
    shared.ap0 = xmalloc(nn, sizeof(int));
    shared.ap1 = xmalloc(nn, sizeof(int));
    shared.pos_of = xmalloc(nn, sizeof(int));
    shared.present = calloc(nn, 1);
    shared.targ = calloc(nn, 1);
    if (!shared.ap0 || !shared.ap1 || !shared.pos_of || !shared.present || !shared.targ) {
        shared_free();
        PyErr_NoMemory();
        return -1;
    }
    shared.cap = nn;
    return 0;
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
    s->E = (int)E;
    s->t = s->k_total = (int)k;
    s->comp = xmalloc(k, sizeof(int));
    s->xs = xmalloc(n, sizeof(long long));
    s->ys = xmalloc(n, sizeof(long long));
    s->cur_edges = xmalloc(E, sizeof(int));
    s->stack = xmalloc(k + 2, sizeof(int));
    s->olex0 = xmalloc(E, sizeof(int));
    s->opool = xmalloc((size_t)k * E, sizeof(int));
    s->wflips = xmalloc(4 * k, sizeof(int));
    s->wstarts = xmalloc(k, sizeof(int));
    s->wacts = xmalloc(2 * k, sizeof(int));
    s->act_off = xmalloc(k, sizeof(int));
    if (!s->comp || !s->xs || !s->ys || !s->cur_edges || !s->stack || !s->olex0 ||
        !s->opool || !s->wflips || !s->wstarts || !s->wacts || !s->act_off) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < k; i++)
        s->comp[i] = 1;
    if (shared_reserve((size_t)nn) < 0)
        return -1;
    s->ap0 = shared.ap0;
    s->ap1 = shared.ap1;
    s->pos_of = shared.pos_of;
    s->present = memset(shared.present, 0, (size_t)nn);
    s->targ = memset(shared.targ, 0, (size_t)nn);

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
    for (i = 0; i < E; i++) { /* input edges are sorted, so this is ascending */
        int eid = s->cur_edges[i];
        if (!s->targ[eid])
            s->olex0[s->olex0_len++] = eid;
    }
    s->nec_cnt = s->olex0_len;
    return 0;
}

/* The accept triple (flips, starts, actions) from the witness buffers. */
static PyObject *witness(const Search *s)
{
    PyObject *flips = PyList_New(s->wf_cnt);
    PyObject *starts = PyList_New(s->t);
    PyObject *actions = PyList_New(s->t);
    int i, j, n = s->n;
    if (flips == NULL || starts == NULL || actions == NULL)
        goto fail;
    for (i = 0; i < s->wf_cnt; i++) {
        const int *w = s->wflips + 4 * i;
        PyObject *item = Py_BuildValue("(iiii)", w[0], w[1], w[2], w[3]);
        if (item == NULL)
            goto fail;
        PyList_SET_ITEM(flips, i, item);
    }
    for (i = 0; i < s->t; i++) {
        int len = 2 * s->comp[i] - 1;
        PyObject *item = Py_BuildValue("(ii)", s->wstarts[i] / n, s->wstarts[i] % n);
        PyObject *acts = PyList_New(len);
        if (item == NULL || acts == NULL) {
            Py_XDECREF(item);
            Py_XDECREF(acts);
            goto fail;
        }
        PyList_SET_ITEM(starts, i, item);
        PyList_SET_ITEM(actions, i, acts);
        for (j = 0; j < len; j++) {
            PyObject *code = PyLong_FromLong(s->wacts[s->act_off[i] + j]);
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
    /* init reads Python objects, whose methods could call back in */
    if (shared.busy) {
        PyErr_SetString(PyExc_RuntimeError, "run_budget is not reentrant");
        return NULL;
    }
    shared.busy = 1;
    memset(&s, 0, sizeof s);
    if (search_init(&s, prep, k) == 0) {
        do
            r = iterate(&s, 0, s.olex0, s.olex0_len, 0);
        while (r == REJECT && next_composition(&s));
        if (r == ACCEPT)
            result = witness(&s);
        else if (r == REJECT)
            result = Py_NewRef(Py_None);
    }
    search_free(&s);
    shared.busy = 0;
    return result;
}

static PyMethodDef core_methods[] = {
    {"run_budget", run_budget, METH_VARARGS,
     "run_budget(prep, k)\n--\n\n"
     "Drop-in replacement for _searchpure.run_budget (see its doc)."},
    {NULL, NULL, 0, NULL},
};

static void core_free(void *module)
{
    (void)module;
    shared_free();
}

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core", "Compiled search kernel.", -1, core_methods,
    NULL, NULL, NULL, core_free,
};

PyMODINIT_FUNC PyInit__core(void)
{
    return PyModule_Create(&core_module);
}
