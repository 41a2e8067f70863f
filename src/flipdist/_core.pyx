# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled search kernel.

Same contract as ``_searchpure.run_composition`` and behaviorally identical to
it; see that module for the semantics.  Edges are ids a * n + b into flat
C arrays, which caps point sets at 1024 (the selection layer falls back to the
pure kernel above that).  Coordinates are bounded by 2^30, so every orientation
determinant fits in a signed 64-bit product.
"""

from libc.stdlib cimport free, malloc, qsort
from libc.string cimport memset


cdef int _cmp_int(const void* x, const void* y) noexcept nogil:
    # eids are < 1024^2, subtraction cannot overflow
    return (<const int*> x)[0] - (<const int*> y)[0]


cdef void* _xmalloc(size_t nbytes) except NULL:
    cdef void* p = malloc(nbytes if nbytes > 0 else 1)
    if p == NULL:
        raise MemoryError()
    return p


cdef class _Search:
    cdef int n, t, k_total, E, nec_cnt, stack_len, olex0_len, wf_cnt, wact_cnt
    cdef long long* xs
    cdef long long* ys
    cdef int* ap0          # smaller apex per present edge
    cdef int* ap1          # larger apex, -1 on the hull
    cdef char* present
    cdef char* targ
    cdef int* cur_edges    # the E current edge ids, unsorted
    cdef int* pos_of       # eid -> index in cur_edges
    cdef int* comp
    cdef int* stack
    cdef int* olex0
    cdef int* opool        # t rows of E ints: rebuilt orderings, one row per depth
    cdef int* wflips       # witness buffers, only valid on accept
    cdef int* wstarts
    cdef int* wacts
    cdef int* act_off

    def __cinit__(self, prep, parts):
        n_, xs_, ys_, edges_, target_ = prep
        cdef int n = n_
        cdef int nn = n * n
        cdef int E = len(edges_)
        cdef int t = len(parts)
        cdef int i, a, b, eid
        self.n = n
        self.E = E
        self.t = t
        self.k_total = 0
        for p in parts:
            self.k_total += p

        self.xs = <long long*> _xmalloc(n * sizeof(long long))
        self.ys = <long long*> _xmalloc(n * sizeof(long long))
        self.ap0 = <int*> _xmalloc(nn * sizeof(int))
        self.ap1 = <int*> _xmalloc(nn * sizeof(int))
        self.present = <char*> _xmalloc(nn)
        self.targ = <char*> _xmalloc(nn)
        self.cur_edges = <int*> _xmalloc(E * sizeof(int))
        self.pos_of = <int*> _xmalloc(nn * sizeof(int))
        self.comp = <int*> _xmalloc(t * sizeof(int))
        self.stack = <int*> _xmalloc((self.k_total + 2) * sizeof(int))
        self.olex0 = <int*> _xmalloc(E * sizeof(int))
        self.opool = <int*> _xmalloc(t * E * sizeof(int))
        self.wflips = <int*> _xmalloc(4 * self.k_total * sizeof(int))
        self.wstarts = <int*> _xmalloc(t * sizeof(int))
        self.wacts = <int*> _xmalloc(2 * self.k_total * sizeof(int))
        self.act_off = <int*> _xmalloc(t * sizeof(int))

        for i in range(n):
            self.xs[i] = xs_[i]
            self.ys[i] = ys_[i]
        memset(self.present, 0, nn)
        memset(self.targ, 0, nn)
        i = 0
        for tup in edges_:
            eid = <int> tup[0] * n + <int> tup[1]
            self.present[eid] = 1
            self.ap0[eid] = tup[2]
            self.ap1[eid] = tup[3]
            self.cur_edges[i] = eid
            self.pos_of[eid] = i
            i += 1
        for tup in target_:
            self.targ[<int> tup[0] * n + <int> tup[1]] = 1
        self.nec_cnt = 0
        self.olex0_len = 0
        for i in range(E):  # input edges are sorted, so this is ascending
            eid = self.cur_edges[i]
            if not self.targ[eid]:
                self.olex0[self.olex0_len] = eid
                self.olex0_len += 1
                self.nec_cnt += 1
        for i in range(t):
            self.comp[i] = parts[i]
        self.stack_len = 0
        self.wf_cnt = 0
        self.wact_cnt = 0

    def __dealloc__(self):
        free(self.xs)
        free(self.ys)
        free(self.ap0)
        free(self.ap1)
        free(self.present)
        free(self.targ)
        free(self.cur_edges)
        free(self.pos_of)
        free(self.comp)
        free(self.stack)
        free(self.olex0)
        free(self.opool)
        free(self.wflips)
        free(self.wstarts)
        free(self.wacts)
        free(self.act_off)

    cdef inline int eid2(self, int u, int v) noexcept:
        return u * self.n + v if u < v else v * self.n + u

    cdef inline bint flippable(self, int e) noexcept:
        cdef int c = self.ap0[e]
        cdef int d = self.ap1[e]
        if d < 0:
            return False
        cdef int a = e // self.n
        cdef int b = e % self.n
        cdef long long* xs = self.xs
        cdef long long* ys = self.ys
        # quad corners in cyclic order a, c, b, d must turn consistently
        cdef long long s1 = (xs[c] - xs[a]) * (ys[b] - ys[a]) - (ys[c] - ys[a]) * (xs[b] - xs[a])
        cdef long long s2 = (xs[b] - xs[c]) * (ys[d] - ys[c]) - (ys[b] - ys[c]) * (xs[d] - xs[c])
        cdef long long s3 = (xs[d] - xs[b]) * (ys[a] - ys[b]) - (ys[d] - ys[b]) * (xs[a] - xs[b])
        cdef long long s4 = (xs[a] - xs[d]) * (ys[c] - ys[d]) - (ys[a] - ys[d]) * (xs[c] - xs[d])
        return (s1 > 0 and s2 > 0 and s3 > 0 and s4 > 0) or \
               (s1 < 0 and s2 < 0 and s3 < 0 and s4 < 0)

    cdef inline void swap_apex(self, int u, int v, int old, int new_) noexcept:
        cdef int s = self.eid2(u, v)
        cdef int tmp
        if self.ap0[s] == old:
            self.ap0[s] = new_
        elif self.ap1[s] == old:
            self.ap1[s] = new_
        if self.ap1[s] >= 0 and self.ap0[s] > self.ap1[s]:
            tmp = self.ap0[s]
            self.ap0[s] = self.ap1[s]
            self.ap1[s] = tmp

    cdef int do_flip(self, int e) noexcept:
        """Flip edge e in place (caller checked flippability); returns the new
        edge's id.  Calling again on that id is an exact undo."""
        cdef int n = self.n
        cdef int a = e // n
        cdef int b = e % n
        cdef int c = self.ap0[e]
        cdef int d = self.ap1[e]
        cdef int g = c * n + d
        cdef int idx, last
        self.present[e] = 0
        if not self.targ[e]:
            self.nec_cnt -= 1
        idx = self.pos_of[e]
        last = self.cur_edges[self.E - 1]
        self.cur_edges[idx] = last
        self.pos_of[last] = idx
        self.E -= 1
        self.present[g] = 1
        self.ap0[g] = a
        self.ap1[g] = b
        if not self.targ[g]:
            self.nec_cnt += 1
        self.cur_edges[self.E] = g
        self.pos_of[g] = self.E
        self.E += 1
        self.swap_apex(a, c, b, d)
        self.swap_apex(b, c, a, d)
        self.swap_apex(a, d, b, c)
        self.swap_apex(b, d, a, c)
        return g

    cdef bint iterate(self, int it, int* olex, int olen, int pos) noexcept:
        cdef int p, e, chosen, i, cnt
        cdef int* row
        if it == self.t:
            return self.nec_cnt == 0
        # cursor rule: next surviving necessary edge, else rebuild and restart
        chosen = -1
        p = pos
        while p < olen:
            e = olex[p]
            p += 1
            if self.present[e] and not self.targ[e]:
                chosen = e
                break
        if chosen < 0:
            row = self.opool + it * self.E
            cnt = 0
            for i in range(self.E):
                e = self.cur_edges[i]
                if not self.targ[e]:
                    row[cnt] = e
                    cnt += 1
            if cnt == 0:
                return False
            qsort(row, cnt, sizeof(int), _cmp_int)
            olex = row
            olen = cnt
            chosen = row[0]
            p = 1
        self.wstarts[it] = chosen
        self.act_off[it] = self.wact_cnt
        self.stack[0] = chosen
        self.stack_len = 1
        if self.descend(it, olex, olen, p, self.comp[it], 0, 0):
            return True
        self.stack_len = 0
        return False

    cdef bint descend(self, int it, int* olex, int olen, int pos, int ki,
                      int m, int f) noexcept:
        cdef int cur, a, b, c, d, dd, nb, g, nbcnt
        if f == ki:
            return self.iterate(it + 1, olex, olen, pos)
        cur = self.stack[self.stack_len - 1]
        if m < ki - 1:
            a = cur // self.n
            b = cur % self.n
            c = self.ap0[cur]
            d = self.ap1[cur]
            nbcnt = 2 if d < 0 else 4
            for dd in range(nbcnt):
                if dd == 0:
                    nb = self.eid2(a, c)
                elif dd == 1:
                    nb = self.eid2(b, c)
                elif dd == 2:
                    nb = self.eid2(a, d)
                else:
                    nb = self.eid2(b, d)
                self.wacts[self.wact_cnt] = dd
                self.wact_cnt += 1
                self.stack[self.stack_len] = nb
                self.stack_len += 1
                if self.descend(it, olex, olen, pos, ki, m + 1, f):
                    return True
                self.stack_len -= 1
                self.wact_cnt -= 1
        if (f < m or (m == ki - 1 and f == ki - 1)) and self.flippable(cur):
            g = self.do_flip(cur)
            self.wflips[4 * self.wf_cnt] = cur // self.n
            self.wflips[4 * self.wf_cnt + 1] = cur % self.n
            self.wflips[4 * self.wf_cnt + 2] = g // self.n
            self.wflips[4 * self.wf_cnt + 3] = g % self.n
            self.wf_cnt += 1
            self.wacts[self.wact_cnt] = 4
            self.wact_cnt += 1
            self.stack_len -= 1  # prune: the pop exposes a destroyed edge, or too few flips remain
            if ((self.stack_len == 0 or self.present[self.stack[self.stack_len - 1]])
                    and self.nec_cnt <= self.k_total - self.wf_cnt):
                if self.descend(it, olex, olen, pos, ki, m, f + 1):
                    return True
            self.stack[self.stack_len] = cur
            self.stack_len += 1
            self.wact_cnt -= 1
            self.wf_cnt -= 1
            self.do_flip(g)
        return False

    def run(self):
        cdef int i, j, base, ln
        if not self.iterate(0, self.olex0, self.olex0_len, 0):
            return None
        flips = [(self.wflips[4 * i], self.wflips[4 * i + 1],
                  self.wflips[4 * i + 2], self.wflips[4 * i + 3])
                 for i in range(self.wf_cnt)]
        starts = [(self.wstarts[i] // self.n, self.wstarts[i] % self.n)
                  for i in range(self.t)]
        actions = []
        for i in range(self.t):
            base = self.act_off[i]
            ln = 2 * self.comp[i] - 1
            actions.append([self.wacts[base + j] for j in range(ln)])
        return flips, starts, actions


def run_composition(prep, parts):
    """Drop-in replacement for _searchpure.run_composition (see its doc)."""
    if prep[0] > 1024:
        raise ValueError("compiled kernel is capped at 1024 points")
    return _Search(prep, tuple(parts)).run()
