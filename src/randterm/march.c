/* The package's two heap loops, twins of Python code:
 *
 * march() is randterm.grid.march, twin of the Python grid._march.  It runs
 * the update of fmm_solve (grid.quadrant_update) or, when eikonal is set,
 * that of eikonal_solve (grid.travel_update, which reads f only).  It reads
 * the fields f, K, q and lam at point n through their steps fs, Ks, qs and
 * ls, as f[n * fs]: a step of 1 for a field of nx * ny values, and of 0 for
 * a constant field held as its one value.
 *
 * settle() is the label-setting loop of randterm.graph._label_setting, on
 * the same (key, index) heap.  label() runs it once, for dijkstra_solve,
 * dial_solve and solve_v0; distance_mix() runs it once per target over
 * in-edges found once, for graph.distance_mix and the idle travel times.
 *
 * Every floating-point operation is the one the Python code performs, in the
 * same order, so the results are bit-identical to it.  That holds only when
 * built with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math.
 *
 * The heap follows the sift rules of CPython's heapq: push() moves the new
 * entry up while it is less than its parent, and pop() is heappop, Floyd's
 * bottom-up pop.  It moves the hole at the root down to a leaf along the
 * smaller child, taking the right child unless left < right, and then moves
 * the last entry up from that leaf.  The child is chosen by arithmetic on
 * less(), which has no branch, so the walk down costs no mispredictions.
 * Where no value is NaN the pop order cannot differ from heapq's, nor from
 * any other heap's: a node is pushed again only when its value drops, so no
 * two entries of march() share a (value, index) key, and entries of settle()
 * that share one (a value drop within Dial's bucket) are equal.
 *
 * march() and label() return the number of pushes (every push is popped),
 * distance_mix() 0, and each -1 when its memory cannot be allocated.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct { double v; int64_t i; } entry;
typedef struct { entry *a; int64_t n, cap; } heap;

/* (key, index) order, as Python compares the tuples heapq holds */
static int less(entry x, entry y) { return (x.v < y.v) | ((x.v == y.v) & (x.i < y.i)); }

static int push(heap *h, double v, int64_t i)
{
    if (h->n == h->cap) {
        entry *a = realloc(h->a, 2 * h->cap * sizeof(entry));
        if (!a) return -1;
        h->a = a;
        h->cap *= 2;
    }
    entry e = {v, i};
    int64_t k;
    for (k = h->n++; k > 0 && less(e, h->a[(k - 1) / 2]); k = (k - 1) / 2)
        h->a[k] = h->a[(k - 1) / 2];
    h->a[k] = e;
    return 0;
}

static entry pop(heap *h)
{
    entry *a = h->a;
    entry top = a[0], last = a[--h->n];
    int64_t n = h->n, k = 0, c;
    for (; (c = 2 * k + 2) < n; k = c) {
        c -= less(a[c - 1], a[c]);
        a[k] = a[c];
    }
    if (c == n) { /* a left child alone */
        a[k] = a[c - 1];
        k = c - 1;
    }
    for (; k > 0 && less(last, a[(k - 1) / 2]); k = (k - 1) / 2)
        a[k] = a[(k - 1) / 2];
    a[k] = last;
    return top;
}

/* the key of value v in label(): v itself when delta == 0, else its bucket */
static double key(double v, double base, double delta)
{
    return delta == 0.0 ? v : trunc((v - base) / delta);
}

static double one_sided(double v1, double K, double q, double f, double lam, double h)
{
    return (h * K + lam * h * q + f * v1) / (lam * h + f);
}

/* quadrant_update and _real_roots; a NaN root fails every test, as in Python */
static double quadrant(double v1, double v2, double K, double q, double f, double lam, double h)
{
    double lo = v2 < v1 ? v2 : v1, hi = v2 > v1 ? v2 : v1;
    if (!isfinite(hi))
        return isfinite(lo) ? one_sided(lo, K, q, f, lam, h) : INFINITY;
    double g = f / h, s = K + lam * q;
    double a = 2.0 * g * g - lam * lam;
    double b = -2.0 * g * g * (v1 + v2) + 2.0 * lam * s;
    double c = g * g * (v1 * v1 + v2 * v2) - s * s;
    double r[2] = {NAN, NAN}, disc;
    if (a == 0.0) {
        if (b != 0.0) r[0] = -c / b;
    } else if ((disc = b * b - 4.0 * a * c) >= 0.0) {
        double sq = sqrt(disc);
        double t = b >= 0.0 ? -0.5 * (b + sq) : -0.5 * (b - sq);
        r[0] = t == 0.0 ? 0.0 : t / a;
        r[1] = t == 0.0 ? NAN : c / t;
    }
    double tol = 1e-12 * (fabs(hi) > 1.0 ? fabs(hi) : 1.0);
    double stol = -1e-12 * (fabs(s) > 1.0 ? fabs(s) : 1.0);
    double best = NAN;
    for (int k = 0; k < 2; k++)
        if (r[k] >= hi - tol && s - lam * r[k] >= stol && (isnan(best) || r[k] < best))
            best = r[k];
    if (isnan(best)) return one_sided(lo, K, q, f, lam, h);
    return hi > best ? hi : best;
}

static double travel(double a, double b, double s)
{
    if (a > b) { double t = a; a = b; b = t; }
    double d = b - a;
    if (d >= s) return a + s;
    return 0.5 * (a + b + sqrt(2.0 * s * s - d * d));
}

int64_t march(int64_t nx, int64_t ny, double *V, const int64_t *seeds,
              int64_t nseeds, const uint8_t *blocked, int64_t *order,
              int eikonal, double h, const double *f, int64_t fs,
              const double *K, int64_t Ks, const double *q, int64_t qs,
              const double *lam, int64_t ls)
{
    int64_t pushes = nseeds, accepted = 0, rc = -1;
    uint8_t *state = calloc(nx * ny, 1); /* 0 far, 1 considered, 2 accepted */
    heap hp = {malloc(64 * sizeof(entry)), 0, 64};
    if (!state || !hp.a) goto done;
    for (int64_t k = 0; k < nx * ny; k++) order[k] = -1;
    for (int64_t k = 0; k < nseeds; k++) {
        state[seeds[k]] = 1;
        if (push(&hp, V[seeds[k]], seeds[k])) goto done;
    }
    while (hp.n) {
        entry e = pop(&hp);
        int64_t idx = e.i, j = idx / nx, i = idx % nx;
        if (state[idx] == 2) continue; /* stale: a lower entry was accepted first */
        state[idx] = 2;
        order[idx] = accepted++;
        /* neighbor, inside?, step to its other-axis neighbors, do they exist? */
        struct { int64_t n; int inside; int64_t s; int lo, hi; } nb[4] = {
            {idx + 1, i < nx - 1, nx, j > 0, j < ny - 1},
            {idx - 1, i > 0, nx, j > 0, j < ny - 1},
            {idx + nx, j < ny - 1, 1, i > 0, i < nx - 1},
            {idx - nx, j > 0, 1, i > 0, i < nx - 1}};
        for (int k = 0; k < 4; k++) {
            int64_t n = nb[k].n, s = nb[k].s;
            if (!nb[k].inside || state[n] == 2 || blocked[n]) continue;
            double vo = INFINITY;
            if (nb[k].lo && state[n - s] == 2) vo = V[n - s];
            if (nb[k].hi && state[n + s] == 2 && V[n + s] < vo) vo = V[n + s];
            double cand = eikonal ? travel(e.v, vo, h / f[n * fs])
                                  : quadrant(e.v, vo, K[n * Ks], q[n * qs],
                                             f[n * fs], lam[n * ls], h);
            if (cand < V[n]) V[n] = cand;
            else if (state[n]) continue;
            state[n] = 1;
            if (push(&hp, V[n], n)) goto done;
            pushes++;
        }
    }
    rc = pushes;
done:
    free(state);
    free(hp.a);
    return rc;
}

/* What settle() works on, as in_edges() makes it for the n forward rows
 * indptr, dst, cnst and surv: the in-edges i -> j, i != j, those of j at
 * in[ptr[j]:ptr[j + 1]] in the order of the rows (by one counting pass), a
 * state byte per node, all 0 (far), and an empty heap.  in_edges() returns
 * 0, or -1; release() frees w either way. */
typedef struct { int64_t i; double cnst, surv; } edge;
typedef struct { int64_t *ptr; edge *in; uint8_t *state; heap h; } work;

static int in_edges(int64_t n, const int64_t *indptr, const int64_t *dst,
                    const double *cnst, const double *surv, work *w)
{
    w->ptr = calloc(n + 2, sizeof(int64_t));
    w->in = malloc((indptr[n] + 1) * sizeof(edge)); /* + 1: never size 0 */
    w->state = calloc(n + 1, 1);
    w->h = (heap){malloc(64 * sizeof(entry)), 0, 64};
    if (!w->ptr || !w->in || !w->state || !w->h.a) return -1;
    for (int64_t i = 0; i < n; i++)
        for (int64_t e = indptr[i]; e < indptr[i + 1]; e++)
            if (dst[e] != i) w->ptr[dst[e] + 2]++;
    for (int64_t j = 2; j <= n + 1; j++) w->ptr[j] += w->ptr[j - 1];
    for (int64_t i = 0; i < n; i++)
        for (int64_t e = indptr[i]; e < indptr[i + 1]; e++)
            if (dst[e] != i)
                w->in[w->ptr[dst[e] + 1]++] = (edge){i, cnst[e], surv[e]};
    return 0;
}

static void release(work *w)
{
    free(w->ptr);
    free(w->in);
    free(w->state);
    free(w->h.a);
}

/* Accept nodes in (key, index) order from the seeds, relaxing the in-edges
 * of each accepted j in edge order: V_i drops to cnst + surv * V_j when that
 * is lower, and a node is pushed when first reached or when its value drops.
 * key() is V when delta == 0 and trunc((V - base) / delta) otherwise, which
 * orders as Python's int() of the same quotient wherever it is finite.  V is
 * lowered in place from the start values and order gets the accepted nodes
 * in turn; every node ends far or accepted, and the heap empty.  Returns the
 * number of pushes, or -1. */
static int64_t settle(work *w, const int64_t *seeds, int64_t nseeds,
                      double base, double delta, double *V, int64_t *order)
{
    uint8_t *state = w->state; /* 0 far, 1 considered, 2 accepted */
    int64_t pushes = nseeds, accepted = 0;
    for (int64_t k = 0; k < nseeds; k++) {
        state[seeds[k]] = 1;
        if (push(&w->h, key(V[seeds[k]], base, delta), seeds[k])) return -1;
    }
    while (w->h.n) {
        int64_t j = pop(&w->h).i;
        if (state[j] == 2) continue; /* stale: accepted at an earlier entry */
        state[j] = 2;
        order[accepted++] = j;
        double vj = V[j];
        for (edge *e = w->in + w->ptr[j]; e < w->in + w->ptr[j + 1]; e++) {
            int64_t i = e->i;
            if (state[i] == 2) continue;
            double cand = e->cnst + e->surv * vj;
            if (cand < V[i]) V[i] = cand;
            else if (state[i]) continue;
            state[i] = 1;
            if (push(&w->h, key(V[i], base, delta), i)) return -1;
            pushes++;
        }
    }
    return pushes;
}

/* settle() over the n forward rows from the seeds; order gets the accepted
 * nodes, then -1.  Returns the number of pushes, or -1. */
int64_t label(int64_t n, const int64_t *indptr, const int64_t *dst,
              const double *cnst, const double *surv, const int64_t *seeds,
              int64_t nseeds, double base, double delta, double *V,
              int64_t *order)
{
    work w;
    for (int64_t k = 0; k < n; k++) order[k] = -1;
    int64_t rc = in_edges(n, indptr, dst, cnst, surv, &w) ? -1
                 : settle(&w, seeds, nseeds, base, delta, V, order);
    release(&w);
    return rc;
}

/* q += w_t * V for each target t of nonzero weight w_t, in turn, with V the
 * settle() values from V = +inf but V_t = 0: with lengths in cnst and surv
 * all 1, V_i is the least length of a path from i to t.  The in-edges are
 * found once for all targets.  Returns 0, or -1. */
int64_t distance_mix(int64_t n, const int64_t *indptr, const int64_t *dst,
                     const double *cnst, const double *surv,
                     const int64_t *targets, const double *weights,
                     int64_t ntargets, double *q)
{
    work w;
    double *V = malloc((n + 1) * sizeof(double));
    int64_t *order = malloc((n + 1) * sizeof(int64_t));
    int64_t rc = in_edges(n, indptr, dst, cnst, surv, &w) || !V || !order
                 ? -1 : 0;
    for (int64_t t = 0; t < ntargets && rc == 0; t++) {
        if (weights[t] == 0.0) continue;
        for (int64_t k = 0; k < n; k++) V[k] = INFINITY, w.state[k] = 0;
        V[targets[t]] = 0.0;
        if (settle(&w, targets + t, 1, 0.0, 0.0, V, order) < 0) rc = -1;
        else for (int64_t k = 0; k < n; k++) q[k] += weights[t] * V[k];
    }
    release(&w);
    free(V);
    free(order);
    return rc;
}
