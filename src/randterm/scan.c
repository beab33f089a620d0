/* The compiled graph-file passes of randterm.io.  scan() is the twin of
 * io._parse, the per-line loop of graph and idle files, and assemble() of
 * io._read_lines and io._graph_problem, which turn a graph file's rows into
 * its CSR problem (see assemble's comment).  scan() reads a file's bytes
 * in one walk: it classifies each line by its first token and reads that
 * line's numbers where they stand, each byte looked at once.  It fills
 * arrays of a capacity the caller chooses, and refuses a file with more
 * rows (edge and point lines) than that.  The byte after the file must be
 * a NUL, as a Python bytes object ends in one: the loops stop at it as at
 * any other byte outside the grammar, with no bound check of their own.
 *
 * scan() accepts only a strict grammar, and refuses anything else
 * (returns -1) so that the Python loop reads it, with its own messages:
 *   - bytes: printable ASCII, space, tab and \n only
 *   - tokens split by spaces and tabs, a line ending at # or \n
 *   - lines `nodes M` (1 <= M <= max_nodes), `<scalar> V`, `<point> I V` and
 *     `edge I J X [Y]` (4 to edge_max tokens)
 *   - ints [+-]digits, at most 19 digits and within int64
 *   - floats [+-]digits[.digits][(e|E)[+-]digits]
 * A token ends at a space, tab, #, \n or the end of the file, so a number
 * must end there too: a number followed by any other byte is refused.
 * Within this grammar a line means to Python what it means here.
 *
 * Numbers are read by exact arithmetic.  An int is its digits summed in a
 * uint64_t.  A float's digits from the first nonzero one on, the
 * significant ones, make an integer w, and the dot and the exponent a power
 * of ten: the decimal is w 10^e.  Python's float() rounds it to the nearest
 * double (ties to even), and so does one IEEE operation on exact operands,
 * which is what the common case comes to.  When w = 0 the float is +-0.0
 * whatever e is.  When w has at most 19 digits (w < 10^19 < 2^64) and
 * -19 <= e <= 19:
 *   - e >= 0: w 10^e < 10^38 < 2^128 is an exact unsigned __int128, and
 *     its conversion to double is one correctly rounded operation.
 *   - e < 0 and w <= 2^53: w and 10^-e (5^19 < 2^53) are exact doubles,
 *     and the float is their quotient (Clinger's fast path).
 *   - e < 0 and w > 2^53: with D = 10^-e < 2^64 and s chosen by bit
 *     lengths so that the quotient Q = floor(w 2^s / D) lies in [2^62,
 *     2^64), doubles there are multiples of 2^10 or more and the midpoints
 *     between them of 2^9, all even.  A nonzero remainder is folded into
 *     bit 0 of Q (round to odd): the exact quotient and Q | 1 both lie in
 *     [Q, Q + 1], Q | 1 is the odd integer of the two there, and no even
 *     integer lies strictly between them, so they round alike.  The
 *     conversion of Q to double is thus the correctly rounded w 2^s / D,
 *     and the scaling by 2^-s, to a normal double, is exact.
 * Every other float (more significant digits, a larger e, or an exponent
 * written as 1000 or more, which a long fraction could otherwise bring
 * back within +-19) is read by strtod, which rounds correctly as float()
 * does, overflow to inf and underflow to subnormals and zero included.
 * Needs unsigned __int128 (gcc or clang on a 64-bit target).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u,
    10000000000000u, 100000000000000u, 1000000000000000u,
    10000000000000000u, 100000000000000000u, 1000000000000000000u,
    10000000000000000000u};

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* p past the spaces and tabs at it */
static const char *blanks(const char *p)
{
    while (*p == ' ' || *p == '\t') p++;
    return p;
}

/* whether a token ends at p */
static int ends(const char *p, const char *end)
{
    return p == end || *p == ' ' || *p == '\t' || *p == '#' || *p == '\n';
}

/* The int at p in *out; returns its end, or NULL when no int of the
 * grammar ends a token there. */
static const char *to_int(const char *p, const char *end, int64_t *out)
{
    int minus = *p == '-';
    p += *p == '+' || *p == '-';
    const char *run = p;
    uint64_t w = 0;  /* < 10^19 < 2^64 */
    for (; is_digit(*p); p++) {
        if (p - run == 19) return NULL;
        w = 10 * w + (uint64_t)(*p - '0');
    }
    if (p == run || !ends(p, end)) return NULL;
    if (minus) {
        if (w > (uint64_t)INT64_MAX + 1) return NULL;
        *out = w ? -(int64_t)(w - 1) - 1 : 0;
    } else {
        if (w > INT64_MAX) return NULL;
        *out = (int64_t)w;
    }
    return p;
}

/* the correctly rounded double of w 10^e, for 0 < w < 10^19 and
 * -19 <= e <= 19 (see the head of this file) */
static double exact(uint64_t w, int e)
{
    if (e >= 0) return (double)((u128)w * POW10[e]);
    if (w <= (uint64_t)1 << 53) return (double)w / (double)POW10[-e];
    uint64_t ten = POW10[-e];
    int s = 63 + __builtin_clzll(w) - __builtin_clzll(ten);  /* 3 <= s <= 73 */
    u128 n = (u128)w << s;
    uint64_t q = (uint64_t)(n / ten);
    q |= n != (u128)q * ten;
    uint64_t scale = (uint64_t)(1023 - s) << 52;  /* the double 2^-s */
    double f;
    memcpy(&f, &scale, sizeof f);
    return (double)q * f;
}

/* The run of digits at p appended to the significant digits of to_float:
 * *sig counts them (the first nonzero digit and every digit after it), and
 * *w holds the first 19.  Returns the run's end. */
static const char *mantissa(const char *p, uint64_t *w, int64_t *sig)
{
    if (!*sig)
        while (*p == '0') p++;
    const char *run = p;
    uint64_t v = *w;
    for (; is_digit(*p); p++)
        if (*sig + (p - run) < 19) v = 10 * v + (uint64_t)(*p - '0');
    *w = v;
    *sig += p - run;
    return p;
}

/* The float at p in *out, as to_int. */
static const char *to_float(const char *p, const char *end, double *out)
{
    const char *s = p, *run;
    uint64_t w = 0;
    int64_t sig = 0, e = 0;  /* the decimal is w 10^e when sig <= 19 */
    int huge = 0;  /* an exponent of 1000 or more: e is then not the decimal's */
    run = p += *p == '+' || *p == '-';
    if ((p = mantissa(p, &w, &sig)) == run) return NULL;
    if (*p == '.') {
        run = ++p;
        if ((p = mantissa(p, &w, &sig)) == run) return NULL;
        e = run - p;
    }
    if (*p == 'e' || *p == 'E') {
        int minus = *++p == '-';
        p += *p == '+' || *p == '-';
        int64_t k = 0;  /* exact below 1000, else huge */
        for (run = p; is_digit(*p); p++)
            if (k < 100) k = 10 * k + (*p - '0');
            else huge = 1;
        if (p == run) return NULL;
        e += minus ? -k : k;
    }
    if (!ends(p, end)) return NULL;
    if (w == 0 || (!huge && sig <= 19 && e >= -19 && e <= 19)) {
        double v = w ? exact(w, (int)e) : 0.0;
        *out = *s == '-' ? -v : v;
        return p;
    }
    char *stop;
    *out = strtod(s, &stop); /* over- and underflow round as float() does */
    return stop == p ? p : NULL;
}

/* The rows of the file buf[0, len) in file order: for each its line
 * number, i, j (= i on a point line), X, Y (NaN when not given) and token
 * count, at most cap of them: a file with more rows is refused.  meta gets
 * M (-1 without a nodes line) and whether a scalar line was read, value the
 * last scalar.  Returns the row count, or -1 to refuse the file.  buf[len]
 * must be a NUL (see the head of this file). */
int64_t scan(const char *buf, int64_t len, const char *scalar, const char *point,
             int edge_max, int64_t max_nodes, int64_t cap, int64_t *lines,
             int64_t *src, int64_t *dst, double *x, double *y, uint8_t *size,
             int64_t *meta, double *value)
{
    size_t scalar_n = strlen(scalar), point_n = strlen(point);
    int64_t rows = 0, lineno = 0;
    meta[0] = -1;
    meta[1] = 0;
    for (const char *p = buf, *end = buf + len; p < end; p++) {
        lineno++;
        const char *word = p = blanks(p);
        while ((unsigned char)*p - 0x21u < 0x5eu && *p != '#') p++;
        size_t n = p - word;
#define IS(w, wn) (n == (wn) && !memcmp(word, w, wn))
        int64_t i = 0, j = 0;
        double a = 0.0, b = NAN;
        int tokens = 0;  /* of a row */
        if (n == 0) {
            /* a blank or comment line, or a byte outside the grammar */
        } else if (IS("edge", 4)) {
            if (!(p = to_int(blanks(p), end, &i))
                || !(p = to_int(blanks(p), end, &j))
                || !(p = to_float(blanks(p), end, &a))) return -1;
            tokens = 4;
            p = blanks(p);
            if (edge_max == 5 && !ends(p, end)) {
                if (!(p = to_float(p, end, &b))) return -1;
                tokens = 5;
            }
        } else if (IS(point, point_n)) {
            if (!(p = to_int(blanks(p), end, &i))
                || !(p = to_float(blanks(p), end, &a))) return -1;
            j = i;
            tokens = 3;
        } else if (IS("nodes", 5)) {
            if (!(p = to_int(blanks(p), end, &meta[0]))
                || meta[0] < 1 || meta[0] > max_nodes) return -1;
        } else if (IS(scalar, scalar_n)) {
            if (!(p = to_float(blanks(p), end, value))) return -1;
            meta[1] = 1;
        } else {
            return -1;
        }
#undef IS
        p = blanks(p);
        if (p < end && *p == '#')
            for (; p < end && *p != '\n'; p++)
                if ((unsigned char)*p - 0x20u >= 0x5fu && *p != '\t') return -1;
        if (p < end && *p != '\n') return -1;
        if (tokens) {
            if (rows == cap) return -1;
            lines[rows] = lineno;
            src[rows] = i;
            dst[rows] = j;
            x[rows] = a;
            y[rows] = b;
            size[rows] = (uint8_t)tokens;
            rows++;
        }
    }
    return rows;
}

/* Moves the edge at e of the row that starts at first to its place among
 * the edges before it, which are sorted by j; returns the edges it passed,
 * or -1 when one of them has its j. */
static int64_t insert(int64_t *to, double *K, double *p, int64_t first,
                      int64_t e)
{
    int64_t j = to[e], k = e;
    double Ke = K[e], pe = p[e];
    for (; k > first && to[k - 1] > j; k--) {
        to[k] = to[k - 1];
        K[k] = K[k - 1];
        p[k] = p[k - 1];
    }
    if (k > first && to[k - 1] == j) return -1;
    to[k] = j;
    K[k] = Ke;
    p[k] = pe;
    return e - k;
}

/* The CSR problem of a graph file with m nodes from its rows in file order
 * (scan()'s arrays: src, dst, X = K or a q value, Y = p or NaN, and the
 * token count, 3 on a q line): row i of indptr, to, K and p holds the edges
 * (i, j), sorted by j, and the self-loop (i, i) with K = 0 and
 * p = default_p unless the file states it; q holds the last q line of each
 * node, else 0.  An edge without Y takes default_p.  to, K and p hold rows
 * + m edges, indptr m + 1 and q m.  Returns the edge count, or -1 to leave
 * the file to io's twin, which names its fault: m < 1 (no nodes line), an
 * index outside [0, m), an (i, j) stated twice, or an edge without p when
 * has_default is 0 (a flag, not a NaN: a NaN default_p is a default, which
 * graph.validate reports).  It also refuses rows so far from (i, j) order
 * that sorting them would move edges more than 8 times an edge on average,
 * which keeps the pass linear in the rows; the twin sorts those.
 *
 * A counting pass by i puts each row's edges in file order, one free slot
 * after each row.  Row by row the edges then move down to their final
 * place and are sorted there by insertion, the implicit loop appended and
 * inserted last: one comparison an edge on a file written in (i, j) order. */
int64_t assemble(int64_t m, int64_t rows, const int64_t *src,
                 const int64_t *dst, const double *x, const double *y,
                 const uint8_t *size, int has_default, double default_p,
                 int64_t *indptr, int64_t *to, double *K, double *p,
                 double *q)
{
    if (m < 1) return -1;
    int64_t edges = 0;
    memset(indptr, 0, (size_t)(m + 1) * sizeof *indptr);
    memset(q, 0, (size_t)m * sizeof *q);
    for (int64_t r = 0; r < rows; r++) {
        if (src[r] < 0 || src[r] >= m || dst[r] < 0 || dst[r] >= m) return -1;
        if (size[r] == 3) {
            q[src[r]] = x[r];
        } else {
            if (size[r] < 5 && !has_default) return -1;
            indptr[src[r] + 1]++;
            edges++;
        }
    }
    for (int64_t i = 0; i < m; i++) indptr[i + 1] += indptr[i] + 1;
    for (int64_t r = 0; r < rows; r++)
        if (size[r] != 3) {
            int64_t e = indptr[src[r]]++;  /* now the end of row src[r] */
            to[e] = dst[r];
            K[e] = x[r];
            p[e] = size[r] == 5 ? y[r] : default_p;
        }
    int64_t out = 0, lo = 0, budget = 8 * (edges + m);
    for (int64_t i = 0; i < m; i++) {
        int64_t hi = indptr[i], n = hi - lo, moved;
        int loop = 0;
        indptr[i] = out;
        if (out < lo) {
            memmove(to + out, to + lo, (size_t)n * sizeof *to);
            memmove(K + out, K + lo, (size_t)n * sizeof *K);
            memmove(p + out, p + lo, (size_t)n * sizeof *p);
        }
        for (int64_t e = out; e < out + n; e++) {
            loop |= to[e] == i;
            if ((moved = insert(to, K, p, out, e)) < 0
                || (budget -= moved) < 0) return -1;
        }
        if (!loop) {  /* into the free slot: out + n <= hi */
            if (!has_default) return -1;
            to[out + n] = i;
            K[out + n] = 0.0;
            p[out + n] = default_p;
            if ((budget -= insert(to, K, p, out, out + n)) < 0) return -1;
            n++;
        }
        out += n;
        lo = hi + 1;
    }
    indptr[m] = out;
    return out;
}
