/* The compiled scanner of randterm.io, twin of the per-line loop of
 * io._read_lines for graph and idle files.  It exports scan_rows(), which
 * counts the rows (edge and point lines) of a file's bytes, so that the
 * caller sizes the arrays, and scan(), which fills them.
 *
 * It accepts only a strict grammar, and refuses anything else (either
 * returns -1) so that the Python loop decides, with its own messages:
 *   - bytes: printable ASCII, space, tab and \n only
 *   - tokens split by spaces and tabs, a line ending at # or \n
 *   - lines `nodes M` (1 <= M <= max_nodes), `<scalar> V`, `<point> I V` and
 *     `edge I J X [Y]` (4 to edge_max tokens)
 *   - ints [+-]digits, at most 19 digits and within int64
 *   - floats [+-]digits[.digits][(e|E)[+-]digits]
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

#define MAX_TOKENS 5

typedef unsigned __int128 u128;

static const uint64_t POW10[20] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u,
    10000000000000u, 100000000000000u, 1000000000000000u,
    10000000000000000u, 100000000000000000u, 1000000000000000000u,
    10000000000000000000u};

typedef struct { const char *s; int64_t n; } token;

static int printable(unsigned char c) { return c - 0x20u < 0x5fu || c == '\t'; }

/* The tokens of the line at p, which ends at the next \n or at end, in tok;
 * *eol gets the line's end.  Returns their count, or -1 for a byte outside
 * the grammar or more than MAX_TOKENS tokens. */
static int tokens(const char *p, const char *end, token *tok, const char **eol)
{
    int n = 0;
    for (;;) {
        while (p < end && (*p == ' ' || *p == '\t')) p++;
        if (p == end || *p == '\n') break;
        if (*p == '#') {
            while (p < end && *p != '\n')
                if (!printable(*p++)) return -1;
            break;
        }
        if (n == MAX_TOKENS) return -1;
        tok[n].s = p;
        while (p < end && (unsigned char)*p - 0x21u < 0x5eu && *p != '#') p++;
        tok[n].n = p - tok[n].s;
        if (tok[n++].n == 0) return -1; /* a byte that is not printable */
    }
    *eol = p;
    return n;
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

static int to_int(token t, int64_t *out)
{
    const char *end = t.s + t.n, *p = t.s + (*t.s == '+' || *t.s == '-');
    if (p == end || end - p > 19) return -1;
    uint64_t w = 0;  /* < 10^19 < 2^64 */
    for (; p < end; p++) {
        if (!is_digit(*p)) return -1;
        w = 10 * w + (uint64_t)(*p - '0');
    }
    if (*t.s == '-') {
        if (w > (uint64_t)INT64_MAX + 1) return -1;
        *out = w ? -(int64_t)(w - 1) - 1 : 0;
    } else {
        if (w > INT64_MAX) return -1;
        *out = (int64_t)w;
    }
    return 0;
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

/* The run of digits at p, up to end, appended to the significant digits
 * of to_float: *sig counts them (the first nonzero digit and every digit
 * after it), and *w holds the first 19.  Returns the run's end. */
static const char *mantissa(const char *p, const char *end, uint64_t *w, int64_t *sig)
{
    for (; p < end && is_digit(*p); p++)
        if ((*sig || *p != '0') && (*sig)++ < 19) *w = 10 * *w + (uint64_t)(*p - '0');
    return p;
}

static int to_float(token t, double *out)
{
    const char *end = t.s + t.n, *p = t.s + (*t.s == '+' || *t.s == '-'), *run = p;
    uint64_t w = 0;
    int64_t sig = 0, e = 0;  /* the decimal is w 10^e when sig <= 19 */
    int huge = 0;  /* an exponent of 1000 or more: e is then not the decimal's */
    if ((p = mantissa(p, end, &w, &sig)) == run) return -1;
    if (p < end && *p == '.') {
        run = ++p;
        if ((p = mantissa(p, end, &w, &sig)) == run) return -1;
        e = run - p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        int minus = ++p < end && *p == '-';
        p += p < end && (*p == '+' || *p == '-');
        int64_t k = 0;  /* exact below 1000, else huge */
        for (run = p; p < end && is_digit(*p); p++)
            if (k < 100) k = 10 * k + (*p - '0');
            else huge = 1;
        if (p == run) return -1;
        e += minus ? -k : k;
    }
    if (p != end) return -1;
    if (w == 0 || (!huge && sig <= 19 && e >= -19 && e <= 19)) {
        double v = w ? exact(w, (int)e) : 0.0;
        *out = *t.s == '-' ? -v : v;
        return 0;
    }
    char *stop;
    *out = strtod(t.s, &stop); /* over- and underflow round as float() does */
    return stop == end ? 0 : -1;
}

enum { BAD, BLANK, EDGE, POINT, NODES, SCALAR };

/* The kind of the line at p (see tokens), its tokens in tok, their count in
 * *n and its end in *eol.  EDGE and POINT lines are rows. */
static int line(const char *p, const char *end, const char *scalar, const char *point,
                int edge_max, token *tok, int *n, const char **eol)
{
    if ((*n = tokens(p, end, tok, eol)) <= 0) return *n ? BAD : BLANK;
#define IS(word) ((size_t)tok[0].n == strlen(word) && !memcmp(tok[0].s, word, tok[0].n))
    if (IS("edge") && *n >= 4 && *n <= edge_max) return EDGE;
    if (IS(point) && *n == 3) return POINT;
    if (IS("nodes") && *n == 2) return NODES;
    if (IS(scalar) && *n == 2) return SCALAR;
#undef IS
    return BAD;
}

/* The rows of the file buf[0, len), or -1 when a line lies outside the
 * grammar (its numbers aside). */
int64_t scan_rows(const char *buf, int64_t len, const char *scalar, const char *point,
                  int edge_max)
{
    int64_t rows = 0;
    token tok[MAX_TOKENS];
    int n;
    for (const char *p = buf, *end = buf + len; p < end; p++) {
        int kind = line(p, end, scalar, point, edge_max, tok, &n, &p);
        if (kind == BAD) return -1;
        rows += kind == EDGE || kind == POINT;
    }
    return rows;
}

/* The rows of the file buf[0, len) in file order, at most cap: for each its
 * line number, i, j (= i on a point line), X, Y (NaN when not given) and
 * token count.  meta gets M (-1 without a nodes line) and whether a scalar
 * line was read, value the last scalar.  Returns the row count, or -1 to
 * refuse the file.  buf[len] must be readable and not a digit (a Python
 * bytes object ends in a NUL), since strtod stops only there. */
int64_t scan(const char *buf, int64_t len, const char *scalar, const char *point,
             int edge_max, int64_t max_nodes, int64_t cap, int64_t *lines,
             int64_t *src, int64_t *dst, double *x, double *y, uint8_t *size,
             int64_t *meta, double *value)
{
    int64_t rows = 0, lineno = 0;
    token tok[MAX_TOKENS];
    int n;
    meta[0] = -1;
    meta[1] = 0;
    for (const char *p = buf, *end = buf + len; p < end; p++) {
        lineno++;
        switch (line(p, end, scalar, point, edge_max, tok, &n, &p)) {
        case BLANK:
            continue;
        case NODES:
            if (to_int(tok[1], &meta[0]) || meta[0] < 1 || meta[0] > max_nodes) return -1;
            continue;
        case SCALAR:
            if (to_float(tok[1], value)) return -1;
            meta[1] = 1;
            continue;
        case EDGE:
            if (rows == cap || to_int(tok[1], &src[rows]) || to_int(tok[2], &dst[rows])
                || to_float(tok[3], &x[rows])) return -1;
            y[rows] = NAN;
            if (n == 5 && to_float(tok[4], &y[rows])) return -1;
            break;
        case POINT:
            if (rows == cap || to_int(tok[1], &src[rows]) || to_float(tok[2], &x[rows]))
                return -1;
            dst[rows] = src[rows];
            y[rows] = NAN;
            break;
        default:
            return -1;
        }
        lines[rows] = lineno;
        size[rows++] = (uint8_t)n;
    }
    return rows;
}
