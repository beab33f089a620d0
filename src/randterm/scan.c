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
 *   - ints [+-]digits, at most 19 digits, through strtoll without overflow
 *   - floats [+-]digits[.digits][(e|E)[+-]digits] through strtod, whose end
 *     must be the token's end.  Python's float() and strtod both round a
 *     decimal string correctly, so they give the same double.
 * Within this grammar a line means to Python what it means here.
 */
#include <errno.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_TOKENS 5

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

/* the length of a run of digits at s, up to end */
static int64_t digits(const char *s, const char *end)
{
    const char *p = s;
    while (p < end && *p >= '0' && *p <= '9') p++;
    return p - s;
}

static int to_int(token t, int64_t *out)
{
    const char *end = t.s + t.n, *p = t.s + (*t.s == '+' || *t.s == '-');
    int64_t d = digits(p, end);
    if (d == 0 || d > 19 || p + d != end) return -1;
    char *stop;
    errno = 0;
    *out = strtoll(t.s, &stop, 10);
    return errno || stop != end ? -1 : 0;
}

static int to_float(token t, double *out)
{
    const char *end = t.s + t.n, *p = t.s + (*t.s == '+' || *t.s == '-');
    int64_t d = digits(p, end);
    if (d == 0) return -1;
    p += d;
    if (p < end && *p == '.') {
        if ((d = digits(++p, end)) == 0) return -1;
        p += d;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        p += p < end && (*p == '+' || *p == '-');
        if ((d = digits(p, end)) == 0) return -1;
        p += d;
    }
    if (p != end) return -1;
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
 * bytes object ends in a NUL), since strtoll and strtod stop only there. */
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
