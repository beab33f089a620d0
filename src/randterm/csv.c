/* The compiled CSV writer of randterm.io, twin of io._write_csv for numeric
 * tables.  csv_rows() writes a row-major block of doubles as the bytes
 * ",".join(map(str, row)) + "\r\n" gives for each row, where the cells of
 * the columns flagged integer are ints (str(int(x))) and the others floats,
 * whose str is Python's repr: the shortest decimal that reads back to the
 * same double, the one nearest to it when several are as short (ties to an
 * even last digit), in fixed notation for 1e-4 <= |x| < 1e16.
 *
 * A float is written here when it is +-0.0 or when 1e-4 <= |x| < 2^53, where
 * repr is always in fixed notation.  Below 1e-4 no decimal >= 1e-4 reads
 * back to x, so repr is in exponent notation.  Every other float (nan, inf,
 * 0 < |x| < 1e-4, |x| >= 2^53) is taken from blob, the repr text of those
 * cells in order, lens[k] bytes each, which the caller selects by the same
 * test.
 *
 * The shortest digits come from exact integer arithmetic.  x = m 2^e with
 * 2^52 <= m < 2^53 and -66 <= e <= 0.  In units of 2^(e-2) x is 4m, and the
 * reals that read back to x run from 4m - 2 to 4m + 2, the midpoints with
 * its neighbours (from 4m - 1 when m = 2^52, as the gap below is half the
 * gap above); the midpoints themselves read back to x when m is even
 * (round-half-even) and to a neighbour when m is odd.  Scaled by 10^P with
 * P = floor(-e log10 2) + 2 <= 21 these bounds fit in 128 bits, and the
 * integers a, b of the interval and c = floor(x 10^P), with its exact
 * remainder, in 64: the interval is more than 10 units of 10^-P wide and
 * c < 100 2^53.  Trailing digits are dropped while a multiple of 10^(t+1)
 * lies in [a, b]; of the multiples of 10^t in it, all of the fewest
 * digits, the one nearest x (ties to an even last digit) is repr's.  Needs
 * unsigned __int128 (gcc or clang on a 64-bit target).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

#define E19 10000000000000000000u

static const u128 POW10[22] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u,
    10000000000000u, 100000000000000u, 1000000000000000u,
    10000000000000000u, 100000000000000000u, 1000000000000000000u, E19,
    (u128)E19 * 10u, (u128)E19 * 100u};

/* the decimal digits of k at p; returns the end */
static char *digits(uint64_t k, char *p)
{
    char tmp[20];
    int n = 0;
    do tmp[n++] = (char)('0' + k % 10); while (k /= 10);
    while (n) *p++ = tmp[--n];
    return p;
}

/* repr(x) for 1e-4 <= |x| < 2^53 at p; returns the end */
static char *shortest(double x, char *p)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    if (bits >> 63) *p++ = '-';
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52;
    int e = (int)(bits >> 52 & 0x7ff) - 1075, s = 2 - e;
    int P = ((-e * 78913) >> 18) + 2;
    u128 ten = POW10[P], mask = ((u128)1 << s) - 1;
    u128 mid = (u128)(4 * m) * ten;
    u128 lo = mid - (m == 1ull << 52 ? 1 : 2) * ten, hi = mid + 2 * ten;
    uint64_t c = (uint64_t)(mid >> s), a = (uint64_t)(lo >> s),
             b = (uint64_t)(hi >> s);
    if (m & 1) {  /* open: the bounds themselves read back to a neighbour */
        a += 1;
        b -= (hi & mask) == 0;
    } else {
        a += (lo & mask) != 0;
    }
    int t = 0;
    uint64_t pt = 1;  /* 10^t <= b, so pt << s <= hi < 2^125 */
    while (b / 10 * 10 >= a) {
        a = a / 10 + (a % 10 != 0);
        b /= 10;
        t++;
        pt *= 10;
    }
    uint64_t q = c / pt;
    u128 rest = ((u128)(c % pt) << s) + (mid & mask);
    u128 half = (u128)pt << (s - 1);
    q += rest > half || (rest == half && (q & 1));
    q = q < a ? a : q > b ? b : q;

    char d[20];
    int n = (int)(digits(q, d) - d);
    int point = n + t - P;  /* the digits before the '.' */
    if (point <= 0) {
        memcpy(p, "0.", 2);
        memset(p + 2, '0', (size_t)-point);
        p += 2 - point;
        memcpy(p, d, (size_t)n);
        return p + n;
    }
    if (point >= n) {
        memcpy(p, d, (size_t)n);
        memset(p + n, '0', (size_t)(point - n));
        p += point;
        memcpy(p, ".0", 2);
        return p + 2;
    }
    memcpy(p, d, (size_t)point);
    p[point] = '.';
    memcpy(p + point + 1, d + point, (size_t)(n - point));
    return p + n + 1;
}

/* The rows x[0 : rows * cols] (row-major) as CSV text at out, which holds
 * 25 bytes a cell (the longest repr, 24 bytes, and its comma) and 2 a row;
 * integer[j] flags column j.  Returns the bytes written, or -1 when the
 * cells taken from blob are not exactly its nblob texts. */
int64_t csv_rows(const double *x, int64_t rows, int64_t cols,
                 const uint8_t *integer, const char *blob, const int64_t *lens,
                 int64_t nblob, char *out)
{
    char *p = out;
    int64_t used = 0;
    for (int64_t i = 0; i < rows; i++) {
        for (int64_t j = 0; j < cols; j++, x++) {
            double v = *x, a = fabs(v);
            if (j) *p++ = ',';
            if (integer[j]) {
                int64_t k = (int64_t)v;
                if (k < 0) *p++ = '-';
                p = digits(k < 0 ? -(uint64_t)k : (uint64_t)k, p);
            } else if (a == 0) {
                if (signbit(v)) *p++ = '-';
                memcpy(p, "0.0", 3);
                p += 3;
            } else if (a >= 1e-4 && a < 0x1p53) {
                p = shortest(v, p);
            } else {
                if (used == nblob) return -1;
                memcpy(p, blob, (size_t)lens[used]);
                p += lens[used];
                blob += lens[used++];
            }
        }
        memcpy(p, "\r\n", 2);
        p += 2;
    }
    return used == nblob ? p - out : -1;
}
