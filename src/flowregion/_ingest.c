/*
 * One pass over the data lines of a series file for flowregion.dataio.
 *
 * Compiled on first use by flowregion.native and called through ctypes.
 * Each line is checked and its date turned into an ordinal here; its value
 * is converted here only when one IEEE multiply or divide gives the
 * correctly rounded result, and is otherwise left to Python's float(), so
 * the values equal float() of the field bit for bit.
 */

#include <stdint.h>
#include <string.h>

/* one row of dataio.SERIES_DTYPE */
struct row {
    int64_t day;
    double value;
};

/* 10^0 .. 10^22: the powers of ten that a double holds exactly */
static const double POW10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static const int MONTH_DAYS[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

static inline int digit(unsigned char c)
{
    return (unsigned)(c - '0') <= 9;
}

/*
 * The proleptic Gregorian ordinal (0001-01-01 is day 1) of the date in the
 * 10 bytes at s, or 0 when they are no valid YYYY-MM-DD date. The ordinal
 * comes from days-from-civil: a year counted from March 1 ends on Feb 29.
 */
static int64_t ordinal(const unsigned char *s)
{
    static const int at[] = {0, 1, 2, 3, 5, 6, 8, 9};
    int d[8];
    for (int i = 0; i < 8; i++) {
        if (!digit(s[at[i]]))
            return 0;
        d[i] = s[at[i]] - '0';
    }
    if (s[4] != '-' || s[7] != '-')
        return 0;
    int64_t year = d[0] * 1000 + d[1] * 100 + d[2] * 10 + d[3];
    int month = d[4] * 10 + d[5], day = d[6] * 10 + d[7];
    if (year < 1 || month < 1 || month > 12 || day < 1)
        return 0;
    int leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
    if (day > MONTH_DAYS[month - 1] + (leap && month == 2))
        return 0;
    year -= month <= 2;
    int64_t era = year / 400, year_of_era = year - era * 400;
    int64_t day_of_year = (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;
    return era * 146097 + year_of_era * 365 + year_of_era / 4 - year_of_era / 100
           + day_of_year - 305; /* 0001-03-01 is day 60 */
}

/*
 * Read a plain decimal [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? at s, before end,
 * whose significand w has at most 19 digits and is at most 2^53, with a
 * decimal exponent e within +-22. Then w and 10^|e| are exact doubles and
 * w * 10^e (or w / 10^-e) is one correctly rounded operation: Clinger's fast
 * path. Returns the byte after the decimal, with its value in *out, or NULL
 * when no such decimal starts at s; the caller checks what follows it.
 */
static const unsigned char *plain_decimal(const unsigned char *s, const unsigned char *end,
                                          double *out)
{
    const unsigned char *p = s;
    int negative = 0;
    if (p < end && (*p == '+' || *p == '-'))
        negative = *p++ == '-';
    uint64_t w = 0;
    int digits = 0, fraction = 0;
    for (; p < end && digit(*p); p++, digits++)
        w = w * 10 + (*p - '0');
    if (p < end && *p == '.')
        for (p++; p < end && digit(*p); p++, digits++, fraction++)
            w = w * 10 + (*p - '0');
    /* 19 digits cannot overflow w; 20 may have, and are left to float() */
    if (digits == 0 || digits > 19)
        return NULL;
    int exponent = 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int exponent_negative = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            exponent_negative = *p++ == '-';
        if (p == end || !digit(*p))
            return NULL;
        for (; p < end && digit(*p); p++)
            if (exponent < 1000) /* beyond any exponent taken here */
                exponent = exponent * 10 + (*p - '0');
        if (exponent_negative)
            exponent = -exponent;
    }
    exponent -= fraction;
    if (w > (UINT64_C(1) << 53) || exponent < -22 || exponent > 22)
        return NULL;
    double value = exponent >= 0 ? (double)w * POW10[exponent] : (double)w / POW10[-exponent];
    *out = negative ? -value : value;
    return p;
}

/*
 * Parse the n bytes at body: LF-separated data lines, blank lines skipped.
 * Each other line must be a valid YYYY-MM-DD date, the comma at byte 10, no
 * other comma and a non-empty value. Writes one row per such line to rows
 * (room for n / 12 rows, as each takes 12 bytes or more) and returns their
 * count, or -1 at the first line that fails a check. A value is converted
 * here when the whole of it is a plain_decimal; the row index of any other
 * goes to deferred, with its value left unset, and their count to
 * *n_deferred. Never reads past body + n.
 */
int64_t parse_series(const unsigned char *body, int64_t n, struct row *rows, int64_t *deferred,
                     int64_t *n_deferred)
{
    const unsigned char *p = body, *end = body + n;
    int64_t count = 0, late = 0;
    while (p < end) {
        if (*p == '\n') {
            p++;
            continue;
        }
        /* a date (no LF in it), the comma and at least one byte of value */
        if (end - p < 12 || p[10] != ',' || p[11] == '\n')
            return -1;
        int64_t day = ordinal(p);
        if (day == 0)
            return -1;
        rows[count].day = day;
        const unsigned char *value = p + 11;
        p = plain_decimal(value, end, &rows[count].value);
        if (p == NULL || (p < end && *p != '\n')) {
            p = memchr(value, '\n', (size_t)(end - value));
            if (p == NULL)
                p = end;
            if (memchr(value, ',', (size_t)(p - value)) != NULL)
                return -1;
            deferred[late++] = count;
        }
        count++;
        p += p < end; /* past the LF */
    }
    *n_deferred = late;
    return count;
}
