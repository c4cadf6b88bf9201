/* Compiled backend for the three dispatched prime and scan kernels.
 *
 * Same contract as pure.py: every public function returns exactly what the
 * pure one does and raises the same exception types, except that any
 * argument too wide for its 64-bit words raises OverflowError;
 * localpow.kernels reruns such a call on pure.py.
 *
 * Build: python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef int64_t i64;
typedef unsigned __int128 u128;

/* widest tuple class_counts and omega_members take; a wider one raises
 * OverflowError.  64 keeps the empirical sf-scan verdict native up to
 * --bound 312, whose table holds 64 primes */
#define MAX_WIDTH 64
/* more distinct primes than any n < 2^64 has */
#define MAX_FACTORS 64

/* -- u64 arithmetic -------------------------------------------------------- */

static inline u64 mulmod(u64 a, u64 b, u64 m)
{
    if ((a | b) >> 32 == 0)  /* the product fits a word: one 64-bit division */
        return a * b % m;
    return (u64)((u128)a * b % m);
}

static u64 powmod(u64 b, u64 e, u64 m)
{
    u64 r = 1 % m;
    b %= m;
    while (e) {
        if (e & 1)
            r = mulmod(r, b, m);
        b = mulmod(b, b, m);
        e >>= 1;
    }
    return r;
}

static u64 gcd_u64(u64 a, u64 b)
{
    while (b) {
        u64 t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* the inverse of a mod m, assuming gcd(a, m) = 1 and m >= 1 */
static u64 invmod(u64 a, u64 m)
{
    i64 old_r = (i64)m, r = (i64)(a % m), old_s = 0, s = 1;
    if (m == 1)
        return 0;
    while (r) {
        i64 q = old_r / r, t = old_r - q * r;
        old_r = r;
        r = t;
        t = old_s - q * s;
        old_s = s;
        s = t;
    }
    return (u64)(old_s < 0 ? old_s + (i64)m : old_s);
}

static u64 upow(u64 b, int e)
{
    u64 r = 1;
    while (e-- > 0)
        r *= b;
    return r;
}

static u64 isqrt_u64(u64 n)
{
    u64 r = 0, bit = (u64)1 << 31;
    for (; bit; bit >>= 1)
        if ((r + bit) * (r + bit) <= n)
            r += bit;
    return r;
}

/* -- primality and factorisation -------------------------------------------- */

static const u64 MR_WITNESSES[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
#define N_WITNESSES (sizeof MR_WITNESSES / sizeof MR_WITNESSES[0])

/* Miller-Rabin to the 12 prime bases 2..37: exact below
   psi_12 = 318665857834031151167461 (OEIS A014233), and so on every u64 */
static int is_prime_u64(u64 n)
{
    u64 d = n - 1;
    int s = 0;
    if (n < 2)
        return 0;
    for (size_t i = 0; i < N_WITNESSES; i++)
        if (n % MR_WITNESSES[i] == 0)
            return n == MR_WITNESSES[i];
    while (d % 2 == 0) {
        d >>= 1;
        s++;
    }
    for (size_t i = 0; i < N_WITNESSES; i++) {
        u64 x = powmod(MR_WITNESSES[i], d, n);
        int witness = 1;
        if (x == 1 || x == n - 1)
            continue;
        for (int r = 0; r < s - 1; r++) {
            x = mulmod(x, x, n);
            if (x == n - 1) {
                witness = 0;
                break;
            }
        }
        if (witness)
            return 0;
    }
    return 1;
}

/* a nontrivial factor of the odd composite n by Brent-cycle rho with
 * deterministic polynomial shifts; 0 if every shift fails */
static u64 pollard_brent(u64 n)
{
    for (u64 c = 1; c < 1000; c++) {
        u64 y = 2, r = 1, q = 1, g = 1, x = y, ys = y;
        while (g == 1) {
            x = y;
            for (u64 i = 0; i < r; i++)
                y = (mulmod(y, y, n) + c) % n;
            for (u64 k = 0; k < r && g == 1; k += 128) {
                u64 m = r - k > 128 ? 128 : r - k;
                ys = y;
                for (u64 i = 0; i < m; i++) {
                    y = (mulmod(y, y, n) + c) % n;
                    q = mulmod(q, x > y ? x - y : y - x, n);
                }
                g = gcd_u64(q, n);
            }
            r *= 2;
        }
        if (g == n) {
            g = 1;
            while (g == 1) {
                ys = (mulmod(ys, ys, n) + c) % n;
                g = gcd_u64(x > ys ? x - ys : ys - x, n);
            }
        }
        if (g != n)
            return g;
    }
    return 0;
}

static int add_factor(u64 *ps, u64 *es, int cnt, u64 p, u64 e)
{
    ps[cnt] = p;
    es[cnt] = e;
    return cnt + 1;
}

/* the prime factorisation of n >= 1 as (ps[i], es[i]) in ascending ps;
 * returns the count, or -1 if rho fails to split a cofactor */
static int factorize_u64(u64 n, u64 *ps, u64 *es)
{
    u64 stack[64], p;
    int cnt = 0, top = 0;
    /* trial division by 2, 3 and the q = +-1 (mod 6) up to 10^4 */
    for (p = 2; p <= 3; p++)
        if (n % p == 0) {
            u64 e = 0;
            for (; n % p == 0; n /= p)
                e++;
            cnt = add_factor(ps, es, cnt, p, e);
        }
    for (p = 5; p <= 10000 && p * p <= n; p += 6)
        for (u64 q = p; q <= p + 2; q += 2)
            if (n % q == 0) {
                u64 e = 0;
                for (; n % q == 0; n /= q)
                    e++;
                cnt = add_factor(ps, es, cnt, q, e);
            }
    if (n == 1)
        return cnt;
    if (p * p > n)  /* no factor below p, so the cofactor is prime */
        return add_factor(ps, es, cnt, n, 1);
    /* every prime factor left exceeds 10^4, so there are at most four */
    stack[top++] = n;
    while (top) {
        u64 d = stack[--top];
        if (is_prime_u64(d)) {
            int i = 0;
            while (i < cnt && ps[i] != d)
                i++;
            if (i < cnt)
                es[i]++;
            else
                cnt = add_factor(ps, es, cnt, d, 1);
            continue;
        }
        p = pollard_brent(d);
        if (p == 0)
            return -1;
        stack[top++] = p;
        stack[top++] = d / p;
    }
    /* insertion sort of the prime factors rho found */
    for (int i = 1; i < cnt; i++) {
        u64 tp = ps[i], te = es[i];
        int j = i - 1;
        for (; j >= 0 && ps[j] > tp; j--) {
            ps[j + 1] = ps[j];
            es[j + 1] = es[j];
        }
        ps[j + 1] = tp;
        es[j + 1] = te;
    }
    return cnt;
}

/* -- discrete logs ----------------------------------------------------------- */

/* open addressing from nonzero group elements to their baby-step index */
typedef struct {
    u64 *keys;  /* 0 marks an empty slot */
    i64 *vals;
    u64 mask;
} HashTable;

static int ht_init(HashTable *t, u64 n)
{
    u64 size = 4;
    while (size < 2 * n)
        size <<= 1;
    t->keys = calloc(size, sizeof(u64));
    t->vals = malloc(size * sizeof(i64));
    t->mask = size - 1;
    return t->keys != NULL && t->vals != NULL;
}

static void ht_free(HashTable *t)
{
    free(t->keys);
    free(t->vals);
}

static inline u64 ht_slot(const HashTable *t, u64 key)
{
    return (key * (u64)0x9E3779B97F4A7C15ULL) & t->mask;
}

/* keeps the last value per key, as a Python dict does */
static inline void ht_put(HashTable *t, u64 key, i64 val)
{
    u64 idx = ht_slot(t, key);
    while (t->keys[idx] != 0 && t->keys[idx] != key)
        idx = (idx + 1) & t->mask;
    t->keys[idx] = key;
    t->vals[idx] = val;
}

static inline i64 ht_get(const HashTable *t, u64 key)
{
    u64 idx = ht_slot(t, key);
    while (t->keys[idx] != 0) {
        if (t->keys[idx] == key)
            return t->vals[idx];
        idx = (idx + 1) & t->mask;
    }
    return -1;
}

/* Error codes of the logs below, which return a nonnegative log otherwise. */
#define LOG_NONE (-1)     /* the target is outside the base's subgroup */
#define LOG_NOMEM (-2)    /* the baby-step table could not be allocated */

/* baby-step giant-step in the cyclic group <base> of the given order */
static i64 bsgs(u64 base, u64 target, u64 order, u64 p)
{
    u64 m = isqrt_u64(order - 1) + 1, cur = 1, step;
    i64 found = LOG_NONE;
    HashTable t;
    if (!ht_init(&t, m)) {
        ht_free(&t);
        return LOG_NOMEM;
    }
    for (u64 i = 0; i < m; i++) {
        ht_put(&t, cur, (i64)i);
        cur = mulmod(cur, base, p);
    }
    step = invmod(powmod(base, m, p), p);
    cur = target;
    for (u64 i = 0; i < m && found < 0; i++) {
        i64 j = ht_get(&t, cur);
        if (j >= 0)
            found = (i64)((i * m + (u64)j) % order);
        cur = mulmod(cur, step, p);
    }
    ht_free(&t);
    return found;
}

/* the primes whose logs are walked, not looked up by BSGS; omega_solution
 * decides their projections before it factors p-1 */
static const u64 SMALL_Q[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47};
#define N_SMALL_Q (sizeof SMALL_Q / sizeof SMALL_Q[0])
#define SMALL_Q_MAX SMALL_Q[N_SMALL_Q - 1]

/* log of target in the group <base> of prime order q: a walk of at most q
 * steps for q <= 47, BSGS above */
static i64 digit_log(u64 base, u64 target, u64 q, u64 p)
{
    u64 cur = 1;
    if (q > SMALL_Q_MAX)
        return bsgs(base, target, q, p);
    for (u64 t = 0; t < q; t++) {
        if (cur == target)
            return (i64)t;
        cur = mulmod(cur, base, p);
    }
    return LOG_NONE;
}

/* digit-by-digit lift; gq has order exactly q^e */
static i64 prime_power_log(u64 gq, u64 hq, u64 q, int e, u64 p)
{
    u64 gamma = powmod(gq, upow(q, e - 1), p), x = 0;
    for (int i = 0; i < e; i++) {
        u64 target = powmod(mulmod(invmod(powmod(gq, x, p), p), hq, p),
                            upow(q, e - 1 - i), p);
        i64 d = digit_log(gamma, target, q, p);
        if (d < 0)
            return d;
        x += (u64)d * upow(q, i);
    }
    return (i64)x;
}

/* -- argument conversion ----------------------------------------------------- */

static int as_i64(PyObject *obj, i64 *out)
{
    *out = PyLong_AsLongLong(obj);
    return !(*out == -1 && PyErr_Occurred());
}

static int as_u64(PyObject *obj, u64 *out)
{
    *out = PyLong_AsUnsignedLongLong(obj);
    return !(*out == (u64)-1 && PyErr_Occurred());
}

/* Reads a sequence of at most max ints into vals; returns its length, or -1
 * on error. */
static Py_ssize_t read_words(PyObject *seq, void *vals, int is_signed, Py_ssize_t max)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    Py_ssize_t width;
    if (fast == NULL)
        return -1;
    width = PySequence_Fast_GET_SIZE(fast);
    if (width > max) {
        PyErr_Format(PyExc_OverflowError, "more than %zd values for the native backend", max);
        width = -1;
    }
    for (Py_ssize_t j = 0; j < width; j++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, j);
        if (is_signed ? !as_i64(item, (i64 *)vals + j) : !as_u64(item, (u64 *)vals + j)) {
            width = -1;
            break;
        }
    }
    Py_DECREF(fast);
    return width;
}

/* a prime p < 2^63, as signed words reduce mod (i64)p; p = 0 raises what `x % 0` raises */
static int as_prime(PyObject *obj, u64 *p)
{
    if (!as_u64(obj, p))
        return 0;
    if (*p > INT64_MAX) {
        PyErr_SetString(PyExc_OverflowError, "prime too large for the native backend");
        return 0;
    }
    if (*p == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
        return 0;
    }
    return 1;
}

/* x mod p in [0, p) for a signed word x */
static inline u64 residue(i64 x, u64 p)
{
    i64 r = x % (i64)p;
    return (u64)(r < 0 ? r + (i64)p : r);
}

static PyObject *rho_failed(u64 n)
{
    PyErr_Format(PyExc_ArithmeticError, "rho failed to split %llu", (unsigned long long)n);
    return NULL;
}

/* -- kernels ------------------------------------------------------------------- */

PyDoc_STRVAR(sieve_doc, "sieve(limit)\n--\n\nAll primes <= limit, ascending.");

static PyObject *kernel_sieve(PyObject *Py_UNUSED(module), PyObject *arg)
{
    long long limit = PyLong_AsLongLong(arg);
    unsigned char *flags;
    Py_ssize_t count = 0, k = 0;
    PyObject *out;
    if (limit == -1 && PyErr_Occurred())
        return NULL;
    if (limit < 2)
        return PyList_New(0);
    if ((unsigned long long)limit >= PY_SSIZE_T_MAX
        || (flags = malloc((size_t)limit + 1)) == NULL)
        return PyErr_NoMemory();
    /* only the odd flags are read: 2 is the one even prime */
    memset(flags, 1, (size_t)limit + 1);
    for (long long i = 3; i * i <= limit; i += 2)
        if (flags[i])
            for (long long j = i * i; j <= limit; j += 2 * i)
                flags[j] = 0;
    for (long long i = 2; i <= limit; i = i == 2 ? 3 : i + 2)
        count += flags[i];
    out = PyList_New(count);
    for (long long i = 2; out != NULL && i <= limit; i = i == 2 ? 3 : i + 2) {
        PyObject *p;
        if (!flags[i])
            continue;
        if ((p = PyLong_FromLongLong(i)) == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, k++, p);
    }
    free(flags);
    return out;
}

/* The t mod q with (a_j^t·c_j)^m = 1 for all j, m = (p-1)/q: 1 with *k = t
 * and *mod = q, or *k = 0 and *mod = 1 when every a_j projects to 1 and t
 * is free; 0 when no t fits, or LOG_NOMEM.  Projections are taken lazily:
 * up to the first a_j of projection u != 1 (the pivot) each c_j must
 * project to 1; the pivot fixes t, since its c_j projects to w in
 * <u> = mu_q and u^t·w = 1 for t = -log_u(w); every later witness then
 * costs one power */
static int projection_solution(const u64 *avals, const u64 *cs, Py_ssize_t width, u64 q,
                               u64 p, u64 *k, u64 *mod)
{
    u64 m = (p - 1) / q;
    i64 t = -1;
    for (Py_ssize_t j = 0; j < width; j++) {
        u64 u, w;
        i64 s;
        if (t >= 0) {
            if (powmod(mulmod(powmod(avals[j], (u64)t, p), cs[j], p), m, p) != 1)
                return 0;
            continue;
        }
        u = powmod(avals[j], m, p);
        w = powmod(cs[j], m, p);
        if (u != 1) {
            if ((s = digit_log(u, w, q, p)) < 0)
                return s == LOG_NOMEM ? LOG_NOMEM : 0;
            t = (i64)((q - (u64)s) % q);
        } else if (w != 1) {
            return 0;
        }
    }
    *k = t < 0 ? 0 : (u64)t;
    *mod = t < 0 ? 1 : q;
    return 1;
}

PyDoc_STRVAR(class_counts_doc,
"class_counts(primes, ell, nums, dens, k)\n--\n\n"
"Count the primes whose ell-th power characters lie in the proportionality class.\n\n"
"Same contract as the pure backend: returns (counted, skipped, hits), a\n"
"prime with k > 0 decided by omega_members' projection solver at q = ell.");

static PyObject *kernel_class_counts(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *primes, *nums, *dens, *fast;
    u64 cd[MAX_WIDTH], rs[MAX_WIDTH], counted = 0, skipped = 0, hits = 0, t, mod;
    i64 cn[MAX_WIDTH];
    long long ell;
    Py_ssize_t width, k, n;
    if (!PyArg_ParseTuple(args, "OLOOn:class_counts", &primes, &ell, &nums, &dens, &k))
        return NULL;
    if ((width = read_words(nums, cn, 1, MAX_WIDTH)) < 0
        || read_words(dens, cd, 0, MAX_WIDTH) < 0)
        return NULL;
    if (ell < 1) {
        PyErr_Format(PyExc_ValueError, "ell must be positive, got %lld", ell);
        return NULL;
    }
    if (k < 0 || (k && 2 * k != width)) {
        PyErr_Format(PyExc_ValueError, "k = %zd does not halve a tuple of width %zd",
                     k, width);
        return NULL;
    }
    if ((fast = PySequence_Fast(primes, "primes must be a sequence")) == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        u64 p;
        int ok = 1, hit;
        if (!as_prime(PySequence_Fast_GET_ITEM(fast, i), &p))
            goto fail;
        /* p | n·d^(ell-1) iff p | n or p | d */
        for (Py_ssize_t j = 0; j < width && ok; j++) {
            rs[j] = mulmod(residue(cn[j], p), powmod(cd[j], (u64)ell - 1, p), p);
            ok = rs[j] != 0;
        }
        if (!ok) {
            skipped++;
            continue;
        }
        counted++;
        if (k == 0) {
            u64 m = (p - 1) / (u64)ell;
            Py_ssize_t j = 0;
            while (j < width && powmod(rs[j], m, p) == 1)
                j++;
            hits += j == width;
            continue;
        }
        /* chi(c_{k+i}) = chi(c_i)^lambda for all i < k: the q = ell
         * projection of omega_solution's test at a_i = c_i, with t = -lambda */
        if ((hit = projection_solution(rs, rs + k, k, (u64)ell, p, &t, &mod)) == LOG_NOMEM) {
            PyErr_NoMemory();
            goto fail;
        }
        hits += (u64)hit;
    }
    Py_DECREF(fast);
    return Py_BuildValue("(KKK)", (unsigned long long)counted,
                         (unsigned long long)skipped, (unsigned long long)hits);
fail:
    Py_DECREF(fast);
    return NULL;
}

/* The k with u_j^k = v_j^-1 for all j, u_j = a_j^cof and v_j = c_j^cof for
 * cof = (p-1)/q^e: 1 with *k mod *mod = q^s, 0 when no k fits, or
 * LOG_NOMEM.  All lie in the cyclic subgroup of order q^e, where the u_j of
 * largest order q^s generates every other u_j; v_pivot must lie in its
 * group, and t = log v_pivot (mod q^s) is then the only candidate for
 * u_j^t = v_j, so k = -t */
static int component_solution(const u64 *avals, const u64 *cs, Py_ssize_t width, u64 q,
                              int e, u64 p, u64 *k, u64 *mod)
{
    u64 cof = (p - 1) / upow(q, e), us[MAX_WIDTH], vs[MAX_WIDTH], u_piv = 1, v_piv = 1;
    int s = 0;
    i64 t = 0;
    for (Py_ssize_t j = 0; j < width; j++) {
        u64 w = us[j] = powmod(avals[j], cof, p);
        int order_exp = 0;
        vs[j] = powmod(cs[j], cof, p);
        for (; w != 1; order_exp++)
            w = powmod(w, q, p);
        if (order_exp > s) {
            u_piv = us[j];
            v_piv = vs[j];
            s = order_exp;
        }
    }
    *mod = upow(q, s);
    if (powmod(v_piv, *mod, p) != 1)
        return 0;
    if (s && (t = prime_power_log(u_piv, v_piv, q, s, p)) < 0)
        return t == LOG_NOMEM ? LOG_NOMEM : 0;
    for (Py_ssize_t j = 0; j < width; j++)
        if (powmod(us[j], (u64)t, p) != vs[j])
            return 0;
    *k = (*mod - (u64)t) % *mod;
    return 1;
}

/* Is there k with a_j^k·c_j = 1 (mod the prime p) for all j?  1 with the
 * solutions k + mZ as *k and *m, 0 if none, or a negative code: LOG_NOMEM,
 * or -3 if rho fails on p-1.  The steps of pure.py: the projections of
 * order q <= 47 first, which reject almost every prime, with a parity code
 * in 0..3 standing for the q = 2 one; only a survivor factors p-1 and
 * solves the components they leave open.  The residues of the components
 * combine by CRT, in words: m·n <= p-1 < 2^63. */
static int omega_solution(u64 p, const u64 *avals, const u64 *cs, Py_ssize_t width, i64 code,
                          u64 *k, u64 *m)
{
    u64 qs[MAX_FACTORS], es[MAX_FACTORS], ts[MAX_FACTORS], ns[MAX_FACTORS];
    int cnt, ok, parts = 0;
    for (size_t i = 0; i < N_SMALL_Q; i++) {
        u64 q = SMALL_Q[i];
        if ((p - 1) % q)
            continue;
        if (q == 2 && code >= 0) {
            /* code 0 fits no k, 1 only even k, 2 only odd k, 3 every k */
            if (code == 0)
                return 0;
            ts[parts] = code == 2;
            ns[parts] = code == 3 ? 1 : 2;
        } else if ((ok = projection_solution(avals, cs, width, q, p, ts + parts,
                                             ns + parts)) <= 0) {
            return ok;
        }
        parts += (p - 1) % (q * q) != 0;  /* the projection is the whole component */
    }
    if ((cnt = factorize_u64(p - 1, qs, es)) < 0)
        return -3;
    for (int i = 0; i < cnt; i++) {
        if (es[i] == 1 && qs[i] <= SMALL_Q_MAX)
            continue;
        ok = es[i] == 1
            ? projection_solution(avals, cs, width, qs[i], p, ts + parts, ns + parts)
            : component_solution(avals, cs, width, qs[i], (int)es[i], p, ts + parts,
                                 ns + parts);
        if (ok <= 0)
            return ok;
        parts++;
    }
    *k = 0;
    *m = 1;
    for (int i = 0; i < parts; i++) {
        u64 n = ns[i];
        if (n == 1)
            continue;
        *k += *m * mulmod((ts[i] + n - *k % n) % n, invmod(*m % n, n), n);
        *m *= n;
    }
    return 1;
}

PyDoc_STRVAR(omega_members_doc,
"omega_members(primes, ns, fnums, fdens, parities=None)\n--\n\n"
"The primes where (f(n_j)) is a simultaneous power of (n_j) mod p, with its exponents.\n\n"
"Same contract as the pure backend: returns (counted, skipped, members),\n"
"members a list of (p, k, m), one per member p: the k with n_j^k = f(n_j)\n"
"(mod p) for all j are exactly k + mZ, 0 <= k < m, m | p - 1.  parities,\n"
"when given, holds one code per prime: bit 1 says every (f(n_j)/p) = 1\n"
"(k even fits), bit 2 every (f(n_j)/p) = (n_j/p) (k odd fits), and the\n"
"code stands for the q = 2 projection; -1 is not read.  A code outside\n"
"-1..3, or a list whose length differs from primes, raises ValueError.");

/* the i-th parity code of the sequence codes (a PySequence_Fast), or -1
 * for none; -2 with an exception set on a code outside -1..3 */
static i64 parity_code(PyObject *codes, Py_ssize_t i)
{
    i64 code = -1;
    if (codes != NULL && !as_i64(PySequence_Fast_GET_ITEM(codes, i), &code))
        return -2;
    if (code < -1 || code > 3) {
        PyErr_Format(PyExc_ValueError, "parity code %lld lies outside -1..3", (long long)code);
        return -2;
    }
    return code;
}

static PyObject *kernel_omega_members(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *primes, *ns, *fnums, *fdens, *parities = Py_None, *fast, *codes = NULL;
    PyObject *members = NULL;
    u64 cn[MAX_WIDTH], cfd[MAX_WIDTH], avals[MAX_WIDTH], cs[MAX_WIDTH];
    u64 counted = 0, skipped = 0;
    i64 cfn[MAX_WIDTH];
    Py_ssize_t width, n;
    if (!PyArg_ParseTuple(args, "OOOO|O:omega_members", &primes, &ns, &fnums, &fdens,
                          &parities))
        return NULL;
    if ((width = read_words(ns, cn, 0, MAX_WIDTH)) < 0
        || read_words(fnums, cfn, 1, MAX_WIDTH) < 0
        || read_words(fdens, cfd, 0, MAX_WIDTH) < 0)
        return NULL;
    if ((fast = PySequence_Fast(primes, "primes must be a sequence")) == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(fast);
    if (parities != Py_None) {
        if ((codes = PySequence_Fast(parities, "parities must be a sequence")) == NULL)
            goto fail;
        if (PySequence_Fast_GET_SIZE(codes) != n) {
            PyErr_Format(PyExc_ValueError, "%zd parity codes for %zd primes",
                         PySequence_Fast_GET_SIZE(codes), n);
            goto fail;
        }
        /* every code is checked before any prime, as pure.py does */
        for (Py_ssize_t i = 0; i < n; i++)
            if (parity_code(codes, i) < -1)
                goto fail;
    }
    if ((members = PyList_New(0)) == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < n; i++) {
        u64 p, k, m;
        int ok = 1, member;
        PyObject *row;
        if (!as_prime(PySequence_Fast_GET_ITEM(fast, i), &p))
            goto fail;
        for (Py_ssize_t j = 0; j < width && ok; j++)
            ok = cn[j] % p != 0 && cfn[j] % (i64)p != 0 && cfd[j] % p != 0;
        if (!ok) {
            skipped++;
            continue;
        }
        counted++;
        /* c_j = f(n_j)^-1, so each test is a_j^k·c_j = 1 */
        for (Py_ssize_t j = 0; j < width; j++) {
            avals[j] = cn[j] % p;
            cs[j] = mulmod(cfd[j] % p, invmod(residue(cfn[j], p), p), p);
        }
        member = omega_solution(p, avals, cs, width, parity_code(codes, i), &k, &m);
        if (member == LOG_NOMEM) {
            PyErr_NoMemory();
            goto fail;
        }
        if (member < 0) {
            rho_failed(p - 1);
            goto fail;
        }
        if (!member)
            continue;
        row = Py_BuildValue("(KKK)", (unsigned long long)p, (unsigned long long)k,
                            (unsigned long long)m);
        if (row == NULL || PyList_Append(members, row) < 0) {
            Py_XDECREF(row);
            goto fail;
        }
        Py_DECREF(row);
    }
    Py_DECREF(fast);
    Py_XDECREF(codes);
    return Py_BuildValue("(KKN)", (unsigned long long)counted,
                         (unsigned long long)skipped, members);
fail:
    Py_DECREF(fast);
    Py_XDECREF(codes);
    Py_XDECREF(members);
    return NULL;
}

/* -- module ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"sieve", kernel_sieve, METH_O, sieve_doc},
    {"class_counts", kernel_class_counts, METH_VARARGS, class_counts_doc},
    {"omega_members", kernel_omega_members, METH_VARARGS, omega_members_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "localpow.kernels._native",
    .m_doc = "Compiled backend for the three dispatched prime and scan kernels.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC PyInit__native(void)
{
    PyObject *module = PyModule_Create(&native_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND", "native") < 0)
        Py_CLEAR(module);
    return module;
}
