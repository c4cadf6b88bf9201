"""Timing of the compiled kernels against the pure mirror.

Times the three kernels that localpow.kernels dispatches to the compiled
backend when it is built, and `factorize`, `discrete_log` and density-scan's
prime generator `prime_segments`, which are pure under every backend, and
the pure ell = 3 range kernel `cubic_class_counts` over the primes that
`class_counts` is timed on, its own prime generation included, and over
[2, 10^7] beside [9·10^7, 10^8], two ranges with about as many primes.

Run as: python3 benchmarks/bench_kernels.py
"""

import time

from localpow.kernels import pure
from localpow.modular import primitive_root
from localpow.powermap import _character_prefilter, _character_tables
from localpow.ratfact import as_factored

try:
    from localpow.kernels import _native as native
except ImportError:
    native = None


def best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    primes_1m = pure.sieve(10**6)
    split_3 = [p for p in primes_1m if p % 3 == 1]
    primes_200k = [p for p in primes_1m if p <= 2 * 10**5]
    dlog_ps = primes_1m[-200:]
    dlog_gs = [primitive_root(p) for p in dlog_ps]
    # heuristic's witnesses and values at benchmark seed 1, on the primes its
    # quadratic-character prefilter leaves to omega_members, and their
    # parity codes
    seed1_ns, seed1_fs = [2, 17, 29], [53, 89, 67]
    seed1_tables = _character_tables(
        [as_factored(n) for n in seed1_ns], [as_factored(f) for f in seed1_fs]
    )
    seed1_kept, seed1_parities = _character_prefilter(primes_1m, seed1_tables)

    tasks = [
        ("sieve(10^6)", lambda m: m.sieve(10**6), 3),
        (
            "class_counts c4, (2,3,5,7), p = 1 mod 3 to 10^6",
            lambda m: m.class_counts(split_3, 3, [2, 3, 5, 7], [1, 1, 1, 1], 2),
            1,
        ),
        (
            "class_counts split, (2,5), p = 1 mod 3 to 10^6",
            lambda m: m.class_counts(split_3, 3, [2, 5], [1, 1], 0),
            1,
        ),
        (
            "omega_members, witnesses (2,3,5), primes to 2*10^5",
            lambda m: m.omega_members(primes_200k, [2, 3, 5], [5, 7, 11], [1, 1, 1]),
            1,
        ),
        (
            # x -> x^3: every prime is a member, each solved in full
            "omega_members, member-dense n^3, primes to 2*10^5",
            lambda m: m.omega_members(primes_200k, [2, 3, 5], [8, 27, 125], [1, 1, 1]),
            1,
        ),
        (
            "omega_members, (2,17,29), prefilter-kept p to 10^6",
            lambda m: m.omega_members(seed1_kept, seed1_ns, seed1_fs, [1, 1, 1]),
            3,
        ),
        (
            "omega_members, (2,17,29), prefilter-kept p to 10^6, with parities",
            lambda m: m.omega_members(
                seed1_kept, seed1_ns, seed1_fs, [1, 1, 1], seed1_parities
            ),
            3,
        ),
    ]

    header = f"{'task':<68} {'pure':>10} {'native':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, fn, repeat in tasks:
        t_pure = best_of(lambda: fn(pure), repeat)
        if native is None:
            print(f"{label:<68} {t_pure:>9.3f}s {'n/a':>10} {'n/a':>8}")
            continue
        t_native = best_of(lambda: fn(native), repeat)
        print(
            f"{label:<68} {t_pure:>9.3f}s {t_native:>9.3f}s {t_pure / t_native:>7.1f}x"
        )
    pure_only = [
        (
            "factorize 2000 ints near 10^12, pure only",
            lambda: [pure.factorize(n) for n in range(10**12, 10**12 + 2000)],
            1,
        ),
        (
            "discrete_log at 200 primes near 10^6, pure only",
            lambda: [
                pure.discrete_log(g, 1234567 % p, p) for g, p in zip(dlog_gs, dlog_ps)
            ],
            1,
        ),
        (
            "cubic_class_counts c4, (2,3,5,7), p = 1 mod 3 to 10^6, pure only",
            lambda: pure.cubic_class_counts(2, 10**6 + 1, [2, 3, 5, 7], [1, 1, 1, 1], 2),
            3,
        ),
        (
            "cubic_class_counts split, (2,5), p = 1 mod 3 to 10^6, pure only",
            lambda: pure.cubic_class_counts(2, 10**6 + 1, [2, 5], [1, 1], 0),
            3,
        ),
        (
            # the cost per prime should stay flat as the limit grows: the
            # walk's window widens with sqrt(hi), as its rows do, to its cap
            "cubic_class_counts c4, (2,3,5,7), [2, 10^7], pure only",
            lambda: pure.cubic_class_counts(2, 10**7 + 1, [2, 3, 5, 7], [1, 1, 1, 1], 2),
            3,
        ),
        (
            "cubic_class_counts c4, (2,3,5,7), [9*10^7, 10^8], pure only",
            lambda: pure.cubic_class_counts(9 * 10**7, 10**8 + 1, [2, 3, 5, 7], [1, 1, 1, 1], 2),
            3,
        ),
        (
            "prime_segments(2, 10^7 + 1, 6), pure only",
            lambda: sum(map(len, pure.prime_segments(2, 10**7 + 1, 6))),
            3,
        ),
    ]
    for label, fn, repeat in pure_only:
        t_pure = best_of(fn, repeat)
        print(f"{label:<68} {t_pure:>9.3f}s {'n/a':>10} {'n/a':>8}")


if __name__ == "__main__":
    main()
