"""End-to-end benchmark of the localpow CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload density-1e7 --seed 1 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  With --trace 0 one client runs the workload's invocations as
subprocesses, one after another (a closed loop), each with --workers 1 and
then with --workers 2, cycling through them until --seconds have passed.
Every report is checked against the oracles in oracles.py and the 1-worker
report must be byte-identical to the 2-worker one.  With --trace 1 the same
invocations are replayed in-process by tracing.py for the per-layer split.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The full result, with machine facts, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracles
import workloads
from timing import median, spawn

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"
SETUP_SAMPLES = 15  # at least this many import timings per run
SETUP_PER_PAIR = 3
INVOCATION_TIMEOUT_S = 150.0


class ProgramMissing(Exception):
    """localpow cannot be imported from the checkout."""


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(section: str) -> dict[str, str]:
    """{name: unit} for one metric list of BENCHMARK.json, in its order."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("LOCALPOW_PURE", None)
    return env


def machine_facts(env, workload: str, seed: int) -> dict:
    probe = (
        "import json\n"
        "from localpow import kernels\n"
        "try:\n"
        "    import localpow.kernels._native\n"
        "    native = True\n"
        "except ImportError:\n"
        "    native = False\n"
        "print(json.dumps({'backend': kernels.BACKEND, 'native_imports': native}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        raise ProgramMissing(f"cannot import localpow from {ROOT / 'src'}: {out.stderr.strip()}")
    facts = json.loads(out.stdout.strip().splitlines()[-1])
    llc = {}
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        got = subprocess.run(["getconf", level], capture_output=True, text=True).stdout.strip()
        if got.isdigit() and int(got) > 0:
            llc = {"llc_bytes": int(got), "llc_level": level}
            break
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **facts,
        **llc,
    }


def _cli_argv(inv, workers: int) -> list[str]:
    return [sys.executable, "-m", "localpow.cli", *inv.argv, "--workers", str(workers)]


class Checker:
    """Counts attempted and failed invocations; oracle verdicts cached per report."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[tuple[str, str], list[str]] = {}
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def report(self, inv, exit_code: int, text: str, tag: str) -> None:
        self.attempted += 1
        for error in self._errors(inv, exit_code, text):
            self.failures.setdefault((inv.label, tag), []).append(error)

    def same(self, inv, first: str, second: str, tag: str) -> None:
        """Fails the run under `tag` when its report differs from the 1-worker one."""
        if first != second:
            self.fail(inv, tag, "report differs from the 1-worker report")

    def fail(self, inv, tag: str, message: str) -> None:
        self.failures.setdefault((inv.label, tag), []).append(message)

    def _errors(self, inv, exit_code: int, text: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        key = (inv.label, text)
        if key not in self._verdicts:
            try:
                report = json.loads(text)
            except json.JSONDecodeError as exc:
                return [f"stdout is not JSON: {exc}"]
            try:
                self._verdicts[key] = oracles.check(inv.label, report, inv.check)
            except (KeyError, TypeError) as exc:
                self._verdicts[key] = [f"report lacks a field: {exc!r}"]
        return self._verdicts[key]

    @property
    def failed(self) -> int:
        return len(self.failures)

    def messages(self) -> list[str]:
        return [f"{label} {tag}: {'; '.join(errs)}" for (label, tag), errs in self.failures.items()]


def run_one(inv, workers: int, env, checker: Checker, tag: str):
    """Spawn one invocation and check its report: (Spawned, stdout text)."""
    stem = OUT / f"{inv.label}-w{workers}"
    done = spawn(
        _cli_argv(inv, workers),
        env=env,
        stdout=stem.with_suffix(".stdout"),
        stderr=stem.with_suffix(".stderr"),
        timeout_s=INVOCATION_TIMEOUT_S,
    )
    text = stem.with_suffix(".stdout").read_text()
    checker.report(inv, done.exit_code, text, tag)
    return done, text


def setup_sample(env) -> float:
    """Wall seconds for a fresh interpreter to import localpow.cli."""
    done = spawn(
        [sys.executable, "-c", "import localpow.cli"],
        env=env,
        stdout=OUT / "setup.stdout",
        stderr=OUT / "setup.stderr",
        timeout_s=60.0,
    )
    if done.exit_code != 0:
        raise ProgramMissing("importing localpow.cli failed; see perfbench/out/setup.stderr")
    return done.wall_s


def timed_run(invs, env, seconds: float, checker: Checker) -> dict:
    """Cycle through the invocations, each at 1 then 2 workers, for `seconds`.

    Every invocation runs once first.  After that the next invocation in turn
    whose previous pair of runs would still end within `seconds` runs again,
    until none would.  A pass's wall time is the sum over its invocations of
    each one's median wall time, so all of the run's time goes into samples.
    Import-time samples are spread over the run too, a few before each pair,
    because the speed of a shared machine drifts within seconds.
    """
    setup_sample(env)  # warm-up: writes the bytecode caches
    setup = []
    walls = {1: [[] for _ in invs], 2: [[] for _ in invs]}
    cost: list[float | None] = [None] * len(invs)  # None: not run yet
    peak = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        left = seconds - (time.perf_counter() - start)
        turn = [(i + k) % len(invs) for k in range(len(invs))]
        i = next((j for j in turn if cost[j] is None or cost[j] <= left), None)
        if i is None:
            break
        inv = invs[i]
        began = time.perf_counter()
        setup.extend(setup_sample(env) for _ in range(SETUP_PER_PAIR))
        texts = {}
        for workers in (1, 2):
            tag = f"sample {len(walls[workers][i]) + 1} w{workers}"
            done, texts[workers] = run_one(inv, workers, env, checker, tag)
            walls[workers][i].append(done.wall_s)
            peak = max(peak, done.maxrss_mb)
        checker.same(inv, texts[1], texts[2], tag)
        cost[i] = time.perf_counter() - began
        i = (i + 1) % len(invs)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(env))
    metrics = {
        "wall_w1_s": sum(median(w) for w in walls[1]),
        "wall_w2_s": sum(median(w) for w in walls[2]),
        "peak_rss_mb": peak,
        "setup_s": median(setup),
    }
    per_invocation = {
        inv.label: {"w1": walls[1][i], "w2": walls[2][i]} for i, inv in enumerate(invs)
    }
    return {"metrics": metrics, "walls": per_invocation, "setup_samples": setup}


# ------------------------------------------------------------ traced run

# Per invocation, untraced and traced replays at 1 worker alternate as
# plain, traced, traced, plain, so a drift in machine speed that is linear
# over the four cancels out of the paired differences.
ABBA = (False, True, True, False)


def _replay(invs, workers: int, traced: bool, name: str, env, checker: Checker, reference):
    """Replay invocations in one child of tracing.py: (Spawned, its result).

    Each report is oracle-checked and, when `reference` is given, compared
    byte for byte with the reference report of its invocation.
    """
    plan = OUT / f"{name}-plan.json"
    plan.write_text(json.dumps([{"label": i.label, "argv": list(i.argv)} for i in invs]))
    done = spawn(
        [sys.executable, str(Path("perfbench") / "tracing.py"), "--plan", str(plan),
         "--workers", str(workers), "--traced", str(int(traced)),
         "--out", str(OUT / f"{name}.json")],
        env=env,
        stdout=OUT / f"{name}.stdout",
        stderr=OUT / f"{name}.stderr",
        timeout_s=INVOCATION_TIMEOUT_S,
    )
    if done.exit_code != 0:
        raise RuntimeError(f"{name} exited with {done.exit_code}; see {OUT / (name + '.stderr')}")
    result = json.loads((OUT / f"{name}.json").read_text())
    for inv, ran, ref in zip(invs, result["invocations"], reference or [None] * len(invs)):
        checker.report(inv, ran["exit"], ran["stdout"], name)
        if ref is not None:
            checker.same(inv, ref, ran["stdout"], name)
    return done, result


def _merge(results: list[dict]) -> dict:
    """Sums the per-name times, calls and counts of several replays."""
    merged = {}
    for key in ("self_s", "total_s", "calls", "counts"):
        total = Counter()
        for result in results:
            total.update(result[key])
        merged[key] = dict(total)
    return merged


def _median_by_name(dicts: list[dict]) -> dict:
    names = set().union(*dicts)
    return {name: median([d.get(name, 0.0) for d in dicts]) for name in names}


def traced_run(invs, env, checker: Checker) -> dict:
    """Per-layer split of the workload at 1 worker, and at 2 for the pool boundary.

    Each invocation is replayed alone in a fresh child, in ABBA order.  An
    untraced child gives the invocation's process start-up (child wall time
    minus its in-process `cli.run` time, both from the same process) and its
    untraced time; each traced child is paired with the untraced one next to
    it.  One more traced child replays every invocation at 2 workers.
    """
    plain_s, startup_s, overhead_pairs = [], [], []
    rounds: list[list[dict]] = [[], []]  # traced results at 1 worker, per round
    reference = []
    for inv in invs:
        ref = None
        plain, traced, startup = [], [], []
        for n, is_traced in enumerate(ABBA):
            name = f"{inv.label}-w1-{'traced' if is_traced else 'plain'}-{n}"
            done, result = _replay(
                [inv], 1, is_traced, name, env, checker, None if ref is None else [ref]
            )
            ran = result["invocations"][0]
            if ref is None:
                ref = ran["stdout"]
            if is_traced:
                traced.append(ran["seconds"])
                rounds[len(traced) - 1].append(result)
            else:
                plain.append(ran["seconds"])
                startup.append(done.wall_s - ran["seconds"])
        reference.append(ref)
        plain_s.append(median(plain))
        startup_s.append(median(startup))
        # the pairs are (plain 0, traced 1) and (traced 2, plain 3)
        overhead_pairs.append([t - p for t, p in zip(traced, plain)])
        first, second = (r[-1] for r in rounds)
        if (first["calls"], first["counts"]) != (second["calls"], second["counts"]):
            checker.fail(inv, "traced w1", "calls or counts differ between the two traced replays")
    _, t2 = _replay(invs, 2, True, "all-w2-traced", env, checker, reference)

    w1 = [_merge(r) for r in rounds]
    self_s = _median_by_name([r["self_s"] for r in w1])
    total_s = _median_by_name([r["total_s"] for r in w1])
    calls, counts = w1[0]["calls"], w1[0]["counts"]
    metrics = {
        "modular.prime_cache_s": self_s.get("modular.prime_cache", 0.0),
        "modular.primes": counts.get("modular.primes", 0),
        "modular.prime_list_mb": counts.get("modular.prime_list_bytes", 0) / 1e6,
        "kernels.sieve_s": self_s.get("kernels.sieve", 0.0),
        "kernels.count_primes_s": self_s.get("kernels.count_primes", 0.0),
        "kernels.z_b_rows_s": self_s.get("kernels.z_b_rows", 0.0),
        "kernels.z_b_rows_primes": counts.get("kernels.z_b_rows_primes", 0),
        "kernels.omega_members_s": self_s.get("kernels.omega_members", 0.0),
        "kernels.omega_members_primes": counts.get("kernels.omega_members_primes", 0),
        "kernels.factorize_calls": calls.get("kernels.factorize", 0),
        "kernels.discrete_log_calls": calls.get("kernels.discrete_log", 0),
        "ratfact.is_prime_calls": calls.get("ratfact.is_prime", 0),
        "ratfact.is_prime_s": self_s.get("ratfact.is_prime", 0.0),
        "ratfact.as_factored_calls": calls.get("ratfact.as_factored", 0),
        "ratfact.as_factored_s": self_s.get("ratfact.as_factored", 0.0),
        "powermap.local_exponent_calls": calls.get("powermap.local_exponent", 0),
        "powermap.local_exponent_s": self_s.get("powermap.local_exponent", 0.0),
        "powermap.values_built": t2["counts"].get("powermap.values_built", 0),
        "powermap.values_built_w1": counts.get("powermap.values_built_w1", 0),
        "powermap.values_s": self_s.get("powermap.values", 0.0),
        "chebotarev.density_counts_s": self_s.get("chebotarev.density_counts", 0.0),
        "chebotarev.expected_s": self_s.get("chebotarev.expected", 0.0),
        "chebotarev.heuristic_scan_s": self_s.get("chebotarev.heuristic_scan", 0.0),
        "bounds.main_bound_s": self_s.get("bounds.main_bound", 0.0),
        "bounds.checks_s": self_s.get("bounds.checks", 0.0),
        "parallel.w1_s": total_s.get("parallel", 0.0),
        "parallel.w2_s": t2["total_s"].get("parallel", 0.0),
        "parallel.sent_mb": t2["counts"].get("parallel.sent_bytes", 0) / 1e6,
        "parallel.chunks": t2["counts"].get("parallel.chunks", 0),
        "parallel.imbalance": t2["imbalance"],
        "cli.self_s": self_s.get("cli", 0.0),
        "process.startup_s": sum(startup_s),
        "trace_overhead_frac": sum(median(d) for d in overhead_pairs) / sum(plain_s),
    }
    return {
        "metrics": metrics,
        "in_process_plain_s": plain_s,
        "trace_overhead_pairs_s": overhead_pairs,
        "startup_s": startup_s,
    }


# ------------------------------------------------------------ entry point


def _print_table(metrics: dict, units: dict, checker: Checker) -> None:
    frac = checker.failed / checker.attempted if checker.attempted else 1.0
    rows = [(name, value, units[name]) for name, value in metrics.items()]
    rows.append(("fail_frac", frac, "fraction"))
    for name, value, unit in rows:
        print(f"{name:<34} {value:>14.6g} {unit}")
    for failure in checker.messages():
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() stops the running child first.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "localpow" / "cli.py").is_file():
        print(f"localpow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(parents=True, exist_ok=True)
    env = program_env()
    try:
        facts = machine_facts(env, args.workload, args.seed)
        invs = workloads.generate(args.workload, args.seed, OUT / "inputs")
        checker = Checker()
        if args.trace:
            result = traced_run(invs, env, checker)
            units = metric_units("per_layer")
        else:
            result = timed_run(invs, env, args.seconds, checker)
            units = metric_units("end_to_end")
    except (ProgramMissing, RuntimeError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"BENCHMARK.json names metrics this benchmark does not measure: {missing}",
              file=sys.stderr)
        return 1
    metrics = {name: result["metrics"][name] for name in units}

    result.update(facts=facts, attempted=checker.attempted, failures=checker.messages())
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n")

    print(json.dumps({"facts": facts}))
    _print_table(metrics, units, checker)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
