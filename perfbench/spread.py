"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload density-1e7 --seeds 1-10

For every metric it prints the median of the runs and the distance between
the first and third quartiles as a share of the median, the figure that
BENCHMARK.json's bounds are held against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from timing import median, quartile_spread

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--json", default=None, help="also write every value and summary here")
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in _seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<34} {'median':>12} {'iqr/median':>10}  runs={len(_seeds(args.seeds))} failed={failed}")
    summary = {}
    for name, vals in values.items():
        summary[name] = {"unit": units[name], "median": median(vals),
                         "iqr_over_median": quartile_spread(vals), "values": vals}
        print(f"{name:<34} {median(vals):>12.6g} {quartile_spread(vals):>10.4f}  {units[name]}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "failed": failed, "metrics": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
