"""Command-line surface: JSON and CSV reports over the scans and evaluators.

Output conventions: data (reports and machine-readable error objects) goes to
stdout as JSON with a fixed field order and floats rounded to 12 significant
digits, so identical invocations are byte-identical; progress goes to stderr.
Exit codes: 0 success, 2 domain error, 64 usage error, 65 malformed function
spec.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import kernels
from .bounds import (
    BoundConfig,
    chebyshev_check,
    cyclotomic_discriminant,
    main_bound,
    mertens_product,
    yz_schedule,
)
from .chebotarev import (
    DEFAULT_ENUMERATION_BOUND,
    frobenius_vector,
    heuristic_scan,
    in_C4,
    scan_density,
)
from .errors import FunctionSpecError, LocalPowError
from .lattice import build_lattice, kummer_degree, relations
from .modular import PrimeCache
from .powermap import (
    MultiplicativeMap,
    construct_prescribed,
    find_witness,
    scan_Sf,
    scan_Tf,
)
from .ratfact import as_factored


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(report: dict, csv_path=None):
    report = _round_floats(report)
    print(json.dumps(report, indent=2))
    if csv_path:
        _write_csv(csv_path, report)


def _write_csv(path, report):
    items = report.get("items")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if items:
            header = list(items[0])
            writer.writerow(header)
            for row in items:
                writer.writerow([row[k] for k in header])
        else:
            scalars = {
                k: v
                for k, v in report.items()
                if isinstance(v, (int, float, str, bool))
            }
            writer.writerow(list(scalars))
            writer.writerow(list(scalars.values()))


def _progress(msg: str):
    print(f"[localpow] {msg}", file=sys.stderr)


def _load_function(spec: str) -> MultiplicativeMap:
    text = spec.strip()
    if not text.startswith("{"):
        try:
            text = Path(spec).read_text()
        except OSError as exc:
            raise FunctionSpecError(f"cannot read function spec: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionSpecError(f"function spec is not valid JSON: {exc}") from exc
    return MultiplicativeMap.from_json(obj)


def _parse_tuple(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return parts


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _number_pair(text: str) -> tuple[float, float]:
    """argparse type: exactly two comma-separated numbers."""
    try:
        first, second = (float(v) for v in _parse_tuple(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"need two numbers Y,Z, got {text!r}") from None
    return first, second


def _config(args) -> BoundConfig:
    return BoundConfig(
        c1=args.c1, c2=args.c2, implied_constant=args.implied_constant
    )


# ---------------------------------------------------------------- handlers


def _cmd_sf_scan(args):
    f = _load_function(args.function)
    cfg = _config(args)
    cache = PrimeCache(args.limit)
    total = len(cache)
    _progress(f"scanning {total} primes for local power exponents")
    members, _unknown = scan_Sf(
        f, args.limit, cache, args.mode, args.bound, args.domain, args.workers
    )
    counted = len(members)
    return {
        "command": "sf-scan",
        "parameters": {
            "function": f.to_json(),
            "limit": args.limit,
            "mode": args.mode,
            "bound": args.bound,
            "domain": args.domain,
            "bound_config": cfg.to_json(),
        },
        "range": [2, args.limit],
        "counted": counted,
        "skipped": total - counted,
        "observed": counted / total if total else 0.0,
        "items": [{"p": v.p, "k_p": v.k_p} for v in members],
        "cache_limit": cache.limit,
    }


def _cmd_tf_scan(args):
    f = _load_function(args.function)
    cfg = _config(args)
    cache = PrimeCache(args.limit)
    total = len(cache)
    _progress(f"shift-checking {total} primes")
    members = scan_Tf(f, args.limit, cache, args.shift_bound, args.workers)
    counted = len(members)
    return {
        "command": "tf-scan",
        "parameters": {
            "function": f.to_json(),
            "limit": args.limit,
            "shift_bound": args.shift_bound,
            "bound_config": cfg.to_json(),
        },
        "range": [2, args.limit],
        "counted": counted,
        "skipped": total - counted,
        "observed": counted / total if total else 0.0,
        "items": [{"p": p} for p in members],
        "cache_limit": cache.limit,
    }


def _cmd_witness(args):
    f = _load_function(args.function)
    found = find_witness(f, args.count, args.search_limit)
    return {
        "command": "witness",
        "parameters": {
            "function": f.to_json(),
            "count": args.count,
            "search_limit": args.search_limit,
        },
        "witnesses": found,
    }


def _cmd_construct(args):
    primes = [int(x) for x in _parse_tuple(args.set)]
    exps = [int(x) for x in _parse_tuple(args.exponents)]
    if len(exps) != len(primes):
        raise UsageError("--set and --exponents must have the same length")
    g = construct_prescribed(primes, dict(zip(primes, exps)))
    return {
        "command": "construct",
        "parameters": {"set": primes, "exponents": exps},
        "modulus": g.modulus,
        "items": [{"p": p, "k_p": k} for p, k in g.exponents.items()],
        "values": [g(n) for n in range(1, 21)],
    }


def _cmd_relations(args):
    entries = [as_factored(x) for x in _parse_tuple(args.tuple)]
    lat = build_lattice(entries)
    rep = relations(lat)
    return {
        "command": "relations",
        "parameters": {"tuple": _parse_tuple(args.tuple)},
        "support": lat.support,
        "matrix": lat.matrix,
        "integer_kernel_basis": [list(v) for v in rep.integer_kernel_basis],
        "minors": rep.minors,
        "delta": rep.delta,
    }


def _cmd_kummer_degree(args):
    entries = [as_factored(x) for x in _parse_tuple(args.tuple)]
    dim_v, degree, d = kummer_degree(entries, args.ell)
    return {
        "command": "kummer-degree",
        "parameters": {"tuple": _parse_tuple(args.tuple), "ell": args.ell},
        "dim_v": dim_v,
        "degree": degree,
        "d": d,
    }


def _cmd_frobenius(args):
    entries = [as_factored(x) for x in _parse_tuple(args.tuple)]
    sample = frobenius_vector(args.p, args.ell, entries)
    out = {
        "command": "frobenius",
        "parameters": {"p": args.p, "ell": args.ell, "tuple": _parse_tuple(args.tuple)},
        "z_vector": list(sample.z_vector),
        "b_vector": list(sample.b_vector),
    }
    if len(entries) == 4:
        out["in_c4"] = in_C4(sample)
    return out


def _cmd_density_scan(args):
    raw = _parse_tuple(args.tuple)
    cfg = _config(args)
    ds = scan_density(
        args.ell,
        raw,
        args.limit,
        mode=args.mode,
        enumeration_bound=args.enumeration_bound,
        workers=args.workers,
    )
    _progress(f"tested {ds.counted + ds.skipped} primes = 1 mod {args.ell}")
    return {
        "command": "density-scan",
        "parameters": {
            "ell": args.ell,
            "tuple": raw,
            "limit": args.limit,
            "mode": args.mode,
            "enumeration_bound": args.enumeration_bound,
            "bound_config": cfg.to_json(),
        },
        "range": [2, args.limit],
        "counted": ds.counted,
        "skipped": ds.skipped,
        "observed": ds.observed,
        "expected": float(ds.expected),
        "cache_limit": args.limit,
    }


def _cmd_heuristic(args):
    f = _load_function(args.function)
    witnesses = [int(x) for x in _parse_tuple(args.witnesses)]
    cfg = _config(args)
    hs = heuristic_scan(f, witnesses, args.limit, workers=args.workers)
    total = hs.counted + hs.skipped
    _progress(f"tested {total} primes for simultaneous power membership")
    return {
        "command": "heuristic",
        "parameters": {
            "function": f.to_json(),
            "witnesses": witnesses,
            "limit": args.limit,
            "bound_config": cfg.to_json(),
        },
        "range": [2, args.limit],
        "counted": hs.members,
        "skipped": total - hs.members,
        "observed": hs.members / total if total else 0.0,
        "expected": hs.heuristic_sum / total if total else 0.0,
        "cache_limit": args.limit,
    }


def _cmd_bounds(args):
    cfg = _config(args)
    x = args.x
    mb = main_bound(x, args.b_f, cfg, pi_x=args.pi_x)
    out = {
        "command": "bounds",
        "parameters": {"x": x, "b_f": args.b_f, "pi_x": args.pi_x},
        "bound_config": cfg.to_json(),
        "schedule": {
            "Y": mb.schedule.Y,
            "Z": mb.schedule.Z,
            "cap": mb.schedule.cap,
            "y_le_z": mb.schedule.y_le_z,
            "z_within_cap": mb.schedule.z_within_cap,
        },
        "pi_x": mb.pi_x,
        "terms": {
            "ratio": {"value": mb.ratio, "formula": "llll x / lll x"},
            "main_term": {
                "value": mb.main_term,
                "formula": "implied_constant * (llll x / lll x) * pi(x)",
            },
            "total": {"value": mb.total, "formula": "main_term + b_f"},
            "split_term": {
                "value": mb.split_term,
                "formula": "(log Y / log Z) * pi(x)",
            },
            "tail_term": {"value": mb.tail_term, "formula": "pi(x) / (Y log Y)"},
        },
    }
    if args.mertens:
        y, z = args.mertens
        cache = PrimeCache(int(z) + 1)
        out["mertens"] = mertens_product(y, z, cache)
    if args.chebyshev_z is not None:
        z = args.chebyshev_z
        cache = PrimeCache(int(z) + 1)
        theta, bound, holds = chebyshev_check(z, cfg, cache)
        out["chebyshev"] = {"theta": theta, "bound": bound, "holds": holds}
    return out


def _cmd_disc(args):
    return {"value": cyclotomic_discriminant(args.cyclotomic)}


# ---------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="localpow", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--workers", type=_int_at_least(1), default=1)
    common.add_argument("--csv", default=None)
    common.add_argument("--c1", type=float, default=1.0)
    common.add_argument("--c2", type=float, default=1.0)
    common.add_argument("--implied-constant", type=float, default=1.0)
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    p = sub.add_parser("sf-scan", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    p.add_argument("--mode", choices=("exact", "empirical"), default="exact")
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--domain", choices=("positive", "rational"), default="positive")
    p.set_defaults(handler=_cmd_sf_scan)

    p = sub.add_parser("tf-scan", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    p.add_argument("--shift-bound", type=int, default=100)
    p.set_defaults(handler=_cmd_tf_scan)

    p = sub.add_parser("witness", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--search-limit", type=int, default=1000)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("construct", parents=[common])
    p.add_argument("--set", required=True)
    p.add_argument("--exponents", required=True)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("relations", parents=[common])
    p.add_argument("--tuple", required=True)
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("kummer-degree", parents=[common])
    p.add_argument("--tuple", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(handler=_cmd_kummer_degree)

    p = sub.add_parser("frobenius", parents=[common])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--tuple", required=True)
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("density-scan", parents=[common])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--tuple", required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    p.add_argument("--mode", choices=("c4", "split"), default="c4")
    p.add_argument(
        "--enumeration-bound", type=int, default=DEFAULT_ENUMERATION_BOUND
    )
    p.set_defaults(handler=_cmd_density_scan)

    p = sub.add_parser("heuristic", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--witnesses", required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    p.set_defaults(handler=_cmd_heuristic)

    p = sub.add_parser("bounds", parents=[common])
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b-f", type=float, default=0.0)
    p.add_argument("--pi-x", type=int, default=None)
    p.add_argument("--mertens", type=_number_pair, default=None)
    p.add_argument("--chebyshev-z", type=float, default=None)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("disc", parents=[common])
    p.add_argument("--cyclotomic", type=int, required=True)
    p.set_defaults(handler=_cmd_disc)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        print("usage error: missing subcommand", file=sys.stderr)
        return 64
    try:
        report = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except FunctionSpecError as exc:
        print(json.dumps(_round_floats(exc.payload()), indent=2))
        return 65
    except LocalPowError as exc:
        print(json.dumps(_round_floats(exc.payload()), indent=2))
        return 2
    _emit(report, getattr(args, "csv", None))
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
