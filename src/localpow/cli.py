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
from .errors import DomainError, FunctionSpecError, LocalPowError
from .lattice import build_lattice, kummer_degree, relations
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
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        raise DomainError("a reported number overflowed to infinity or NaN") from None
    if csv_path:
        # written first, so an unwritable path leaves stdout empty
        try:
            _write_csv(csv_path, report)
        except OSError as exc:
            raise UsageError(f"cannot write --csv {csv_path}: {exc.strerror}") from None
    print(text)


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
    # scan progress; names the kernel backend that ran, which stdout never does
    print(f"[localpow] {msg} ({kernels.BACKEND} kernels)", file=sys.stderr)


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


def _entries(convert):
    """argparse type: comma-separated entries, each passed through `convert`."""

    def parse(text: str) -> list:
        try:
            return [convert(part) for part in _parse_tuple(text)]
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"malformed entry in {text!r}") from None

    return parse


def _rational(text: str) -> str:
    Fraction(text)  # raises unless text is a rational like '3' or '-7/4'
    return text  # kept as typed: reports echo it


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


# ---------------------------------------------------------------- handlers


def _cmd_sf_scan(args):
    f = _load_function(args.function)
    cfg = args.config
    _progress(f"scanning the primes up to {args.limit} for local power exponents")
    members, _unknown = scan_Sf(
        f, args.limit, args.mode, args.bound, args.domain, args.workers
    )
    total = kernels.count_primes(args.limit)
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
        "cache_limit": args.limit,
    }


def _cmd_tf_scan(args):
    f = _load_function(args.function)
    cfg = args.config
    _progress(f"shift-checking the primes up to {args.limit}")
    members = scan_Tf(f, args.limit, args.shift_bound)
    total = kernels.count_primes(args.limit)
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
        "cache_limit": args.limit,
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
    if len(args.exponents) != len(args.set):
        raise UsageError("--set and --exponents must have the same length")
    if len(set(args.set)) != len(args.set):
        raise UsageError("--set repeats a prime")
    g = construct_prescribed(args.set, dict(zip(args.set, args.exponents)))
    return {
        "command": "construct",
        "parameters": {"set": args.set, "exponents": args.exponents},
        "modulus": g.modulus,
        "items": [{"p": p, "k_p": k} for p, k in g.exponents.items()],
        "values": [g(n) for n in range(1, 21)],
    }


def _cmd_relations(args):
    entries = [as_factored(x) for x in args.tuple]
    lat = build_lattice(entries)
    rep = relations(lat)
    return {
        "command": "relations",
        "parameters": {"tuple": args.tuple},
        "support": lat.support,
        "matrix": lat.matrix,
        "integer_kernel_basis": [list(v) for v in rep.integer_kernel_basis],
        "minors": rep.minors,
        "delta": rep.delta,
    }


def _cmd_kummer_degree(args):
    entries = [as_factored(x) for x in args.tuple]
    dim_v, degree, d = kummer_degree(entries, args.ell)
    return {
        "command": "kummer-degree",
        "parameters": {"tuple": args.tuple, "ell": args.ell},
        "dim_v": dim_v,
        "degree": degree,
        "d": d,
    }


def _cmd_frobenius(args):
    entries = [as_factored(x) for x in args.tuple]
    sample = frobenius_vector(args.p, args.ell, entries)
    out = {
        "command": "frobenius",
        "parameters": {"p": args.p, "ell": args.ell, "tuple": args.tuple},
        "z_vector": list(sample.z_vector),
        "b_vector": list(sample.b_vector),
    }
    if len(entries) == 4:
        out["in_c4"] = in_C4(sample)
    return out


def _cmd_density_scan(args):
    cfg = args.config
    ds = scan_density(
        args.ell,
        args.tuple,
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
            "tuple": args.tuple,
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
    cfg = args.config
    hs = heuristic_scan(f, args.witnesses, args.limit, workers=args.workers)
    total = hs.counted + hs.skipped
    _progress(
        f"tested {total} primes for simultaneous power membership, "
        f"{hs.settled} by quadratic characters"
    )
    return {
        "command": "heuristic",
        "parameters": {
            "function": f.to_json(),
            "witnesses": args.witnesses,
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
    cfg = args.config
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
        out["mertens"] = mertens_product(y, z)
    if args.chebyshev_z is not None:
        theta, bound, holds = chebyshev_check(args.chebyshev_z, cfg)
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
    p.add_argument("--bound", type=_int_at_least(2), default=None)
    p.add_argument("--domain", choices=("positive", "rational"), default="positive")
    p.set_defaults(handler=_cmd_sf_scan)

    p = sub.add_parser("tf-scan", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    p.add_argument("--shift-bound", type=_int_at_least(1), default=100)
    p.set_defaults(handler=_cmd_tf_scan)

    p = sub.add_parser("witness", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--count", type=_int_at_least(1), default=3)
    p.add_argument("--search-limit", type=_int_at_least(2), default=1000)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("construct", parents=[common])
    p.add_argument("--set", type=_entries(int), required=True)
    p.add_argument("--exponents", type=_entries(int), required=True)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("relations", parents=[common])
    p.add_argument("--tuple", type=_entries(_rational), required=True)
    p.set_defaults(handler=_cmd_relations)

    p = sub.add_parser("kummer-degree", parents=[common])
    p.add_argument("--tuple", type=_entries(_rational), required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(handler=_cmd_kummer_degree)

    p = sub.add_parser("frobenius", parents=[common])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--tuple", type=_entries(_rational), required=True)
    p.set_defaults(handler=_cmd_frobenius)

    p = sub.add_parser("density-scan", parents=[common])
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--tuple", type=_entries(_rational), required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    p.add_argument("--mode", choices=("c4", "split"), default="c4")
    p.add_argument(
        "--enumeration-bound", type=int, default=DEFAULT_ENUMERATION_BOUND
    )
    p.set_defaults(handler=_cmd_density_scan)

    p = sub.add_parser("heuristic", parents=[common])
    p.add_argument("--function", required=True)
    p.add_argument("--witnesses", type=_entries(int), required=True)
    p.add_argument("--limit", type=_int_at_least(2), required=True)
    p.set_defaults(handler=_cmd_heuristic)

    p = sub.add_parser("bounds", parents=[common])
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b-f", type=float, default=0.0)
    p.add_argument("--pi-x", type=_int_at_least(0), default=None)
    p.add_argument("--mertens", type=_number_pair, default=None)
    p.add_argument("--chebyshev-z", type=float, default=None)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("disc", parents=[common])
    p.add_argument("--cyclotomic", type=int, required=True)
    p.set_defaults(handler=_cmd_disc)

    return parser


def run(argv=None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    # exact reports are long integers: the discriminant at conductor 10^4
    # alone has about 14,000 digits; the caller's limit is restored on return
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(old_limit)


def _run(argv) -> int:
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
        # the bound constants are common to every subcommand
        args.config = BoundConfig(
            c1=args.c1, c2=args.c2, implied_constant=args.implied_constant
        )
        _emit(args.handler(args), args.csv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except FunctionSpecError as exc:
        print(json.dumps(_round_floats(exc.payload()), indent=2))
        return 65
    except LocalPowError as exc:
        print(json.dumps(_round_floats(exc.payload()), indent=2))
        return 2
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
