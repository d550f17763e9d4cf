"""Command-line surface.

Exact values print as lowest-terms fractions; JSON output is canonical
(sorted keys, no whitespace) so that parse-and-reserialize is the
identity. Exit code 0 means every requested check passed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from .agn import TableFormatError, build_table, load_table, save_table
from .asym import compare_report
from .genus import SupportError, coeffs_C
from .verify import run_suite
from .volumes import PiScaled, sv_constant, volume

__all__ = ["main", "resolve_cache_dir"]


def resolve_cache_dir(flag: str | None) -> Path:
    if flag:
        return Path(flag)
    env = os.environ.get("MVLAB_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_DATA_HOME")
    base = Path(xdg) if xdg else Path.home() / ".local" / "share"
    return base / "mvlab"


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _pi_payload(g: int, n: int, v: PiScaled, numeric_bits: int | None) -> dict:
    payload = {
        "g": g,
        "n": n,
        "coeff": str(v.coeff),
        "pi_half_exponent": v.pi_half_exponent,
    }
    if numeric_bits is not None:
        digits = max(1, int(numeric_bits * 0.30103))
        payload["approx"] = mp.nstr(v.to_mpf(numeric_bits), digits)
    return payload


def _cmd_agn(args) -> int:
    from . import agn, genus

    fn = {
        "direct": agn.a_direct,
        "alt": agn.a_alt,
        "series": genus.agn_from_series,
    }[args.method]
    val = fn(args.g, args.n)
    if args.format == "json":
        print(_emit_json({"g": args.g, "n": args.n, "value": str(val)}))
    elif args.format == "csv":
        print(_emit_csv(["g", "n", "value"], [[args.g, args.n, str(val)]]))
    else:
        print(val)
    return 0


def _cmd_table(args) -> int:
    out = Path(args.out) if args.out else (
        resolve_cache_dir(args.cache_dir) / f"agn_g{args.gmax}_n{args.nmax}.txt"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    table = build_table(args.gmax, args.nmax, args.method)
    save_table(table, out)
    if args.format == "json":
        print(_emit_json({
            "entries": len(table),
            "gmax": args.gmax,
            "nmax": args.nmax,
            "out": str(out),
        }))
    elif args.format == "csv":
        print(_emit_csv(["out", "entries"], [[str(out), len(table)]]))
    else:
        print(f"wrote {out} ({len(table)} entries)")
    return 0


def _cmd_volume(args) -> int:
    v = volume(args.g, args.n)
    payload = _pi_payload(args.g, args.n, v, args.numeric)
    if args.format == "plain":
        line = str(v)
        if "approx" in payload:
            line += f"  ~ {payload['approx']}"
        print(line)
    elif args.format == "csv":
        header = list(sorted(payload))
        print(_emit_csv(header, [[payload[k] for k in header]]))
    else:
        print(_emit_json(payload))
    return 0


def _cmd_sv(args) -> int:
    v = sv_constant(args.g, args.n)
    payload = _pi_payload(args.g, args.n, v, None)
    if args.format == "plain":
        print(v)
    elif args.format == "csv":
        header = list(sorted(payload))
        print(_emit_csv(header, [[payload[k] for k in header]]))
    else:
        print(_emit_json(payload))
    return 0


def _cmd_genus(args) -> int:
    coeffs = coeffs_C(args.g)
    vals = [str(c) for c in coeffs.C]
    if args.format == "json":
        print(_emit_json({"g": args.g, "C": vals}))
    elif args.format == "csv":
        print(_emit_csv(["j", "value"], list(enumerate(vals))))
    else:
        for j, v in enumerate(vals):
            print(f"{j}\t{v}")
    return 0


def _cmd_verify(args) -> int:
    result = run_suite(args.suite, args.gmax)
    if args.format == "json":
        print(_emit_json({
            "suite": result.suite,
            "cases": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in result.cases
            ],
            "pass": result.passed,
        }))
    elif args.format == "csv":
        print(_emit_csv(
            ["name", "passed", "detail"],
            [[c.name, c.passed, c.detail] for c in result.cases],
        ))
    else:
        for c in result.cases:
            if not c.passed:
                print(f"FAIL {c.name}: {c.detail}")
        print(result.summary)
    return 0 if result.passed else 1


def _cmd_asym(args) -> int:
    report = compare_report(args.n, args.gmax, args.order, args.target, args.bits)
    if args.format == "json":
        print(_emit_json({
            "target": args.target,
            "cases": [
                {
                    "target": r.target,
                    "n": r.n,
                    "k": r.k,
                    "estimate": r.estimate,
                    "error_bar": r.error_bar,
                    "reference": r.reference,
                    "rel_deviation": r.rel_deviation,
                    "passed": r.passed,
                }
                for r in report.rows
            ],
            "pass": report.passed,
        }))
    elif args.format == "csv":
        print(_emit_csv(
            ["target", "n", "k", "estimate", "error_bar", "reference",
             "rel_deviation", "passed"],
            [[r.target, r.n, r.k, r.estimate, r.error_bar, r.reference,
              r.rel_deviation, r.passed] for r in report.rows],
        ))
    else:
        for r in report.rows:
            flag = "PASS" if r.passed else "FAIL"
            print(
                f"{r.target} n={r.n} k={r.k}: estimate={r.estimate} "
                f"bar={r.error_bar} reference={r.reference} "
                f"rel={r.rel_deviation} {flag}"
            )
        print("pass" if report.passed else "fail")
    return 0 if report.passed else 1


def _cmd_cache(args) -> int:
    cache = resolve_cache_dir(args.cache_dir)
    files = sorted(cache.glob("*.txt")) if cache.is_dir() else []
    if args.clear:
        for f in files:
            f.unlink()
        if args.format == "json":
            print(_emit_json({"dir": str(cache), "removed": len(files)}))
        else:
            print(f"removed {len(files)} file(s) from {cache}")
        return 0
    entries = []
    for f in files:
        table = load_table(f)
        entries.append({"name": f.name, "entries": len(table.entries)})
    if args.format == "json":
        print(_emit_json({"dir": str(cache), "files": entries}))
    elif args.format == "csv":
        print(_emit_csv(
            ["name", "entries"], [[e["name"], e["entries"]] for e in entries]
        ))
    else:
        print(cache)
        for e in entries:
            print(f"{e['name']}\t{e['entries']} entries")
    return 0


def _int_pair(sub) -> None:
    sub.add_argument("--g", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)


def _add_format(sub, default: str) -> None:
    sub.add_argument("--format", choices=("plain", "json", "csv"), default=default)
    sub.add_argument("--cache-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mvlab",
        description="Exact tables, volumes, area constants, and their asymptotics.",
    )
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("agn", help="print one table entry")
    _int_pair(s)
    s.add_argument("--method", choices=("direct", "alt", "series"), default="direct")
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_agn)

    s = subs.add_parser("table", help="build and persist a table")
    s.add_argument("--gmax", type=int, required=True)
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--method", choices=("direct", "alt", "series"), default="direct")
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_table)

    s = subs.add_parser("volume", help="print one volume")
    _int_pair(s)
    s.add_argument("--numeric", type=int, default=None, metavar="BITS")
    _add_format(s, "json")
    s.set_defaults(fn=_cmd_volume)

    s = subs.add_parser("sv", help="print one area constant")
    _int_pair(s)
    _add_format(s, "json")
    s.set_defaults(fn=_cmd_sv)

    s = subs.add_parser("genus", help="print the genus coefficient row")
    s.add_argument("--g", type=int, required=True)
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_genus)

    s = subs.add_parser("verify", help="run a named verification suite")
    s.add_argument("--suite", required=True,
                   choices=("table1", "paths", "funceq", "closed", "lambda", "iz"))
    s.add_argument("--gmax", type=int, default=None)
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_verify)

    s = subs.add_parser("asym", help="fit expansions and compare to predictions")
    s.add_argument("--target", choices=("vol", "sv", "both"), default="both")
    s.add_argument("--n", type=int, nargs="+", default=[0])
    s.add_argument("--gmax", type=int, default=60)
    s.add_argument("--order", type=int, default=5, metavar="K")
    s.add_argument("--bits", type=int, default=320)
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_asym)

    s = subs.add_parser("cache", help="inspect or clear the table cache")
    s.add_argument("--clear", action="store_true")
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_cache)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TableFormatError, SupportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
