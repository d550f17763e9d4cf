"""Command-line surface.

Each command returns an ``Output`` record and ``render`` prints it in the
requested format. Exact values print as lowest-terms fractions; JSON
output is canonical (sorted keys, no whitespace) so that
parse-and-reserialize is the identity. Exit code 0 means every requested
check passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .agn import METHODS, build_table, load_table, route, save_table, table_files
from .asym import compare_report
from .exact import unlimited_digits
from .genus import SupportError, coeffs_C
from .verify import SUITES, run_suite
from .volumes import PiScaled, _check_precision, sv_constant, volume

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


class Output(NamedTuple):
    """What one command prints, in each format, and its exit code."""

    doc: dict  # the JSON document
    rows: list  # CSV rows: dicts whose key order is the column order
    lines: list  # plain-text lines
    code: int = 0
    columns: tuple = ()  # CSV header when rows may be empty


def render(out: Output, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(out.doc, sort_keys=True, separators=(",", ":")))
    elif fmt == "csv":
        columns = out.columns or tuple(out.rows[0])
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(columns)
        w.writerows(
            [str(v).lower() if isinstance(v, bool) else v for v in map(row.__getitem__, columns)]
            for row in out.rows
        )
    else:
        for line in out.lines:
            print(line)
    return out.code


def _pi_output(g: int, n: int, v: PiScaled, numeric_bits: int | None = None) -> Output:
    doc = {
        "g": g,
        "n": n,
        "coeff": str(v.coeff),
        "pi_half_exponent": v.pi_half_exponent,
    }
    line = str(v)
    if numeric_bits is not None:
        import mpmath as mp

        digits = max(1, int(numeric_bits * 0.30103))
        doc["approx"] = mp.nstr(v.to_mpf(numeric_bits), digits)
        line += f"  ~ {doc['approx']}"
    return Output(doc, [dict(sorted(doc.items()))], [line])


def _cmd_agn(args) -> Output:
    val = str(route(args.method)(args.g, args.n))
    row = {"g": args.g, "n": args.n, "value": val}
    return Output(row, [row], [val])


def _cmd_table(args) -> Output:
    out = Path(args.out) if args.out else (
        resolve_cache_dir(args.cache_dir) / f"agn_g{args.gmax}_n{args.nmax}.txt"
    )
    table = build_table(args.gmax, args.nmax, args.method)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_table(table, out)
    return Output(
        {"entries": len(table), "gmax": args.gmax, "nmax": args.nmax, "out": str(out)},
        [{"out": str(out), "entries": len(table)}],
        [f"wrote {out} ({len(table)} entries)"],
    )


def _cmd_volume(args) -> Output:
    if args.numeric is not None:
        _check_precision(args.numeric)  # before the volume is computed
    return _pi_output(args.g, args.n, volume(args.g, args.n), args.numeric)


def _cmd_sv(args) -> Output:
    return _pi_output(args.g, args.n, sv_constant(args.g, args.n))


def _cmd_genus(args) -> Output:
    vals = [str(c) for c in coeffs_C(args.g).C]
    return Output(
        {"g": args.g, "C": vals},
        [{"j": j, "value": v} for j, v in enumerate(vals)],
        [f"{j}\t{v}" for j, v in enumerate(vals)],
    )


def _cmd_verify(args) -> Output:
    result = run_suite(args.suite, args.gmax)
    cases = [c._asdict() for c in result.cases]
    fails = [f"FAIL {c.name}: {c.detail}" for c in result.cases if not c.passed]
    return Output(
        {"suite": result.suite, "cases": cases, "pass": result.passed},
        cases,
        fails + [result.summary],
        0 if result.passed else 1,
    )


def _cmd_asym(args) -> Output:
    report = compare_report(args.n, args.gmax, args.order, args.target, args.bits)
    cases = [r._asdict() for r in report.rows]
    lines = [
        f"{r.target} n={r.n} k={r.k}: estimate={r.estimate} "
        f"bar={r.error_bar} reference={r.reference} "
        f"rel={r.rel_deviation} {'PASS' if r.passed else 'FAIL'}"
        for r in report.rows
    ]
    return Output(
        {"target": args.target, "cases": cases, "pass": report.passed},
        cases,
        lines + ["pass" if report.passed else "fail"],
        0 if report.passed else 1,
    )


def _cmd_cache(args) -> Output:
    cache = resolve_cache_dir(args.cache_dir)
    files = table_files(cache)
    if args.clear:
        for f in files:
            f.unlink()
        row = {"dir": str(cache), "removed": len(files)}
        return Output(row, [row], [f"removed {len(files)} file(s) from {cache}"])
    entries = [{"name": f.name, "entries": len(load_table(f).entries)} for f in files]
    return Output(
        {"dir": str(cache), "files": entries},
        entries,
        [str(cache)] + [f"{e['name']}\t{e['entries']} entries" for e in entries],
        columns=("name", "entries"),
    )


def _int_pair(sub) -> None:
    sub.add_argument("--g", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)


def _add_format(sub, default: str) -> None:
    sub.add_argument("--format", choices=("plain", "json", "csv"), default=default)


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line, `error: <message>`, and exit 2;
    the subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by the
    later ones in the process. Its defaults are immutable, so a parse
    leaves nothing behind for the next."""
    p = _Parser(
        prog="mvlab",
        description="Exact tables, volumes, area constants, and their asymptotics.",
    )
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("agn", help="print one table entry")
    _int_pair(s)
    s.add_argument("--method", choices=METHODS, default="direct")
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_agn)

    s = subs.add_parser("table", help="build and persist a table")
    s.add_argument("--gmax", type=int, required=True)
    s.add_argument("--nmax", type=int, required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--method", choices=METHODS, default="direct")
    _add_format(s, "plain")
    s.add_argument("--cache-dir", default=None)
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
    s.add_argument("--suite", required=True, choices=SUITES)
    s.add_argument("--gmax", type=int, default=None)
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_verify)

    s = subs.add_parser("asym", help="fit expansions and compare to predictions")
    s.add_argument("--target", choices=("vol", "sv", "both"), default="both")
    s.add_argument("--n", type=int, nargs="+", default=(0,))
    s.add_argument("--gmax", type=int, default=60)
    s.add_argument("--order", type=int, default=5, metavar="K")
    s.add_argument("--bits", type=int, default=320)
    _add_format(s, "plain")
    s.set_defaults(fn=_cmd_asym)

    s = subs.add_parser("cache", help="list the table files: *.txt that start with the header")
    s.add_argument("--clear", action="store_true", help="remove the table files and no other")
    _add_format(s, "plain")
    s.add_argument("--cache-dir", default=None)
    s.set_defaults(fn=_cmd_cache)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with unlimited_digits():  # exact values print at any width
            return render(args.fn(args), args.format)
    except (ValueError, SupportError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
