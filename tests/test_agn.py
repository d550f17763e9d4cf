import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mvlab

from mvlab.agn import (
    TableFormatError,
    a_alt,
    a_direct,
    build_table,
    load_table,
    save_table,
)
from mvlab.exact import double_factorial
from mvlab.genus import agn_from_series
from mvlab.verify import GOLDEN_TABLE1


def test_published_values():
    for (g, n), want in GOLDEN_TABLE1.items():
        assert a_direct(g, n) == want, (g, n)


def test_boundary_and_zeros():
    assert a_direct(0, 3) == 1
    assert a_direct(0, 4) == 1
    assert a_direct(0, 2) == 0
    assert a_direct(0, 0) == 0
    assert a_direct(1, 0) == 0
    assert a_direct(-1, 5) == 0


def test_alt_rejects_low_n():
    with pytest.raises(ValueError):
        a_alt(3, 1)
    with pytest.raises(ValueError):
        a_alt(0, 0)


def test_alt_matches_direct():
    for g in range(8):
        for n in range(2, 9):
            assert a_alt(g, n) == a_direct(g, n), (g, n)


def test_series_matches_direct():
    for g in range(8):
        for n in range(9):
            assert agn_from_series(g, n) == a_direct(g, n), (g, n)


def test_monotone_growth_in_n():
    for g in range(1, 10):
        for n in range(1, 8):
            assert a_direct(g, n + 1) > a_direct(g, n), (g, n)


def test_build_table_methods_agree():
    t1 = build_table(3, 5, "direct")
    t2 = build_table(3, 5, "alt")
    t3 = build_table(3, 5, "series")
    assert t1.entries == t2.entries == t3.entries
    assert t1.method_tag == "direct" and t2.method_tag == "alt"


def test_routes_match_closed_forms_at_wide_n():
    # Closed forms that use neither recursion: a shared-kernel bug that
    # both routes repeat would still disagree with these.
    for n in range(3, 61):
        want = double_factorial(2 * n - 7)
        assert a_direct(0, n) == want and a_alt(0, n) == want, n
    for n in range(1, 61):
        want = Fraction(2 ** (n - 1) * math.factorial(n - 1) + double_factorial(2 * n - 3), 24)
        assert a_direct(1, n) == want, n
        if n >= 2:
            assert a_alt(1, n) == want, n


def test_cold_process_routes_write_identical_tables(tmp_path):
    # One fresh interpreter per route, so no memo is shared between them.
    env = dict(os.environ, PYTHONPATH=str(Path(mvlab.__file__).parents[1]))
    blobs = {}
    for method in ("direct", "alt", "series"):
        out = tmp_path / f"{method}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "mvlab.cli", "table", "--gmax", "6", "--nmax", "30",
             "--method", method, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == "", (method, proc.stderr)
        blobs[method] = out.read_bytes()
    assert blobs["direct"].count(b"\n") == 1 + 7 * 31
    assert blobs["direct"] == blobs["alt"] == blobs["series"]


def test_build_table_rejects_unknown_method():
    with pytest.raises(ValueError):
        build_table(2, 2, "guess")
    with pytest.raises(ValueError):
        build_table(-1, 2)


def test_round_trip(tmp_path):
    table = build_table(4, 6, "direct")
    path = tmp_path / "t.txt"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.entries == table.entries
    assert loaded.method_tag == "loaded"
    raw = path.read_text()
    assert raw.startswith("# agn-table v1\n")
    assert "\r" not in raw
    assert raw.splitlines()[1] == "0\t0\t0/1"


def _load_lines(tmp_path, lines):
    p = tmp_path / "bad.txt"
    p.write_text("\n".join(lines) + "\n")
    return load_table(p)


def test_load_rejects_bad_header(tmp_path):
    with pytest.raises(TableFormatError, match="line 1"):
        _load_lines(tmp_path, ["# agn-table v0", "0\t3\t1/1"])


def test_load_rejects_malformed_line(tmp_path):
    with pytest.raises(TableFormatError, match="line 2"):
        _load_lines(tmp_path, ["# agn-table v1", "0\t3"])
    with pytest.raises(TableFormatError, match="line 3"):
        _load_lines(tmp_path, ["# agn-table v1", "0\t3\t1/1", "x\t3\t1/1"])
    with pytest.raises(TableFormatError, match="not of the form"):
        _load_lines(tmp_path, ["# agn-table v1", "0\t3\t1"])


def test_load_rejects_unreduced(tmp_path):
    with pytest.raises(TableFormatError, match="lowest terms"):
        _load_lines(tmp_path, ["# agn-table v1", "0\t3\t2/2"])
    with pytest.raises(TableFormatError, match="denominator"):
        _load_lines(tmp_path, ["# agn-table v1", "0\t3\t1/-1"])


def test_load_rejects_duplicates(tmp_path):
    with pytest.raises(TableFormatError, match="duplicate"):
        _load_lines(
            tmp_path, ["# agn-table v1", "0\t3\t1/1", "0\t3\t1/1"]
        )


def test_zero_entries_serialize_explicitly(tmp_path):
    table = build_table(1, 1, "direct")
    path = tmp_path / "z.txt"
    save_table(table, path)
    body = path.read_text().splitlines()[1:]
    assert "1\t0\t0/1" in body
    assert load_table(path).entries[(1, 0)] == Fraction(0)


def test_cold_direct_fill_needs_no_recursion_depth():
    # A fresh interpreter with a tight recursion limit: a deep cold cell
    # must fill bottom-up instead of recursing once per n.
    code = (
        "import sys\n"
        "from mvlab.agn import a_direct\n"
        "sys.setrecursionlimit(150)\n"
        "print(a_direct(0, 300) > 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mvlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
