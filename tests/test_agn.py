import json
import math
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab import agn, cli
from mvlab.agn import (
    AgnTable,
    TableFormatError,
    a_alt,
    a_direct,
    build_table,
    load_table,
    save_table,
)
from mvlab.exact import RowStore, double_factorial, unlimited_digits
from mvlab.genus import _is_structural_zero, agn_from_series
from mvlab.verify import GOLDEN_TABLE1, run_suite

from test_cold import cold


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


def test_alt_below_its_recursion_is_the_series():
    for g in range(-3, 8):
        for n in range(-3, 2):
            assert a_alt(g, n) == agn_from_series(g, n), (g, n)


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


def test_rebound_cell_function_reaches_every_caller(monkeypatch, capsys):
    # build_table, `mvlab agn` and the paths suite look the method's cell
    # function up when called, so a wrapper bound over agn.a_alt (as a
    # fault injection or a tracer does) is what each of them runs.
    original = agn.a_alt
    monkeypatch.setattr(
        agn, "a_alt", lambda g, n: original(g, n) + (1 if (g, n) == (2, 3) else 0)
    )
    shifted = a_direct(2, 3) + 1
    table = build_table(2, 4, "alt")
    assert table.value(2, 3) == shifted and table.value(2, 4) == a_direct(2, 4)
    assert cli.main(["agn", "--g", "2", "--n", "3", "--method", "alt"]) == 0
    assert capsys.readouterr().out == f"{shifted}\n"
    failed = [c.name for c in run_suite("paths", 2).cases if not c.passed]
    assert failed == ["paths(2,3)"]


def test_routes_match_closed_forms_at_wide_n():
    # Closed forms that use neither recursion: a shared-kernel bug that
    # both routes repeat would still disagree with these.
    for n in range(3, 61):
        want = double_factorial(2 * n - 7)
        assert a_direct(0, n) == want and a_alt(0, n) == want, n
    for n in range(1, 61):
        want = Fraction(2 ** (n - 1) * math.factorial(n - 1) + double_factorial(2 * n - 3), 24)
        assert a_direct(1, n) == want and a_alt(1, n) == want, n


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
    raw = path.read_text()
    assert raw.startswith("# agn-table v1\n")
    assert "\r" not in raw
    assert raw.splitlines()[1] == "0\t0\t0/1"


def _load_lines(tmp_path, lines):
    p = tmp_path / "bad.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
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


@pytest.mark.parametrize("line", [
    "+1\t2\t1/8",
    "1\t 2\t1/8",
    "1\t2\t 1/8 ",
    "1\t2\t\u0661/8",
    "1\t2\t-0/1",
    "-1\t2\t1/8",
    "1\t2\t1_0/8_1",
])
def test_load_takes_only_the_line_save_table_writes(tmp_path, line):
    # Each of these once loaded: int() takes signs, spaces, underscores
    # and non-ASCII digits, and Fraction reduces -0/1.
    where = re.escape(f"{tmp_path / 'bad.txt'}: line 3: ")
    with pytest.raises(TableFormatError, match=where + ".*not of the form"):
        _load_lines(tmp_path, ["# agn-table v1", "0\t3\t1/1", line])


def test_load_errors_are_value_errors_naming_the_file(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(b"# agn-table v1\n0\t3\t1/1\xff\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: line 2: ")):
        load_table(p)
    p.write_bytes(b"# agn-table v1\r\n0\t3\t1/1\r\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: line 1: ")):
        load_table(p)


def test_golden_file_loads_back_to_its_bytes(tmp_path):
    golden = Path(__file__).parent / "golden" / "agn_g15_n8.txt"
    table = load_table(golden)
    assert len(table) == 16 * 9
    save_table(table, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == golden.read_bytes()


@given(st.dictionaries(st.tuples(st.integers(0, 300), st.integers(0, 300)), st.fractions(),
                       max_size=12))
@settings(max_examples=100, deadline=None)
def test_every_saved_table_loads_back(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.txt"
        save_table(AgnTable(entries), path)
        assert load_table(path).entries == entries


def test_table_files_are_the_txt_files_that_start_with_the_header(tmp_path):
    contents = {
        "a.txt": "# agn-table v1\n0\t3\t1/1\n",
        "b.txt": "# agn-table v1",
        "notes.txt": "notes\n",
        "crlf.txt": "# agn-table v1\r\n",
        "v0.txt": "# agn-table v1x\n",
        "t.dat": "# agn-table v1\n",
    }
    for name, text in contents.items():
        (tmp_path / name).write_text(text, newline="")
    (tmp_path / "d.txt").mkdir()
    assert agn.table_files(tmp_path) == [tmp_path / "a.txt", tmp_path / "b.txt"]
    assert agn.table_files(tmp_path / "none") == []


def test_zero_entries_serialize_explicitly(tmp_path):
    table = build_table(1, 1, "direct")
    path = tmp_path / "z.txt"
    save_table(table, path)
    body = path.read_text().splitlines()[1:]
    assert "1\t0\t0/1" in body
    assert load_table(path).entries[(1, 0)] == Fraction(0)


def test_cold_direct_fill_needs_no_recursion_depth(tmp_path):
    # A fresh interpreter with a tight recursion limit: a deep cold cell
    # must fill bottom-up instead of recursing once per n.
    code = (
        "import sys\n"
        "from mvlab.agn import a_direct\n"
        "sys.setrecursionlimit(150)\n"
        "print(a_direct(0, 300) > 0)\n"
    )
    proc = cold([], tmp_path, code)
    assert (proc.returncode, proc.stdout) == (0, b"True\n"), proc.stderr


def _fraction_sum(terms):
    # The references add one Fraction per (numerator, denominator) term.
    return sum((Fraction(num, den) for num, den in terms), Fraction(0))


def _direct_term_by_term(gmax, nmax):
    # The binomial recursion one (g1, n1) term at a time, with its own
    # store: (4g-4+n) a(g,n) = quad/2 + a(g-1, n+3)/12, where quad sums
    # comb(n-1, n1-2) a(g1,n1) a(g2,n2) over g1 + g2 = g and
    # n1 + n2 = n + 3, leaving out every product with a(0,3).
    a = {(0, 3): Fraction(1), (0, 4): Fraction(1)}

    def cell(g, n):
        denom = 4 * g - 4 + n
        terms = []
        for g1 in range(g + 1):
            g2 = g - g1
            for n1 in range(2, n + 2):
                n2 = n + 3 - n1
                if (g1, n1) == (0, 3) or (g2, n2) == (0, 3):
                    continue
                if _is_structural_zero(g1, n1) or _is_structural_zero(g2, n2):
                    continue
                a1, a2 = a[(g1, n1)], a[(g2, n2)]
                terms.append((
                    math.comb(n - 1, n1 - 2) * a1.numerator * a2.numerator,
                    2 * denom * a1.denominator * a2.denominator,
                ))
        if g:
            top = a[(g - 1, n + 3)]
            terms.append((top.numerator, 12 * denom * top.denominator))
        return _fraction_sum(terms)

    for g in range(gmax + 1):
        for n in range(1, nmax + 3 * (gmax - g) + 1):
            if (g, n) not in a and not _is_structural_zero(g, n):
                a[(g, n)] = cell(g, n)
    return a


def _alt_term_by_term(gmax, nmax):
    # The alternating recursion one (g1, nu1) pair at a time, with its own
    # stores: a(g,n) = (q!/2) sum P(g1,nu1) P(g2,nu2) over g1 + g2 = g and
    # nu1 + nu2 = q = n - 2, minus sum_j v_j a(g-j, q+2j+2), plus 1 at
    # (0, 3), where P(gam,nu) = (1/nu!) sum_j w_j a(gam-j, nu+2j+2).
    a, P = {}, {}

    def kernel(gam, nu):
        if (gam, nu) not in P:
            terms = []
            for j in range(gam + 1):
                if _is_structural_zero(gam - j, nu + 2 * j + 2):
                    continue
                v = a[(gam - j, nu + 2 * j + 2)]
                terms.append((
                    (-1) ** j * v.numerator,
                    math.factorial(nu) * 4**j * math.factorial(2 * j + 1) * v.denominator,
                ))
            P[(gam, nu)] = _fraction_sum(terms)
        return P[(gam, nu)]

    def cell(g, n):
        q = n - 2
        terms = []
        for g1 in range(g + 1):
            for nu1 in range(q + 1):
                if (g1, nu1) in ((0, 0), (g, q)):  # partner P(0,0) = 0
                    continue
                left, right = kernel(g1, nu1), kernel(g - g1, q - nu1)
                terms.append((
                    math.factorial(q) * left.numerator * right.numerator,
                    2 * left.denominator * right.denominator,
                ))
        for j in range(1, g + 1):
            v = a[(g - j, q + 2 * j + 2)]
            terms.append((
                (-1) ** (j + 1) * v.numerator, 4**j * math.factorial(2 * j) * v.denominator
            ))
        if (g, n) == (0, 3):
            terms.append((1, 1))
        return _fraction_sum(terms)

    for g in range(gmax + 1):
        for n in range(2, nmax + 2 * (gmax - g) + 1):
            if not _is_structural_zero(g, n):
                a[(g, n)] = cell(g, n)
            kernel(g, n - 2)
    return a, P


def _cold_stores(monkeypatch):
    for name in ("_direct_rows", "_alt_rows", "_alt_cells"):
        monkeypatch.setattr(agn, name, RowStore())
    monkeypatch.setattr(agn, "_alt_weights", [])


def test_rows_match_term_by_term_recursions(monkeypatch):
    # From cold stores, the row kernels give exactly the cells of the
    # per-term loops, for g <= 10 and n <= 30.
    _cold_stores(monkeypatch)
    direct, (alt, P) = _direct_term_by_term(10, 30), _alt_term_by_term(10, 30)
    for g in range(11):
        for n in range(1, 31):
            if _is_structural_zero(g, n):
                continue
            assert a_direct(g, n) == direct[(g, n)], (g, n)
            if n >= 2:
                assert a_alt(g, n) == alt[(g, n)], (g, n)
    # The direct row holds a(g, k+2)/k!, with 0 for the left-out a(0,3);
    # the alternating rows hold P(g, nu), with its 1/nu!, and a(g, k+2),
    # with 0 for a(0,2).
    rows = agn._direct_rows
    for g, (row, den) in enumerate(zip(rows.nums, rows.dens)):
        for k, c in enumerate(row):
            want = 0 if (g, k) in ((0, 0), (0, 1)) else direct[(g, k + 2)] / math.factorial(k)
            assert Fraction(c, den) == want, (g, k)
    rows = agn._alt_rows
    for g, (row, den) in enumerate(zip(rows.nums, rows.dens)):
        for nu, c in enumerate(row):
            assert Fraction(c, den) == P[(g, nu)], (g, nu)
    rows = agn._alt_cells
    for g, (row, den) in enumerate(zip(rows.nums, rows.dens)):
        for k, c in enumerate(row):
            assert Fraction(c, den) == (0 if (g, k) == (0, 0) else alt[(g, k + 2)]), (g, k)
    assert len(agn._direct_rows.nums[0]) == 59
    assert len(agn._alt_rows.nums[0]) == len(agn._alt_cells.nums[0]) == 49


def test_cells_survive_a_row_rescale(monkeypatch):
    # A later call that appends deeper entries rescales the rows to a
    # larger common denominator; every cell read back must not move.
    _cold_stores(monkeypatch)

    def read():
        return [(a_direct(g, n), a_alt(g, n)) for g in range(4) for n in range(21)]

    def dens():
        return agn._direct_rows.dens + agn._alt_cells.dens

    before, before_dens = read(), dens()
    a_direct(2, 200)
    a_alt(2, 200)
    assert dens() != before_dens
    assert read() == before
    assert agn._direct_rows.nums[0][1] == 0 and a_direct(0, 3) == 1
    assert agn._alt_cells.nums[0][0] == 0 and a_alt(0, 2) == 0


_STORE_DUMP = (
    "import json, sys\n"
    "from math import factorial\n"
    "from fractions import Fraction\n"
    "from mvlab import agn\n"
    "for route, g, n in json.loads(sys.argv[1]):\n"
    "    (agn.a_direct if route == 'direct' else agn.a_alt)(g, n)\n"
    "def cells(rows, scale):\n"
    "    return [[g, k + 2, str(Fraction(c * scale(k), den))]\n"
    "            for g, (row, den) in enumerate(zip(rows.nums, rows.dens))\n"
    "            for k, c in enumerate(row)]\n"
    "print(json.dumps({'direct': cells(agn._direct_rows, factorial),\n"
    "                  'alt': cells(agn._alt_cells, lambda k: 1),\n"
    "                  'P': cells(agn._alt_rows, lambda k: 1)}))\n"
)


def _fresh_store_dump(calls, tmp):
    proc = cold([json.dumps(calls)], tmp, _STORE_DUMP)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scrambled_calls_fill_the_same_cells_as_a_sweep(tmp_path):
    # A fresh interpreter asks for cells out of order, so rows are
    # extended part-way by one call and finished by a later one. Every
    # row entry it stores must equal the one an in-order sweep (a second
    # fresh interpreter, g then n ascending) computes. The direct row
    # entries are dumped as cells, a(g, k+2) = b(g, k) k!.
    order = [(6, 1), (0, 50), (3, 20), (12, 0), (2, 2), (8, 30)]
    calls = [["direct", g, n] for g, n in order]
    calls += [["alt", g, n] for g, n in order if n >= 2]
    scrambled = _fresh_store_dump(calls, tmp_path)
    cells = sorted({(g, n, route) for route in ("direct", "alt") for g, n, _ in scrambled[route]})
    swept = _fresh_store_dump([[route, g, n] for g, n, route in cells], tmp_path)
    assert [len(scrambled[r]) for r in ("direct", "alt", "P")] == [369, 337, 337]
    assert scrambled == swept


def test_cold_routes_agree_at_deep_n(tmp_path):
    # n = 400 at genus 2: rows of 400+ entries, in a fresh interpreter.
    code = (
        "from mvlab.agn import a_alt, a_direct\n"
        "from mvlab.genus import agn_from_series\n"
        "print(a_direct(2, 400) == a_alt(2, 400) == agn_from_series(2, 400))\n"
    )
    proc = cold([], tmp_path, code)
    assert (proc.returncode, proc.stdout) == (0, b"True\n"), proc.stderr


def test_wide_values_print_save_and_load(tmp_path):
    # a_{0,1500} has more digits than CPython's default limit on int <->
    # str conversions (4300). The command prints it, and library calls of
    # save_table and load_table round-trip a table holding it; each lifts
    # the limit only while it runs and puts it back.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    proc = cold(["agn", "--g", "0", "--n", "1500", "--method", "series"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    with unlimited_digits():
        want = str(agn_from_series(0, 1500))
    assert len(want) > 4300 and proc.stdout.decode() == want + "\n"
    table = build_table(0, 1500, "series")
    path = tmp_path / "t.txt"
    save_table(table, path)
    assert limit() == before
    assert load_table(path) == table
    assert limit() == before
