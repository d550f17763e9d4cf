import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlab import asym, cli, genus
from mvlab.agn import METHODS, build_table, save_table
from mvlab.cli import main, resolve_cache_dir
from mvlab.verify import VerifyCase, VerifyResult

from test_cold import TABLE, _digest, _sha, cold


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_agn_plain(capsys):
    code, out, err = run(capsys, "agn", "--g", "2", "--n", "1")
    assert code == 0
    assert out == "29/640\n"
    assert err == ""


def test_agn_methods_agree(capsys):
    outs = set()
    for method in ("direct", "alt", "series"):
        code, out, _ = run(capsys, "agn", "--g", "3", "--n", "2", "--method", method)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


@given(
    st.integers(-3, 6),
    st.integers(-3, 9),
    st.sampled_from(("plain", "json", "csv")),
)
@settings(max_examples=200, deadline=None)
def test_agn_methods_answer_every_cell_alike(g, n, fmt):
    # One domain rule: no method rejects a cell that another computes.
    seen = set()
    for method in METHODS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["agn", "--g", str(g), "--n", str(n), "--method", method,
                         "--format", fmt])
        seen.add((code, out.getvalue()))
    assert len(seen) == 1, (g, n, fmt, seen)


def test_agn_json_round_trips(capsys):
    code, out, _ = run(capsys, "agn", "--g", "2", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"g": 2, "n": 1, "value": "29/640"}
    # canonical encoding: sorted keys, no spaces
    assert out.strip() == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_volume_json_shape(capsys):
    code, out, _ = run(capsys, "volume", "--g", "1", "--n", "1", "--format", "json")
    assert code == 0
    assert out.strip() == '{"coeff":"2/3","g":1,"n":1,"pi_half_exponent":4}'


def test_volume_numeric_field(capsys):
    code, out, _ = run(
        capsys, "volume", "--g", "0", "--n", "4", "--format", "json",
        "--numeric", "128",
    )
    payload = json.loads(out)
    assert payload["coeff"] == "2"
    assert payload["approx"].startswith("19.739")


def test_volume_plain(capsys):
    code, out, _ = run(capsys, "volume", "--g", "0", "--n", "3", "--format", "plain")
    assert (code, out) == (0, "4\n")


def test_sv_error_exit(capsys):
    code, out, err = run(capsys, "sv", "--g", "1", "--n", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_sv_json(capsys):
    code, out, _ = run(capsys, "sv", "--g", "1", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "coeff": "3",
        "g": 1,
        "n": 1,
        "pi_half_exponent": -4,
    }


def test_genus_plain(capsys):
    code, out, _ = run(capsys, "genus", "--g", "2")
    assert code == 0
    assert out.splitlines() == ["0\t7/1440", "1\t5/1152", "2\t7/5760"]


def test_genus_csv(capsys):
    code, out, _ = run(capsys, "genus", "--g", "2", "--format", "csv")
    assert out.splitlines()[0] == "j,value"
    assert out.splitlines()[1] == "0,7/1440"


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "table1")
    assert code == 0
    assert "35/35 entries match" in out


def test_verify_lists_failures(capsys, monkeypatch):
    cases = (VerifyCase("a(1,1)", True), VerifyCase("a(2,0)", False, "got 1, want 0"))
    monkeypatch.setattr(cli, "run_suite", lambda suite, gmax: VerifyResult(suite, cases))
    code, out, _ = run(capsys, "verify", "--suite", "table1")
    assert (code, out) == (1, "FAIL a(2,0): got 1, want 0\n1/2 entries match\n")
    code, out, _ = run(capsys, "verify", "--suite", "table1", "--format", "csv")
    assert (code, out) == (1, 'name,passed,detail\n"a(1,1)",true,\n"a(2,0)",false,"got 1, want 0"\n')


def test_verify_table1_rejects_gmax(capsys):
    code, out, err = run(capsys, "verify", "--suite", "table1", "--gmax", "99")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _one_error_line(code, out, err):
    return code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("suite,gmax,phrase", [
    ("lambda", "1", "no cases"),
    ("iz", "1", "no cases"),
    ("paths", "-1", "no cases"),
    ("closed", "0", "no cases"),
    ("funceq", "0", "needs gmax >= 1"),
])
def test_verify_rejects_gmax_without_cases(capsys, suite, gmax, phrase):
    code, out, err = run(capsys, "verify", "--suite", suite, "--gmax", gmax)
    assert _one_error_line(code, out, err), (code, out, err)
    assert phrase in err


@pytest.mark.parametrize("suite", ["lambda", "iz"])
def test_verify_genus_suites_count_cases(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--gmax", "36")
    assert code == 0
    assert out == "35/35 entries match\n"


def test_asym_rejects_negative_order(capsys):
    code, out, err = run(capsys, "asym", "--order", "-1", "--gmax", "20")
    assert _one_error_line(code, out, err), (code, out, err)
    assert "nonnegative" in err


@pytest.mark.parametrize("target", ["vol", "sv", "both"])
def test_asym_rejects_negative_n(capsys, target):
    code, out, err = run(
        capsys, "asym", "--target", target, "--n", "0", "-1",
        "--gmax", "20", "--order", "3",
    )
    assert _one_error_line(code, out, err), (code, out, err)
    assert "no stratum" in err


@pytest.mark.parametrize("bits", ["10", "0"])
@pytest.mark.parametrize("target", ["vol", "sv", "both"])
def test_asym_rejects_low_precision(capsys, monkeypatch, target, bits):
    # rejected before the first sample is built, for every target
    monkeypatch.setattr(asym, "agn_from_series", None)
    monkeypatch.setattr(asym, "sv_constant", None)
    code, out, err = run(
        capsys, "asym", "--target", target, "--bits", bits, "--gmax", "20", "--order", "3",
    )
    assert _one_error_line(code, out, err), (code, out, err)
    assert "precision below 64 bits" in err


_HUGE = "99999999999999999999999"


@pytest.mark.parametrize("argv", [
    ("volume", "--g", "1", "--n", "1", "--numeric", _HUGE),
    ("asym", "--gmax", "20", "--order", "2", "--bits", _HUGE),
])
def test_huge_precision_reports_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert _one_error_line(code, out, err), (code, out, err)
    assert "precision above 131072 bits" in err


def test_support_error_reports_one_line(capsys, monkeypatch):
    # Scale tu^[2] so that the interior coefficient of tu^[3] at T^-13
    # cancels; the pass that builds genus 3 then fails the exact-support check.
    g = 3
    genus.tilde_u(g - 1)
    tower = genus._tower[:g]
    tu, *rest = tower[g - 1]
    tower[g - 1] = (tu.scale(1 - Fraction(209, 81)), *rest)
    monkeypatch.setattr(genus, "_tower", tower)
    code, out, err = run(capsys, "genus", "--g", str(g))
    assert _one_error_line(code, out, err), (code, out, err)
    assert "is not exactly" in err


def test_row_support_error_reports_one_line(capsys, monkeypatch):
    # A row of the row recursion that is all zeros (B_j = 0 in every genus)
    # is refused when genus 2 is stored, before a series cell reads it.
    convolve_into = genus.convolve_into

    def zero_sum(acc, a, b):
        convolve_into(acc, a, b)
        acc[:] = [0] * len(acc)

    monkeypatch.setattr(genus, "_kaz_rows", genus._kaz_rows[:1])
    monkeypatch.setattr(genus, "_series", {})
    monkeypatch.setattr(genus, "convolve_into", zero_sum)
    code, out, err = run(capsys, "agn", "--g", "4", "--n", "3", "--method", "series")
    assert _one_error_line(code, out, err), (code, out, err)
    assert "row c[2]: 3 entries, zero at [0, 1, 2]; want 3 nonzero" in err


def test_lowered_row_bound_reports_one_line(capsys, monkeypatch):
    # R_g with the exponent of 3 lowered by 1 misses row 1's denominator 24.
    row_den = genus._row_den
    monkeypatch.setattr(genus, "_kaz_rows", genus._kaz_rows[:1])
    monkeypatch.setattr(genus, "_series", {})
    monkeypatch.setattr(genus, "_row_den", lambda g: row_den(g) // 3 if g else 1)
    code, out, err = run(capsys, "agn", "--g", "10", "--n", "0", "--method", "series")
    assert _one_error_line(code, out, err), (code, out, err)
    assert "row c[1]: R_1/(6*R_0) is not an int; the bound R_1 misses a factor" in err


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_table_and_cache_flow(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MVLAB_CACHE", str(tmp_path / "cache"))
    assert resolve_cache_dir(None) == tmp_path / "cache"

    code, out, _ = run(capsys, "table", "--gmax", "2", "--nmax", "3")
    assert code == 0
    written = tmp_path / "cache" / "agn_g2_n3.txt"
    assert written.is_file()
    assert written.read_text().startswith("# agn-table v1\n")

    code, out, _ = run(capsys, "cache", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["files"] == [{"entries": 12, "name": "agn_g2_n3.txt"}]

    code, out, _ = run(capsys, "cache", "--clear")
    assert code == 0
    assert "removed 1" in out
    assert not written.exists()

    run(capsys, "table", "--gmax", "2", "--nmax", "3")
    code, out, _ = run(capsys, "cache", "--clear", "--format", "csv")
    assert (code, out) == (0, f"dir,removed\n{tmp_path / 'cache'},1\n")
    assert not written.exists()


def test_cache_lists_and_clears_only_table_files(tmp_path, capsys):
    save_table(build_table(1, 2, "direct"), tmp_path / "agn_g1_n2.txt")
    others = {"notes.txt": "notes\n", "old.txt": "# agn-table v0\n", "t.dat": "# agn-table v1\n"}
    for name, text in others.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, "cache", "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, f"{tmp_path}\nagn_g1_n2.txt\t6 entries\n", "")
    code, out, err = run(capsys, "cache", "--clear", "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, f"removed 1 file(s) from {tmp_path}\n", "")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(others)


def test_cache_names_the_table_it_cannot_load(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# agn-table v1\n1\t2\t1_0/8_1\n")
    code, out, err = run(capsys, "cache", "--cache-dir", str(tmp_path))
    assert _one_error_line(code, out, err), (code, out, err)
    assert f"{bad}: line 2: " in err


@pytest.mark.parametrize("argv", [
    ("agn", "--g", "2", "--n", "1"),
    ("volume", "--g", "1", "--n", "1"),
    ("sv", "--g", "1", "--n", "1"),
    ("genus", "--g", "2"),
    ("verify", "--suite", "table1"),
    ("asym", "--gmax", "20", "--order", "3"),
])
def test_cache_dir_only_on_table_and_cache(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --cache-dir" in captured.err


def test_table_explicit_out(tmp_path, capsys):
    dest = tmp_path / "sub" / "t.txt"
    code, out, _ = run(
        capsys, "table", "--gmax", "1", "--nmax", "2", "--out", str(dest),
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["entries"] == 6
    assert dest.is_file()


def test_rejected_table_creates_no_directory(tmp_path, capsys):
    # The table is validated before its directory is made.
    dest = tmp_path / "D" / "t.txt"
    code, out, err = run(capsys, "table", "--gmax", "-1", "--nmax", "2", "--out", str(dest))
    assert _one_error_line(code, out, err), (code, out, err)
    assert not dest.parent.exists()


def test_cache_dir_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("MVLAB_CACHE", raising=False)
    monkeypatch.setenv("XDG_DATA_HOME", str(tmp_path / "xdg"))
    assert resolve_cache_dir(None) == tmp_path / "xdg" / "mvlab"
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"


def test_volume_csv(capsys):
    code, out, _ = run(capsys, "volume", "--g", "0", "--n", "4", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "coeff,g,n,pi_half_exponent"
    assert lines[1] == "2,0,4,4"


def test_error_reports_on_stderr(capsys):
    code, out, err = run(capsys, "volume", "--g", "0", "--n", "2")
    assert code == 2
    assert err.startswith("error:")


def test_agn_structural_zero(capsys):
    code, out, _ = run(capsys, "agn", "--g", "1", "--n", "0")
    assert (code, out) == (0, "0\n")


@pytest.mark.parametrize("argv", [
    ("volume", "--g", "-1", "--n", "8"),
    ("volume", "--g", "2", "--n", "-1"),
    ("volume", "--g", "-2", "--n", "11"),
    ("sv", "--g", "2", "--n", "-1"),
    ("sv", "--g", "-1", "--n", "8"),
])
def test_negative_indices_have_no_stratum(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert _one_error_line(code, out, err), (code, out, err)
    assert "no stratum" in err


_POINT_COMMANDS = [
    ("agn", "--method", "direct"),
    ("agn", "--method", "alt"),
    ("agn", "--method", "series"),
    ("volume",),
    ("sv",),
    ("genus",),
]


@given(
    st.sampled_from(_POINT_COMMANDS),
    st.integers(-3, 6),
    st.integers(-3, 9),
    st.sampled_from(("plain", "json", "csv")),
)
@settings(max_examples=200, deadline=None)
def test_point_commands_compute_or_reject_in_one_line(command, g, n, fmt):
    argv = [*command, "--g", str(g), "--format", fmt]
    if command[0] != "genus":
        argv += ["--n", str(n)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and out, (argv, out, err)
        if command[0] in ("volume", "sv"):
            assert g >= 0 and n >= 0, argv
    else:
        assert _one_error_line(code, out, err), (argv, code, out, err)


# One input per command and the exact stdout in each format. "{tmp}"
# stands for the test's tmp_path. At gmax 12 the asym fit is too short
# for its tolerances, so every row fails and the exit code is 1.
_PINNED = {
    "agn": (["agn", "--g", "3", "--n", "2"], 0, {
        "plain": "77633/27648\n",
        "json": '{"g":3,"n":2,"value":"77633/27648"}\n',
        "csv": "g,n,value\n3,2,77633/27648\n",
    }),
    "table": (["table", "--gmax", "1", "--nmax", "2", "--cache-dir", "{tmp}"], 0, {
        "plain": "wrote {tmp}/agn_g1_n2.txt (6 entries)\n",
        "json": '{"entries":6,"gmax":1,"nmax":2,"out":"{tmp}/agn_g1_n2.txt"}\n',
        "csv": "out,entries\n{tmp}/agn_g1_n2.txt,6\n",
    }),
    "volume": (["volume", "--g", "2", "--n", "3", "--numeric", "64"], 0, {
        "plain": "29/2880 * pi^12  ~ 9306.87717506175396\n",
        "json": '{"approx":"9306.87717506175396","coeff":"29/2880","g":2,"n":3,'
                '"pi_half_exponent":24}\n',
        "csv": "approx,coeff,g,n,pi_half_exponent\n"
               "9306.87717506175396,29/2880,2,3,24\n",
    }),
    "sv": (["sv", "--g", "2", "--n", "1"], 0, {
        "plain": "230/87 * pi^-2\n",
        "json": '{"coeff":"230/87","g":2,"n":1,"pi_half_exponent":-4}\n',
        "csv": "coeff,g,n,pi_half_exponent\n230/87,2,1,-4\n",
    }),
    "genus": (["genus", "--g", "2"], 0, {
        "plain": "0\t7/1440\n1\t5/1152\n2\t7/5760\n",
        "json": '{"C":["7/1440","5/1152","7/5760"],"g":2}\n',
        "csv": "j,value\n0,7/1440\n1,5/1152\n2,7/5760\n",
    }),
    "verify": (["verify", "--suite", "funceq", "--gmax", "2"], 0, {
        "plain": "2/2 entries match\n",
        "json": '{"cases":[{"detail":"","name":"window(8,2) residuals vanish",'
                '"passed":true},{"detail":"","name":"perturbed table detected",'
                '"passed":true}],"pass":true,"suite":"funceq"}\n',
        "csv": 'name,passed,detail\n"window(8,2) residuals vanish",true,\n'
               "perturbed table detected,true,\n",
    }),
    "asym": (["asym", "--n", "1", "--gmax", "12", "--order", "1", "--bits", "64"], 1, {
        "plain": "vol n=1 k=0: estimate=1.00031610265 bar=0.00101 reference=1.0 "
                 "rel=0.000316 FAIL\n"
                 "vol n=1 k=1: estimate=-0.0754141363142 bar=0.00825 "
                 "reference=-0.068538919452 rel=0.1 FAIL\n"
                 "sv n=1 k=0: estimate=0.249902067168 bar=0.000135 reference=0.25 "
                 "rel=0.000392 FAIL\n"
                 "sv n=1 k=1: estimate=0.0317009501657 bar=0.00117 "
                 "reference=0.0294006982648 rel=0.0782 FAIL\n"
                 "fail\n",
        "json": '{"cases":['
                '{"error_bar":"0.00101","estimate":"1.00031610265","k":0,"n":1,'
                '"passed":false,"reference":"1.0","rel_deviation":"0.000316",'
                '"target":"vol"},'
                '{"error_bar":"0.00825","estimate":"-0.0754141363142","k":1,"n":1,'
                '"passed":false,"reference":"-0.068538919452","rel_deviation":"0.1",'
                '"target":"vol"},'
                '{"error_bar":"0.000135","estimate":"0.249902067168","k":0,"n":1,'
                '"passed":false,"reference":"0.25","rel_deviation":"0.000392",'
                '"target":"sv"},'
                '{"error_bar":"0.00117","estimate":"0.0317009501657","k":1,"n":1,'
                '"passed":false,"reference":"0.0294006982648","rel_deviation":"0.0782",'
                '"target":"sv"}],"pass":false,"target":"both"}\n',
        "csv": "target,n,k,estimate,error_bar,reference,rel_deviation,passed\n"
               "vol,1,0,1.00031610265,0.00101,1.0,0.000316,false\n"
               "vol,1,1,-0.0754141363142,0.00825,-0.068538919452,0.1,false\n"
               "sv,1,0,0.249902067168,0.000135,0.25,0.000392,false\n"
               "sv,1,1,0.0317009501657,0.00117,0.0294006982648,0.0782,false\n",
    }),
    "cache": (["cache", "--cache-dir", "{tmp}"], 0, {
        "plain": "{tmp}\nagn_g1_n2.txt\t6 entries\n",
        "json": '{"dir":"{tmp}","files":[{"entries":6,"name":"agn_g1_n2.txt"}]}\n',
        "csv": "name,entries\nagn_g1_n2.txt,6\n",
    }),
    "cache-empty": (["cache", "--cache-dir", "{tmp}/none"], 0, {
        "plain": "{tmp}/none\n",
        "json": '{"dir":"{tmp}/none","files":[]}\n',
        "csv": "name,entries\n",
    }),
    "cache-clear": (["cache", "--clear", "--cache-dir", "{tmp}"], 0, {
        "plain": "removed 1 file(s) from {tmp}\n",
        "json": '{"dir":"{tmp}","removed":1}\n',
        "csv": "dir,removed\n{tmp},1\n",
    }),
}


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("name", list(_PINNED))
def test_output_is_pinned(tmp_path, capsys, name, fmt):
    argv, want_code, want = _PINNED[name]
    if name in ("cache", "cache-clear"):
        save_table(build_table(1, 2, "direct"), tmp_path / "agn_g1_n2.txt")
    sub = lambda text: text.replace("{tmp}", str(tmp_path))
    code, out, err = run(capsys, *map(sub, argv), "--format", fmt)
    assert (code, out, err) == (want_code, sub(want[fmt]), "")


def test_calls_in_one_process_leave_no_state(tmp_path, capsys):
    # The parser is built once per process and shared by every call, so
    # a parse must leave nothing behind (a default list mutated in place,
    # say). Each command's stdout in the sequence equals what it prints
    # alone: the pinned digests of a tests/test_cold.py entry, or else a
    # fresh interpreter's stdout.
    pinned = {e.name: e for e in TABLE}
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    asym_argv = ["asym", "--gmax", "30", "--order", "4", "--bits", "64"]  # default --n
    steps = [
        (asym_argv, None),
        (["agn", "--g", "3", "--n", "1", "--method", "alt"], "agn-g3-n1-alt-series"),
        # The default --method.
        (["table", "--gmax", "12", "--nmax", "40", "--out", "{tmp}/t.txt"],
         "table-12x40-three-routes"),
        (["verify", "--suite", "lambda"], None),
        (["agn", "--g", "2"], None),  # argparse rejects it: --n is required
        (asym_argv, None),
    ]
    outs = []
    for i, (argv, name) in enumerate(steps):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        real = [a.replace("{tmp}", str(tmp)) for a in argv]
        if "--n" not in argv and argv[0] == "agn":
            with pytest.raises(SystemExit) as exc:
                main(real)
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == "" and "--n" in out.err
            continue
        code = main(real)
        stdout = capsys.readouterr().out.encode().replace(str(tmp).encode(), b"{tmp}")
        if name:
            entry = pinned[name]
            files = {f: _digest(tmp / f) for f in entry.files}
            assert (code, _sha(stdout), files) == (entry.code, entry.stdout, entry.files), argv
        else:
            alone = cold(real, tmp)
            assert (code, stdout) == (alone.returncode, alone.stdout), argv
        outs.append((code, stdout))
    assert outs[-1] == outs[0]
    assert cli.build_parser() is cli.build_parser()
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
