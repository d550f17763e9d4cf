"""The package's records and what importing its command line loads.

Records are NamedTuples, except PiScaled, GaussianRat and AgnTable:
as tuples those would concatenate under +, repeat under int * and
report a tuple length. mpmath, dataclasses and inspect stay unloaded
until a command makes a float, and the source imports nothing but the
standard library and mpmath. Every source file parses under the grammar
of Python 3.10, the oldest version the package declares.
"""

import ast
import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mvlab import cli
from mvlab.agn import build_table
from mvlab.asym import CompareRow, compare_report, conjectured_m, estimate_m
from mvlab.exact import GaussianRat, LaurentT
from mvlab.funceq import verify_functional_eqs
from mvlab.genus import coeffs_C
from mvlab.verify import VerifyCase, run_suite
from mvlab.volumes import PiScaled, volume

from test_cold import cold

_VOLUME_ARGV = ["volume", "--g", "3", "--n", "2", "--numeric", "64"]
_VOLUME_OUT = ('{"approx":"89795.38209603461475","coeff":"77633/77837760",'
               '"g":3,"n":2,"pi_half_exponent":32}\n')

# A fit too short for its tolerances: every row fails, exit code 1.
_ASYM_ARGV = ["asym", "--target", "vol", "--n", "2", "--gmax", "14", "--order", "2",
              "--bits", "64"]
_ASYM_OUT = {
    "json": '{"cases":['
            '{"error_bar":"0.00021","estimate":"0.999966726917","k":0,"n":2,'
            '"passed":false,"reference":"1.0","rel_deviation":"3.33e-5","target":"vol"},'
            '{"error_bar":"0.004","estimate":"-0.0673177711211","k":1,"n":2,'
            '"passed":false,"reference":"-0.068538919452","rel_deviation":"0.0178",'
            '"target":"vol"},'
            '{"error_bar":"0.0194","estimate":"-0.0574594749664","k":2,"n":2,'
            '"passed":false,"reference":"-0.0433438212282","rel_deviation":"0.326",'
            '"target":"vol"}],"pass":false,"target":"vol"}\n',
    "csv": "target,n,k,estimate,error_bar,reference,rel_deviation,passed\n"
           "vol,2,0,0.999966726917,0.00021,1.0,3.33e-5,false\n"
           "vol,2,1,-0.0673177711211,0.004,-0.068538919452,0.0178,false\n"
           "vol,2,2,-0.0574594749664,0.0194,-0.0433438212282,0.326,false\n",
}

_VERIFY_ARGV = ["verify", "--suite", "closed", "--gmax", "3"]
_VERIFY_OUT = {
    "json": '{"cases":[{"detail":"","name":"volume(0,3)","passed":true},'
            '{"detail":"","name":"volume(1,1)","passed":true},'
            '{"detail":"","name":"volume(1,2)","passed":true},'
            '{"detail":"","name":"volume(1,3)","passed":true}],'
            '"pass":true,"suite":"closed"}\n',
    "csv": 'name,passed,detail\n"volume(0,3)",true,\n"volume(1,1)",true,\n'
           '"volume(1,2)",true,\n"volume(1,3)",true,\n',
}

# Run in a fresh interpreter: import the command line, note which of
# the heavy modules it loaded, then run two float commands.
_GUARD = """
import sys
import mvlab.cli
heavy = ("mpmath", "dataclasses", "inspect")
after_import = [m for m in heavy if m in sys.modules]
import contextlib, io, json
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mvlab.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"after_import": after_import, "runs": runs,
                  "mpmath_after_runs": "mpmath" in sys.modules}))
"""


def test_cli_import_loads_no_mpmath_dataclasses_or_inspect(tmp_path):
    argvs = [_VOLUME_ARGV, _ASYM_ARGV + ["--format", "csv"]]
    proc = cold([json.dumps(argvs)], tmp_path, _GUARD)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    got = json.loads(proc.stdout)
    assert got["after_import"] == []
    assert got["runs"] == [[0, _VOLUME_OUT], [1, _ASYM_OUT["csv"]]]
    # The floats were made, so mpmath was loaded on the way.
    assert got["mpmath_after_runs"]


def test_src_imports_only_the_standard_library_and_mpmath():
    # The package declares only mpmath, so no module of src may import
    # numpy, sympy or any other installed package.
    modules = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "mpmath", (path.name, name)


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: the package, its
    # tests and the benchmark scripts (read, not imported) use no newer syntax.
    root = Path(__file__).resolve().parents[1]
    paths = [p for d in ("src/mvlab", "tests", "perfbench") for p in sorted(root.glob(f"{d}/*.py"))]
    assert {p.parent.name for p in paths} == {"mvlab", "tests", "perfbench"}
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def _records():
    fit = estimate_m(1, 12, 1, 64)
    report = compare_report([1], 12, 1, "both", 64)
    poisoned = verify_functional_eqs(4, 1, overrides={(1, 1): Fraction(1, 11)})
    suite = run_suite("closed", 3)
    return [
        GaussianRat(), LaurentT({1: 2}), coeffs_C(2),
        build_table(2, 3), volume(2, 3), fit, fit.coefficients[0], conjectured_m(2, 1),
        report, report.rows[0], poisoned, poisoned.failures[0], suite, suite.cases[0],
    ]


def test_every_record_rejects_assignment_and_deletion():
    records = _records()
    assert {type(r).__name__ for r in records} == {
        "GaussianRat", "LaurentT", "GenusCoeffs", "AgnTable", "PiScaled",
        "AsymFit", "BigFloat", "MPoly", "CompareReport", "CompareRow",
        "FunceqReport", "FunceqFailure", "VerifyResult", "VerifyCase",
    }
    for r in records:
        fields = r._fields if isinstance(r, tuple) else r.__slots__
        for name in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, fields[0])


def test_non_tuple_records_keep_their_own_semantics():
    table = build_table(2, 3)
    assert len(table) == len(table.entries) == 12
    assert PiScaled(Fraction(1), 2) == PiScaled(Fraction(1), 2)
    assert hash(PiScaled(Fraction(1), 2)) == hash(PiScaled(Fraction(1), 2))
    assert PiScaled(Fraction(1), 2) != (Fraction(1), 2)
    with pytest.raises(TypeError):
        PiScaled(Fraction(1), 2) + PiScaled(Fraction(1), 2)
    with pytest.raises(TypeError):
        3 * GaussianRat()
    assert repr(GaussianRat()) == "GaussianRat(re=Fraction(0, 1), im=Fraction(0, 1))"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv, want_code, want", [
    (_ASYM_ARGV, 1, _ASYM_OUT),
    (_VERIFY_ARGV, 0, _VERIFY_OUT),
])
def test_rows_print_the_same_bytes_through_asdict(argv, want_code, want, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", fmt])
    assert (code, out.getvalue()) == (want_code, want[fmt])


def test_asdict_keeps_field_order_as_the_csv_columns():
    row = compare_report([2], 14, 2, "vol", 64).rows[0]._asdict()
    assert type(row) is dict
    assert list(row) == list(CompareRow._fields) == _ASYM_OUT["csv"].split("\n")[0].split(",")
    assert VerifyCase("x", True)._asdict() == {"name": "x", "passed": True, "detail": ""}
