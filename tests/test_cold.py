"""Checks that need a fresh interpreter, one table entry each.

`cold` runs ``python -m mvlab.cli ARGV`` (or ``python -c CODE ARGV``) in
its own process, with the package's ``src`` on the path and the cache
pointed at a temporary directory, so no memo, cache file or earlier
import can make a check pass. The other test modules use it too.

An entry with several argvs runs each in its own process and directory,
and every run must give the same exit code, stdout and files: that is
how the three routes are held to one table. ``{tmp}`` in an argv, or in
an entry's stderr text, stands for the run's directory; it is put back
in stdout before hashing, so a digest does not depend on where the test
runs. A failing entry prints the digest it got. A deliberate change of
the printed bytes edits that literal, and CHANGES.md names the entry.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import mvlab

_SRC = str(Path(mvlab.__file__).parents[1])


def cold(argv, tmp, code=None):
    """Run the command line, or `code`, with `argv` in a fresh interpreter in `tmp`."""
    env = dict(os.environ, PYTHONPATH=_SRC, MVLAB_CACHE=str(tmp), XDG_DATA_HOME=str(tmp))
    head = ["-m", "mvlab.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *head, *argv], cwd=tmp, capture_output=True, env=env, timeout=600
    )


class Cold(NamedTuple):
    name: str
    argvs: tuple  # one or more argv, each run in its own process and directory
    code: int  # the exit code of every run
    stdout: str  # sha256 of every run's stdout
    stderr: str | None = None  # None: empty; else exactly one line containing this text
    setup: dict = {}  # file name -> text, written into the run's directory first
    files: dict = {}  # file name -> sha256 of it after the run, or None: it must not exist


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(path: Path):
    if path.is_file():
        return _sha(path.read_bytes())
    return "exists" if path.exists() else None


def _cli(line: str) -> tuple:
    return tuple(line.split())


_NOTES = "notes\n"

TABLE = [
    # Cold start: a float and an exact command (test_records holds the import guard).
    Cold("volume-g3-n2-numeric64", (_cli("volume --g 3 --n 2 --numeric 64"),), 0,
         "b70241313f3ad359691b4c49e9c783889b649f7994001b21560cb945247dc09c"),
    Cold("sv-g4-n3", (_cli("sv --g 4 --n 3"),), 0,
         "7a55756cc9bd462b0cc773fc7a7b8cbd6b0890c68c5fc6d3d5cbc30c7c1146b9"),
    # Top and bottom coefficients to g = 80 (79/79 entries match).
    Cold("verify-lambda-80", (_cli("verify --suite lambda --gmax 80"),), 0,
         "b95341da0fda0b11181f7f9f95448380cb6d2fc4b255eab21e9fd7780306b1d6"),
    Cold("verify-iz-80", (_cli("verify --suite iz --gmax 80"),), 0,
         "b95341da0fda0b11181f7f9f95448380cb6d2fc4b255eab21e9fd7780306b1d6"),
    # Fit bytes past the benchmark's g = 36, read off the genus rows;
    # --bits defaults to 320, so both spellings print the same bytes.
    Cold("asym-g60-k8-json",
         (_cli("asym --gmax 60 --order 8 --n 0 1 2 --format json"),
          _cli("asym --gmax 60 --order 8 --n 0 1 2 --bits 320 --format json")), 0,
         "09430693c48803c4f0d9fac6605c714b3ed0116249f20d422539b8867b9b5760"),
    Cold("verify-funceq-12", (_cli("verify --suite funceq --gmax 12"),), 0,
         "389bbf2d1d9604ca446da095a375d1993e0690844703214da7f21279332470e3"),
    Cold("verify-paths", (_cli("verify --suite paths"),), 0,
         "3635dcb9deec3edddad0b0eec8921b291c3c880116dade1e5c559d6911cc16e3"),
    Cold("verify-closed", (_cli("verify --suite closed"),), 0,
         "b97ba42e56cd19bd51b972803a1770246a2b91b4e7e2c2ed9de1a11340e3285f"),
    # The three routes, one process each, write the same 12x40 file.
    Cold("table-12x40-three-routes",
         tuple(_cli(f"table --gmax 12 --nmax 40 --method {m} --out {{tmp}}/t.txt")
               for m in ("direct", "alt", "series")), 0,
         "dd112da923c2f3d11344ccac02caa9a962a7ec02996badeb8f6c32f3cd529a49",
         files={"t.txt": "5b27017b7f28ed920f316ae128b8f12b8fc7069dc3657024d5f8301c35c06071"}),
    # Wider: g <= 20 and n <= 60 grow the rows' denominators further.
    Cold("table-20x60-three-routes",
         tuple(_cli(f"table --gmax 20 --nmax 60 --method {m} --out {{tmp}}/t.txt")
               for m in ("direct", "alt", "series")), 0,
         "9fbf36f080437a342af042d1a75ee106c15d6b86dce2674d87a134934feefb45",
         files={"t.txt": "814d82e33e0a41661ebde8b08f47cca5d8195f098becefc42f148262ccfcbde3"}),
    Cold("agn-g2-n400-direct-alt",
         (_cli("agn --g 2 --n 400 --method direct"), _cli("agn --g 2 --n 400 --method alt")), 0,
         "0d50c526d9d1955abc1988d6f146d18de84fe9387dd9a80c5f1ee9531697ccc6"),
    # Alt answers the cells below its recursion.
    Cold("agn-g3-n0-alt-series",
         (_cli("agn --g 3 --n 0 --method alt"), _cli("agn --g 3 --n 0 --method series")), 0,
         "17f6ee3de3117bb7aead6928315eca12e09fbbc8e37777ce11f96e4e02cc6889"),
    Cold("agn-g3-n1-alt-series",
         (_cli("agn --g 3 --n 1 --method alt"), _cli("agn --g 3 --n 1 --method series")), 0,
         "111fae58ae2a3a125ec9de74abb659a36787a9595d3ac271f96366e2b1a82d12"),
    Cold("agn-g0-n-1-alt-direct",
         (_cli("agn --g 0 --n -1 --method alt"), _cli("agn --g 0 --n -1 --method direct")), 0,
         "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    # The series n = 1 formula against the direct recursion, past verify's g <= 15.
    Cold("agn-g40-n1-direct-series",
         (_cli("agn --g 40 --n 1 --method direct"), _cli("agn --g 40 --n 1 --method series")), 0,
         "cd640f0a590649505c2014321882aac42da47455e7c27b49622952af159b6dd8"),
    # The genus layer, cold: the C row to g = 60, an area constant and a
    # series cell past the benchmark's genera.
    Cold("genus-g60", (_cli("genus --g 60"),), 0,
         "a85ff03dd0ba34c4fdb5a076431ead0118a79b046ebf6049f9dd58441a8d3fcb"),
    Cold("genus-g12-json", (_cli("genus --g 12 --format json"),), 0,
         "9e0cebceebf6ee141619e7c146c20d5f442660a7e344b77a47b519a8e3672772"),
    Cold("genus-g12-csv", (_cli("genus --g 12 --format csv"),), 0,
         "74c2c1ff209f9f2c4d06a7560920b7ec20a5696322325d4d2ff249947991171c"),
    Cold("sv-g30-n6", (_cli("sv --g 30 --n 6"),), 0,
         "766aa89fa9631d9e86ebce66a6a940389c656bd85326b3edb5a779cb2a0dda09"),
    Cold("agn-g36-n7-series", (_cli("agn --g 36 --n 7 --method series"),), 0,
         "8da69b7365321450f64717f72a4ce0aef0aadc3bdc604e1811a56701a2548d65"),
    # Every entry of row 80 enters the n = 0 cell, past the fits' g = 60.
    Cold("agn-g80-n0-series", (_cli("agn --g 80 --n 0 --method series"),), 0,
         "5ed55639fbdbdac36a0186affaded64d5be5a02f9a30a7fe7fa34b469b5969a7"),
    # Exact values wider than CPython's default limit on int <-> str
    # conversions (4300 digits) print and save.
    Cold("agn-g0-n1500-series", (_cli("agn --g 0 --n 1500 --method series"),), 0,
         "5ef485a9d0cee7e7f5fff36c6c2b8766fa9be04fea3ee74d3d52d0b580c2c376"),
    Cold("table-g0-n1500-series",
         (_cli("table --gmax 0 --nmax 1500 --method series --out {tmp}/t.txt"),), 0,
         "e4e7141557069165f29f1410e77f93b203efbbe0240f0e0aa69ac66ebfe2a7a0",
         files={"t.txt": "f70bd672dec5af5725cdaa6dcf05c120b9d5bd9fa8bf13005863f7b508f921d9"}),
    # Rejected inputs: exit 2, one stderr line, nothing written.
    Cold("table-rejected-writes-nothing",
         (_cli("table --gmax -1 --nmax 2 --out {tmp}/rejected/t.txt"),), 2, _sha(b""),
         stderr="error: ", files={"rejected": None}),
    Cold("cache-bad-line-names-the-file", (_cli("cache --cache-dir {tmp}"),), 2, _sha(b""),
         stderr="error: {tmp}/bad.txt: line 2: ",
         setup={"bad.txt": "# agn-table v1\n1\t2\t1_0/8_1\n"}),
    Cold("volume-huge-numeric", (_cli("volume --g 1 --n 1 --numeric 99999999999999999999999"),),
         2, _sha(b""), stderr="error: "),
    Cold("volume-numeric-above-ceiling", (_cli("volume --g 1 --n 1 --numeric 100000000"),),
         2, _sha(b""), stderr="error: precision above 131072 bits"),
    # `cache --clear` removes the table and keeps notes.txt: dir,removed / {tmp},1.
    Cold("cache-clear-only-tables", (_cli("cache --clear --cache-dir {tmp} --format csv"),), 0,
         "2a5a642d542907bb5d4a6384faf40ce1f2d281204a8fbf6d7032d4784ab8446d",
         setup={"t.txt": "# agn-table v1\n0\t3\t1/1\n", "notes.txt": _NOTES},
         files={"t.txt": None, "notes.txt": _sha(_NOTES.encode())}),
    # Float bytes that correctly rounded floats (ROADMAP item 11) and a
    # faster or cached genus tower (items 6, 7) must move on purpose only.
    # The asym entries fail a tolerance by design (exit 1).
    Cold("asym-bits64-g36-k5-n045", (_cli("asym --bits 64 --gmax 36 --order 5 --n 0 4 5"),), 1,
         "4f53497fa6b751294d590be277bebee969e1deec4068dad84334bac599387b8e"),
    Cold("asym-bits64-g30-k4-n13-csv",
         (_cli("asym --gmax 30 --order 4 --bits 64 --n 1 3 --format csv"),), 1,
         "c21814c1b061873fe5f1914ad7b0b61879c049ddf2746ca814ff89d23bc365fd"),
    Cold("volume-g6-n6-numeric64", (_cli("volume --g 6 --n 6 --numeric 64"),), 0,
         "8df20eb767e78c0efcdec7d1a52601b380f447811094ec75dd27081cf8325125"),
    Cold("volume-g7-n5-numeric64", (_cli("volume --g 7 --n 5 --numeric 64"),), 0,
         "9aa7e40c1ef61a80a2bd6caa8de3586f8cecbc1a89a32f1521aabf1dd8c3f0f1"),
    Cold("volume-g6-n6-numeric320", (_cli("volume --g 6 --n 6 --numeric 320"),), 0,
         "13fe97a182d8cb206192cd0ab472c7624a472f93c37ec11d3b028ff75ae373be"),
    Cold("asym-bits320-g36-k5-json",
         (_cli("asym --gmax 36 --order 5 --n 0 1 2 --format json --bits 320"),), 1,
         "fe6a1fddecb3052bcace78eea6cd4bdb0850cb08f8d28dac0b2ae6c36848ae57"),
    Cold("asym-bits640-g36-k5-json",
         (_cli("asym --gmax 36 --order 5 --n 0 1 2 --format json --bits 640"),), 1,
         "fe6a1fddecb3052bcace78eea6cd4bdb0850cb08f8d28dac0b2ae6c36848ae57"),
]


@pytest.mark.parametrize("entry", TABLE, ids=[e.name for e in TABLE])
def test_cold_command(entry, tmp_path):
    for i, argv in enumerate(entry.argvs):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        for name, text in entry.setup.items():
            (tmp / name).write_text(text)
        cmd = " ".join(argv)
        proc = cold([a.replace("{tmp}", str(tmp)) for a in argv], tmp)
        stdout = proc.stdout.replace(str(tmp).encode(), b"{tmp}")
        got = (proc.returncode, _sha(stdout), {name: _digest(tmp / name) for name in entry.files})
        err = proc.stderr.decode()
        assert got == (entry.code, entry.stdout, entry.files), (cmd, stdout, err)
        if entry.stderr is None:
            assert err == "", (cmd, err)
        else:
            want = entry.stderr.replace("{tmp}", str(tmp))
            assert err.count("\n") == 1 and err.endswith("\n") and want in err, (cmd, err)


def test_wide_table_lists_in_the_cache(tmp_path):
    # `cache` loads the table a `table` run wrote to the same directory,
    # values past 4300 digits included: {tmp} / agn_g0_n1500.txt<TAB>1501 entries.
    table = cold(_cli(f"table --gmax 0 --nmax 1500 --method series --cache-dir {tmp_path}"), tmp_path)
    assert table.returncode == 0 and table.stderr == b"", table.stderr
    assert _digest(tmp_path / "agn_g0_n1500.txt") == (
        "f70bd672dec5af5725cdaa6dcf05c120b9d5bd9fa8bf13005863f7b508f921d9")
    listing = cold(_cli(f"cache --cache-dir {tmp_path}"), tmp_path)
    assert (listing.returncode, listing.stderr) == (0, b"")
    assert listing.stdout.replace(str(tmp_path).encode(), b"{tmp}") == (
        b"{tmp}\nagn_g0_n1500.txt\t1501 entries\n")
