"""The rational table a_{g,n}: two recursions, a build driver, persistence.

Both recursions determine the same numbers. The first steps down in n
through a binomially weighted quadratic term, the second is an
alternating-sign convolution. They share no recursion step, only the
row store and its dot product, which is the point: exact agreement
between them (and the series reconstruction in :mod:`mvlab.genus`) is
the package's main internal evidence.

Both quadratic terms are Cauchy coefficients of exponential rows, one
row per genus: the binomial weight comb(n-1, n1-2) is (n-1)!/(k1! k2!),
and the convolution kernel P_{g,nu} carries its 1/nu!. Each row is a
row of an ``exact.RowStore`` (int numerators over the row's own
denominator, with a cofactor to the store's shared one) that grows as
its genus's cells are filled, so a cell's quadratic sum is one integer
dot product per unordered genus pair, and each entry is one int sum
over a known denominator, reduced with one gcd. The rows are the only
store of the cells, which are read back from them as int pairs.

Domain rule: every method answers every (g, n). A pair with no stratum
is 0, and each recursion returns the series reconstruction on the
columns it cannot express: n = 0 for ``a_direct``, n < 2 for ``a_alt``.
``route`` maps a method name to its cell function.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from pathlib import Path

from .exact import Frozen, RowStore, unlimited_digits
from .genus import _is_structural_zero, agn_from_series

__all__ = [
    "a_direct",
    "a_alt",
    "AgnTable",
    "METHODS",
    "route",
    "build_table",
    "save_table",
    "load_table",
    "TableFormatError",
    "table_files",
]

HEADER = "# agn-table v1"


def _grow(rows: RowStore, g: int, n: int, step: int, entry) -> None:
    """Fill what the cell (g, n) reads: the (g', n') with g' <= g and
    n' <= n + step*(g - g'). Row g' takes entry k from entry(g', k), an
    int pair (numerator, denominator)."""
    while len(rows) <= g:
        rows.add_row()
    for gg in range(g + 1):
        row = rows.nums[gg]
        while len(row) < n + step * (g - gg) - 1:
            rows.append(gg, *entry(gg, len(row)))


# Row g holds b_{g,k} = a_{g,k+2}/k! for k = 0, 1, ..., except that the
# entry of a_{0,3} is 0: the recursion leaves out every product with it.
_direct_rows = RowStore()


def _direct_sum(g: int, k: int, c_quad: int, c_top: int) -> tuple[int, int]:
    """(c_quad Q_g[k+1] + c_top b_{g-1,k+3}) / (12 (4g-2+k)) as an int
    pair, Q_g[m] being sum_{g1+g2=g} [t^m] row g1 * row g2.

    With n = k + 2, (4g-4+n) a_{g,n} = (n-1)!/2 Q_g[n-1] + a_{g-1,n+3}/12,
    and a_{g-1,n+3} = (n+1)! b_{g-1,n+1}. Divided by k! the factorials
    cancel: c_quad = 6(k+1) and c_top = (k+1)(k+2)(k+3) give b_{g,k};
    the n = 1 cell a_{g,1} below the rows is c_quad = 6, c_top = 2. The
    entries of row g not filled yet would pair only with the zeros
    b_{0,0} and b_{0,1}.
    """
    rows = _direct_rows
    num = c_quad * rows.square(g, k + 1)
    if g:
        num += c_top * rows.den * rows.cof[g - 1] * rows.nums[g - 1][k + 3]
    return num, 12 * (4 * g - 2 + k) * rows.den**2


def _direct_entry(g: int, k: int) -> tuple[int, int]:
    if g == 0 and k < 3:
        # a_{0,2} = 0, a_{0,3} enters no product, and a_{0,4} = 1 is the
        # boundary value: the recursion would divide by 4g-4+n = 0.
        return (1, 2) if k == 2 else (0, 1)
    return _direct_sum(g, k, 6 * (k + 1), (k + 1) * (k + 2) * (k + 3))


def a_direct(g: int, n: int) -> Fraction:
    """a_{g,n} by the binomial recursion in n.

    Cells are filled bottom-up, each genus's row in order of n. The
    recursion never reaches n = 0: that column is the series value.
    """
    if _is_structural_zero(g, n):
        return Fraction(0)
    if n == 0:
        return agn_from_series(g, 0)
    if (g, n) == (0, 3):
        return Fraction(1)
    _grow(_direct_rows, g, n, 3, _direct_entry)
    if n == 1:  # below the rows
        return Fraction(*_direct_sum(g, -1, 6, 2))
    return Fraction(_direct_rows.nums[g][n - 2] * factorial(n - 2), _direct_rows.dens[g])


# Row g holds the convolution kernel P_{g,nu} for nu = 0, 1, ..., and
# cell row g holds a_{g,k+2} at k = 0, 1, ..., with 0 at a_{0,2}. Entry g
# of the weights holds genus g's two int lists, _alt_weight_lists(g).
_alt_rows = RowStore()
_alt_cells = RowStore()
_alt_weights: list[tuple[list[int], list[int]]] = []


def _alt_weight_lists(g: int) -> tuple[list[int], list[int]]:
    """The weights w_j = (-1)^j / (4^j (2j+1)!) and v_j = (-1)^j / (4^j (2j)!),
    j <= g, as int numerators over 4^g (2g+1)! and 4^g (2g)!: entry 0 of
    each list is its denominator."""
    w = [(-1) ** j * 4 ** (g - j) * (factorial(2 * g + 1) // factorial(2 * j + 1))
         for j in range(g + 1)]
    v = [(-1) ** j * 4 ** (g - j) * (factorial(2 * g) // factorial(2 * j))
         for j in range(g + 1)]
    return w, v


def _alt_P_at(gam: int, nu: int) -> tuple[int, int]:
    """Convolution kernel P_{gam,nu} = (1/nu!) sum_j w_j a_{gam-j, nu+2j+2}."""
    cells, w = _alt_cells, _alt_weights[gam][0]
    nums, cof = cells.nums, cells.cof
    num = sum(w[j] * cof[gam - j] * nums[gam - j][nu + 2 * j] for j in range(gam + 1))
    return num, factorial(nu) * w[0] * cells.den


def _alt_cell(g: int, n: int) -> tuple[int, int]:
    # (q!/2) * conv(P, P) - sum_{j>=1} v_j a_{g-j, q+2j+2}, plus 1 at
    # (0, 3). conv is Q_g[q], summed over g1 + g2 = g. The row of g holds
    # only nu < q here; P_{g,q} reads the cell being computed, and its
    # partner is P_{0,0} = a_{0,2} = 0. At (0, 2) every term is 0.
    q = n - 2
    P, cells, v = _alt_rows, _alt_cells, _alt_weights[g][1]
    nums, cof = cells.nums, cells.cof
    tail = sum(v[j] * cof[g - j] * nums[g - j][q + 2 * j] for j in range(1, g + 1))
    quad_den, tail_den = 2 * P.den**2, v[0] * cells.den
    num = factorial(q) * P.square(g, q) * tail_den - tail * quad_den
    if q == 1 and g == 0:
        num += quad_den * tail_den
    return num, quad_den * tail_den


def _alt_entry(g: int, k: int) -> tuple[int, int]:
    # P_{g,k} reads a_{g,k+2}, so the cell is stored first.
    if g == len(_alt_cells):
        _alt_cells.add_row()
        _alt_weights.append(_alt_weight_lists(g))
    _alt_cells.append(g, *_alt_cell(g, k + 2))
    return _alt_P_at(g, k)


def a_alt(g: int, n: int) -> Fraction:
    """a_{g,n} by the alternating-sign recursion.

    Cells are filled bottom-up, each genus's rows in order of nu = n - 2.
    The recursion starts at n = 2: the n < 2 columns are series values.
    """
    if n < 2:
        return agn_from_series(g, n)
    if _is_structural_zero(g, n):
        return Fraction(0)
    _grow(_alt_rows, g, n, 2, _alt_entry)
    return Fraction(_alt_cells.nums[g][n - 2], _alt_cells.dens[g])


class AgnTable(Frozen):
    """Immutable map (g, n) -> a_{g,n}; its length is its entry count."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[int, int], Fraction]):
        object.__setattr__(self, "entries", entries)

    def value(self, g: int, n: int) -> Fraction:
        return self.entries[(g, n)]

    def __len__(self) -> int:
        return len(self.entries)


_ROUTES = {"direct": "a_direct", "alt": "a_alt", "series": "agn_from_series"}
METHODS = tuple(_ROUTES)


def route(method: str):
    """The cell function (g, n) -> a_{g,n} of a method in METHODS.

    It is read from the module globals at each call, so a rebinding of
    one (a wrapper, an injected fault) reaches every caller.
    """
    if method not in _ROUTES:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return globals()[_ROUTES[method]]


def build_table(gmax: int, nmax: int, method: str = "direct") -> AgnTable:
    """Fill every cell g <= gmax, n <= nmax, genus by genus, by route(method)."""
    if gmax < 0 or nmax < 0:
        raise ValueError("table bounds must be nonnegative")
    cell = route(method)
    entries: dict[tuple[int, int], Fraction] = {}
    for g in range(gmax + 1):
        for n in range(nmax + 1):
            v = cell(g, n)
            if not _is_structural_zero(g, n) and v <= 0:
                raise AssertionError(f"a_({g},{n}) = {v} is not positive")
            entries[(g, n)] = v
    return AgnTable(entries)


class TableFormatError(ValueError):
    pass


_FORM = "g<TAB>n<TAB>p/q (ASCII digits, no leading zero, a sign only on p, denominator q > 0)"
_LINE = re.compile(r"(0|[1-9][0-9]*)\t(0|[1-9][0-9]*)\t(0|-?[1-9][0-9]*)/([1-9][0-9]*)", re.ASCII)


def save_table(table: AgnTable, path: str | Path) -> None:
    """Write the table as sorted text: one `g<TAB>n<TAB>p/q` line per cell."""
    lines = [HEADER]
    with unlimited_digits():
        for (g, n) in sorted(table.entries):
            v = table.entries[(g, n)]
            lines.append(f"{g}\t{n}\t{v.numerator}/{v.denominator}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_table(path: str | Path) -> AgnTable:
    """Read a table written by save_table: the header, then lines that are
    empty or exactly save_table's line for a cell (_FORM), p/q in lowest
    terms and each (g, n) once. Anything else raises TableFormatError,
    naming the file and the line."""
    lines = Path(path).read_bytes().decode("ascii", "replace").split("\n")
    if lines[0] != HEADER:
        raise TableFormatError(f"{path}: line 1: expected header {HEADER!r}, got {lines[0]!r}")
    entries: dict[tuple[int, int], Fraction] = {}
    with unlimited_digits():
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            if not (m := _LINE.fullmatch(line)):
                raise TableFormatError(f"{path}: line {lineno}: {line!r} is not of the form {_FORM}")
            g, n, num, den = map(int, m.groups())
            v = Fraction(num, den)
            if v.denominator != den:
                raise TableFormatError(f"{path}: line {lineno}: {num}/{den} is not in lowest terms")
            if (g, n) in entries:
                raise TableFormatError(f"{path}: line {lineno}: duplicate key ({g},{n})")
            entries[(g, n)] = v
    return AgnTable(entries)


def table_files(directory: str | Path) -> list[Path]:
    """The ``*.txt`` files in a directory whose line 1 is load_table's header, sorted."""
    header = HEADER.encode()
    files = sorted(Path(directory).glob("*.txt"))
    return [f for f in files if f.is_file() and f.read_bytes().partition(b"\n")[0] == header]
