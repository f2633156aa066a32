"""The sweep table's byte contract, pinned against per-cell oracles.

`format_sweep_csv` writes each run of rows with one %-format and
`parse_sweep_table` reads each column with one float pass.  The oracles
below are the per-row writer and the row-major reader they replaced: one
join per row, one dict per row.  On every table the column code must write
the same bytes and read the same values, and on every corrupted input it
must raise the same text with the same line number.
"""

import math
import re

import numpy as np
import pytest

from expscatter import cli, potentials
from expscatter.cli import SWEEP_COLUMNS, SWEEP_HEADER, UsageError


def oracle_format(spec, table):
    """One join per row, and each row error's comment after its row."""
    lines = [f"# hbar={spec.units.hbar:g} mass={spec.units.mass:g}", SWEEP_HEADER]
    rows = zip(*(table[name] for name in SWEEP_COLUMNS))
    for row, error in zip(rows, table["error"]):
        lines.append(",".join("NA" if v is None else "%.16e" % v for v in row))
        if error is not None:
            lines.append(f"# row-error: E={row[0]:.16e} {error}")
    return "\n".join(lines) + "\n"


def oracle_parse(lines):
    """Row by row, one dict per row, the first fault in reading order."""
    names = SWEEP_HEADER.split(",")
    rows = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not header_seen:
            if line != SWEEP_HEADER:
                raise UsageError(f"line {lineno}: expected sweep header, got {line!r}")
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != len(names):
            raise UsageError(f"line {lineno}: expected {len(names)} cells, got {len(cells)}")
        row = {}
        for name, cell in zip(names, cells):
            if cell == "NA":
                row[name] = None
                continue
            try:
                row[name] = float(cell)
            except ValueError:
                raise UsageError(f"line {lineno}: bad number {cell!r} in column {name}") from None
        rows.append(row)
    if not header_seen:
        raise UsageError("line 1: input has no sweep header")
    return {name: [row[name] for row in rows] for name in names}


def bits(columns):
    """Each column's cells as float.hex, so -0.0, nan and every bit count."""
    return {name: [None if v is None else float(v).hex() for v in columns[name]]
            for name in SWEEP_COLUMNS}


def spec(model="exp:v0=1,a=1", e_min=0.05, e_max=5.0, n=6, sides="both", methods="both",
         spacing="log"):
    return cli.SweepSpec(cli.parse_model(model), e_min, e_max, n, spacing, sides, methods,
                         potentials.DEFAULT_UNITS)


SPECS = {
    # the first row's q = 2e-9 is at or below Q_MIN, where both lanes refuse
    "numeric-row-errors": spec(e_min=1e-18, e_max=1.0, n=5, methods="numeric"),
    "both-row-errors": spec(e_min=1e-18, e_max=1.0, n=5),
    "analytic-refusals": spec(e_min=1e-20, e_max=1e5, n=60, methods="analytic"),
    "both-refusals": spec(e_min=1e-20, e_max=1e5, n=12),
    "rect-na-q": spec(model="rect:v0=1,w=2", n=5, methods="numeric"),
    "free": spec(model="free", n=5, methods="numeric"),
    "analytic": spec(methods="analytic", n=300),
    "numeric": spec(methods="numeric"),
    "both": spec(),
    "left": spec(sides="left"),
    "right": spec(sides="right"),
    "analytic-right": spec(sides="right", methods="analytic"),
    "numeric-left": spec(sides="left", methods="numeric"),
    "low-energy": spec(e_min=1e-6, e_max=1e-3, n=4),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_tables_match_the_oracles(name):
    sweep = SPECS[name]
    table = cli.run_sweep(sweep)
    text = cli.format_sweep_csv(sweep, table)
    assert text == oracle_format(sweep, table)
    lines = text.splitlines()
    parsed = cli.parse_sweep_table(lines)
    assert bits(parsed) == bits(oracle_parse(lines)) == bits(table)


def test_error_rows_and_na_runs_are_covered():
    # the tables above reach every shape the writer splits runs on: an
    # error row, a run of refused analytic rows, and NA cells that change
    # from row to row
    tables = {name: cli.run_sweep(sweep) for name, sweep in SPECS.items()}
    assert tables["numeric-row-errors"]["error"][0] is not None
    assert tables["numeric-row-errors"]["error"][-1] is None
    refused = tables["analytic-refusals"]["error"]
    assert refused[0] is not None and refused[30] is None and refused[-1] is not None
    assert tables["rect-na-q"]["q"] == [None] * 5


def test_hand_built_table_matches_the_oracle():
    # NA cells that change on every row, an empty and a %-bearing error
    # message, -0.0, nan, inf and a subnormal, and an error on the last row
    n = 7
    values = [0.5, -0.0, float("nan"), float("inf"), 5e-324, -1.25e300, 1.0 / 3.0]
    table = {name: [values[(i + j) % n] if (i * j) % 3 else None for i in range(n)]
             for j, name in enumerate(SWEEP_COLUMNS)}
    table["E"] = [float(i + 1) for i in range(n)]
    table["error"] = [None, "", None, None, "100% refused", None, "last"]
    sweep = spec()
    text = cli.format_sweep_csv(sweep, table)
    assert text == oracle_format(sweep, table)
    assert bits(cli.parse_sweep_table(text.splitlines())) == bits(table)


def test_an_empty_table_is_its_header():
    table = dict.fromkeys((*SWEEP_COLUMNS, "error"), [])
    sweep = spec()
    assert cli.format_sweep_csv(sweep, table) == oracle_format(sweep, table)


ROW = ",".join(["1.0"] * 12)


@pytest.mark.parametrize("lines", [
    ["E,q,bogus"],
    [" " + SWEEP_HEADER, ROW],
    [SWEEP_HEADER + "\r", ROW],
    [],
    ["# only a comment", "", "   "],
    [SWEEP_HEADER, ROW, "1.0,2.0"],
    [SWEEP_HEADER, ROW, ",".join(["1.0"] * 11 + ["oops"])],
    [SWEEP_HEADER, ROW, "1.0,x" + ",1.0" * 10, ROW, "1.0,2.0"],
    [SWEEP_HEADER, "1.0,2.0", "1.0,x" + ",1.0" * 10],
    [SWEEP_HEADER, ROW + ",1.0"],
    # row-major: a late column on an early line before an early column
    # on a later line, and the leftmost of two on one line
    [SWEEP_HEADER, ",".join(["1.0"] * 11 + ["late"]), "early" + ",1.0" * 11],
    [SWEEP_HEADER, "1.0,first" + ",1.0" * 9 + ",second"],
    [SWEEP_HEADER, ",".join(["NA "] + ["1.0"] * 11)],
    [SWEEP_HEADER, ",".join(["na"] + ["1.0"] * 11)],
    # past the reader's first block of rows, with comments between them
    [SWEEP_HEADER, *[ROW, "# c"] * 300, "1.0,x" + ",1.0" * 10, *[ROW] * 100, "1.0,2.0"],
    [SWEEP_HEADER, *[ROW, "# c"] * 300, "1.0,2.0", *[ROW] * 100, "1.0,x" + ",1.0" * 10],
    [SWEEP_HEADER, *[ROW] * 255, "1.0,2.0", "1.0,x" + ",1.0" * 10],
    [SWEEP_HEADER, *[ROW] * 255, "1.0,x" + ",1.0" * 10, "1.0,2.0"],
], ids=["bad-header", "indented-header", "header-with-cr", "empty", "comments-only",
        "short-row", "bad-cell", "bad-cell-before-short-row", "short-row-before-bad-cell",
        "long-row", "row-major-across-lines", "row-major-in-a-line", "na-with-space",
        "lower-case-na", "late-bad-cell-before-short-row", "late-short-row-before-bad-cell",
        "short-row-ends-a-block", "bad-cell-ends-a-block"])
def test_corrupted_tables_raise_the_oracle_text(lines):
    with pytest.raises(UsageError) as want:
        oracle_parse(lines)
    with pytest.raises(UsageError, match=f"^{re.escape(str(want.value))}$"):
        cli.parse_sweep_table(lines)


@pytest.mark.parametrize("lines", [
    ["", "# hbar=1 mass=0.5", "  ", "\t# indented comment", SWEEP_HEADER, "", ROW,
     "# row-error: E=1 a, b, c, d, e, f, g, h, i, j, k, l", ROW],
    [SWEEP_HEADER, ",".join(["nan", "inf", "-inf", " 1.0", "1.0 ", "\t2", "1_0", "NA",
                             "-0.0", "1e-320", "+5", "NaN"])],
    [SWEEP_HEADER + "\n", ROW + "\n", ",".join(["NA"] * 12) + "\n"],
    [SWEEP_HEADER],
], ids=["blank-and-comment-lines", "float-spellings", "newline-ended-lines", "header-only"])
def test_accepted_tables_read_the_oracle_values(lines):
    assert bits(cli.parse_sweep_table(lines)) == bits(oracle_parse(lines))


@pytest.mark.parametrize("hbar, mass", [(1.0000001, 0.50000001), (0.1 + 0.2, 1.0 / 3.0),
                                        (0.9999999999, 0.123456789)])
def test_units_comments_read_back_to_the_units(hbar, mass, capsys):
    # %g keeps six digits; a value it does not read back to is its repr
    model = ["--model", "exp:v0=1,a=1", "--hbar", repr(hbar), "--mass", repr(mass)]
    for argv in (["sweep", *model, "--emin", "0.5", "--emax", "1", "--n", "2",
                  "--method", "analytic"],
                 ["wavefunction", *model, "--energy", "0.7", "--xmin", "-3", "--xmax", "0",
                  "--n", "3"]):
        assert cli.main(argv) == 0
        comment = capsys.readouterr().out.splitlines()[0]
        found = re.fullmatch(r"# hbar=(\S+) mass=(\S+)", comment)
        assert (float(found[1]), float(found[2])) == (hbar, mass)


@pytest.mark.parametrize("flags, comment", [([], "# hbar=1 mass=0.5"),
                                            (["--mass", "2"], "# hbar=1 mass=2"),
                                            (["--mass", "1e-5"], "# hbar=1 mass=1e-05")])
def test_units_comments_that_g_reads_back_keep_their_bytes(flags, comment, capsys):
    argv = ["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.5", "--emax", "1", "--n", "2",
            "--method", "analytic", *flags]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == comment


@pytest.mark.parametrize("command", [
    ["sweep", "--emin", "0.5", "--emax", "1", "--n", "2"],
    ["wavefunction", "--energy", "0.7", "--xmin", "-3", "--xmax", "0", "--n", "3"],
])
def test_units_comments_that_g_rounds_are_written_as_given(command, capsys):
    # %g would print both as 1 and 0.5; their repr is what the flags gave
    argv = [*command, "--model", "exp:v0=1,a=1", "--hbar", "1.0000001", "--mass", "0.50000001"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# hbar=1.0000001 mass=0.50000001"


def test_hypot_is_the_complex_modulus_bit_for_bit():
    # the wavefunction's abs_psi column is np.hypot(re, im), formerly
    # abs(complex(re, im)) per sample: both are libm's hypot
    rng = np.random.default_rng(35)
    magnitude = 10.0 ** rng.uniform(-300.0, 300.0, size=(2, 200_000))
    re_part, im_part = magnitude * rng.choice([-1.0, 1.0], size=(2, 200_000))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.0]
    pairs = [(a, b) for a in special for b in special]
    re_part = np.concatenate([re_part, [a for a, _ in pairs]])
    im_part = np.concatenate([im_part, [b for _, b in pairs]])
    want = np.array([abs(complex(a, b)) for a, b in zip(re_part.tolist(), im_part.tolist())])
    got = np.hypot(re_part, im_part)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert math.isfinite(got.max())
