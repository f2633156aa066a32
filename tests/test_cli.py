"""Command-line interface: table schema, determinism, exit codes, and the
sweep/plot/wavefunction/verify flows end to end.
"""

import math
import os

import numpy as np
import pytest

from expscatter import cli, exp_barrier
from expscatter.cli import SWEEP_HEADER, UsageError


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelGrammar:
    def test_exponential(self):
        m = cli.parse_model("exp:v0=2,a=0.5")
        assert m.kind == "exponential" and m.v0 == 2.0 and m.a == 0.5

    def test_shifted(self):
        m = cli.parse_model("expshift:v0=1,a=1,b=-2")
        assert m.kind == "exponential" and m.b == -2.0

    def test_rect_width_is_full_width(self):
        m = cli.parse_model("rect:v0=1,w=2")
        assert m.half_width == 1.0

    def test_free(self):
        assert cli.parse_model("free").kind == "free"

    @pytest.mark.parametrize(
        "text",
        [
            "exp",
            "exp:v0=1",
            "exp:v0=1,a=abc",
            "exp:v0=1,a=1,b=1",
            "exp:v0=1,a=1,v0=3",
            "expshift:v0=1,a=1,b=-800",
            "gauss:v0=1,a=1",
            "rect:v0=1,w=-2",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(UsageError):
            cli.parse_model(text)


class TestSweepTable:
    def make_spec(self, **overrides):
        fields = dict(
            model=cli.parse_model("exp:v0=1,a=1"),
            e_min=0.05,
            e_max=1.0,
            n_points=4,
            spacing="log",
            sides="both",
            methods="both",
            units=exp_barrier.PhysicalParams(v0=1.0, a=1.0, mass=0.5, hbar=1.0),
        )
        fields.update(overrides)
        return cli.SweepSpec(**fields)

    def test_header_and_units_comment(self):
        spec = self.make_spec()
        text = cli.format_sweep_csv(spec, cli.run_sweep(spec))
        lines = text.splitlines()
        assert lines[0] == "# hbar=1 mass=0.5"
        assert lines[1] == SWEEP_HEADER
        assert len(lines) == 2 + 4
        assert text.endswith("\n") and "\r" not in text

    def test_values_follow_closed_form(self):
        spec = self.make_spec(e_min=0.0625, e_max=1.0, n_points=2, spacing="linear")
        rows = cli.run_sweep(spec)
        # E = 0.0625 is q = 0.5 in these units
        t_half, _ = exp_barrier.transmission_reflection(0.5)
        assert rows[0].q == pytest.approx(0.5, rel=1e-14)
        assert rows[0].t_analytic == pytest.approx(t_half, rel=1e-14)
        assert abs(rows[0].t_numeric - t_half) < 1e-6
        assert rows[0].flux_imbalance < 1e-8

    def test_analytic_only_skips_numeric_columns(self):
        spec = self.make_spec(methods="analytic")
        text = cli.format_sweep_csv(spec, cli.run_sweep(spec))
        row = text.splitlines()[2].split(",")
        names = SWEEP_HEADER.split(",")
        cells = dict(zip(names, row))
        assert cells["T_numeric"] == "NA"
        assert cells["wronskian_drift"] == "NA"
        assert cells["T_analytic"] != "NA"

    def test_analytic_invalid_for_rect(self):
        with pytest.raises(UsageError):
            self.make_spec(model=cli.parse_model("rect:v0=1,w=2"), methods="both")

    def test_free_sweep_is_transparent(self):
        spec = self.make_spec(model=cli.parse_model("free"), methods="numeric")
        rows = cli.run_sweep(spec)
        for row in rows:
            assert row.q is None and row.t_analytic is None
            assert row.t_numeric == pytest.approx(1.0, abs=1e-10)

    def test_row_error_marks_row_and_continues(self):
        # first energies sit below the long-wave cutoff and must fail
        # per-row without killing the sweep
        spec = self.make_spec(e_min=1e-8, e_max=1.0, n_points=5, methods="numeric")
        rows = cli.run_sweep(spec)
        assert rows[0].error is not None and rows[0].t_numeric is None
        assert rows[-1].error is None and rows[-1].t_numeric is not None
        text = cli.format_sweep_csv(spec, rows)
        assert "# row-error:" in text
        errored = text.splitlines()[2]
        assert errored.split(",")[2] == "NA"
        # the table still parses; bad rows carry NA cells
        parsed = cli.parse_sweep_table(text.splitlines())
        assert len(parsed) == 5

    def test_invariants(self):
        with pytest.raises(UsageError):
            self.make_spec(e_min=-1.0)
        with pytest.raises(UsageError):
            self.make_spec(e_min=2.0, e_max=1.0)
        with pytest.raises(UsageError):
            self.make_spec(n_points=1)
        with pytest.raises(UsageError):
            self.make_spec(spacing="cubic")


class TestParseSweepTable:
    def test_round_trip(self):
        spec = TestSweepTable().make_spec(n_points=3)
        text = cli.format_sweep_csv(spec, cli.run_sweep(spec))
        rows = cli.parse_sweep_table(text.splitlines())
        assert len(rows) == 3
        assert rows[0]["E"] == pytest.approx(0.05)
        assert rows[0]["T_analytic"] is not None

    def test_reports_line_number_for_bad_header(self):
        with pytest.raises(UsageError, match="line 1"):
            cli.parse_sweep_table(["E,q,bogus"])

    def test_reports_line_number_for_short_row(self):
        with pytest.raises(UsageError, match="line 2"):
            cli.parse_sweep_table([SWEEP_HEADER, "1.0,2.0"])

    def test_reports_line_number_for_bad_cell(self):
        row = ",".join(["1.0"] * 11 + ["oops"])
        with pytest.raises(UsageError, match="line 3"):
            cli.parse_sweep_table([SWEEP_HEADER, ",".join(["1.0"] * 12), row])

    def test_empty_input_rejected(self):
        with pytest.raises(UsageError, match="header"):
            cli.parse_sweep_table([])


class TestCommands:
    def test_sweep_deterministic_bytes(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.05", "--emax", "1.0",
                "--n", "4", "--out"]
        assert cli.main(args + [str(out_a)]) == 0
        assert cli.main(args + [str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("model", ["exp:v0=1,a=1", "rect:v0=1,w=2"])
    def test_both_sides_share_one_basis(self, model, capsys):
        # --side both matches both sides on one basis per energy; its phase
        # cells must be byte-identical to those of one-sided runs
        args = ["sweep", "--model", model, "--emin", "0.1", "--emax", "2", "--n", "3",
                "--method", "numeric", "--side"]
        rows = {}
        for side in ("both", "left", "right"):
            code, out, _ = run_cli(args + [side], capsys)
            assert code == 0
            rows[side] = [line.split(",") for line in out.splitlines()[2:]]
        names = SWEEP_HEADER.split(",")
        for side in ("left", "right"):
            for name in (f"phi_{side}", f"theta_{side}"):
                col = names.index(name)
                shared = [row[col] for row in rows["both"]]
                assert len(shared) == 3 and "NA" not in shared
                assert shared == [row[col] for row in rows[side]]

    def test_sweep_plot_round_trip(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        svg_a = tmp_path / "a.svg"
        svg_b = tmp_path / "b.svg"
        code, _, _ = run_cli(
            ["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.05", "--emax", "2.0",
             "--n", "5", "--out", str(csv_path)],
            capsys,
        )
        assert code == 0
        assert cli.main(["plot", str(csv_path), "--out", str(svg_a)]) == 0
        assert cli.main(["plot", str(csv_path), "--out", str(svg_b)]) == 0
        capsys.readouterr()
        data = svg_a.read_bytes()
        assert data == svg_b.read_bytes()
        assert data.count(b"<polyline") == 2

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(["sweep", "--model", "exp:v0=1,a=1", "--emin", "1.0",
                                "--emax", "0.1"], capsys)
        assert code == 1 and "emin" in err

    def test_argparse_errors_mapped_to_one(self, capsys):
        code, _, _ = run_cli(["sweep", "--model"], capsys)
        assert code == 1
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_bad_model_exit_code(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--model", "exp:v0=1", "--emin", "0.1", "--emax", "1.0"], capsys
        )
        assert code == 1 and "missing" in err

    def test_plot_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["plot", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")],
            capsys,
        )
        assert code == 1 and "cannot read" in err

    def test_plot_parse_error_has_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(SWEEP_HEADER + "\n1.0,2.0\n", encoding="utf-8")
        out = tmp_path / "x.svg"
        code, _, err = run_cli(["plot", str(bad), "--out", str(out)], capsys)
        assert code == 1 and "line 2" in err
        assert not out.exists()

    def test_plot_empty_data_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        row = ",".join(["1.0"] + ["NA"] * 11)
        empty.write_text(SWEEP_HEADER + "\n" + row + "\n", encoding="utf-8")
        out = tmp_path / "x.svg"
        code, _, err = run_cli(["plot", str(empty), "--out", str(out)], capsys)
        assert code == 1 and "empty data region" in err
        assert not out.exists()

    def test_wavefunction_free_has_unit_modulus(self, capsys):
        code, out, _ = run_cli(
            ["wavefunction", "--model", "free", "--energy", "1.0",
             "--xmin", "-2", "--xmax", "2", "--n", "9"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x,re_psi,im_psi,abs_psi,flux"
        for line in lines[2:]:
            cells = [float(c) for c in line.split(",")]
            assert cells[3] == pytest.approx(1.0, abs=1e-10)

    def test_wavefunction_flux_constant_exponential(self, capsys):
        code, out, _ = run_cli(
            ["wavefunction", "--model", "exp:v0=1,a=1", "--energy", "0.25",
             "--xmin", "-8", "--xmax", "2", "--n", "21"],
            capsys,
        )
        assert code == 0
        flux = [float(line.split(",")[4]) for line in out.splitlines()[2:]]
        assert max(flux) - min(flux) < 1e-8 * abs(flux[0])

    def test_wavefunction_analytic_envelope_far_left(self, capsys):
        # deep in the tail |psi| oscillates between 1 +- |r|
        q = 0.5
        code, out, _ = run_cli(
            ["wavefunction", "--model", "exp:v0=1,a=1", "--energy", str(q * q / 4.0),
             "--xmin", "-60", "--xmax", "-20", "--n", "2001"],
            capsys,
        )
        assert code == 0
        mods = np.array([float(line.split(",")[3]) for line in out.splitlines()[2:]])
        r = math.exp(-math.pi * q)
        assert mods.max() == pytest.approx(1.0 + r, abs=2e-3)
        assert mods.min() == pytest.approx(1.0 - r, abs=2e-3)

    def test_wavefunction_numeric_matches_analytic(self, capsys):
        common = ["--model", "exp:v0=1,a=1", "--energy", "0.25",
                  "--xmin", "-4", "--xmax", "1", "--n", "6"]
        code_a, out_a, _ = run_cli(["wavefunction"] + common + ["--method", "analytic"], capsys)
        code_n, out_n, _ = run_cli(["wavefunction"] + common + ["--method", "numeric"], capsys)
        assert code_a == 0 and code_n == 0
        for la, ln in zip(out_a.splitlines()[2:], out_n.splitlines()[2:]):
            ca = [float(v) for v in la.split(",")]
            cn = [float(v) for v in ln.split(",")]
            assert ca[0] == pytest.approx(cn[0], abs=1e-9)
            assert ca[1] == pytest.approx(cn[1], abs=1e-6)
            assert ca[2] == pytest.approx(cn[2], abs=1e-6)

    @pytest.mark.parametrize("b", [0.5, -0.5])
    def test_wavefunction_expshift_folds_shift_once(self, b, capsys):
        # expshift:v0,a,b is exp:v0 e^{-b/a},a; the analytic lane must not
        # shift the grid by b a second time
        window = ["--energy", "0.25", "--xmin", "-4", "--xmax", "1", "--n", "6"]
        shifted = ["wavefunction", "--model", f"expshift:v0=1,a=1,b={b!r}"] + window
        folded = ["wavefunction", "--model", f"exp:v0={math.exp(-b)!r},a=1"] + window
        code_s, out_s, _ = run_cli(shifted + ["--method", "analytic"], capsys)
        code_f, out_f, _ = run_cli(folded + ["--method", "analytic"], capsys)
        code_n, out_n, _ = run_cli(shifted + ["--method", "numeric"], capsys)
        assert code_s == code_f == code_n == 0
        assert out_s == out_f
        rows_a, rows_n = out_s.splitlines()[2:], out_n.splitlines()[2:]
        assert len(rows_a) == len(rows_n) == 6
        for la, ln in zip(rows_a, rows_n):
            ca = [float(v) for v in la.split(",")]
            cn = [float(v) for v in ln.split(",")]
            assert ca[0] == pytest.approx(cn[0], abs=1e-9)
            assert ca[1] == pytest.approx(cn[1], abs=1e-6)
            assert ca[2] == pytest.approx(cn[2], abs=1e-6)

    def test_wavefunction_series_domain_exit_code(self, capsys):
        code, _, err = run_cli(
            ["wavefunction", "--model", "exp:v0=1,a=1", "--energy", "0.25",
             "--xmin", "-2", "--xmax", "40", "--n", "5"],
            capsys,
        )
        assert code == 2 and "series" in err

    def test_units_flags_change_reduction(self, capsys):
        # same model, heavier mass: q = sqrt(8 m E) a changes accordingly
        code, out, _ = run_cli(
            ["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.5", "--emax", "1.0",
             "--n", "2", "--spacing", "linear", "--method", "analytic",
             "--mass", "2.0"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# hbar=1 mass=2"
        first = lines[2].split(",")
        assert float(first[1]) == pytest.approx(math.sqrt(8.0 * 2.0 * 0.5), rel=1e-12)

    def test_v0_override_flag(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--model", "exp:v0=1,a=1", "--v0", "4.0", "--emin", "0.25",
             "--emax", "1.0", "--n", "2", "--spacing", "linear",
             "--method", "analytic"],
            capsys,
        )
        assert code == 0
        # q depends only on E and a, never v0: the override must not move it
        q_cell = float(out.splitlines()[2].split(",")[1])
        assert q_cell == pytest.approx(2.0 * math.sqrt(2.0 * 0.5 * 0.25), rel=1e-12)

    @pytest.mark.parametrize(
        "descriptor, flags, written",
        [
            ("exp:v0=1,a=1", ["--v0", "4.0", "--a", "0.5"], "exp:v0=4,a=0.5"),
            ("exp:v0=1,a=1", ["--a", "0.5"], "exp:v0=1,a=0.5"),
            ("expshift:v0=1,a=1,b=0.3", ["--v0", "2.5", "--a", "0.8"],
             "expshift:v0=2.5,a=0.8,b=0.3"),
            ("rect:v0=1,w=2", ["--v0", "2"], "rect:v0=2,w=2"),
        ],
    )
    def test_override_flags_equal_written_fields(self, descriptor, flags, written, capsys):
        # numeric cells depend on v0 through the window and the series; the
        # flags must give exactly what writing the values in the descriptor
        # gives
        method = "both" if descriptor.startswith("exp") else "numeric"
        sweep = ["--emin", "0.1", "--emax", "1.0", "--n", "3", "--method", method]
        got = run_cli(["sweep", "--model", descriptor, *flags, *sweep], capsys)
        want = run_cli(["sweep", "--model", written, *sweep], capsys)
        assert got[0] == 0 and got == want

    @pytest.mark.parametrize(
        "model, flags",
        [
            ("rect:v0=1,w=2", ["--a", "3"]),
            ("rect:v0=1,w=2", ["--v0", "2", "--a", "3"]),
            ("free", ["--v0", "2"]),
        ],
    )
    def test_override_flag_the_model_lacks_refused(self, model, flags, capsys):
        code, out, err = run_cli(
            ["sweep", "--model", model, *flags, "--emin", "0.1", "--emax", "1.0",
             "--n", "2", "--method", "numeric"],
            capsys,
        )
        assert code == 1 and out == ""
        assert "do not apply" in err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["sweep", "--model", "exp:v0=1,a=1,v0=3", "--emin", "0.1", "--emax", "1.0",
              "--n", "3"], "'v0' is given twice"),
            (["sweep", "--model", "expshift:v0=1,a=1,b=-800", "--emin", "0.1",
              "--emax", "1.0", "--n", "3", "--method", "numeric"], "b = -800.0"),
            (["sweep", "--model", "expshift:v0=1,a=1,b=1e308", "--emin", "0.1",
              "--emax", "1.0", "--n", "3", "--method", "numeric"], "b = 1e+308"),
            (["wavefunction", "--method", "numeric", "--model", "rect:v0=1,w=2",
              "--energy", "0.5", "--xmin", "-3", "--xmax", "inf"], "finite x_left"),
            (["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.1", "--emax", "inf",
              "--n", "3"], "--emax must be finite"),
            (["sweep", "--model", "exp:v0=1,a=1", "--emin", "nan", "--emax", "1.0",
              "--n", "3"], "--emin must be finite"),
        ],
    )
    def test_bad_input_refused_cleanly(self, argv, needle, capsys):
        # one `error:` line naming the culprit, exit 1, nothing on stdout
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_verify_exit_zero(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "13/13 checks passed" in out
