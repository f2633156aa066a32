"""Command-line interface: table schema, determinism, exit codes, and the
sweep/plot/wavefunction/verify flows end to end.
"""

import ast
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from expscatter import cli, exp_barrier, numeric_scatter, potentials, verification
from expscatter.cli import SWEEP_HEADER, UsageError
from expscatter.errors import DomainError


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestModelGrammar:
    def test_exponential(self):
        m = cli.parse_model("exp:v0=2,a=0.5")
        assert type(m) is potentials.Exponential and m.v0 == 2.0 and m.a == 0.5

    def test_shifted(self):
        # the offset folds into the depth: v0 e^{-b/a} = e^2
        m = cli.parse_model("expshift:v0=1,a=1,b=-2")
        assert type(m) is potentials.Exponential and m.v0 == math.exp(2.0) and m.a == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--emin", "0.05", "--emax", "5", "--n", "6", "--method", "both"],
            ["wavefunction", "--method", "numeric", "--energy", "0.7",
             "--xmin", "-10", "--xmax", "3", "--n", "21"],
        ],
        ids=["sweep", "wavefunction"],
    )
    def test_offset_is_the_folded_depth(self, argv, capsys):
        # expshift with offset b is exp with depth v0 e^{-b/a}: the same bytes
        shifted = run_cli([*argv, "--model", "expshift:v0=1,a=1,b=0.3"], capsys)
        folded = run_cli([*argv, "--model", f"exp:v0={math.exp(-0.3)!r},a=1"], capsys)
        assert shifted[0] == 0 and "row-error" not in shifted[1]
        assert shifted == folded

    def test_rect_width_whose_half_underflows_refused_under_its_own_name(self, capsys):
        # its half width was refused before: "half_width must be ... got 0.0"
        with pytest.raises(UsageError, match="^w = 5e-324 is too small: its half width w/2 "
                                             "underflows to 0$"):
            cli.parse_model("rect:v0=1,w=5e-324")
        assert cli.parse_model("rect:v0=1,w=1e-323").half_width == 5e-324

    def test_rect_width_is_full_width(self):
        m = cli.parse_model("rect:v0=1,w=2")
        assert m.half_width == 1.0

    @pytest.mark.parametrize("w, shown", [("-2", "-2.0"), ("nan", "nan"), ("inf", "inf")])
    def test_rect_width_refused_under_its_own_name(self, w, shown, capsys):
        # not as the half width the model stores (half_width ... -1.0 before)
        with pytest.raises(UsageError, match=f"^w must be finite and > 0, got {shown}$"):
            cli.parse_model(f"rect:v0=1,w={w}")
        code, out, err = run_cli(["sweep", "--model", f"rect:v0=1,w={w}", "--emin", "0.1",
                                  "--emax", "1", "--method", "numeric"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: w must be finite and > 0, got {shown}\n"

    def test_free(self):
        assert cli.parse_model("free") == potentials.rectangular(0.0, 3.0)

    @pytest.mark.parametrize(
        "text",
        [
            "exp",
            "exp:v0=1",
            "exp:v0=1,a=abc",
            "exp:v0=1,a=1,b=1",
            "exp:v0=1,a=1,v0=3",
            "gauss:v0=1,a=1",
            "rect:v0=1,w=-2",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(UsageError):
            cli.parse_model(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("expshift:v0=1,a=1,b=-800", "offset b = -800.0 makes the depth"),
            ("exp:v0=-1,a=1", "v0 must be finite and > 0, got -1.0"),
        ],
        ids=["expshift:v0=1,a=1,b=-800", "exp:v0=-1,a=1"],
    )
    def test_model_refusal_passes_through(self, text, message):
        # the model's own refusal reaches main as it is, not re-wrapped
        with pytest.raises(DomainError, match=f"^{re.escape(message)}") as caught:
            cli.parse_model(text)
        assert not isinstance(caught.value, UsageError)


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
            units=potentials.Units(mass=0.5, hbar=1.0),
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
        table = cli.run_sweep(spec)
        # E = 0.0625 is q = 0.5 in these units
        t_half, _ = exp_barrier.transmission_reflection(0.5)
        assert table["q"][0] == pytest.approx(0.5, rel=1e-14)
        assert table["T_analytic"][0] == pytest.approx(t_half, rel=1e-14)
        assert abs(table["T_numeric"][0] - t_half) < 1e-6
        assert table["flux_imbalance"][0] < 1e-8

    def test_analytic_only_skips_numeric_columns(self):
        spec = self.make_spec(methods="analytic")
        text = cli.format_sweep_csv(spec, cli.run_sweep(spec))
        row = text.splitlines()[2].split(",")
        names = SWEEP_HEADER.split(",")
        cells = dict(zip(names, row))
        assert cells["T_numeric"] == "NA"
        assert cells["wronskian_drift"] == "NA"
        assert cells["T_analytic"] != "NA"

    def test_analytic_invalid_for_rect(self, capsys):
        # refused before any row runs, naming the model as it was written
        argv = ["sweep", "--model", "rect:v0=1,w=2", "--emin", "0.05", "--emax", "1"]
        assert run_cli(argv, capsys) == (
            1, "", "error: analytic method is not defined for the 'rect' model\n")

    def test_free_sweep_is_transparent(self):
        spec = self.make_spec(model=cli.parse_model("free"), methods="numeric")
        table = cli.run_sweep(spec)
        assert table["q"] == table["T_analytic"] == [None] * 4
        for t_numeric in table["T_numeric"]:
            assert t_numeric == pytest.approx(1.0, abs=1e-10)

    def test_row_error_marks_row_and_continues(self):
        # the first energy's q = 2e-9 is at or below Q_MIN = 1e-8, where the
        # numeric lane refuses as the closed forms do, and must fail per-row
        # without killing the sweep
        spec = self.make_spec(e_min=1e-18, e_max=1.0, n_points=5, methods="numeric")
        table = cli.run_sweep(spec)
        assert table["error"][0] is not None and table["T_numeric"][0] is None
        assert table["error"][-1] is None and table["T_numeric"][-1] is not None
        text = cli.format_sweep_csv(spec, table)
        assert "# row-error:" in text
        errored = text.splitlines()[2]
        assert errored.split(",")[2] == "NA"
        # the table still parses; bad rows carry NA cells
        parsed = cli.parse_sweep_table(text.splitlines())
        assert len(parsed["E"]) == 5 and parsed["T_analytic"][0] is None

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
        table = cli.parse_sweep_table(text.splitlines())
        assert len(table["E"]) == 3
        assert table["E"][0] == pytest.approx(0.05)
        assert table["T_analytic"][0] is not None

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.5", "--emax", "1", "--n", "2"],
            ["wavefunction", "--model", "free", "--energy", "1", "--xmin", "-1", "--xmax", "1"],
            ["verify"],
            ["plot", "SWEEP"],
        ],
        ids=["sweep", "wavefunction", "verify", "plot"],
    )
    def test_out_into_missing_directory_refused(self, argv, tmp_path, capsys, monkeypatch):
        table = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.5", "--emax", "1",
                         "--n", "2", "--out", str(table)]) == 0

        def computed(*args, **kwargs):
            raise AssertionError("computed before --out was checked")

        # refused before any work: every command's computation is out of reach
        for owner, name in ((cli, "run_sweep"), (cli, "render_sweep_chart"),
                            (verification, "run_all"), (numeric_scatter, "integrate_ends")):
            monkeypatch.setattr(owner, name, computed)
        argv = [str(table) if arg == "SWEEP" else arg for arg in argv]
        (tmp_path / "adir").mkdir()
        for target, reason in ((tmp_path / "missing" / "out.txt", "No such file or directory"),
                               (tmp_path / "adir", "Is a directory")):
            code, out, err = run_cli([*argv, "--out", str(target)], capsys)
            assert code == 1 and out == ""
            assert err == f"error: cannot write {str(target)!r}: {reason}\n"
        assert not (tmp_path / "missing").exists()
        assert list((tmp_path / "adir").iterdir()) == []

    def test_out_check_leaves_an_existing_file_alone(self, tmp_path, capsys):
        # a command refused after the --out check neither creates nor truncates
        existing, fresh = tmp_path / "keep.csv", tmp_path / "fresh.csv"
        existing.write_text("keep\n", encoding="utf-8")
        for target in (existing, fresh):
            code, _, err = run_cli(["sweep", "--model", "exp:v0=1,a=1", "--emin", "1",
                                    "--emax", "0.1", "--out", str(target)], capsys)
            assert code == 1 and "emin" in err
        assert existing.read_text(encoding="utf-8") == "keep\n"
        assert not fresh.exists()

    # the free pins were frozen before the free model became a zero-height
    # rectangle, the rect pins before the matcher measured its fluxes, the
    # E == v0 pin before sweep rows stopped building the node array; the
    # three numeric wavefunction pins were re-frozen when psi and its flux
    # came to be formed in real arithmetic at the printed nodes only (they
    # moved by <= 3.2e-16 relative in psi and <= 4.2e-16 in flux).  All six
    # were re-frozen when one Wronskian projection came to read both plane
    # ends; the largest cell moves were, in order: free sweep |dR| 6.7e-32
    # (phi by up to 0.32 rad, the phase of an |r| near 1e-16: |r dphi| 1.1e-16);
    # free wavefunctions psi 3.3e-16 and 1.1e-16 of abs_psi, flux 7.8e-16
    # and 2.7e-16 relative; rect sweep |dT|, |dR| 4.4e-16, |r dphi| 2.2e-16;
    # rect wavefunction psi 6.5e-16 of abs_psi, flux 1.0e-15 relative; the
    # E == v0 pin |dT| and flux_imbalance 1.1e-16.  All six were re-frozen
    # again when each row got its graded grid, steps kh min(l, 1/K) with l
    # the window length for these models: the wavefunctions now print the
    # requested x, each one RK4 step from its node below, not the nodes
    # they snapped to.  Against the exact answers, uniform -> graded: free
    # sweep |dT| 0 -> 2.9e-13, drift 1.1e-12 -> 2.7e-13; free wavefunctions
    # |psi - e^{ikx}| 4.9e-13 -> 8.1e-12 and 3.3e-13 -> 3.9e-12, flux spread
    # 9.9e-13 -> 1.4e-14 and 2.7e-13 -> 3.6e-14; rect sweep |dT| 7.8e-16 ->
    # 4.0e-13; rect wavefunction flux spread 2.7e-13 -> 4.3e-14; the E == v0
    # pin |dT| 2.5e-16 -> 3.6e-13.  The three sweeps were re-frozen when T
    # came to be read off W[u, v] as the march carries it (1 plus the sum of
    # det M - 1 over the steps from the seed) and the drift became the sum
    # of |det M - 1|; the wavefunctions did not move.  Largest moves: T and
    # flux_imbalance 4.9e-13 (free), 1.6e-13 (rect), 1.9e-14 (E == v0);
    # drift 2.4e-13, 9.1e-14 and 1.7e-14; theta 1.3e-15; R and phi none.
    # The three wavefunctions were re-frozen when their flux came to be
    # formed as Im(conj(a_u) a_v) W[u, v]: only the flux cells moved, by at
    # most 3.3e-16, 4.0e-16 and 4.1e-16 of the mean; against the exact flux
    # they read 1.35e-14, 9.5e-14 and 1.3e-12 (1.37e-14, 9.5e-14, 1.3e-12).
    # All eight were re-frozen when the march came to multiply its steps
    # pairwise, each kept as M - I: the largest moves were T_numeric and
    # flux_imbalance 4.9e-13 (free sweep, now within 1.6e-15 of 1), 1.7e-13
    # (rect), 2.2e-14 (E == v0), 1.9e-12 relative (deep rect); theta 9.0e-15,
    # phi 1.8e-14 where R is not round-off; psi 4.0e-14 and flux 1.4e-13
    # (free wavefunctions), psi 2.8e-14 and flux 2.0e-14 (rect); the drift
    # not at all
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["sweep", "--model", "free", "--emin", "0.1", "--emax", "3", "--n", "20",
              "--method", "numeric"],
             "d19d2616f6bb4111a79bc0e1870736addaf3114496a946931365eccef16802df"),
            (["wavefunction", "--model", "free", "--energy", "1.0", "--xmin", "-6",
              "--xmax", "6", "--n", "300"],
             "1a943f9569fb023abb7c40d0c51801125d6e6bd234d09c3c0a91c0b8eecb07be"),
            (["wavefunction", "--model", "free", "--energy", "0.7", "--side", "right",
              "--xmin", "-2", "--xmax", "2"],
             "c1e25bcc9975435dd68383791c93a05c76add0b75346912d7a3f47802b2435b1"),
            (["sweep", "--model", "rect:v0=1,w=2", "--emin", "0.01", "--emax", "5", "--n", "20",
              "--method", "numeric"],
             "ee43dc683aa29c29582b884c6401682d19768502dd624ebcf1bcce0ba42560e8"),
            (["wavefunction", "--model", "rect:v0=1,w=2", "--energy", "0.7", "--side", "right",
              "--xmin", "-3", "--xmax", "3", "--n", "50"],
             "70545a66eada96785de2202ba9da50911b39dd9b6eaa652d0624c07f86dadf17"),
            # E == v0 on the second row: g is exactly zero inside the barrier
            (["sweep", "--model", "rect:v0=1,w=2", "--emin", "0.5", "--emax", "1", "--n", "2",
              "--spacing", "linear", "--method", "numeric"],
             "19964d8429204dc44b48e58249c2ddca2b6f072e9037b46bad52b28e0f515d71"),
            # a rectangle's window and plane waves do not depend on E: these
            # two digests were taken before each exponential row got its own
            # window and its plane wave a tail term
            (["wavefunction", "--model", "rect:v0=1,w=2", "--energy", "0.7",
              "--xmin", "-3", "--xmax", "3", "--n", "50"],
             "313a004b62cdedeb529f90da8c5cc0c48e5a40b7d54fdcc36c54a9f84bdb0590"),
            (["sweep", "--model", "rect:v0=50,w=4", "--emin", "1", "--emax", "40", "--n", "9",
              "--spacing", "linear", "--method", "numeric"],
             "04071602bb41a2c4799dc90564568e969b080d681d41fec2d654e2782d999761"),
        ],
        ids=["sweep", "wavefunction-left", "wavefunction-right", "rect-sweep",
             "rect-wavefunction-right", "rect-sweep-at-v0", "rect-wavefunction-left",
             "deep-rect-sweep"],
    )
    def test_free_output_bytes_unchanged(self, argv, digest, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.01", "--emax", "5", "--n", "200",
              "--method", "analytic"],
             "43094484c02c4cfe4f5e82d683d31236501f498b09da6b5d53e5e6ed677d831d"),
            (["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.01", "--emax", "5", "--n", "20",
              "--method", "numeric"],
             "0ee0e66637f3bea5d0267be52c09408414a1d757032a5dc3a2091f574cf91507"),
        ],
        ids=["readme-analytic", "readme-numeric-n20"],
    )
    def test_readme_sweep_bytes_unchanged(self, argv, digest, capsys):
        # the inline cell format and the numeric lane move no byte; the
        # numeric pin was re-frozen when T came to be read off the march's
        # W[u, v] and the drift off its dets: T moved <= 2.4e-14,
        # flux_imbalance 2.1e-14, the drift 2.4e-14, theta 2.2e-16; and
        # again when H1 stopped overflowing past q ~ 151: T moved <= 5.6e-16,
        # R 1.7e-16, flux_imbalance 5.6e-16, theta 4.4e-16, phi 5.3e-14
        # where R >= 1e-6 (1.2e-10 where R is round-off), the drift not at all;
        # and again when each row's window came to start where |V| = 1e-6 E,
        # with the tail term on its plane wave, and to match at z = 8: T and
        # R moved <= 6.3e-9 (the old window's error), theta 1.4e-8, phi 1.0e-4
        # (where R is round-off), flux_imbalance 4.7e-14, the drift 5.9e-14;
        # and again when the march came to multiply its steps pairwise, each
        # kept as M - I: T moved <= 1.8e-14, R 1.5e-15, flux_imbalance
        # 1.3e-14, theta 3.0e-15, phi 2.4e-12 where R >= 1e-6 (2.1e-9 where
        # R is round-off), the drift not at all.
        # The analytic pin was re-frozen when its phases came to be read as
        # the arguments of the amplitudes, not summed from alpha and beta:
        # phi_left moved <= 6.8e-16 (70 rows), theta_left 2.2e-16 (79 rows),
        # theta_right 4.4e-16 (98 rows); q, T, R and phi_right not at all
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_readme_plot_bytes_unchanged(self, tmp_path, capsys):
        # the chart's coordinates, computed once per energy, move no byte
        table, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        argv = ["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.01", "--emax", "5",
                "--n", "200", "--method", "analytic", "--out", str(table)]
        assert run_cli(argv, capsys) == (0, "", "")
        assert run_cli(["plot", str(table), "--out", str(svg)], capsys) == (0, "", "")
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "8806311832d8c1ec05c835a4d4a16135c72b96970be9984221c9044a0a8d752a")

    def test_plot_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["plot", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")],
            capsys,
        )
        assert code == 1 and "cannot read" in err

    def test_plot_file_not_utf8(self, tmp_path, capsys):
        bad, out = tmp_path / "bad.csv", tmp_path / "x.svg"
        bad.write_bytes(b"\xff\xfe")
        code, _, err = run_cli(["plot", str(bad), "--out", str(out)], capsys)
        assert code == 1 and err.startswith(f"error: cannot read {str(bad)!r}: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("energy, spacing", [("nan", "log"), ("inf", "linear")])
    def test_plot_non_finite_energy_writes_nothing(self, energy, spacing, tmp_path, capsys):
        # the energy axis spans every row, so a non-finite E would put nan
        # coordinates into the SVG; the chart refuses it by name
        table = tmp_path / "sweep.csv"
        rows = [[e, "NA", t, r] + ["NA"] * 8
                for e, t, r in (("0.1", "0.2", "0.8"), (energy, "0.6", "0.4"), ("1.0", "0.9", "0.1"))]
        table.write_text("\n".join([SWEEP_HEADER, *(",".join(row) for row in rows)]) + "\n",
                         encoding="utf-8")
        out = tmp_path / "x.svg"
        argv = ["plot", str(table), "--spacing", spacing, "--out", str(out)]
        assert run_cli(argv, capsys) == (1, "", f"error: energies must be finite, got {energy}\n")
        assert not out.exists()

    def test_plot_of_energies_past_a_float_apart_writes_nothing(self, tmp_path, capsys):
        # on a linear axis the span hi - lo of E = -1e308 and 1e308
        # overflows, which put nan coordinates into the SVG with exit 0
        table = tmp_path / "sweep.csv"
        rows = [[e, "NA", t, r] + ["NA"] * 8 for e, t, r in (("-1e308", "0.2", "0.8"),
                                                              ("1e308", "0.9", "0.1"))]
        table.write_text("\n".join([SWEEP_HEADER, *(",".join(row) for row in rows)]) + "\n",
                         encoding="utf-8")
        out = tmp_path / "x.svg"
        argv = ["plot", str(table), "--spacing", "linear", "--out", str(out)]
        assert run_cli(argv, capsys) == (1, "", "error: energies -1e+308 and 1e+308 are too far "
                                                "apart: their span overflows\n")
        assert not out.exists()

    def test_free_sweep_transmits_to_round_off(self, capsys):
        # V = 0: T = 1, which the march's W[u, v] keeps to 2e-15 (4.9e-13
        # when each step was stored as M, and 1 + a rounded)
        code, out, err = run_cli(["sweep", "--model", "free", "--emin", "0.1", "--emax", "3",
                                  "--n", "20", "--method", "numeric"], capsys)
        assert (code, err) == (0, "")
        t_numeric = cli.parse_sweep_table(out.splitlines())["T_numeric"]
        assert len(t_numeric) == 20 and max(abs(t - 1.0) for t in t_numeric) <= 1e-14

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

    @pytest.mark.parametrize(
        "model, energy, xmin, xmax",
        [("exp:v0=200,a=1", "1", "-5", "0"), ("exp:v0=200,a=1", "1", "-5", "1"),
         ("exp:v0=1,a=1", "0.25", "-20", "5.5")],
    )
    def test_wavefunction_numeric_window_past_z12(self, model, energy, xmin, xmax, capsys):
        # the windows reach z = 28, 47 and 31; the right end still matches at
        # z = 8 (a series range error or a 2.7e-6 error in T before)
        code, out, err = run_cli(
            ["wavefunction", "--method", "numeric", "--model", model, "--energy", energy,
             "--xmin", xmin, "--xmax", xmax, "--n", "50"],
            capsys,
        )
        assert (code, err) == (0, "")
        flux = np.array([float(line.split(",")[4]) for line in out.splitlines()[2:]])
        assert np.ptp(flux) <= 1e-9 * abs(flux.mean())
        # unit incident wave: flux = T hbar k / m, and q = 2ka = hbar k / m here
        q = 2.0 * math.sqrt(float(energy))
        t_exact, _ = exp_barrier.transmission_reflection(q)
        assert abs(flux.mean() / q - t_exact) <= 1e-9

    def test_wavefunction_numeric_prints_each_requested_x(self, capsys):
        # 400 requested x on [0, 1e-3], 2.5e-6 apart, are each read from the
        # node below (they snapped to the 3 nodes 0, 5e-4, 1e-3 of the
        # uniform step a/2000 before): both methods print the same x
        argv = ["wavefunction", "--model", "exp:v0=1,a=1", "--energy", "0.5",
                "--xmin", "0", "--xmax", "0.001", "--n", "400", "--method"]
        code_n, out_n, _ = run_cli(argv + ["numeric"], capsys)
        code_a, out_a, _ = run_cli(argv + ["analytic"], capsys)
        assert code_n == code_a == 0
        xs = [[line.split(",")[0] for line in out.splitlines()[2:]] for out in (out_n, out_a)]
        assert xs[0] == xs[1] and len(xs[0]) == 400
        assert [float(x) for x in xs[0]] == np.linspace(0.0, 1e-3, 400).tolist()

    def test_wavefunction_both_methods_print_the_requested_x(self, capsys):
        # the analytic method printed (x / a) * a, which at a = 0.3 differed
        # from the requested x in 69 of these 400 cells
        argv = ["wavefunction", "--model", "exp:v0=1,a=0.3", "--energy", "0.5",
                "--xmin", "-2", "--xmax", "1", "--n", "400", "--method"]
        outs = [run_cli(argv + [method], capsys) for method in ("analytic", "numeric")]
        assert [code for code, _, _ in outs] == [0, 0]
        xs = [[float(line.split(",")[0]) for line in out.splitlines()[2:]] for _, out, _ in outs]
        assert xs[0] == xs[1] == np.linspace(-2.0, 1.0, 400).tolist()

    def test_wavefunction_analytic_past_q151_is_finite(self, capsys):
        # q = 155: e^{q pi} J_{iq} overflowed in H1 and every psi and flux
        # cell was nan; unit incident wave and T = 1 - e^{-2 pi q} = 1, so
        # the flux is hbar k / m = 2 sqrt(E) here
        code, out, err = run_cli(
            ["wavefunction", "--model", "exp:v0=1,a=1", "--energy", "6000",
             "--xmin", "-3", "--xmax", "0", "--n", "50"], capsys)
        assert (code, err) == (0, "")
        rows = np.array([[float(c) for c in line.split(",")] for line in out.splitlines()[2:]])
        assert rows.shape == (50, 5) and np.all(np.isfinite(rows))
        assert np.max(np.abs(rows[:, 4] / (2.0 * math.sqrt(6000.0)) - 1.0)) <= 1e-9

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["sweep", "--model", "expshift:v0=1,a=1,b=-800", "--emin", "0.1", "--emax", "1"], 1,
             "offset b = -800.0 makes the depth v0 * exp(-b/a) = inf; it must be finite "
             "and > 0, so move b toward 0"),
            (["sweep", "--model", "rect:v0=1,w=-2", "--method", "numeric", "--emin", "0.1",
              "--emax", "1"], 1, "w must be finite and > 0, got -2.0"),
            (["plot", "TABLE", "--out", "SVG"], 1, "log axis needs all energies > 0"),
            *[(["wavefunction", "--model", "exp:v0=1,a=1", "--energy", energy, "--xmin", "-1",
                "--xmax", "1", "--method", method], 1,
               f"energy must be finite and > 0, got {shown}")
              for method in ("analytic", "numeric") for energy, shown in (("0", "0.0"),
                                                                          ("nan", "nan"))],
            (["wavefunction", "--model", "exp:v0=1,a=1", "--energy", "0.7", "--xmin", "-30",
              "--xmax", "6", "--n", "30"], 2,
             "z reaches 40.2 beyond the certified series bound 30; keep x/a below 5.42"),
            (["wavefunction", "--model", "exp:v0=1,a=1", "--energy", "1e-300", "--xmin", "-1",
              "--xmax", "1"], 1, "q = 2e-150 at or below the degenerate-order threshold 1e-08"),
            (["sweep", "--model", "exp:v0=1,a=1", "--v0", "4", "--emin", "0.1", "--emax", "1"], 1,
             "unrecognized arguments: --v0 4"),
            # p overflows: both lanes refuse it with the same text
            (["wavefunction", "--method", "numeric", "--model", "exp:v0=1e10,a=1", "--mass",
              "1e300", "--energy", "1", "--xmin", "-1", "--xmax", "1"], 1,
             "p = sqrt(8 m v0 e^(-b/a)) a / hbar = inf is out of range; it must be a finite "
             "float > 0, so rescale v0, a, mass or hbar"),
            # V = -v0 e^x overflows on the grid's table: the one refusal line,
            # no numpy warning before it
            (["wavefunction", "--method", "numeric", "--model", "exp:v0=1e300,a=1", "--energy",
              "1", "--xmin", "-1", "--xmax", "30", "--n", "5"], 1,
             "potential is not finite on the integration grid"),
            # xmin = -1e308 takes the left end out of the rectangle, while
            # the right end, jump + 2, rounds onto the jump at 5e307, where
            # |V| = 1: the right plane-wave check refuses it
            (["wavefunction", "--model", "rect:v0=1,w=1e308", "--energy", "1", "--xmin=-1e308",
              "--xmax", "0", "--n", "5"], 1,
             "|V(x_right)| = 1.000e+00 exceeds ASYMPTOTE_EPSILON * E = 1.000e-06; push x_right "
             "further out, or keep E >= |V(x_right)| / ASYMPTOTE_EPSILON = 1.000e+06"),
            # every row's q overflows the diving end's H1: each row is refused
            (["sweep", "--model", "exp:v0=1,a=1", "--emin", "2e4", "--emax", "1e6", "--n", "3",
              "--method", "numeric", "--out", "TABLE"], 2, "every sweep row failed"),
            # the closed forms cover the exponential family only; the refusal
            # names the model as the user wrote it
            (["sweep", "--model", "free", "--method", "analytic", "--emin", "0.1",
              "--emax", "1"], 1, "analytic method is not defined for the 'free' model"),
            (["wavefunction", "--model", "free", "--method", "analytic", "--energy", "1",
              "--xmin", "-1", "--xmax", "1"], 1,
             "analytic wavefunction is not defined for the 'free' model"),
            (["wavefunction", "--model", " rect:v0=1,w=2", "--method", "analytic",
              "--energy", "1", "--xmin", "-1", "--xmax", "1"], 1,
             "analytic wavefunction is not defined for the 'rect' model"),
            (["wavefunction", "--model", "free", "--energy", "1", "--xmin", "1", "--xmax", "0"],
             1, "need xmin < xmax, got 1.0, 0.0"),
            (["wavefunction", "--model", "free", "--energy", "1", "--xmin", "0", "--xmax", "1",
              "--n", "1"], 1, "need at least 2 grid points, got 1"),
            (["sweep", "--model", "rect:v0=inf,w=1", "--emin", "0.1", "--emax", "1",
              "--method", "numeric"], 1, "v0 must be finite, got inf"),
            # /dev/full passes the --out check and fails the write itself
            pytest.param(["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.1", "--emax", "1",
                          "--n", "3", "--out", "/dev/full"], 1,
                         "cannot write '/dev/full': No space left on device",
                         marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="needs /dev/full")),
        ],
        ids=["expshift-b", "rect-w", "plot-log-axis", "analytic-energy-0", "analytic-energy-nan",
             "numeric-energy-0", "numeric-energy-nan", "analytic-past-series-bound",
             "degenerate-order", "v0-flag", "numeric-p-overflow", "numeric-v-overflow",
             "numeric-plane-end-right", "numeric-q-overflow",
             "analytic-sweep-free", "analytic-wavefunction-free",
             "analytic-wavefunction-rect", "wavefunction-x-order", "wavefunction-one-point",
             "rect-v0-inf", "out-write-fails"],
    )
    def test_refusals_keep_their_text_and_exit_code(self, argv, code, err, tmp_path, capsys):
        # each refusal is raised by the code that knows its condition and
        # mapped to its exit code by main alone: AccuracyError to 2,
        # UsageError and DomainError to 1
        table, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        table.write_text(SWEEP_HEADER + "\n" + ",".join(["-1.0", "NA", "0.5", "0.5"] + ["NA"] * 8)
                         + "\n", encoding="utf-8")
        argv = [{"TABLE": str(table), "SVG": str(svg)}.get(arg, arg) for arg in argv]
        assert run_cli(argv, capsys) == (code, "", f"error: {err}\n")
        assert not svg.exists()

    def test_wavefunction_both_methods_print_each_distinct_x_once(self, capsys):
        # 5 requested x between 1 and the next double are 2 distinct floats;
        # the analytic method refused the repeats as a non-increasing grid
        argv = ["wavefunction", "--model", "exp:v0=1,a=1", "--energy", "1", "--xmin", "1",
                "--xmax", repr(float(np.nextafter(1.0, 2.0))), "--n", "5", "--method"]
        outs = [run_cli(argv + [method], capsys) for method in ("analytic", "numeric")]
        assert [(code, err) for code, _, err in outs] == [(0, ""), (0, "")]
        xs = [[line.split(",")[0] for line in out.splitlines()[2:]] for _, out, _ in outs]
        assert xs[0] == xs[1] == ["1.0000000000000000e+00", "1.0000000000000002e+00"]

    def test_wavefunction_numeric_prints_each_distinct_x_once(self, capsys):
        # 5 requested x within 2 ulps of 1 are 3 distinct floats
        code, out, _ = run_cli(["wavefunction", "--method", "numeric", "--model", "free",
                                "--energy", "1", "--xmin", "1", "--xmax",
                                repr(float(np.nextafter(np.nextafter(1.0, 2.0), 2.0))),
                                "--n", "5"], capsys)
        assert code == 0
        xs = [float(line.split(",")[0]) for line in out.splitlines()[2:]]
        assert xs == sorted(set(xs)) and len(xs) == 3

    def test_wavefunction_to_z180_is_solved(self, capsys):
        # the fixed step a/2000 drifted 7.7e-8 here and the window was
        # refused (exit 2); the graded step keeps K h = kh out to z = 180
        code, out, err = run_cli(
            ["wavefunction", "--method", "numeric", "--model", "exp:v0=1,a=1",
             "--energy", "0.25", "--xmin", "-20", "--xmax", "9"],
            capsys,
        )
        assert (code, err) == (0, "")
        flux = np.array([float(line.split(",")[4]) for line in out.splitlines()[2:]])
        assert flux.size == 201 and np.ptp(flux) <= 1e-9 * abs(flux.mean())
        # unit incident wave: flux = T hbar k / m = T q here, q = 1
        t_exact, _ = exp_barrier.transmission_reflection(1.0)
        assert abs(flux.mean() / 1.0 - t_exact) <= 1e-9

    @pytest.mark.parametrize("energy", ["1", "6.3", "26.5", "30"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_deep_rectangle_wavefunction_refused_at_its_roundoff(self, energy, side, capsys):
        # rect:v0=50,w=4: u and v grow like e^14 each way from the seed, so
        # W formed from the nodes is off 1 by 7e-4 at E = 1 and 1.5e-8 at
        # E = 30 (2.6e-8 when the products were formed in step order), and
        # psi and its flux would carry that; a sweep's T and theta are read
        # without these nodes and solve
        code, out, err = run_cli(
            ["wavefunction", "--model", "rect:v0=50,w=4", "--energy", energy,
             "--xmin", "-4", "--xmax", "4", "--n", "201", "--side", side], capsys)
        assert (code, out) == (2, "")
        assert "round-off where the basis grows" in err and "raise E or narrow" in err

    @pytest.mark.parametrize("energy", ["40", "45", "60"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_deep_rectangle_wavefunction_meets_the_hand_formula(self, energy, side, capsys):
        # rect:v0=50,w=4, m = 1/2, hbar = 1: past the barrier psi = t e^{ikx}
        # up to phase, so |psi| = |t| and the flux is T hbar k / m = 2 k T,
        # each within 1e-9 relative (measured 3e-10); on every row the flux
        # is Im(conj(a_u) a_v) W[u, v], which does not cancel |psi|^2 ~ 1
        # down to T before the barrier (measured 2.7e-10 at E = 40, where
        # Im(conj(psi) psi') read 1.0e-5)
        code, out, err = run_cli(
            ["wavefunction", "--model", "rect:v0=50,w=4", "--energy", energy,
             "--xmin", "-4", "--xmax", "4", "--n", "201", "--side", side], capsys)
        assert (code, err) == (0, "")
        rows = np.array([[float(c) for c in line.split(",")] for line in out.splitlines()[2:]])
        e = float(energy)
        k, kappa = math.sqrt(e), np.sqrt(complex(50.0 - e))
        mix = 1j * (kappa**2 - k**2) / (2.0 * k * kappa)
        t = 1.0 / (np.cosh(4.0 * kappa) + mix * np.sinh(4.0 * kappa))
        flux = rows[:, 4] / (2.0 * k * abs(t) ** 2 * (1.0 if side == "left" else -1.0)) - 1.0
        past = rows[:, 0] > 2.0 if side == "left" else rows[:, 0] < -2.0
        assert len(rows) == 201
        assert np.max(np.abs(rows[past, 3] / abs(t) - 1.0)) <= 1e-9
        assert np.max(np.abs(flux)) <= 1e-9

    def test_low_energy_refusal_names_the_lowest_energy(self, capsys):
        # each row's window starts where |V| = 1e-6 E, so no plane-wave end
        # refuses a row; only q = sqrt(8 m E) a / hbar <= Q_MIN = 1e-8 is,
        # as the closed forms refuse it, naming the least E that solves
        code, out, _ = run_cli(
            ["sweep", "--model", "exp:v0=1,a=1", "--emin", "1e-18", "--emax", "2e-17",
             "--n", "2", "--method", "numeric"],
            capsys,
        )
        assert code == 2
        errors = [line for line in out.splitlines() if line.startswith("# row-error:")]
        assert len(errors) == 2
        assert all(line.endswith(" is at or below Q_MIN = 1e-08, where the diving end's H1 "
                                 "degenerates; raise E to at least 2.5000000000000006e-17")
                   for line in errors)
        low = 2.5000000000000006e-17
        assert numeric_scatter.solve(potentials.exponential(1.0, 1.0), low).t_coeff > 0.0
        with pytest.raises(DomainError, match="at or below Q_MIN"):
            numeric_scatter.solve(potentials.exponential(1.0, 1.0), math.nextafter(low, 0.0))

    def test_low_energy_rows_refused_without_marching(self, monkeypatch, capsys):
        # q <= Q_MIN is refused at the diving end's unit wave, before any
        # RK4 step, and the output keeps its bytes
        monkeypatch.setattr(numeric_scatter, "_march", pytest.fail)
        code, out, err = run_cli(
            ["sweep", "--model", "exp:v0=1,a=1", "--emin", "1e-18", "--emax", "2e-17",
             "--n", "2", "--method", "numeric"],
            capsys,
        )
        assert (code, err) == (2, "error: every sweep row failed\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "05162662afb5922dcdcbadcef1258f581ef415deb34e7ce27f0c117dc6950cb4")

    def test_long_wave_rows_solve_on_both_lanes(self, capsys):
        # q = 6.3e-5 and 2e-4: both lanes solve, within 1e-12 of each other
        code, out, err = run_cli(
            ["sweep", "--model", "exp:v0=1,a=1", "--emin", "1e-9", "--emax", "1e-8",
             "--n", "2"],
            capsys,
        )
        assert (code, err) == (0, "")
        table = cli.parse_sweep_table(out.splitlines())
        assert len(table["E"]) == 2
        assert max(abs(n - a) for n, a in zip(table["T_numeric"], table["T_analytic"])) <= 1e-12

    @pytest.mark.parametrize("model", ["exp:v0=1,a=1", "expshift:v0=200,a=0.5,b=1",
                                       "exp:v0=1e4,a=2"])
    def test_numeric_lane_refuses_what_the_closed_forms_refuse(self, model):
        # from q near 1e-11 to past q pi = 700: a row errs exactly where
        # closed_form_domain is False, on either lane alone, and every other
        # row of the two-lane sweep has all 12 cells
        tables = {}
        for methods in ("both", "numeric"):
            spec = cli.SweepSpec(cli.parse_model(model), 1e-22, 4e4, 80, "log", "both",
                                 methods, potentials.DEFAULT_UNITS)
            tables[methods] = cli.run_sweep(spec)
        params = exp_barrier.reduce_params(spec.model, spec.energies(), spec.units)
        accepted = exp_barrier.closed_form_domain(params.p, params.q).tolist()
        assert 0 < sum(accepted) < 80
        for table in tables.values():
            assert [error is None for error in table["error"]] == accepted
        full = [all(cell is not None for cell in row)
                for row in zip(*(tables["both"][name] for name in cli.SWEEP_COLUMNS))]
        assert full == accepted

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

    @pytest.mark.parametrize(
        "model, flags",
        [
            ("rect:v0=1,w=2", ["--a", "3"]),
            ("rect:v0=1,w=2", ["--v0", "2", "--a", "3"]),
            ("free", ["--v0", "2"]),
        ],
    )
    def test_override_flag_the_model_lacks_refused(self, model, flags, capsys):
        # a model's fields are written only in its descriptor: --v0 and --a
        # are refused by the parser on every model, before anything runs
        code, out, err = run_cli(
            ["sweep", "--model", model, *flags, "--emin", "0.1", "--emax", "1.0",
             "--n", "2", "--method", "numeric"],
            capsys,
        )
        assert (code, out, err) == (1, "", f"error: unrecognized arguments: {' '.join(flags)}\n")

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
              "--energy", "0.5", "--xmin", "-3", "--xmax", "inf"], "--xmax must be finite"),
            (["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.1", "--emax", "inf",
              "--n", "3"], "--emax must be finite"),
            (["sweep", "--model", "exp:v0=1,a=1", "--emin", "nan", "--emax", "1.0",
              "--n", "3"], "--emin must be finite"),
            (["wavefunction", "--method", "analytic", "--model", "exp:v0=1,a=1",
              "--energy", "0.5", "--xmin", "-3", "--xmax", "inf"], "--xmax must be finite"),
            (["wavefunction", "--method", "analytic", "--model", "exp:v0=1,a=1",
              "--energy", "0.5", "--xmin", "nan", "--xmax", "1"], "--xmin must be finite"),
            (["wavefunction", "--method", "numeric", "--model", "exp:v0=1,a=1",
              "--energy", "0.5", "--xmin", "nan", "--xmax", "1"], "--xmin must be finite"),
            (["wavefunction", "--method", "numeric", "--model", "exp:v0=1,a=1",
              "--energy", "0.5", "--xmin=-inf", "--xmax", "1"], "--xmin must be finite"),
            # a^2 overflows: both lanes used to end in an OverflowError traceback
            (["sweep", "--model", "exp:v0=1,a=1e200", "--emin", "1", "--emax", "2",
              "--n", "3", "--method", "analytic"], "a = 1e+200 is out of range"),
            (["sweep", "--model", "exp:v0=1,a=1e200", "--emin", "1", "--emax", "2",
              "--n", "3", "--method", "numeric"], "a = 1e+200 is out of range"),
            (["wavefunction", "--model", "exp:v0=1,a=1e200", "--energy", "1",
              "--xmin", "-1", "--xmax", "1"], "a = 1e+200 is out of range"),
            (["sweep", "--model", "exp:v0=1,a=1e-200", "--emin", "1", "--emax", "2",
              "--n", "3"], "a = 1e-200 is out of range"),
            (["sweep", "--model", "rect:v0=1,w=2", "--hbar", "1e200", "--emin", "1",
              "--emax", "2", "--n", "3", "--method", "numeric"], "hbar = 1e+200 is out of range"),
            # windows too wide for any grid, and p = sqrt(8 m v0) a / hbar out
            # of range: OverflowError, ValueError and ZeroDivisionError
            # tracebacks before
            # the default window's ends round onto the edges of this rectangle
            (["wavefunction", "--model", "rect:v0=1,w=1e308", "--energy", "1", "--xmin", "-1",
              "--xmax", "1"], "|V(x_left)| = 1.000e+00 exceeds ASYMPTOTE_EPSILON"),
            (["wavefunction", "--model", "free", "--energy", "1", "--xmin", "-100000",
              "--xmax", "100000"], "past the 5,000,000 node cap"),
            (["sweep", "--model", "rect:v0=1,w=5e-324", "--emin", "0.1", "--emax", "1",
              "--method", "numeric"], "w = 5e-324 is too small: its half width w/2 underflows"),
            (["sweep", "--model", "exp:v0=1e308,a=1", "--emin", "1", "--emax", "2",
              "--n", "3", "--method", "numeric"], "p = sqrt(8 m v0 e^(-b/a)) a / hbar = inf"),
            # the analytic lane used to print a row error per row and exit 2
            (["sweep", "--model", "exp:v0=1e308,a=1", "--emin", "1", "--emax", "2",
              "--n", "3", "--method", "analytic"], "p = sqrt(8 m v0 e^(-b/a)) a / hbar = inf"),
            (["sweep", "--model", "exp:v0=1e-300,a=1", "--mass", "1e-300", "--emin", "1",
              "--emax", "2", "--n", "3", "--method", "numeric"],
             "p = sqrt(8 m v0 e^(-b/a)) a / hbar = 0.0"),
        ],
    )
    def test_bad_input_refused_cleanly(self, argv, needle, capsys):
        # one `error:` line naming the culprit, exit 1, nothing on stdout
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize(
        "model, emin, emax",
        # an exponential's default window, z from 1e-3 q to 8, holds at most
        # q ln(8000 / q) / kh < 1e6 nodes (exp:v0=1,a=1 from E = 1e6 was
        # refused here); the free particle's [-5, 5] passes the cap at K > 1,500
        [("rect:v0=1,w=1e6", "0.1", "0.5"), ("free", "1e13", "1e14")],
    )
    def test_rows_past_the_node_cap_refused_before_the_march(self, model, emin, emax,
                                                             monkeypatch, capsys):
        # a grid is built per row, so the cap refuses rows and names their E;
        # no RK4 step is taken first
        monkeypatch.setattr(numeric_scatter, "_march", pytest.fail)
        code, out, err = run_cli(["sweep", "--model", model, "--emin", emin, "--emax", emax,
                                  "--n", "3", "--method", "numeric"], capsys)
        assert (code, err) == (2, "error: every sweep row failed\n")
        errors = [line for line in out.splitlines() if line.startswith("# row-error:")]
        energies = np.logspace(math.log10(float(emin)), math.log10(float(emax)), 3)
        assert len(errors) == 3
        for line, energy in zip(errors, energies):
            assert f"the grid at E = {energy:g} needs about " in line
            assert "past the 5,000,000 node cap" in line

    def test_q_overflow_rows_refused_before_the_march(self, monkeypatch, capsys):
        # each row's diving end needs H1 at q pi > 700, which is refused
        # with its q before any RK4 step is taken
        monkeypatch.setattr(numeric_scatter, "_march", pytest.fail)
        code, out, err = run_cli(["sweep", "--model", "exp:v0=1,a=1", "--emin", "2e4",
                                  "--emax", "1e6", "--n", "3", "--method", "numeric"], capsys)
        assert (code, err) == (2, "error: every sweep row failed\n")
        errors = [line for line in out.splitlines() if line.startswith("# row-error:")]
        limit = ("overflows exp(q pi) in the diving end's H1; lower E to at most "
                 "(700/pi)^2 hbar^2 / (8 m a^2) = 12411.844996186379")
        assert errors == [
            f"# row-error: E=2.0000000000000004e+04 q = 282.843 {limit}",
            f"# row-error: E=1.4142135623730952e+05 q = 752.121 {limit}",
            f"# row-error: E=1.0000000000000000e+06 q = 2000 {limit}"]

    def test_sweep_rows_build_their_own_solver_config(self, monkeypatch, capsys):
        # an exponential's window depends on the energy: each row places
        # its own, from its own energy, and grids it
        calls = []
        build = numeric_scatter._window
        monkeypatch.setattr(
            numeric_scatter, "_window", lambda *args: calls.append(args) or build(*args)
        )
        argv = ["sweep", "--model", "exp:v0=1,a=1", "--emin", "0.5", "--emax", "1.0",
                "--n", "3", "--method", "numeric"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and "row-error" not in out
        energies = np.logspace(math.log10(0.5), 0.0, 3).tolist()
        assert calls == [(potentials.exponential(1.0, 1.0), energy, potentials.Units(0.5, 1.0))
                         for energy in energies]

    def test_deep_window_overflow_refused_without_warnings(self, capsys):
        # kappa w = 800 across the barrier: the basis overflows on the default window
        argv = ["sweep", "--model", "rect:v0=1e4,w=8", "--emin", "0.01",
                "--emax", "5", "--n", "3", "--method", "numeric"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv, capsys)
        assert caught == []
        assert code == 2 and err == "error: every sweep row failed\n"
        errors = [line for line in out.splitlines() if line.startswith("# row-error:")]
        assert len(errors) == 3
        assert all("basis overflowed on the window" in line for line in errors)
        assert not any("refine the step" in line for line in errors)

    def test_analytic_refusals_match_scalar_path(self, capsys):
        # both ends of the grid leave the closed forms' domain: q <= Q_MIN
        # (degenerate order) and pi q > 700 (overflow); rows in between fill
        argv = ["sweep", "--model", "exp:v0=1,a=1", "--emin", "1e-20", "--emax", "1e5",
                "--n", "60", "--method", "analytic"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        lines = out.splitlines()
        errors = [line for line in lines if line.startswith("# row-error:")]
        assert errors[0] == ("# row-error: E=9.9999999999999995e-21 q = 2e-10 at or below "
                             "the degenerate-order threshold 1e-08")
        assert errors[-1] == ("# row-error: E=1.0000000000000000e+05 q = 632.4555320336759 "
                              "overflows exp(pi q) in double precision")
        assert sum("degenerate-order" in line for line in errors) == 9
        assert sum("overflows exp(pi q)" in line for line in errors) == 3
        analytic = ["T_analytic", "R_analytic", "phi_left", "theta_left",
                    "phi_right", "theta_right"]
        numeric = ["T_numeric", "R_numeric", "flux_imbalance", "wronskian_drift"]
        table = cli.parse_sweep_table(lines)
        assert None not in table["E"] and None not in table["q"]
        solved = [9 <= i < 57 for i in range(60)]
        for name in analytic:
            assert [cell is not None for cell in table[name]] == solved
        for name in numeric:
            assert table[name] == [None] * 60

    def test_analytic_columns_match_scalar_calls(self, capsys):
        # a benchmark-sized sweep: E and q bit for bit, T and R within 2 ulp,
        # phases within 1e-13 of one scalar call chain per row
        argv = ["sweep", "--model", "expshift:v0=2.5,a=0.7,b=0.3", "--emin", "0.01",
                "--emax", "5", "--n", "3000", "--method", "analytic"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        table = cli.parse_sweep_table(out.splitlines())
        assert len(table["E"]) == 3000
        model = potentials.exponential(2.5, 0.7, 0.3)
        energies = np.logspace(math.log10(0.01), math.log10(5.0), 3000).tolist()
        rows = [dict(zip(table, cells)) for cells in zip(*table.values())]
        for row, energy in zip(rows, energies):
            d = exp_barrier.reduce_params(model, energy)
            assert (row["E"], row["q"]) == (energy, d.q)
            t, r = exp_barrier.transmission_reflection(d.q)
            assert abs(row["T_analytic"] - t) <= 2 * math.ulp(t)
            assert abs(row["R_analytic"] - r) <= 2 * math.ulp(r)
            for side in ("left", "right"):
                data = exp_barrier.amplitudes(d.p, d.q, side)
                assert abs(row[f"phi_{side}"] - data.phi) <= 1e-13
                assert abs(row[f"theta_{side}"] - data.theta) <= 1e-13

    def test_verify_report_bytes_repeat(self, tmp_path, capsys):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            assert cli.main(["verify", "--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verify_exit_zero(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "13/13 checks passed" in out

    def test_verify_marches_the_same_bases_every_run(self, monkeypatch):
        # each run_all marches its own 20 bases: four shared by seven checks,
        # none kept for a later run
        calls = []
        integrate = numeric_scatter.integrate_ends

        def counted(*args, **kwargs):
            calls.append(None)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(numeric_scatter, "integrate_ends", counted)
        for runs in (1, 2):
            assert all(res.passed for res in verification.run_all())
            assert len(calls) == 20 * runs


SPEC_FIELDS = dict(model=potentials.exponential(1.0, 1.0), e_min=0.25, e_max=1.0, n_points=2,
                   spacing="linear", sides="both", methods="both",
                   units=potentials.DEFAULT_UNITS)


@pytest.mark.parametrize("field, message", [
    ("sides", "sides must be left, right, or both, got 'bogus'"),
    ("methods", "methods must be analytic, numeric, or both, got 'bogus'"),
])
def test_sweep_spec_refuses_a_choice_argparse_never_sees(field, message):
    # argparse's choices guard the CLI; a library caller (verification
    # among them) builds the spec directly and reaches these checks
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        cli.SweepSpec(**{**SPEC_FIELDS, field: "bogus"})


def test_refusal_of_an_accepted_q_breaks_an_invariant(monkeypatch):
    # the analytic columns ask _refusal for the message of each row outside
    # closed_form_domain; a row the closed forms accept stops the sweep
    # instead of printing a row error with no message
    monkeypatch.setattr(exp_barrier, "closed_form_domain",
                        lambda p, q: np.zeros(np.shape(q), dtype=bool))
    spec = cli.SweepSpec(**{**SPEC_FIELDS, "methods": "analytic"})
    with pytest.raises(AssertionError,
                       match=r"^closed forms accept q = 1\.0 outside closed_form_domain$"):
        cli.run_sweep(spec)


def test_every_raise_names_a_class_main_maps():
    # main maps AccuracyError to exit 2 and UsageError and DomainError to 1;
    # the one other raise is _refusal's invariant, which no input reaches
    package = os.path.dirname(cli.__file__)
    raised, invariants = set(), set()
    for module in sorted(os.listdir(package)):
        if not module.endswith(".py"):
            continue
        with open(os.path.join(package, module), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else ast.unparse(node))
        invariants.update(
            f"{module}:{fn.name}" for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Raise)
            and "AssertionError" in ast.unparse(node))
    assert raised == {"DomainError", "AccuracyError", "UsageError", "AssertionError"}
    assert invariants == {"cli.py:_refusal"}


def test_cli_import_leaves_verify_and_plot_code_unloaded():
    # a fresh process that imports the CLI loads verification and chart only
    # when verify or plot runs; the checks stay importable from their module
    code = ("import sys, expscatter.cli\n"
            "print(sorted({'expscatter.verification', 'expscatter.chart'} & set(sys.modules)))\n"
            "from expscatter.verification import run_all\n"
            "print(callable(run_all))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=False)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\nTrue\n", "")
