"""Black-box CLI tests: flags, formats, exit codes, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from halfgilbert import cli, montecarlo
from halfgilbert.analytic import ModelParams, mgf_special_half
from test_montecarlo import resolve_all_by_reference


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "halfgilbert.cli", *args],
        capture_output=True,
        text=True,
    )


class TestMoments:
    def test_csv_table_values(self):
        result = run_cli("moments", "--q", "0.4", "--max-order", "2", "--format", "csv")
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "order,value,method,std_error"
        assert lines[1].startswith("1,1.8169599114701")
        assert lines[2].startswith("2,4.6410746559117")

    def test_bad_q_exits_2(self):
        result = run_cli("moments", "--q", "1.2")
        assert result.returncode == 2
        assert "(0, 1)" in result.stderr

    def test_unknown_flag_exits_2(self):
        result = run_cli("moments", "--q", "0.4", "--bogus")
        assert result.returncode == 2

    def test_monte_carlo_method(self):
        args = (
            "moments", "--q", "0.4", "--method", "mc",
            "--samples", "200000", "--seed", "42", "--format", "csv",
        )
        result = run_cli(*args)
        assert result.returncode == 0
        rows = result.stdout.strip().splitlines()[1:]
        for row in rows:
            order, value, method, std_error = row.split(",")
            assert method == "monte-carlo"
            assert float(std_error) > 0.0
        mean = float(rows[0].split(",")[1])
        se = float(rows[0].split(",")[3])
        assert abs(mean - 1.81696) <= 4.0 * se
        assert run_cli(*args).stdout == result.stdout

    def test_closed_beyond_order_four_exits_2(self):
        result = run_cli("moments", "--q", "0.4", "--max-order", "5")
        assert result.returncode == 2

    def test_json_is_well_formed(self):
        result = run_cli("moments", "--q", "0.3", "--format", "json")
        doc = json.loads(result.stdout)
        assert doc["params"]["q"] == 0.3
        assert [e["order"] for e in doc["entries"]] == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "argv, mc_flags",
        [
            ("moments --q 0.4", "--samples 0"),
            ("moments --q 0.4 --method mgf", "--seed -1"),
        ],
    )
    def test_mc_only_flags_unread_by_other_methods(self, argv, mc_flags, capsys):
        assert cli.main(argv.split()) == 0
        expected = capsys.readouterr()
        assert cli.main(f"{argv} {mc_flags}".split()) == 0
        assert capsys.readouterr() == expected

    def test_main_builds_no_parser_per_call(self, monkeypatch, capsys):
        def rebuilt():
            raise AssertionError("main built its parser again")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert cli.main(["moments", "--q", "0.4"]) == 0
        assert capsys.readouterr().out.startswith("order")


class TestMgfCurve:
    def test_three_point_grid(self):
        result = run_cli(
            "mgf", "--q", "0.5", "--t-min", "-1", "--t-max", "1", "--steps", "3"
        )
        assert result.returncode == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "t,value"
        ts = [line.split(",")[0] for line in lines[1:]]
        assert ts == ["-1", "0", "1"]
        assert lines[2] == "0,1"

    def test_matches_special_half_form(self):
        result = run_cli(
            "mgf", "--q", "0.5", "--t-min", "-2", "--t-max", "2", "--steps", "41"
        )
        for line in result.stdout.strip().splitlines()[1:]:
            t_str, v_str = line.split(",")
            assert abs(float(v_str) - mgf_special_half(float(t_str))) < 1e-9

    def test_domain_guard_exits_3(self):
        result = run_cli(
            "mgf", "--q", "0.3", "--t-min", "-6", "--t-max", "6", "--steps", "5"
        )
        assert result.returncode == 3

    @pytest.mark.parametrize("y", ["150", "1e308"])
    def test_large_y_exits_3(self, y, capsys):
        # (y - t)/sqrt(2) > 20 lies past the accurate range of the Hermite
        # evaluator; these printed M = -81968 and nan with exit 0
        argv = ["mgf", "--q", "0.4", "--y", y, "--t-min", "-1", "--t-max", "1",
                "--steps", "3"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical-domain error")

    def test_json_is_well_formed(self):
        result = run_cli("mgf", "--q", "0.4", "--steps", "5", "--format", "json")
        doc = json.loads(result.stdout)
        assert len(doc["points"]) == 5


class TestSimulate:
    def test_recursion_deterministic_and_worker_independent(self):
        base = (
            "simulate", "--q", "0.4", "--samples", "100000",
            "--seed", "42", "--engine", "recursion",
        )
        first = run_cli(*base)
        again = run_cli(*base)
        wide = run_cli(*base, "--workers", "4")
        assert first.returncode == 0
        assert first.stdout == again.stdout == wide.stdout
        doc = json.loads(first.stdout)
        assert abs(doc["mean"] - 1.81696) <= 4.0 * doc["std_errors"][0]

    def test_plane_empty_margin_exits_2(self):
        result = run_cli(
            "simulate", "--q", "0.4", "--engine", "plane",
            "--margin", "40", "--window-w", "60", "--window-h", "60",
        )
        assert result.returncode == 2

    def test_plane_reports_censoring_fields(self):
        result = run_cli(
            "simulate", "--q", "0.7", "--engine", "plane",
            "--window-w", "5", "--window-h", "5", "--margin", "1.25", "--seed", "5",
        )
        doc = json.loads(result.stdout)
        assert doc["censored"] > 0
        assert doc["censored_warning"] is True

    def test_dump_writes_one_length_per_line(self, tmp_path):
        dump = tmp_path / "lengths.txt"
        result = run_cli(
            "simulate", "--q", "0.4", "--samples", "500",
            "--seed", "9", "--dump", str(dump),
        )
        assert result.returncode == 0
        values = [float(line) for line in dump.read_text().splitlines()]
        assert len(values) == 500
        assert all(v > 0.0 for v in values)
        doc = json.loads(result.stdout)
        assert abs(sum(values) / 500 - doc["mean"]) < 1e-12

    def test_plane_dump_simulates_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        resolve = montecarlo._resolve_blockings

        def counted(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(montecarlo, "_resolve_blockings", counted)
        dump = tmp_path / "lengths.txt"
        code = cli.main([
            "simulate", "--q", "0.45", "--engine", "plane", "--window-w", "30",
            "--window-h", "30", "--margin", "8", "--seed", "4", "--dump", str(dump),
        ])
        assert code == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        values = np.loadtxt(dump)
        assert values.size == doc["n"] > 0
        assert abs(values.mean() - doc["mean"]) < 1e-12

    def test_plane_dump_matches_reference_resolver(self, tmp_path, monkeypatch):
        dump = tmp_path / "lengths.txt"
        code = cli.main([
            "simulate", "--q", "0.45", "--engine", "plane", "--window-w", "30",
            "--window-h", "30", "--margin", "8", "--seed", "4", "--dump", str(dump),
        ])
        assert code == 0
        monkeypatch.setattr(montecarlo, "_resolve_blockings", resolve_all_by_reference)
        config = montecarlo.PlaneConfig(
            params=ModelParams(q=0.45),
            window_width=30.0,
            window_height=30.0,
            margin=8.0,
            seed=4,
        )
        lengths, _ = montecarlo.plane_lengths(config)
        assert lengths.size > 0
        assert dump.read_bytes() == "".join("%.17g\n" % v for v in lengths).encode()


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--q", "0.4", "--samples", "10", "--seed", "-1"),
            ("simulate", "--q", "0.4", "--samples", "10", "--seed", str(2**64)),
            ("simulate", "--q", "0.4", "--samples", "10", "--lambda", "nan"),
            ("simulate", "--q", "0.4", "--engine", "plane", "--lambda", "nan"),
            ("moments", "--q", "0.4", "--method", "mc", "--samples", "10",
             "--seed", "-1"),
            ("moments", "--q", "0.4", "--method", "mc", "--samples", "10",
             "--seed", str(2**64)),
            ("moments", "--q", "0.4", "--lambda", "nan"),
            ("validate", "--q", "0.4", "--samples", "10", "--seed", "-1"),
            ("validate", "--q", "0.4", "--samples", "10", "--seed", str(2**64)),
            ("moments", "--q", "0.4", "--lambda", "inf"),
            ("simulate", "--q", "0.4", "--samples", "1000", "--lambda", "inf"),
            ("simulate", "--q", "0.4", "--engine", "plane", "--lambda", "inf"),
            ("simulate", "--q", "0.4", "--engine", "plane", "--window-w", "inf"),
            ("simulate", "--q", "0.4", "--engine", "plane", "--window-w", "40",
             "--window-h", "40", "--margin", "nan"),
            ("mgf", "--q", "0.4", "--y", "nan"),
            ("mgf", "--q", "0.4", "--t-min", "nan"),
            ("mgf", "--q", "0.4", "--t-max", "inf"),
        ],
    )
    def test_out_of_range_value_exits_2(self, argv, capsys):
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, code, stderr",
        [
            ("moments --q 1.2", 2, "q must lie strictly inside (0, 1), got 1.2"),
            ("moments --q 0", 2, "q must lie strictly inside (0, 1), got 0.0"),
            ("moments --q 0.4 --lambda 0", 2, "lam must be positive, got 0.0"),
            ("moments --q 0.4 --lambda nan", 2, "lam must be positive, got nan"),
            ("moments --q 0.4 --lambda inf", 2, "lam must be finite, got inf"),
            ("moments --q 0.4 --method mc --samples 0", 2,
             "samples must be at least 1"),
            ("moments --q 0.4 --method mc --samples 10 --seed -1", 2,
             "seed must fit in 64 unsigned bits"),
            ("moments --q 0.4 --method mc --samples 10 --seed 18446744073709551616",
             2, "seed must fit in 64 unsigned bits"),
            ("moments --q 0.4 --max-order 0", 2, "--max-order must lie in 1..6, got 0"),
            ("moments --q 0.4 --method mgf --max-order 7", 2,
             "--max-order must lie in 1..6, got 7"),
            ("moments --q 0.4 --max-order 5", 2,
             "closed-form moments exist for orders 1..4 only; "
             "use --method mgf or mc for higher orders"),
            ("mgf --q 1.5", 2, "q must lie strictly inside (0, 1), got 1.5"),
            ("mgf --q 0.4 --y -1", 2, "--y must be nonnegative, got -1.0"),
            ("mgf --q 0.4 --y nan", 2, "--y must be nonnegative, got nan"),
            ("mgf --q 0.4 --y inf", 2, "--y, --t-min and --t-max must be finite"),
            ("mgf --q 0.4 --steps 0", 2, "--steps must be at least 1, got 0"),
            ("mgf --q 0.4 --t-min nan", 2, "--y, --t-min and --t-max must be finite"),
            ("mgf --q 0.4 --t-max inf", 2, "--y, --t-min and --t-max must be finite"),
            ("mgf --q 0.4 --t-min 1 --t-max -1", 2,
             "--t-max must not be below --t-min"),
            ("simulate --q -0.1", 2, "q must lie strictly inside (0, 1), got -0.1"),
            ("simulate --q 0.4 --samples 10 --lambda -2", 2,
             "lam must be positive, got -2.0"),
            ("simulate --q 0.4 --samples 10 --lambda inf", 2,
             "lam must be finite, got inf"),
            ("simulate --q 0.4 --samples 0", 2, "samples must be at least 1"),
            ("simulate --q 0.4 --samples 10 --seed -1", 2,
             "seed must fit in 64 unsigned bits"),
            ("simulate --q 0.4 --samples 10 --seed 18446744073709551616", 2,
             "seed must fit in 64 unsigned bits"),
            ("simulate --q 0.4 --samples 10 --workers 0", 2,
             "workers must be at least 1"),
            ("simulate --q 0.4 --engine plane --lambda nan", 2,
             "lam must be positive, got nan"),
            ("simulate --q 0.4 --engine plane --window-w 0", 2,
             "window dimensions must be positive"),
            ("simulate --q 0.4 --engine plane --window-h -5", 2,
             "window dimensions must be positive"),
            ("simulate --q 0.4 --engine plane --window-w inf", 2,
             "window dimensions must be finite"),
            ("simulate --q 0.4 --engine plane --margin -1", 2,
             "margin must be nonnegative"),
            ("simulate --q 0.4 --engine plane --margin nan", 2,
             "margin must be nonnegative"),
            ("simulate --q 0.4 --engine plane --margin 30", 2,
             "margin band is empty: margin must stay below half the smaller "
             "window dimension"),
            ("simulate --q 0.4 --engine plane --seed -1", 2,
             "seed must fit in 64 unsigned bits"),
            ("simulate --q 0.4 --engine plane --seed 18446744073709551616", 2,
             "seed must fit in 64 unsigned bits"),
            ("validate --q 1.0", 2, "q must lie strictly inside (0, 1), got 1.0"),
            ("validate --q 0.4 --samples 0", 2, "samples must be at least 1"),
            ("validate --q 0.4 --samples 10 --seed -1", 2,
             "seed must fit in 64 unsigned bits"),
            ("validate --q 0.97", 3,
             "q=0.97 is too close to 1 to validate: the moments grow without "
             "bound as q -> 1 (the Gamma((1-q)/2) factor diverges) and "
             "the Monte Carlo layer degrades with them; validated range is "
             "q <= 0.95"),
        ],
    )
    def test_exit_code_and_exact_stderr(self, argv, code, stderr, capsys):
        assert cli.main(argv.split()) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {stderr}\n"


class TestOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            "moments --q 0.4 --lambda 1e-300 --method closed",
            "moments --q 0.4 --lambda 1e-300 --method mgf",
            "moments --q 0.4 --lambda 1e-102 --method mgf --max-order 6",
            "moments --q 0.4 --method mc --lambda 1e-60 --samples 2000",
            "simulate --q 0.4 --lambda 1e-60 --samples 2000",
        ],
    )
    def test_tiny_intensity_exits_3(self, argv, capsys):
        # lengths scale like lam**(-1/2); these raised OverflowError, or
        # printed inf for the sixth moment at lam = 1e-102
        assert cli.main(argv.split()) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical-domain error: ")
        assert "overflows a float" in captured.err

    def test_huge_plane_intensity_exits_2(self, capsys):
        # numpy refuses the Poisson mean of the seed count
        argv = ["simulate", "--engine", "plane", "--q", "0.4", "--lambda", "1e20"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lam value too large\n"


class TestValidate:
    def test_passes_at_default_q(self):
        result = run_cli(
            "validate", "--q", "0.4", "--samples", "200000",
            "--seed", "42", "--format", "json",
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["verdict"] == "pass"
        assert doc["ie_residual_max"] < 1e-6
        assert all(row["agreement"] for row in doc["rows"])

    def test_special_half_row_at_half(self):
        result = run_cli(
            "validate", "--q", "0.5", "--samples", "100000",
            "--seed", "42", "--format", "json",
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["special_half_max_diff"] is not None
        assert doc["special_half_max_diff"] < 1e-9

    def test_small_sample_outlier_fails_with_exit_1(self):
        # seed 57 at 2000 samples puts the fifth Monte Carlo moment more
        # than four standard errors from the derivative value
        result = run_cli("validate", "--q", "0.4", "--samples", "2000", "--seed", "57")
        assert result.returncode == 1
        assert "fail" in result.stdout

    def test_near_boundary_q_exits_3(self):
        result = run_cli("validate", "--q", "0.999")
        assert result.returncode == 3
        assert "q -> 1" in result.stderr

    def test_csv_format(self):
        result = run_cli(
            "validate", "--q", "0.4", "--samples", "50000", "--seed", "42",
            "--format", "csv",
        )
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "order,closed_value,mgf_value,mc_value,mc_std_error,agreement"
        assert len(lines) == 6
