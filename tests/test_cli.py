import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from zeroflow import ClassicalFamily, make_classical, oracle_zeros
from zeroflow import cli
from zeroflow.cli import _build_parser, main

L3_ZEROS = (0.41577455678347908, 2.2942803602790417, 6.2899450829374792)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_laguerre_flow(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--family", "laguerre", "--n", "3", "--method", "flow",
            "--tol", "1e-9",
        )
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["zeros"], L3_ZEROS, atol=1e-6)
        assert payload["lambda"] == 3.0
        assert payload["residual_norm"] < 1e-9
        assert payload["manifest"]["method"] == "flow"
        assert payload["manifest"]["spec"] == {"family": "laguerre", "alpha": 0.0}

    def test_hermite_newton_single(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--family", "hermite", "--n", "1", "--method", "newton",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["zeros"][0]) < 1e-12

    def test_raw_coefficients_match_family(self, capsys):
        code, raw_out, _ = run(
            capsys, "solve", "--p", "0,1,0", "--q", "0,1", "--n", "5",
            "--method", "spectral",
        )
        assert code == 0
        code, fam_out, _ = run(
            capsys, "solve", "--family", "laguerre", "--n", "5",
            "--method", "spectral",
        )
        assert code == 0
        raw = json.loads(raw_out)
        fam = json.loads(fam_out)
        np.testing.assert_allclose(raw["zeros"], fam["zeros"], rtol=0, atol=1e-13)
        # the inferred default domain is the positive half-line
        assert raw["manifest"]["spec"]["domain"] == [0.0, float("inf")]

    def test_usage_errors_exit_1(self, capsys):
        assert run(capsys, "solve", "--n", "3")[0] == 1  # no spec
        assert run(capsys, "solve", "--family", "nosuch", "--n", "3")[0] == 1
        assert run(capsys, "solve", "--family", "jacobi", "--n", "3")[0] == 1
        assert run(capsys, "solve", "--family", "hermite")[0] == 1  # missing --n
        code, _, err = run(
            capsys, "solve", "--family", "laguerre", "--beta", "5", "--n", "3"
        )
        assert code == 1 and "Laguerre takes no beta parameter" in err
        code, out, err = run(
            capsys, "rate", "--family", "laguerre", "--n", "3", "--t-max", "0"
        )
        assert code == 1 and "t_max must be positive" in err and out == ""

    def test_json_deterministic_up_to_timestamp(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "solve", "--family", "legendre", "--n", "9",
                "--method", "flow", "--init", "seeded", "--seed", "4",
            )
            assert code == 0
            payload = json.loads(out)
            payload["manifest"]["timestamp"] = None
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_numeric_failure_exit_2(self, capsys):
        # flow cannot meet the residual tolerance in so little time
        code, _, err = run(
            capsys, "solve", "--family", "legendre", "--n", "6", "--method", "flow",
            "--t-max", "1e-6", "--tol", "1e-12",
        )
        assert code == 2
        assert "flow terminated by max_time" in err
        code, _, err = run(
            capsys, "rate", "--family", "legendre", "--n", "6", "--t-max", "1e-6",
        )
        assert code == 2
        assert "flow terminated by max_time" in err

    def test_not_real_rooted_spectral_exit_2(self, capsys):
        # p = -1, q = x has no real-rooted eigenpolynomials
        code, _, err = run(
            capsys, "solve", "--p=-1,0,0", "--q=0,1", "--domain=-inf,inf",
            "--n", "20", "--method", "spectral",
        )
        assert code == 2
        assert "g_1" in err


class TestFlowCommand:
    def test_csv_shape_and_header(self, capsys):
        # equispaced places the single particle at 0, which is already the
        # equilibrium: one row, already at the zero
        code, out, _ = run(
            capsys, "flow", "--family", "hermite", "--n", "1",
            "--init", "equispaced", "--t-max", "20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x1"
        assert abs(float(lines[-1].split(",")[1])) < 1e-8

    def test_csv_single_particle_decay(self, capsys):
        code, out, _ = run(
            capsys, "flow", "--family", "hermite", "--n", "1",
            "--init", "seeded", "--seed", "2", "--t-max", "20",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x1"
        assert len(lines) > 10
        vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert abs(vals[-1, 1]) < 1e-8  # decays to the zero at the origin
        assert np.all(np.abs(vals[1:, 1]) <= np.abs(vals[:-1, 1]) + 1e-15)

    def test_header_multi_column(self, capsys):
        code, out, _ = run(
            capsys, "flow", "--family", "legendre", "--n", "3",
            "--init", "equispaced", "--t-max", "0.2",
        )
        assert code == 0
        assert out.splitlines()[0] == "t,x1,x2,x3"

    def test_nonpositive_stride_exit_1(self, capsys):
        for stride in ("0", "-1"):
            code, out, err = run(
                capsys, "flow", "--family", "legendre", "--n", "3",
                "--t-max", "0.2", "--stride", stride,
            )
            assert code == 1
            assert out == ""
            assert "snapshot_stride must be positive" in err

    def test_seeded_determinism_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run(
                capsys, "flow", "--family", "legendre", "--n", "20",
                "--init", "seeded", "--seed", "7", "--t-max", "0.02",
                "--output", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert len(f1.read_bytes()) > 0


class TestVerifyCommand:
    def test_oracle_zeros_accepted(self, capsys, tmp_path):
        spec = make_classical(ClassicalFamily.legendre())
        pts = oracle_zeros(spec, 6).points
        f = tmp_path / "pts.txt"
        f.write_text("".join(f"{x!r}\n" for x in pts))
        code, out, _ = run(
            capsys, "verify", "--family", "legendre", str(f), "--tol", "1e-8"
        )
        assert code == 0
        assert "equilibrium     : True" in out

    def test_perturbed_zeros_rejected_exit_3(self, capsys, tmp_path):
        spec = make_classical(ClassicalFamily.legendre())
        pts = list(oracle_zeros(spec, 6).points)
        pts[2] += 1e-3
        f = tmp_path / "pts.txt"
        f.write_text("".join(f"{x!r}\n" for x in pts))
        code, _, _ = run(
            capsys, "verify", "--family", "legendre", str(f), "--tol", "1e-8"
        )
        assert code == 3

    def test_degree_one_accepted(self, capsys, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("1.0\n")  # the Laguerre(0) degree-1 zero
        code, _, _ = run(
            capsys, "verify", "--family", "laguerre", str(f), "--tol", "1e-10"
        )
        assert code == 0

    def test_malformed_file_exit_1(self, capsys, tmp_path):
        f = tmp_path / "pts.txt"
        f.write_text("0.1\nnot-a-number\n")
        assert run(capsys, "verify", "--family", "legendre", str(f))[0] == 1
        f.write_text("0.5\n0.1\n")  # not increasing
        assert run(capsys, "verify", "--family", "legendre", str(f))[0] == 1

    def test_roundtrip_solve_then_verify(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "solve", "--family", "jacobi", "--alpha", "0.3", "--beta",
            "1.2", "--n", "7", "--method", "newton",
        )
        assert code == 0
        zeros = json.loads(out)["zeros"]
        f = tmp_path / "pts.txt"
        f.write_text("".join(f"{x!r}\n" for x in zeros))
        code, _, _ = run(
            capsys, "verify", "--family", "jacobi", "--alpha", "0.3", "--beta",
            "1.2", str(f),
        )
        assert code == 0


class TestRateCommand:
    def test_laguerre3(self, capsys):
        code, out, _ = run(capsys, "rate", "--family", "laguerre", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma_hat"] >= 0.9
        assert payload["theoretical_gap"] == 1.0
        assert payload["fit_quality"] >= 0.98

    def test_hermite_exact_rate(self, capsys):
        # equispaced for n=1 starts at the zero itself, so there is no decay
        # to fit; the seeded default start gives one
        code, _, err = run(
            capsys, "rate", "--family", "hermite", "--n", "1", "--init",
            "equispaced", "--t-max", "40",
        )
        assert code == 2 and "trajectory starts at the reference" in err
        code, out, _ = run(capsys, "rate", "--family", "hermite", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma_hat"] == pytest.approx(1.0, abs=0.05)

    def test_step_tolerances_tied_to_tol(self, capsys, monkeypatch):
        # the fit reads the trajectory, so rate keeps step tolerances two
        # to three orders of magnitude below --tol, unlike solve and flow
        seen = []
        integrate = cli.integrate

        def recording(spec, start, opts):
            seen.append(opts)
            return integrate(spec, start, opts)

        monkeypatch.setattr(cli, "integrate", recording)
        code, _, _ = run(capsys, "rate", "--family", "laguerre", "--n", "3", "--tol", "1e-9")
        assert code == 0 and len(seen) == 1
        assert seen[0].rel_tol == pytest.approx(1e-11, rel=1e-15)
        assert seen[0].abs_tol == pytest.approx(1e-12, rel=1e-15)
        assert seen[0].residual_tol == 1e-9 and seen[0].snapshot_stride == 1

    def test_degenerate_spectrum_refused_before_integrating(self, capsys, monkeypatch):
        # lambda_m = m^2 - 2m: lambda_1 = -1 < lambda_0 = 0 although the
        # last gap, lambda_3 - lambda_2 = 3, is positive
        def no_flow(*args):
            raise AssertionError("integrate called")

        monkeypatch.setattr(cli, "integrate", no_flow)
        code, out, err = run(capsys, "rate", "--p", "1,0,-1", "--q", "0,-3", "--n", "3")
        assert code == 2 and out == ""
        assert err == "error: degenerate spectrum: lambda_0=0 and lambda_1=-1 are not strictly increasing\n"


class TestBenchCommand:
    def test_three_rows_and_agreement(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "legendre", "--n-list", "5",
            "--methods", "flow,newton,spectral",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,method,wall_time_seconds,final_residual,agreement_vs_spectral"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "5"
            assert float(fields[2]) >= 0.0
            assert float(fields[4]) < 1e-6  # methods agree with the oracle

    def test_time_grows_with_degree_within_noise(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "legendre", "--n-list", "4,24",
            "--methods", "spectral",
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        times = {int(r[0]): float(r[2]) for r in rows}
        # nondecreasing up to timing noise
        assert times[24] >= 0.2 * times[4]
        for r in rows:
            assert float(r[4]) < 1e-6


def _readme_cli_commands() -> list[list[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("zeroflow ")]


def test_readme_cli_commands_parse():
    # parses only: a flag renamed or removed in the CLI fails here instead of
    # leaving the README stale
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == {
        "solve", "flow", "verify", "rate", "bench"
    }
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: zeroflow {shlex.join(argv)}")
