import dataclasses
import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys

import numpy as np
import pytest

import opencat.cli as cli
import opencat.errors as errors
import opencat.experiments as experiments
import opencat.hn as hn
import opencat.metaplectic as metaplectic
from opencat.cli import ConfigError, load_config, main, parse_config
from opencat.errors import NumericError, OpenCatError
from opencat.quantizer import BumpSpec

from helpers import GUARD_ADVISORY, guard_warnings, nan_in_dead_column, odd_term_symbol


def write_config(tmp_path, **overrides):
    cfg = {
        "matrix": [2, 1, 1, 1],
        "n_list": [32, 64],
        "cutoff": {"kind": "product_bump", "r_inner": 0.10, "r_outer": 0.20},
        "quantization": "left",
        "phase": "leading",
        "k_count": 4,
        "k_max": 32,
        "grid": 128,
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config({"matrix": [2, 1, 1, 1], "n_list": [32],
                      "cutoff": {"kind": "product_bump", "r_inner": 0.1,
                                 "r_outer": 0.2},
                      "r_iner": 0.1})


def test_parse_config_rejects_odd_n():
    with pytest.raises(ConfigError):
        parse_config({"matrix": [2, 1, 1, 1], "n_list": [33],
                      "cutoff": {"kind": "product_bump", "r_inner": 0.1,
                                 "r_outer": 0.2}})


def test_parse_config_rejects_parabolic_matrix():
    with pytest.raises(ConfigError):
        parse_config({"matrix": [1, 1, 0, 1], "n_list": [32],
                      "cutoff": {"kind": "product_bump", "r_inner": 0.1,
                                 "r_outer": 0.2}})


@pytest.mark.parametrize("overrides", [
    {"k_count": 9},                   # above the resolvable 8 modes
    {"k_count": 6, "n_list": [4, 8]},  # above the smallest N
    {"k_count": 0},
    {"k_count": 4, "n_list": [2, 4]},  # nontrapping accepts this config
])
def test_trapped_bad_k_count_is_config_error(tmp_path, capsys, overrides):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out), **overrides)
    assert main(["trapped", "--config", cfg]) == 2
    assert "k_count" in capsys.readouterr().err
    assert not out.exists()


def test_trapped_k_count_above_live_rows_is_config_error(tmp_path, capsys):
    # the default bump is nonzero at 1 point of N = 4 and 3 points of N = 8,
    # so k_count 4 would report padding zeros at both
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out), n_list=[4, 8], k_count=4)
    assert main(["trapped", "--config", cfg]) == 2
    assert "k_count 4 exceeds the 1 rows where the cutoff is nonzero at N = 4" \
        in capsys.readouterr().err
    assert not out.exists()
    # the Weyl cutoff is nonzero on every row
    cfg = write_config(tmp_path, out_csv=str(out), n_list=[4, 8], k_count=None,
                       quantization="weyl", k_max=1, grid=4)
    assert main(["trapped", "--config", cfg]) == 0
    assert out.exists()


@pytest.mark.parametrize("overrides", [
    {"k_count": "abc"},
    {"k_count": 2.7},
    {"n_list": ["x"]},
    {"n_list": 5},
    {"matrix": ["a", 1, 1, 1]},
    {"cutoff": {"kind": "product_bump", "r_inner": "a", "r_outer": 0.20}},
    {"seed": 0},  # not a config key: verify's oracle draws a fixed sample
    {"phase": "trailing"},
    {"quantization": "weyl", "k_max": 0},
    {"quantization": "weyl", "k_max": -1},
    {"quantization": "exact"},
    {"quantization": "weyl", "k_max": 48, "grid": 100},  # grid < 4 k_max
    {"k_max": 48, "grid": 100},  # on the left route too
    {"out_svg": 2},  # an integer path would be taken as a file descriptor
    {"phase": "none"},  # the phase rule is the only rule
])
def test_trapped_malformed_value_is_config_error(tmp_path, capsys, overrides):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out), **overrides)
    assert main(["trapped", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trapped", "nontrapping", "verify"])
@pytest.mark.parametrize("route", [{"k_max": 1e18, "grid": 4e18}, {"k_max": 4097, "grid": 16388},
                                   {"k_max": 48, "grid": 2**21}])
def test_fourier_truncation_beyond_its_bounds_is_config_error(tmp_path, capsys, command, route):
    # np.arange(grid) or the (2 k_max + 1)^2 symbol tables would crash with a
    # traceback and exit 1, the code of a failed verify check
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, quantization="weyl", out_csv=str(out),
                       cutoff={"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24},
                       **route)
    assert main([command, "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    # the largest values are accepted
    spec = load_config(write_config(tmp_path, k_max=4096, grid=2**21 - 1)).cutoff
    assert (spec.k_max, spec.grid) == (4096, 2**21 - 1)


@pytest.mark.parametrize("command", ["trapped", "classical"])
@pytest.mark.parametrize("matrix", [[2**63 + 1, 2**63, 1, 1], [1, 1, 2**63, 2**63 + 1],
                                    [-(2**63), 1, -1, 0]])
def test_matrix_entry_beyond_int64_is_config_error(tmp_path, capsys, command, matrix):
    # det 1 and hyperbolic, but beyond the documented 64-bit bound on entries
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, matrix=matrix, out_csv=str(out))
    assert main([command, "--config", cfg]) == 2
    assert "2**63" in capsys.readouterr().err
    assert not out.exists()


def test_large_shear_trapped_matches_its_reduction(tmp_path, caplog):
    # both maps are L(1) mod 128, so they quantize alike at N = 32 and 64;
    # unreduced, the shear's chirp lost its phase and broke parity
    moduli = []
    for matrix in ([2**30 + 1, 2**30, 1, 1], [2**62 + 1, 2**62, 1, 1]):
        out = tmp_path / "rows.csv"
        cfg = write_config(tmp_path, matrix=matrix, out_csv=str(out))
        assert main(["trapped", "--config", cfg]) == 0
        assert len(guard_warnings(caplog)) == 1
        moduli.append([float(line.split(",")[5])
                       for line in out.read_text().splitlines()[1:]])
    assert np.abs(np.subtract(*moduli)).max() < 1e-12


@pytest.mark.parametrize("matrix", [[2**40 + 1, 2**40, 1, 1], [2**62 + 1, 2**62, 1, 1]])
def test_verify_passes_on_large_entries(tmp_path, capsys, matrix):
    # the pulled-back Egorov symbol is reduced mod 2N instead of tabulated
    # out to the map's entries
    cfg = write_config(tmp_path, matrix=matrix)
    assert main(["verify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16 and all(line.startswith("PASS") for line in lines)
    assert lines[15].startswith("PASS  eigensolver_power_traces_N64  ")


@pytest.mark.parametrize("command, kind", [("trapped", "product_bump"),
                                           ("nontrapping", "annulus_product")])
def test_repeated_n_is_config_error(tmp_path, capsys, command, kind):
    # a repeated N left the nontrapping slope dividing by log(h) - log(h) = 0
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, n_list=[32, 32], out_csv=str(out),
                       cutoff={"kind": kind, "r_inner": 0.15, "r_outer": 0.24})
    assert main([command, "--config", cfg]) == 2
    assert "strictly ascending" in capsys.readouterr().err
    assert not out.exists()


def test_nontrapping_ignores_k_count_above_smallest_n(tmp_path):
    out = tmp_path / "nt.csv"
    cfg = write_config(tmp_path, n_list=[2, 4], k_count=4, out_csv=str(out),
                       cutoff={"kind": "annulus_product", "r_inner": 0.15,
                               "r_outer": 0.24})
    assert main(["nontrapping", "--config", cfg]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_default_k_count_fits_smallest_n(tmp_path, caplog):
    # without k_count the sweep asks for four modes, or as many as the
    # cutoff's fewest live rows: the bump is live on 1 row at N = 2 and 4
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out), n_list=[2, 4], k_count=None)
    assert load_config(cfg).k_count is None
    assert main(["trapped", "--config", cfg]) == 0
    assert len(guard_warnings(caplog)) == 1
    assert [line.split(",")[0:3:2] for line in out.read_text().splitlines()[1:]] == [
        ["2", "0"], ["4", "0"]]


def test_guard_advisory_is_one_stderr_line(tmp_path):
    # outside the test's log capture no handler is configured, so the
    # warning reaches stderr through logging's last resort: the message
    # alone, on one line, and the run still exits 0
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out))
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-m", "opencat.cli", "trapped", "--config", cfg],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0
    assert run.stderr.splitlines() == [GUARD_ADVISORY]
    assert out.exists()


def test_default_k_count_fits_the_live_rows(tmp_path, capsys, caplog):
    # the default bump is live on 3 rows at N = 8 and 7 at N = 16: without
    # k_count the sweep reports 3 modes per N, and an explicit 4 is still
    # a config error
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out), n_list=[8, 16], k_count=None)
    assert main(["trapped", "--config", cfg]) == 0
    assert len(guard_warnings(caplog)) == 1
    assert [line.split(",")[2] for line in out.read_text().splitlines()[1:]] == ["0", "1", "2"] * 2
    out.unlink()
    cfg = write_config(tmp_path, out_csv=str(out), n_list=[8, 16], k_count=4)
    assert main(["trapped", "--config", cfg]) == 2
    assert "k_count 4 exceeds the 3 rows where the cutoff is nonzero at N = 8" \
        in capsys.readouterr().err
    assert not out.exists()


def test_verify_runs_through_a_cutoff_that_is_zero_at_n64(tmp_path, capsys):
    # the annulus vanishes at every point of N = 64, so both open spectra
    # there are zero: time_reversal_N64 compares them without a phase, and
    # the checks after it still run; the power traces of the zero operator
    # match the zero spectrum's exactly
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"matrix": [2, 1, 1, 1], "n_list": [32],
                               "cutoff": {"kind": "annulus_product", "r_inner": 0.01,
                                          "r_outer": 0.012}}))
    assert main(["verify", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16 and all(line.startswith("PASS") for line in lines)
    assert "time_reversal_N64  (0.000e+00)" in lines[13]
    assert "time_reversal_N64_witness  (0.000e+00)" in lines[14]
    assert lines[15] == "PASS  eigensolver_power_traces_N64  (0.000e+00)"


def test_trapped_solver_failure_exits_numeric(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out))
    assert main(["trapped", "--config", cfg]) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_trapped_nan_outside_live_block_exits_numeric(tmp_path, monkeypatch, capsys):
    nan_in_dead_column(monkeypatch)
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out))
    assert main(["trapped", "--config", cfg]) == 3
    assert "NaN" in capsys.readouterr().err
    assert not out.exists()


def test_nontrapping_solver_failure_exits_numeric(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    out = tmp_path / "nt.csv"
    cfg = write_config(tmp_path, out_csv=str(out),
                       cutoff={"kind": "annulus_product", "r_inner": 0.15,
                               "r_outer": 0.24})
    assert main(["nontrapping", "--config", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trapped", "nontrapping"])
def test_parity_breaking_operator_exits_numeric(tmp_path, monkeypatch, capsys,
                                                command):
    # a factor that breaks parity: an uneven left profile for the trapped
    # run, a Weyl cutoff whose symbol has an odd term for the nontrapping run
    if command == "trapped":
        profile = experiments.cutoff_profile
        monkeypatch.setattr(experiments, "cutoff_profile",
                            lambda spec: lambda x: profile(spec)(x) * (1.0 + x))
    else:
        monkeypatch.setattr(experiments, "cutoff_symbol", odd_term_symbol)
    out = tmp_path / "rows.csv"
    cutoff = {"kind": "product_bump" if command == "trapped" else "annulus_product",
              "r_inner": 0.15, "r_outer": 0.24}
    quantization = "left" if command == "trapped" else "weyl"
    cfg = write_config(tmp_path, out_csv=str(out), cutoff=cutoff,
                       quantization=quantization)
    assert main([command, "--config", cfg]) == 3
    assert "couples the parity sectors" in capsys.readouterr().err
    assert not out.exists()


def test_verify_solver_failure_exits_numeric(tmp_path, monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trapped", "nontrapping", "verify"])
def test_out_of_memory_exits_numeric(tmp_path, monkeypatch, capsys, command):
    # a config that passes validation can still exhaust memory; on the
    # left route every subcommand builds a DFT sector block, where numpy's
    # allocation fails
    def fail(n, parity):
        raise MemoryError("Unable to allocate 64.0 GiB for an array")

    monkeypatch.setattr(experiments, "dft_sector", fail)
    monkeypatch.setattr(cli.hn, "dft_sector", fail)
    out = tmp_path / "rows.csv"
    annulus = {"cutoff": {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24}}
    cfg = write_config(tmp_path, out_csv=str(out), **annulus if command == "nontrapping" else {})
    assert main([command, "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "numeric failure: out of memory: Unable to allocate 64.0 GiB for an array"]
    assert captured.out == ""
    assert not out.exists()


def test_trapped_missing_out_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["trapped", "--config", cfg]) == 2
    assert "out_csv" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [("trapped", 2), ("nontrapping", 2),
                                           ("classical", 2), ("verify", 0)])
def test_missing_out_csv_is_config_error_except_for_verify(tmp_path, capsys, command, code):
    # main checks out_csv once for the commands that write a CSV; the cutoff
    # fits each command, so out_csv is the only fault
    annulus = {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24}
    cfg = write_config(tmp_path, **{"cutoff": annulus} if command == "nontrapping" else {})
    assert main([command, "--config", cfg]) == code
    if code == 2:
        assert capsys.readouterr().err == "config error: out_csv is required\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command, kind", [("trapped", "annulus_product"),
                                           ("nontrapping", "product_bump")])
def test_sweep_on_the_other_cutoff_kind_is_config_error(tmp_path, capsys, command, kind):
    # each sweep checks the cutoff kind it needs
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out),
                       cutoff={"kind": kind, "r_inner": 0.15, "r_outer": 0.24})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {command} sweep needs")
    assert not out.exists()


@pytest.mark.parametrize("overrides, noun", [
    pytest.param({"matrix": [2, 1, 1, 2]},
                 "matrix [2, 1, 1, 2]: det = 3, expected 1", id="NotUnimodular"),
    pytest.param({"matrix": [1, 1, 0, 1]},
                 "matrix [1, 1, 0, 1]: |trace| = 2 <= 2, not hyperbolic", id="NotHyperbolic"),
    pytest.param({"cutoff": {"kind": "product_bump", "r_inner": 0.3, "r_outer": 0.2}},
                 "cutoff needs 0 < r_inner < r_outer < 1/2, got (0.3, 0.2)", id="InvalidSpec-radii"),
    pytest.param({"cutoff": {"kind": "disk", "r_inner": 0.1, "r_outer": 0.2}},
                 "unknown cutoff kind 'disk'", id="InvalidSpec-kind"),
    pytest.param({"k_max": 48, "grid": 100}, "cutoff grid 100 < 4*k_max = 192",
                 id="GridTooCoarse"),
])
def test_config_error_names_its_input(tmp_path, capsys, overrides, noun):
    # the error's own message says which input is wrong; no wrapper adds it
    cfg = write_config(tmp_path, out_csv=str(tmp_path / "rows.csv"), **overrides)
    with pytest.raises(ConfigError, match=re.escape(noun)):
        load_config(cfg)
    assert main(["trapped", "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {noun}"]
    assert not (tmp_path / "rows.csv").exists()


def subclasses(cls):
    return {cls} | {sub for child in cls.__subclasses__() for sub in subclasses(child)}


def test_every_error_class_has_a_category():
    # one class per failure exit code: ConfigError (2), also a ValueError,
    # and NumericError (3); a new class must be one of the two
    assert subclasses(OpenCatError) == {OpenCatError, ConfigError, NumericError}
    assert ConfigError is errors.ConfigError and issubclass(ConfigError, ValueError)
    assert not issubclass(NumericError, (ConfigError, ValueError))
    assert all(cls.__module__ == "opencat.errors" for cls in subclasses(OpenCatError))


# Each kind of failure the package reports, keyed by the name its test ids
# carry, with the class it raises and a message of that kind; the CLI
# prints the message alone
FAILURES = {
    "ConfigError": (ConfigError, "out_csv is required"),
    "DegeneratePhase": (NumericError, "cannot fix the global phase: leading eigenvalue "
                                      "modulus 0.000e+00 is below 1e-12"),
    "EigensolverFailed": (NumericError, "eigvals failed on a 3x3 matrix: "
                                        "Eigenvalues did not converge"),
    "GridTooCoarse": (ConfigError, "cutoff grid 100 < 4*k_max = 192"),
    "InvalidDenominatorBound": (ConfigError, "q_max 0 must be >= 1"),
    "InvalidRadius": (ConfigError, "radius 0.7 outside (0, 1/2]"),
    "InvalidSpec": (ConfigError, "unknown cutoff kind 'disk'"),
    "NonFinite": (NumericError, "matrix contains NaN or Inf"),
    "NonPositiveN": (ConfigError, "dimension N = 0 must be positive"),
    "NotHyperbolic": (ConfigError, "matrix [1, 1, 0, 1]: |trace| = 2 <= 2, not hyperbolic"),
    "NotUnimodular": (ConfigError, "matrix [2, 1, 1, 2]: det = 3, expected 1"),
    "OddDimension": (ConfigError, "dimension N = 7 must be even"),
    "OracleNoConvergence": (NumericError, "characteristic-polynomial oracle: Durand-Kerner "
                                          "roots did not converge in 500 sweeps"),
    "ParityBroken": (NumericError, "open operator at N = 32 couples the parity sectors: "
                                   "cutoff defect 1.000e-01 > 1e-09"),
    "TooFewLiveRows": (ConfigError, "k_count 4 exceeds the 1 rows where the cutoff "
                                    "is nonzero at N = 4"),
}


@pytest.mark.parametrize("command, target", [("trapped", "trapped_sweep"),
                                             ("nontrapping", "nontrapping_sweep"),
                                             ("classical", "escape_check")])
@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_main_maps_each_error_class_to_its_exit_code(tmp_path, monkeypatch, capsys,
                                                     command, target, kind):
    error, message = FAILURES[kind]

    def fail(*args, **kwargs):
        raise error(message)

    monkeypatch.setattr(cli, target, fail)
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out))
    config_error = error is ConfigError
    assert main([command, "--config", cfg]) == (2 if config_error else 3)
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"{'config error' if config_error else 'numeric failure'}: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("fail, error, cause", [
    pytest.param(lambda mp: hn.planck(0), ConfigError,
                 "dimension N = 0 must be positive", id="planck"),
    pytest.param(lambda mp: hn.sector_basis(0, 1), ConfigError,
                 "dimension N = 0 must be positive", id="sector_basis"),
    pytest.param(lambda mp: metaplectic.phase_factor(0j), NumericError,
                 "cannot fix the global phase: leading eigenvalue modulus 0.000e+00 "
                 "is below 1e-12", id="phase_factor"),
])
def test_failure_message_names_its_cause(monkeypatch, fail, error, cause):
    # the CLI prints the message alone, so it must say what failed and why
    with pytest.raises(error) as info:
        fail(monkeypatch)
    assert str(info.value) == cause


@pytest.mark.parametrize("command", ["trapped", "nontrapping", "classical"])
def test_unwritable_out_csv_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "rows.csv"
    annulus = {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24}
    cutoff = {"cutoff": annulus} if command == "nontrapping" else {}
    cfg = write_config(tmp_path, out_csv=str(out), **cutoff)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot write output" in err and "rows.csv" in err


def test_unwritable_out_svg_is_config_error(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out),
                       out_svg=str(tmp_path / "missing" / "plot.svg"))
    assert main(["trapped", "--config", cfg]) == 2
    assert "plot.svg" in capsys.readouterr().err
    # the CSV is written before the plot is attempted
    assert len(out.read_text().splitlines()) == 1 + 2 * 4


def test_trapped_csv(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = write_config(tmp_path, out_csv=str(out))
    assert main(["trapped", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,h,k,re,im,modulus,target,abs_err"
    assert len(lines) == 1 + 2 * 4
    targets = [float(line.split(",")[6]) for line in lines[1:5]]
    assert np.allclose(targets, [0.6180340, 0.2360680, 0.0901699, 0.0344419],
                       atol=5e-8)


def test_trapped_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg1 = write_config(tmp_path, out_csv=str(out1))
    assert main(["trapped", "--config", cfg1]) == 0
    cfg2 = write_config(tmp_path, out_csv=str(out2))
    assert main(["trapped", "--config", cfg2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def polylines(svg):
    """(stroke, dashed, points) of each polyline of an SVG file, in document order."""
    return [(stroke, bool(dash), [tuple(map(float, p.split(","))) for p in pts.split()])
            for stroke, dash, pts in re.findall(
                r'<polyline fill="none" stroke="([^"]+)" stroke-width="1.5"'
                r'( stroke-dasharray="6,4")? points="([^"]*)"/>', svg.read_text())]


def dots(svg):
    """(fill, (cx, cy)) of each circle of an SVG file, in document order."""
    return [(fill, (float(x), float(y))) for x, y, fill in re.findall(
        r'<circle cx="([^"]+)" cy="([^"]+)" r="3" fill="([^"]+)"/>', svg.read_text())]


def test_trapped_svg(tmp_path):
    out, svg = tmp_path / "rows.csv", tmp_path / "plot.svg"
    cfg = write_config(tmp_path, out_csv=str(out), out_svg=str(svg), n_list=[32, 64, 128])
    assert main(["trapped", "--config", cfg]) == 0
    assert svg.read_text().startswith("<svg")
    lines = polylines(svg)
    assert svg.read_text().count("<polyline") == len(lines) == 2 * 4
    assert "<circle" not in svg.read_text()
    # per k in order: Re mu_k over the three N, solid, then its target,
    # dashed and horizontal across the plot, in the same colour; each k its
    # own colour, and the targets, which fall with k, lower down the plot
    assert [dashed for _, dashed, _ in lines] == [False, True] * 4
    assert [len(points) for _, _, points in lines] == [3, 2] * 4
    for (stroke, _, _), (target_stroke, _, ((x0, y0), (x1, y1))) in zip(lines[::2], lines[1::2]):
        assert stroke == target_stroke and y0 == y1 and (x0, x1) == (50.0, 590.0)
    assert len({stroke for stroke, _, _ in lines}) == 4
    levels = [points[0][1] for _, _, points in lines[1::2]]
    assert levels == sorted(levels) and len(set(levels)) == 4


def test_trapped_svg_at_one_n_draws_a_dot_per_k(tmp_path):
    # at one N each k has one point, which as a polyline would have no
    # length and draw nothing: it is a dot, then its dashed target
    out, svg = tmp_path / "rows.csv", tmp_path / "plot.svg"
    cfg = write_config(tmp_path, out_csv=str(out), out_svg=str(svg), n_list=[64])
    assert main(["trapped", "--config", cfg]) == 0
    text = svg.read_text()
    assert re.findall(r"<(circle|polyline) ", text) == ["circle", "polyline"] * 4
    lines = polylines(svg)
    assert [dashed for _, dashed, _ in lines] == [True] * 4
    assert [fill for fill, _ in dots(svg)] == [stroke for stroke, _, _ in lines]
    assert len({stroke for stroke, _, _ in lines}) == 4
    # the x axis spans the one N from the left edge
    assert {x for _, (x, _) in dots(svg)} == {50.0}


@pytest.mark.parametrize("n_list, points", [([32, 64, 128], 3), ([2, 64], 1)])
def test_nontrapping_svg_is_one_solid_line(tmp_path, n_list, points):
    # at N = 2 the left annulus vanishes at every point and its radius is
    # 0, so with N = 64 the plot has one point, drawn as a dot
    out, svg = tmp_path / "nt.csv", tmp_path / "plot.svg"
    cfg = write_config(tmp_path, out_csv=str(out), out_svg=str(svg), n_list=n_list,
                       cutoff={"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24})
    assert main(["nontrapping", "--config", cfg]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "stroke-dasharray" not in text
    if points == 1:
        radii = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        assert radii[0] == 0 and radii[1] > 0
        assert polylines(svg) == []
        assert dots(svg) == [("#1f77b4", (50.0, 370.0))]
    else:
        [(_, _, drawn)] = polylines(svg)
        assert len(drawn) == points and dots(svg) == []


def test_nontrapping_without_a_positive_radius_writes_no_svg(tmp_path, capsys, caplog):
    # at N = 2 and 4 the left annulus vanishes at every point and every
    # radius is 0: there is nothing to plot, so no SVG, one stderr line
    # naming it, and still the CSV and exit 0
    out, svg = tmp_path / "nt.csv", tmp_path / "plot.svg"
    cfg = write_config(tmp_path, out_csv=str(out), out_svg=str(svg), n_list=[2, 4],
                       cutoff={"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24})
    with caplog.at_level("WARNING", logger="opencat.experiments"):
        assert main(["nontrapping", "--config", cfg]) == 0
    assert not svg.exists()
    assert capsys.readouterr().err == (f"no plot written to {svg}: "
                                       "no spectral radius is positive\n")
    assert [line.split(",")[::2] for line in out.read_text().splitlines()] == [
        ["N", "top_modulus"], ["2", "0"], ["4", "0"]]
    assert caplog.messages == ["slope undefined from N = 2 to 4: a spectral radius is 0, "
                               "so the cutoff vanishes at every point of that N"]


def test_csv_headers_name_the_row_fields_in_order(tmp_path):
    # the rows are written field by field (dataclasses.astuple): a field
    # moved in SweepRow or NontrapRow would move its column under the header
    for command, row, overrides in (
            ("trapped", experiments.SweepRow, {}),
            ("nontrapping", experiments.NontrapRow,
             {"cutoff": {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24}})):
        out = tmp_path / f"{command}.csv"
        cfg = write_config(tmp_path, out_csv=str(out), n_list=[32], **overrides)
        assert main([command, "--config", cfg]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["N" if f.name == "n" else f.name for f in dataclasses.fields(row)]


def test_csv_cell_rule(tmp_path):
    out = tmp_path / "cells.csv"
    cli._write_csv(str(out), "a,b,c,d,e", [(True, 3, 0.1, math.nan, False)])
    assert out.read_text() == "a,b,c,d,e\ntrue,3,0.10000000000000001,,false\n"


def test_nontrapping_single_n(tmp_path):
    out = tmp_path / "nt1.csv"
    cfg = write_config(tmp_path, n_list=[32], out_csv=str(out),
                       cutoff={"kind": "annulus_product", "r_inner": 0.15,
                               "r_outer": 0.24})
    assert main(["nontrapping", "--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].endswith(",")


def test_nontrapping_wrong_cutoff_kind(tmp_path):
    cfg = write_config(tmp_path, out_csv=str(tmp_path / "x.csv"))
    assert main(["nontrapping", "--config", cfg]) == 2


def test_classical_guard_radius(tmp_path, capsys):
    out = tmp_path / "cl.csv"
    cfg = write_config(tmp_path, out_csv=str(out))
    assert main(["classical", "--config", cfg, "--q-max", "20"]) == 0
    assert "all_escape=true" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "q,num_orbits,min_orbit_max_norm,all_escape"
    assert len(lines) == 21


def test_classical_counterexample(tmp_path, capsys):
    cfg = write_config(tmp_path, out_csv=str(tmp_path / "cl.csv"))
    assert main(["classical", "--config", cfg, "--q-max", "3",
                 "--radius", "0.5"]) == 0
    captured = capsys.readouterr().out
    assert "all_escape=false" in captured
    assert "(1/3,1/3)" in captured


def test_classical_q1(tmp_path, capsys):
    cfg = write_config(tmp_path, out_csv=str(tmp_path / "cl.csv"))
    assert main(["classical", "--config", cfg, "--q-max", "1"]) == 0
    assert "all_escape=true" in capsys.readouterr().out


def test_classical_bad_radius(tmp_path):
    cfg = write_config(tmp_path, out_csv=str(tmp_path / "cl.csv"))
    assert main(["classical", "--config", cfg, "--radius", "0.7"]) == 2


def test_classical_q_max_zero(tmp_path, capsys):
    out = tmp_path / "cl.csv"
    cfg = write_config(tmp_path, out_csv=str(out))
    assert main(["classical", "--config", cfg, "--q-max", "0"]) == 2
    assert "q_max" in capsys.readouterr().err
    assert not out.exists()


def test_verify_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_verify_checks_configured_cutoff(tmp_path, capsys, monkeypatch):
    quantized = []
    maker = cli.cutoff_symbol

    def recorded(spec):
        quantized.append(spec)
        return maker(spec)

    monkeypatch.setattr(cli, "cutoff_symbol", recorded)
    annulus = {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24}
    cfg = write_config(tmp_path, cutoff=annulus)
    assert main(["verify", "--config", cfg]) == 0
    # the spec carries the config's route, k_max = 32 and grid = 128
    assert quantized == [BumpSpec(**annulus, k_max=32, grid=128)]
    assert any(line.startswith("PASS  weyl_hermitian")
               for line in capsys.readouterr().out.splitlines())


def test_verify_power_traces_see_a_dropped_eigenvalue(tmp_path, capsys, monkeypatch):
    # a live-block solve that zeroes each block's largest eigenvalue: the
    # open spectra of M, R M R and the witness all lose theirs alike, so
    # every time-reversal gap stays at roundoff; the power sums no longer
    # match the traces of the dense product
    solve = experiments.eigenvalues

    def zero_top(a):
        vals = solve(a)
        vals[np.argmax(np.abs(vals))] = 0.0
        return vals

    monkeypatch.setattr(experiments, "eigenvalues", zero_top)
    assert main(["verify", "--config", write_config(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
        "eigensolver_power_traces_N64"]


def test_verify_dft_unitarity_sees_the_fft_letter(tmp_path, capsys, monkeypatch):
    # row FFTs a part in 1e6 off unitary, F's or F^dag's alone, which only
    # the Weyl route's word runs: on a left config the sweeps' DFT blocks
    # and Egorov's word stay exact, and only the three DFT unitarity lines
    # fail, for either transform
    transform = metaplectic._transform
    cfg = write_config(tmp_path)
    for off in ("F", "F^dag"):
        def scaled(full, step):
            transform(full, step)
            if step == off:
                full *= 1.0 + 1e-6

        monkeypatch.setattr(metaplectic, "_transform", scaled)
        assert main(["verify", "--config", cfg]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
            "dft_unitary_N32", "dft_unitary_N64", "dft_unitary_N128"]


def test_verify_flipped_dft_fails_egorov(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["verify", "--config", cfg, "--debug-flip-dft"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL") and "egorov" in line
               for line in out.splitlines())


def test_missing_config_file(capsys):
    assert main(["trapped", "--config", "/nonexistent/zz.json"]) == 2


def test_non_utf8_config_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["trapped", "--config", str(path)]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trapped", "nontrapping", "classical"])
@pytest.mark.parametrize("n", [1e20, 2**21])
def test_n_beyond_exact_chirp_phase_is_config_error(tmp_path, capsys, command, n):
    # N^3 reaches 2**63 at N = 2**21, where a shear's int64 phase stops being exact
    out = tmp_path / "rows.csv"
    cutoff = {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24}
    cfg = write_config(tmp_path, n_list=[32, n], cutoff=cutoff, out_csv=str(out))
    assert main([command, "--config", cfg]) == 2
    assert "2**21" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("matrix, flip_fails", [
    pytest.param([2, 1, 1, 1], {"egorov_N32", "egorov_N64", "egorov_gen_S_INV"}, id="arnold"),
    # the word has four S^-1 letters: their parities cancel, so the flipped
    # word is the map's true quantization and only the letter's line sees it
    pytest.param([3, 2, 4, 3], {"egorov_gen_S_INV"}, id="even_s_inv"),
])
def test_verify_checks_parity_commutation(tmp_path, capsys, matrix, flip_fails):
    # the flipped DFT sign still commutes with parity; the flipped DFT is
    # parity P times F, which leaves U(b) = F chirp F^dag as it is, so the
    # flipped word is the word times P once per S^-1 letter
    cfg = write_config(tmp_path, matrix=matrix)
    for flip, code in (([], 0), (["--debug-flip-dft"], 1)):
        assert main(["verify", "--config", cfg, *flip]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert any(line.startswith("PASS  parity_commutation") for line in lines)
        # the power traces quantize the map with the package sign
        assert lines[15].startswith("PASS  eigensolver_power_traces_N64  ")
        failed = {line.split()[1] for line in lines if line.startswith("FAIL")}
        assert failed == (flip_fails if flip else set())


def test_verify_sees_a_word_without_its_parity_letters(tmp_path, capsys, monkeypatch):
    # Arnold's word is U(2), S^-1, PAR, U(1): without PAR it quantizes -M,
    # which pulls e^{2 pi i x} back to its conjugate; every letter alone and
    # the unitarity checks still pass.  The open spectrum's word keeps its
    # PAR (experiments binds apply_word at import), so the dense map the
    # power traces are taken of no longer matches it
    apply_word = metaplectic.apply_word

    def without_parity(x, word, *args, **kwargs):
        return apply_word(x, [letter for letter in word if letter != ("PAR",)], *args, **kwargs)

    monkeypatch.setattr(metaplectic, "apply_word", without_parity)
    assert main(["verify", "--config", write_config(tmp_path)]) == 1
    failed = {line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")}
    assert failed == {"egorov_N32", "egorov_N64", "eigensolver_power_traces_N64"}


@pytest.mark.parametrize("overrides", [
    {},
    {"cutoff": {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24},
     "quantization": "weyl"},
])
def test_verify_checks_time_reversal(tmp_path, capsys, monkeypatch, overrides):
    # the open spectra of M and R M R are conjugate; the annulus's leading
    # modulus is a tie, which the gap takes either way
    cfg = write_config(tmp_path, **overrides)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "PASS  time_reversal_N64" in out
    assert "PASS  eigensolver_power_traces_N64" in out
    # a factorization that drops its -I quantizes -M for M, whose word has a
    # PAR letter, but R M R itself, whose word has none; the dense map of
    # the power traces keeps its -I
    factor = experiments.factor_sl2z
    monkeypatch.setattr(experiments, "factor_sl2z",
                        lambda m: [letter for letter in factor(m) if letter[0] != "PAR"])
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL  time_reversal_N64" in out
    assert "FAIL  eigensolver_power_traces_N64" in out


@pytest.mark.parametrize("overrides", [
    {},
    {"cutoff": {"kind": "annulus_product", "r_inner": 0.15, "r_outer": 0.24},
     "quantization": "weyl"},
])
def test_verify_witness_catches_conjugated_u_chirps(tmp_path, capsys, monkeypatch, overrides):
    # Arnold's phase-normalized open spectrum is self-conjugate, so a word
    # whose U chirps are conjugated keeps its time-reversal gap at roundoff;
    # the witness map [3, 2, 4, 3] is not symmetric, and its gap is O(1e-2).
    # Both routes' words read the one chirp, folded on the left route and
    # in the full space on the Weyl route
    chirp = metaplectic._chirp

    def conjugated(letter, n):
        return chirp(letter, n).conj()

    monkeypatch.setattr(metaplectic, "_chirp", conjugated)
    cfg = write_config(tmp_path, **overrides)
    assert main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "PASS  time_reversal_N64  " in out
    assert "FAIL  time_reversal_N64_witness" in out
