"""End-to-end tests of the command-line pipelines (run in process)."""

import json

import numpy as np
import pytest

from fracwave import cli
from fracwave.dnmap import DNMeasurement


SMALL = ["--set", "domain.n_int=16", "--set", "time.n_t=32"]


def run(args):
    return cli.main(args)


# ------------------------------------------------------ config resolution


def test_resolve_config_supplies_documented_defaults():
    cfg = cli.resolve_config("eig", None, [])
    assert cfg["domain.n_int"] == 48
    assert cfg["operator.s"] == 0.7
    assert cfg["domain.w1"] == (0, 1, 2)
    assert cfg["time.T"] == 1.0


def test_resolve_config_set_overrides_and_parses_lists():
    cfg = cli.resolve_config("eig", None,
                             ["domain.n_int=20", "domain.w1=1,2"])
    assert cfg["domain.n_int"] == 20
    assert cfg["domain.w1"] == (1, 2)


def test_resolve_config_rejects_unknown_key():
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.resolve_config("eig", None, ["bogus.key=1"])


def test_resolve_config_rejects_bad_value():
    with pytest.raises(cli.ConfigError, match="bad value"):
        cli.resolve_config("eig", None, ["domain.n_int=three"])


def test_resolve_config_rejects_malformed_set():
    with pytest.raises(cli.ConfigError, match="key=value"):
        cli.resolve_config("eig", None, ["domain.n_int"])


def test_config_file_comments_and_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# a comment\n"
        "\n"
        "domain.n_int = 24\n"
        "operator.s = 0.5\n"
    )
    cfg = cli.resolve_config("eig", str(cfg_file), ["domain.n_int=20"])
    assert cfg["domain.n_int"] == 20  # --set wins over the file
    assert cfg["operator.s"] == 0.5


def test_config_file_rejects_duplicate_key(tmp_path):
    cfg_file = tmp_path / "dup.cfg"
    cfg_file.write_text("operator.s = 0.5\noperator.s = 0.7\n")
    with pytest.raises(cli.ConfigError, match="duplicate key"):
        cli.resolve_config("eig", str(cfg_file), [])


def test_config_file_rejects_malformed_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("operator.s 0.5\n")
    with pytest.raises(cli.ConfigError, match="expected 'key = value'"):
        cli.resolve_config("eig", str(cfg_file), [])


# ------------------------------------------------------------- exit codes


def test_config_errors_exit_with_code_2(tmp_path):
    out = str(tmp_path / "o")
    assert run(["eig", "--out", out, "--set", "bogus=1"]) == 2
    assert run(["eig", "--out", out, "--set", "domain.n_int=x"]) == 2
    for bad in ("nan", "inf"):
        sets = ["--set", "model.kind=potential", "--set", f"model.q0={bad}"]
        assert run(["dn", "--out", out] + sets) == 2
    assert run(["runge", "--out", out, "--set", "runge.alphas=1e-2,-inf"]) == 2


@pytest.mark.parametrize(
    "cmd, override, message",
    [
        ("invert-f", "operator.s=1.5", "CFL violation"),
        ("dn", "domain.w1=0,1,9", "outside collar"),
        ("eig", "domain.n_int=1", "n_int must be"),
        ("solve", "operator.s=2.0", "integer order"),
        ("solve", "time.n_t=4", "control must vanish"),
        ("invert-q", "invq.cutoffs=2.0", "invq.cutoffs must lie"),
        ("invert-q", "invq.cutoffs=", "invq.cutoffs must lie"),
        ("runge", "runge.alphas=0", "runge.alphas must be"),
        ("runge", "runge.alphas=", "runge.alphas must be"),
        ("invert-f", "invf.exponents=1.0,0.5;invf.amps=1,1", "strictly increasing"),
        ("invert-f", "invf.eps_pow_min=9;invf.eps_pow_max=9", "must exceed"),
        ("invert-f", "invf.floor=2", "invf.floor must lie"),
        ("verify", "verify.checks=nosuch", "unknown check"),
        ("invert-q", "noise.sigma=-1", "noise.sigma must be"),
        ("solve", "control.window=7;control.node=3", "window must be 1 or 2"),
        ("solve", "control.node=99", "exterior index 99 outside"),
        ("invert-f", "invf.node=99", "exterior index 99 outside"),
        ("solve", "control.window=2;control.node=-1", "exterior index -1 outside"),
        ("dn", "controls.freqs=0", "at least one frequency"),
        ("runge", "runge.freqs=0", "at least one frequency"),
        ("invert-q", "invq.freqs=0", "at least one frequency"),
        ("invert-f", "invf.amps=0,1", "invf.amps must be nonzero"),
    ],
    ids=["cfl", "window", "n_int", "order", "control", "cutoff", "no_cutoffs",
         "alpha", "no_alphas", "exponents", "one_rung", "floor", "check", "sigma",
         "window_number", "node", "invf_node", "negative_node", "dn_freqs",
         "runge_freqs", "invq_freqs", "zero_amp"],
)
def test_invalid_setup_exits_with_code_2(tmp_path, capsys, cmd, override, message):
    # validation errors raised while building the grid, operator, controls
    # or time step from the config, and config values a pipeline cannot
    # use, are config errors; ';' separates several overrides
    sets = [arg for item in override.split(";") for arg in ("--set", item)]
    assert run([cmd, "--out", str(tmp_path / "o")] + sets) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_bad_thread_count_exits_with_code_2(tmp_path):
    out = str(tmp_path / "o")
    assert run(["eig", "--out", out, "--threads", "0"]) == 2


# ------------------------------------------------------------- pipelines


def test_eig_writes_spectra_and_manifest(tmp_path):
    out = tmp_path / "eig"
    assert run(["eig", "--out", str(out)] + SMALL) == 0
    spectra = (out / "spectra.csv").read_text()
    assert spectra.splitlines()[0] == "k,lambda"
    assert len(spectra.splitlines()) == 17  # header + 16 interior modes
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "fracwave-manifest/1"
    assert "spectra.csv" in manifest["artifacts"]
    assert manifest["seed"] == 0
    assert manifest["config"]["domain.n_int"] == 16


def test_eig_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["eig", "--out", str(out1)] + SMALL) == 0
    assert run(["eig", "--out", str(out2)] + SMALL) == 0
    assert (out1 / "spectra.csv").read_bytes() == (out2 / "spectra.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]
    assert m1["config_sha256"] == m2["config_sha256"]


def test_config_hash_tracks_settings(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["eig", "--out", str(out1)] + SMALL) == 0
    assert run(["eig", "--out", str(out2)] + SMALL + ["--set", "operator.s=0.5"]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_sha256"] != m2["config_sha256"]


def test_solve_writes_trajectory(tmp_path):
    out = tmp_path / "solve"
    assert run(["solve", "--out", str(out)] + SMALL) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 2 + 32  # header + n_t + 1 rows
    row = np.array([float(v) for v in lines[1].split(",")])
    assert np.all(np.isfinite(row))


def test_dn_artifact_reloads(tmp_path):
    out = tmp_path / "dn"
    code = run(["dn", "--out", str(out)] + SMALL
               + ["--set", "controls.freqs=2", "--set", "tests.freqs=2"])
    assert code == 0
    meas = DNMeasurement.load_json(out / "dn.json")
    assert meas.reversed_tests
    assert meas.matrix.ndim == 2
    assert np.all(np.isfinite(meas.matrix))


def test_runge_writes_sweep(tmp_path):
    out = tmp_path / "runge"
    code = run(["runge", "--out", str(out)] + SMALL
               + ["--set", "runge.freqs=2", "--set", "runge.alphas=1e-2,1e-4"])
    assert code == 0
    lines = (out / "runge_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("alpha,")
    assert len(lines) == 3


def test_invert_q_pipeline_small(tmp_path):
    out = tmp_path / "invq"
    code = run(["invert-q", "--out", str(out), "--set", "domain.n_int=16",
                "--set", "time.n_t=48", "--set", "invq.freqs=2"])
    assert code == 0
    report = json.loads((out / "recovery_report.json").read_text())
    assert report["format"] == "fracwave-recovery-q/2"
    assert len(report["q_est"]) == 16
    assert report["rel_l2_error"] < 1.0
    misfits = report["data_misfits"]
    assert len(misfits) == len(report["ranks"]) + 1
    assert all(b < a for a, b in zip(misfits, misfits[1:]))
    assert not {"mode", "control_misfits", "test_misfits"} & set(report)
    assert report["noise_sigma"] == 0.0


def test_invert_f_pipeline_small(tmp_path):
    out = tmp_path / "invf"
    code = run(["invert-f", "--out", str(out), "--set", "domain.n_int=16",
                "--set", "time.n_t=64", "--set", "invf.exponents=0.5",
                "--set", "invf.amps=1.0", "--set", "invf.eps_pow_max=6"])
    assert code == 0
    report = json.loads((out / "recovery_report.json").read_text())
    assert report["format"] == "fracwave-recovery-f/1"
    assert report["exponents"] == [0.5]
    assert len(report["coeff_est"][0]) == 16
    assert report["resolved"] == [True]
    assert report["rel_linf_errors"][0] < 0.05


def test_verify_single_check_passes(tmp_path, capsys):
    out = tmp_path / "verify"
    code = run(["verify", "--out", str(out), "--seed", "0",
                "--set", "verify.checks=weights"])
    assert code == 0
    report = (out / "verify_report.txt").read_text()
    assert "PASS" in report
    assert "FAIL" not in report


def test_verify_rejects_unknown_check(tmp_path):
    out = tmp_path / "verify"
    code = run(["verify", "--out", str(out),
                "--set", "verify.checks=nonsense"])
    assert code != 0
