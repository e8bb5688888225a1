"""End-to-end tests of the command-line pipelines (run in process)."""

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest

from fracwave import cli
from fracwave.dnmap import dn_matrix, grid_signature
from fracwave.fields import control_basis
from conftest import case


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
        sets = ["--set", f"model.q0={bad}"]
        assert run(["dn", "--out", out] + sets) == 2
    assert run(["runge", "--out", out, "--set", "runge.alphas=1e-2,-inf"]) == 2


@pytest.mark.parametrize(
    "cmd, override, message",
    [
        ("invert-f", "operator.s=1.5", "CFL violation"),
        ("dn", "domain.w1=0,1,9", "outside collar"),
        ("eig", "domain.n_int=1", "n_int must be"),
        ("solve", "operator.s=2.0", "integer order"),
        ("eig", "operator.s=100.5", "h^(-2s) overflows at s = 100.5"),
        ("solve", "time.n_t=4", "control must vanish"),
        ("invert-q", "invq.cutoffs=2.0", "cutoffs must lie"),
        ("invert-q", "invq.cutoffs=", "cutoff schedule is empty"),
        ("runge", "runge.alphas=0", "alphas must be positive"),
        ("runge", "runge.alphas=", "alphas must be positive and nonempty"),
        ("invert-f", "invf.exponents=1.0,0.5;invf.amps=1,1", "strictly increasing"),
        ("invert-f", "invf.eps_pow_min=9;invf.eps_pow_max=9", "eps_ladder needs at least two"),
        ("invert-f", "invf.floor=2", "floor_rel must lie"),
        ("verify", "verify.checks=nosuch", "unknown check"),
        ("invert-q", "noise.sigma=-1", "noise.sigma must be"),
        ("solve", "control.window=7;control.node=3", "window must be 1 or 2"),
        ("solve", "control.node=99", "exterior index 99 outside"),
        ("invert-f", "invf.node=99", "exterior index 99 outside"),
        ("solve", "control.window=2;control.node=-1", "exterior index -1 outside"),
        ("solve", "control.window=2;control.node=0", "outside the window mask"),
        ("dn", "controls.freqs=0", "at least one frequency"),
        ("runge", "runge.freqs=0", "at least one frequency"),
        ("invert-q", "invq.freqs=0", "at least one frequency"),
        ("invert-f", "invf.amps=0,1", "invf.amps must be nonzero"),
        ("dn", "model.kind=potential", "unknown key 'model.kind'"),
        ("invert-f", "invf.eps_pow_max=1100", "must lie in -1023..1074"),
        ("invert-f", "invf.eps_pow_min=-2000", "must lie in -1023..1074"),
        ("invert-f", "invf.exponents=;invf.amps=", "at least one term"),
        ("verify", "verify.checks=,", "no checks named"),
        ("eig", "time.T=1e-320", "dt = T/n_t = 1e-320/256 is not a finite normal float"),
        ("eig", "domain.xmin=-1e308;domain.xmax=1e308", "h = inf on [-1e+308, 1e+308]"),
        ("invert-q", "noise.sigma=1e160", "measured matrix contains non-finite values or its norm"),
    ],
    ids=["cfl", "window", "n_int", "order", "scale_overflow", "control", "cutoff", "no_cutoffs",
         "alpha", "no_alphas", "exponents", "one_rung", "floor", "check", "sigma",
         "window_number", "node", "invf_node", "negative_node", "node_off_window",
         "dn_freqs", "runge_freqs", "invq_freqs", "zero_amp", "model_kind",
         "underflow_rung", "overflow_rung", "no_terms", "no_checks",
         "subnormal_dt", "infinite_h", "measured_norm_overflow"],
)
def test_invalid_setup_exits_with_code_2(tmp_path, capsys, cmd, override, message):
    # a ValueError from the input guard of any library function the config
    # reaches, or from the few checks the CLI keeps, is a config error;
    # ';' separates several overrides
    sets = [arg for item in override.split(";") for arg in ("--set", item)]
    assert run([cmd, "--out", str(tmp_path / "o")] + sets) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_threads_pin_is_undone_on_return(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert run(["eig", "--threads", "1", "--out", str(tmp_path / "o")] + SMALL) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_shared_parser_keeps_no_override(tmp_path):
    # the parser is built once per process, so `--set`'s append list must
    # not carry one run's overrides into the next
    assert cli._build_parser() is cli._build_parser()
    for name, sets in (("first", SMALL), ("second", [])):
        assert run(["eig", "--out", str(tmp_path / name)] + sets) == 0
    config = json.loads((tmp_path / "second" / "manifest.json").read_text())["config"]
    assert (config["domain.n_int"], config["time.n_t"]) == (48, 256)


def test_bad_thread_count_exits_with_code_2(tmp_path):
    out = str(tmp_path / "o")
    assert run(["eig", "--out", out, "--threads", "0"]) == 2
    assert run(["verify", "--out", out, "--seed", "-1"]) == 2
    sigma = ["--set", "noise.sigma=1e-6"]
    assert run(["invert-q", "--out", out, "--seed", "-1"] + sigma) == 2


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
    assert set(manifest["versions"]) == {"python", "numpy", "fracwave"}


def test_eig_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["eig", "--out", str(out1)] + SMALL) == 0
    assert run(["eig", "--out", str(out2)] + SMALL) == 0
    assert (out1 / "spectra.csv").read_bytes() == (out2 / "spectra.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["artifacts"] == m2["artifacts"]
    assert m1["config_sha256"] == m2["config_sha256"]


# small-size settings of every pipeline that solves states
PIPELINE_SETS = {
    "solve": SMALL,
    "dn": SMALL + ["--set", "controls.freqs=2", "--set", "tests.freqs=2"],
    "runge": SMALL + ["--set", "runge.freqs=2", "--set", "runge.alphas=1e-2,1e-4"],
    "invert-q": ["--set", "domain.n_int=16", "--set", "time.n_t=48",
                 "--set", "invq.freqs=2"],
    "invert-f": ["--set", "domain.n_int=16", "--set", "time.n_t=64",
                 "--set", "invf.exponents=0.5", "--set", "invf.amps=1.0",
                 "--set", "invf.eps_pow_max=6"],
    "verify": ["--set", "verify.checks=weights,duhamel,reaction"],
}


@pytest.mark.parametrize("cmd", sorted(PIPELINE_SETS))
def test_pipeline_rerun_is_byte_identical(tmp_path, cmd):
    manifests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run([cmd, "--out", str(out)] + PIPELINE_SETS[cmd]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0]["artifacts"] and manifests[0]["artifacts"] == manifests[1]["artifacts"]
    for name in manifests[0]["artifacts"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_invert_f_runs_without_an_eigensolve(tmp_path, monkeypatch):
    import fracwave.spectral

    def refuse(*args):
        raise RuntimeError("no eigensolve expected")

    monkeypatch.setattr(fracwave.spectral, "eigendecompose", refuse)
    out = str(tmp_path / "o")
    assert run(["eig", "--out", out] + SMALL) == 1  # the patch is in effect
    assert run(["invert-f", "--out", out] + PIPELINE_SETS["invert-f"]) == 0


def test_numerical_failure_exits_with_code_1(tmp_path, capsys, monkeypatch):
    """LinAlgError subclasses ValueError but is a numerical failure, not a
    rejected input."""
    import fracwave.inversion

    def singular(*args):
        raise np.linalg.LinAlgError("moment system has no nonzero rows")

    monkeypatch.setattr(fracwave.inversion, "_tsvd_solve", singular)
    out = str(tmp_path / "o")
    assert run(["invert-q", "--out", out] + PIPELINE_SETS["invert-q"]) == 1
    assert capsys.readouterr().err.startswith("error: LinAlgError")


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_every_json_artifact_is_strict(tmp_path):
    """Every JSON artifact of the seven pipelines parses under a strict
    parser: no NaN or Infinity constant in any of them."""
    seen = set()
    for cmd in ("eig", *PIPELINE_SETS):
        out = tmp_path / cmd
        assert run([cmd, "--out", str(out)] + PIPELINE_SETS.get(cmd, SMALL)) == 0
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_refuse_constant)
            seen.add(path.name)
    assert seen == {"manifest.json", "dn.json", "recovery_report.json"}


@pytest.mark.parametrize("artifact", ["dn.json", "manifest.json"])
def test_non_finite_artifact_exits_with_code_1(tmp_path, capsys, monkeypatch, artifact):
    """A non-finite value that reaches a JSON writer is a numerical failure
    (exit 1) naming the artifact, not a rejected input, and leaves no files."""
    import fracwave.dnmap

    if artifact == "dn.json":
        monkeypatch.setattr(fracwave.dnmap, "dn_matrix", lambda *a: np.full((2, 2), np.nan))
    else:
        schema = cli.PIPELINES["dn"][1]
        monkeypatch.setitem(cli.PIPELINES, "dn", (lambda *a: (0, {"misfit": np.inf}), schema))
    out = tmp_path / "o"
    assert run(["dn", "--out", str(out)] + PIPELINE_SETS["dn"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: FloatingPointError: non-finite value in {artifact}")
    assert not list(out.iterdir())


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
    payload = json.loads((out / "dn.json").read_text())
    assert set(payload) == {"format", "s", "grid_sig", "reversed_tests",
                            "controls", "tests", "matrix"}
    assert payload["format"] == "fracwave-dn/1"
    assert payload["reversed_tests"] is True
    grid, op, _ = case(n_int=16, s=0.7, n_t=32)
    assert payload["grid_sig"] == grid_signature(grid, 0.7)
    controls = control_basis(grid, grid.w_mask(1), 2)
    tests = control_basis(grid, grid.w_mask(2), 2)
    expect = dn_matrix(op, grid, controls, tests)
    assert np.array_equal(np.array(payload["matrix"]), expect)


def test_dn_measures_the_model_potential(tmp_path):
    dn_sets = SMALL + ["--set", "controls.freqs=2", "--set", "tests.freqs=2"]
    assert run(["dn", "--out", str(tmp_path / "free")] + dn_sets) == 0
    potential = dn_sets + ["--set", "model.q0=1.0"]
    assert run(["dn", "--out", str(tmp_path / "q")] + potential) == 0
    free = (tmp_path / "free" / "dn.json").read_bytes()
    assert (tmp_path / "q" / "dn.json").read_bytes() != free


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


def test_invert_q_noise_is_seeded(tmp_path):
    reports = {}
    for name, seed in (("a", "0"), ("b", "0"), ("c", "1")):
        out = tmp_path / name
        assert run(["invert-q", "--out", str(out), "--seed", seed, "--set",
                    "noise.sigma=1e-3"] + PIPELINE_SETS["invert-q"]) == 0
        reports[name] = json.loads((out / "recovery_report.json").read_text())
    assert reports["a"]["noise_sigma"] == 1e-3
    assert reports["a"] == reports["b"]
    assert reports["a"]["data_misfits"] != reports["c"]["data_misfits"]


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


def test_verify_checks_share_one_eigensolve_per_call(monkeypatch):
    """The checks of one run_checks call share one operator per (s, n_int),
    so the seven that read the 24-node eigenbasis run one eigensolve; the
    next call builds its own operators."""
    import fracwave.spectral
    from fracwave.verify import run_checks

    real, calls = fracwave.spectral.eigendecompose, []

    def counted(op):
        calls.append(op)
        return real(op)

    monkeypatch.setattr(fracwave.spectral, "eigendecompose", counted)
    run_checks()
    assert len(calls) == 1
    run_checks(["gram"])
    assert len(calls) == 2


def test_verify_rejects_unknown_check(tmp_path):
    out = tmp_path / "verify"
    code = run(["verify", "--out", str(out),
                "--set", "verify.checks=nonsense"])
    assert code != 0


def test_run_checks_rejects_unknown_or_no_checks():
    """A verification that checks nothing cannot pass."""
    from fracwave.verify import run_checks

    with pytest.raises(ValueError, match="no checks named"):
        run_checks([])
    with pytest.raises(ValueError, match=r"unknown checks: \['nosuch'\]"):
        run_checks(["weights", "nosuch"])


def test_thresholds_bound_diagnostics_the_checks_return():
    """CHECKS and THRESHOLDS name the same checks, and every bound names a
    diagnostic its check returns at seed 0 (a wildcard matches at least
    one): a renamed diagnostic would otherwise turn its bound into an
    informational value, and a check dropped from CHECKS would vanish
    from `verify` unnoticed.  Every diagnostic is a plain python scalar."""
    from fracwave.verify import CHECKS, THRESHOLDS, run_checks

    assert set(CHECKS) == set(THRESHOLDS)
    checks = run_checks(seed=0)["checks"]
    assert set(checks) == set(CHECKS)
    for name, bounds in THRESHOLDS.items():
        for key in bounds:
            if key.endswith("*"):
                assert any(k.startswith(key[:-1]) for k in checks[name]), (name, key)
            else:
                assert key in checks[name], (name, key)
        assert all(type(v) in (bool, int, float) for v in checks[name].values()), name


def test_verify_draws_are_seeded_standard_normals():
    import random

    from fracwave.verify import _normals

    z = _normals(random.Random(7), (101, 999))
    assert z.shape == (101, 999)
    assert np.array_equal(z, _normals(random.Random(7), (101, 999)))
    flat = z.ravel()
    assert abs(flat.mean()) < 0.01 and abs(flat.std() - 1.0) < 0.01
    # the cos and sin halves come from the same uniforms, yet are uncorrelated
    half = flat.size // 2
    assert abs(np.corrcoef(flat[:half], flat[half:2 * half])[0, 1]) < 0.01
    assert abs(np.mean(flat**4) - 3.0) < 0.1
    assert _normals(random.Random(7), 0).shape == (0,)


def test_only_cli_writes_files():
    """Artifact layout lives in one module: no library module opens or
    writes a file itself."""
    writers = {"open", "write_text", "write_bytes"}
    offenders = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in writers:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, offenders
