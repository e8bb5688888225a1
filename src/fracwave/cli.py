"""Experiment harness.

Subcommands: eig, solve, dn, runge, invert-q, invert-f, verify.  Every run
resolves a flat dotted-key configuration (defaults, then an optional config
file of `key = value` lines, then repeatable `--set key=value` overrides,
unknown keys rejected), executes one pipeline, and writes its artifacts
plus a manifest.json recording the resolved config, its hash, library
versions, artifact digests, and timings.  Reruns with the same config and
seed reproduce every artifact byte for byte; timings live only in the
manifest.

Numerical modules are imported inside the runners, after `--threads` has
pinned the BLAS thread count through the environment, so the pin takes
effect when numpy is first imported by the run and runs stay reproducible
across machines with different core counts.  `main` restores the thread
variables before it returns.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL for it
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["main"]


class ConfigError(ValueError):
    pass


_COMMON = {
    "domain.xmin": ("float", 0.0),
    "domain.xmax": ("float", 1.0),
    "domain.n_int": ("int", 48),
    "domain.m_collar": ("int", 3),
    "domain.w1": ("int_list", (0, 1, 2)),
    "domain.w2": ("int_list", (3, 4, 5)),
    "time.T": ("float", 1.0),
    "time.n_t": ("int", 256),
    "operator.s": ("float", 0.7),
}
_MODEL = {  # potential q0 + qcos cos(pi x^), x^ the interior scaled to [0, 1]
    "model.q0": ("float", 0.0),
    "model.qcos": ("float", 0.0),
}

SCHEMAS: dict[str, dict[str, tuple]] = {
    "eig": {**_COMMON},
    "solve": {
        **_COMMON,
        **_MODEL,
        "control.node": ("int", 0),
        "control.freq": ("int", 1),
        "control.amplitude": ("float", 1.0),
        "control.window": ("int", 1),
    },
    "dn": {
        **_COMMON,
        **_MODEL,
        "controls.freqs": ("int", 4),
        "tests.freqs": ("int", 4),
    },
    "runge": {
        **_COMMON,
        **_MODEL,
        "runge.freqs": ("int", 4),
        "runge.alphas": ("float_list", tuple(10.0**-k for k in range(2, 11))),
        "runge.target": ("str", "mode"),  # mode | bump
        "runge.target_mode": ("int", 1),
    },
    "invert-q": {
        **_COMMON,
        "invq.freqs": ("int", 4),
        "invq.cutoffs": ("float_list", (1e-2, 1e-3, 1e-4, 1e-5)),
        "qtrue.q0": ("float", 1.0),
        "qtrue.qcos": ("float", 0.5),
        "noise.sigma": ("float", 0.0),
    },
    "invert-f": {
        **_COMMON,
        "invf.exponents": ("float_list", (0.5, 1.0)),
        "invf.amps": ("float_list", (1.0, 0.8)),
        "invf.eps_pow_min": ("int", 3),
        "invf.eps_pow_max": ("int", 9),
        "invf.node": ("int", 0),
        "invf.freq": ("int", 1),
        "invf.floor": ("float", 1e-3),
    },
    "verify": {"verify.checks": ("str", "all")},
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_value(kind: str, text: str, key: str):
    try:
        if kind == "float":
            return _finite(text)
        if kind == "int":
            return int(text)
        if kind == "str":
            return text.strip()
        if kind == "int_list":
            return tuple(int(p) for p in text.split(",") if p.strip())
        if kind == "float_list":
            return tuple(_finite(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from None
    raise ConfigError(f"unknown value kind {kind!r}")


def _read_config_file(path: Path) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
        raw[key] = value.strip()
    return raw


def resolve_config(cmd: str, config_path: str | None, sets: list[str]) -> dict:
    schema = SCHEMAS[cmd]
    cfg = {k: default for k, (_, default) in schema.items()}

    def apply(key: str, text: str, origin: str):
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"{origin}: unknown key {key!r} (known: {known})")
        cfg[key] = _parse_value(schema[key][0], text, key)

    if config_path is not None:
        for key, text in _read_config_file(Path(config_path)).items():
            apply(key, text, config_path)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        apply(key.strip(), text.strip(), "--set")
    return cfg


def _canonical_config(cfg: dict) -> str:
    lines = []
    for key in sorted(cfg):
        v = cfg[key]
        if isinstance(v, tuple):
            text = ",".join(repr(x) for x in v)
        else:
            text = repr(v)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


class _Artifacts:
    """Writes the files of one run, hashing each for the manifest and
    removing them on failure.  No other module writes files."""

    def __init__(self, outdir: Path):
        self.dir = outdir
        self.hashes: dict[str, str] = {}
        self._created: list[Path] = []

    def write_text(self, name: str, text: str) -> Path:
        path = self.dir / name
        path.write_text(text)
        self._created.append(path)
        self.hashes[name] = sha256(path.read_bytes()).hexdigest()
        return path

    def write_json(self, name: str, payload) -> Path:
        try:
            text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a numerical failure (exit 1), not a rejected input
            raise FloatingPointError(f"non-finite value in {name}: {exc}") from None
        return self.write_text(name, text)

    def cleanup(self) -> None:
        for path in self._created:
            try:
                path.unlink()
            except OSError:
                pass


def _build(cfg):
    from .fracop import assemble_operator
    from .grid import build_grid

    grid = build_grid(
        x_min=cfg["domain.xmin"],
        x_max=cfg["domain.xmax"],
        n_int=cfg["domain.n_int"],
        m_collar=cfg["domain.m_collar"],
        w1=cfg["domain.w1"],
        w2=cfg["domain.w2"],
        T=cfg["time.T"],
        n_t=cfg["time.n_t"],
    )
    op = assemble_operator(grid, cfg["operator.s"])
    return grid, op


def _cosine_profile(grid, base: float, amp: float):
    import numpy as np

    xh = (grid.interior_coords - grid.x_min) / (grid.x_max - grid.x_min)
    return base + amp * np.cos(np.pi * xh)


def _run_eig(cfg, art, seed) -> tuple[int, dict]:
    import numpy as np

    grid, op = _build(cfg)
    basis = op.basis
    lines = ["k,lambda"]
    lines += [f"{k},{float(lam)!r}" for k, lam in enumerate(basis.lambdas, start=1)]
    art.write_text("spectra.csv", "\n".join(lines) + "\n")
    eye = np.eye(basis.n_modes)
    dev_l2 = float(np.max(np.abs(grid.h * basis.modes.T @ basis.modes - eye)))
    scaled = basis.modes / np.sqrt(basis.lambdas)[None, :]
    dev_hs = float(np.max(np.abs(grid.h * scaled.T @ op.a_int @ scaled - eye)))
    print(
        f"eig: {basis.n_modes} modes, lambda_1 = {basis.lambdas[0]:.6e}, "
        f"gram deviations l2 {dev_l2:.3e} / hs {dev_hs:.3e}"
    )
    return 0, {"l2_gram_dev": dev_l2, "hs_gram_dev": dev_hs}


def _run_solve(cfg, art, seed) -> tuple[int, dict]:
    from .dnmap import solve_exterior
    from .fields import tensor_control

    grid, op = _build(cfg)
    q = _cosine_profile(grid, cfg["model.q0"], cfg["model.qcos"])
    control = tensor_control(
        grid,
        cfg["control.node"],
        cfg["control.freq"],
        mask=grid.w_mask(cfg["control.window"]),
        amplitude=cfg["control.amplitude"],
    )
    full = solve_exterior(control, op, grid, q)
    lines = [f"t," + ",".join(f"x{j}" for j in range(grid.n_nodes))]
    for t, row in zip(grid.times().tolist(), full):  # per row: all at once costs memory
        lines.append(f"{t!r}," + ",".join(map(repr, row.tolist())))
    art.write_text("trajectory.csv", "\n".join(lines) + "\n")
    peak = float(abs(full).max())
    print(f"solve: trajectory written, peak |u| = {peak:.6e}")
    return 0, {"peak_abs": peak}


def _run_dn(cfg, art, seed) -> tuple[int, dict]:
    from .dnmap import dn_matrix, grid_signature
    from .fields import control_basis

    grid, op = _build(cfg)
    q = _cosine_profile(grid, cfg["model.q0"], cfg["model.qcos"])
    controls = control_basis(grid, grid.w_mask(1), cfg["controls.freqs"])
    tests = control_basis(grid, grid.w_mask(2), cfg["tests.freqs"])
    matrix = dn_matrix(op, grid, controls, tests, q)
    payload = {
        "format": "fracwave-dn/1",
        "s": cfg["operator.s"],
        "grid_sig": grid_signature(grid, cfg["operator.s"]),
        "reversed_tests": True,
        "controls": [{"index": i} for i in range(len(controls))],
        "tests": [{"index": i} for i in range(len(tests))],
        "matrix": [[float(v) for v in row] for row in matrix],
    }
    art.write_json("dn.json", payload)
    print(f"dn: {matrix.shape[0]}x{matrix.shape[1]} pairing matrix written")
    return 0, {"matrix_shape": list(matrix.shape)}


def _runge_target(cfg, grid, op):
    import numpy as np

    kind = cfg["runge.target"]
    t = grid.times()
    if kind == "mode":
        basis = op.basis
        k = cfg["runge.target_mode"]
        if not 1 <= k <= basis.n_modes:
            raise ConfigError(f"runge.target_mode {k} out of range 1..{basis.n_modes}")
        om = np.sqrt(basis.lambdas[k - 1])
        return np.cos(om * t)[:, None] * basis.modes[:, k - 1][None, :]
    if kind == "bump":
        x = grid.interior_coords
        c = 0.5 * (grid.x_min + grid.x_max)
        w = 0.3 * (grid.x_max - grid.x_min)
        rho = (x - c) / w
        chi = np.where(np.abs(rho) < 0.5, np.cos(np.pi * rho) ** 2, 0.0)
        return (np.sin(np.pi * t / grid.T) ** 2)[:, None] * chi[None, :]
    raise ConfigError(f"unknown runge.target {kind!r} (mode | bump)")


def _run_runge(cfg, art, seed) -> tuple[int, dict]:
    from .fields import control_basis
    from .runge import approximate_target

    grid, op = _build(cfg)
    q = _cosine_profile(grid, cfg["model.q0"], cfg["model.qcos"])
    controls = control_basis(grid, grid.w_mask(1), cfg["runge.freqs"])
    target = _runge_target(cfg, grid, op)
    sweep = approximate_target(target, controls, op, grid, cfg["runge.alphas"], q)
    lines = ["alpha,misfit,residual,coeff_norm,objective,gram_cond"]
    for r in sweep:
        row = (r.alpha, r.misfit, r.residual, r.coeff_norm, r.objective, r.gram_cond)
        lines.append(",".join(repr(float(v)) for v in row))
    art.write_text("runge_sweep.csv", "\n".join(lines) + "\n")
    best = min(s.residual for s in sweep)
    print(f"runge: {len(sweep)} alphas, best residual {best:.6e}")
    return 0, {"best_residual": best}


def _run_invert_q(cfg, art, seed) -> tuple[int, dict]:
    import numpy as np

    from .dnmap import dn_matrix
    from .fields import control_basis
    from .inversion import recover_potential

    sigma = cfg["noise.sigma"]
    if sigma < 0.0:
        raise ConfigError(f"noise.sigma must be >= 0, got {sigma}")
    grid, op = _build(cfg)
    controls = control_basis(grid, grid.w_mask(1), cfg["invq.freqs"])
    tests = control_basis(grid, grid.w_mask(2), cfg["invq.freqs"])
    q_true = _cosine_profile(grid, cfg["qtrue.q0"], cfg["qtrue.qcos"])

    measured = dn_matrix(op, grid, controls, tests, q_true)
    if sigma > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        measured = measured + sigma * np.max(np.abs(measured)) * rng.standard_normal(
            measured.shape
        )

    rec = recover_potential(
        measured, controls, tests, op, grid, cutoff=cfg["invq.cutoffs"]
    )
    rel = float(
        np.linalg.norm(rec.q_est - q_true) / max(np.linalg.norm(q_true), 1e-300)
    )
    report = {
        "format": "fracwave-recovery-q/2",
        "q_true": [float(v) for v in q_true],
        "q_est": [float(v) for v in rec.q_est],
        "rel_l2_error": rel,
        "moment_residuals": list(rec.moment_residuals),
        "ranks": list(rec.ranks),
        "cutoffs": list(rec.cutoffs),
        "data_misfits": list(rec.data_misfits),
        "noise_sigma": sigma,
    }
    art.write_json("recovery_report.json", report)
    print(f"invert-q: relative L2 error {rel:.4e} after {len(rec.cutoffs)} pass(es)")
    return 0, {"rel_l2_error": rel}


def _run_invert_f(cfg, art, seed) -> tuple[int, dict]:
    import numpy as np

    from .fields import tensor_control
    from .forward import march_slabs
    from .inversion import recover_expansion
    from .nonlinearity import PolyNonlinearity

    exponents, amps = cfg["invf.exponents"], cfg["invf.amps"]
    if 0.0 in amps:
        raise ConfigError(f"invf.amps must be nonzero, got {amps}")
    p_lo, p_hi = cfg["invf.eps_pow_min"], cfg["invf.eps_pow_max"]
    if not all(-1023 <= p <= 1074 for p in (p_lo, p_hi)):
        raise ConfigError(
            f"invf.eps_pow_min and invf.eps_pow_max must lie in -1023..1074, "
            f"where 2^-p is a positive finite double; got {p_lo}, {p_hi}"
        )
    grid, op = _build(cfg)
    xh = (grid.interior_coords - grid.x_min) / (grid.x_max - grid.x_min)
    profiles = np.array(
        [a * (1.0 + 0.3 * np.cos((k + 1) * np.pi * xh)) for k, a in enumerate(amps)]
    )
    truth = PolyNonlinearity(exponents, profiles)

    control = tensor_control(
        grid, cfg["invf.node"], cfg["invf.freq"], mask=grid.w_mask(1)
    )
    est = recover_expansion(
        lambda c: march_slabs(op, grid, model=truth, control=c),
        control,
        exponents,
        op,
        grid,
        eps_ladder=[2.0**-p for p in range(p_lo, p_hi + 1)],
        floor_rel=cfg["invf.floor"],
    )
    rel_errors = [
        float(np.max(np.abs(est.coeffs[k] - profiles[k])) / np.max(np.abs(profiles[k])))
        for k in range(len(exponents))
    ]
    report = {
        "format": "fracwave-recovery-f/1",
        "exponents": list(exponents),
        "coeff_true": [[float(v) for v in row] for row in profiles],
        "coeff_est": [[float(v) for v in row] for row in est.coeffs],
        "rel_linf_errors": rel_errors,
        "reported_errors": [
            None if not np.isfinite(e) else float(e) for e in est.errors
        ],
        "resolved": list(est.resolved),
        "eps_ladder": list(est.eps_ladder),
    }
    art.write_json("recovery_report.json", report)
    print(
        "invert-f: relative Linf errors "
        + ", ".join(f"{e:.4e}" for e in rel_errors)
    )
    return 0, {"rel_linf_errors": rel_errors}


def _run_verify(cfg, art, seed) -> tuple[int, dict]:
    from .verify import report_lines, run_checks

    names = None
    if cfg["verify.checks"] != "all":
        names = [n.strip() for n in cfg["verify.checks"].split(",") if n.strip()]
    payload = run_checks(names, seed=seed)
    ok, lines = report_lines(payload)
    text = "\n".join(lines) + "\n"
    art.write_text("verify_report.txt", text)
    print(text, end="")
    return (0 if ok else 3), {"all_pass": ok}


_RUNNERS = {
    "eig": _run_eig,
    "solve": _run_solve,
    "dn": _run_dn,
    "runge": _run_runge,
    "invert-q": _run_invert_q,
    "invert-f": _run_invert_f,
    "verify": _run_verify,
}


@functools.cache  # one parser per process; parse_args leaves it as built
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracwave",
        description="Nonlocal wave simulator and inverse-problem toolkit.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", default="fracwave_out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--threads",
            type=int,
            help="pin BLAS threads (works only before numpy is first imported)",
        )
    return parser


_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    saved = {var: os.environ[var] for var in _THREAD_VARS if var in os.environ}
    if args.threads is not None:
        os.environ.update(dict.fromkeys(_THREAD_VARS, str(args.threads)))
    try:
        return _run(args)
    finally:
        for var in _THREAD_VARS:
            os.environ.pop(var, None)
        os.environ.update(saved)


def _run(args) -> int:
    try:
        cfg = resolve_config(args.cmd, args.config, args.sets)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    art = _Artifacts(outdir)

    import platform

    import numpy as np

    from . import __version__

    started = time.perf_counter()
    try:
        code, extras = _RUNNERS[args.cmd](cfg, art, args.seed)
        elapsed = time.perf_counter() - started
        manifest = {
            "format": "fracwave-manifest/1",
            "subcommand": args.cmd,
            "config": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
            "config_sha256": sha256(_canonical_config(cfg).encode()).hexdigest(),
            "seed": args.seed,
            "threads": args.threads if args.threads is not None else "default",
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "fracwave": __version__,
            },
            "artifacts": art.hashes,
            "timings": {"total_s": elapsed},
            "summary": extras,
        }
        art.write_json("manifest.json", manifest)
    except Exception as exc:  # noqa: BLE001 - harness boundary
        art.cleanup()
        # a ValueError is a rejected input (exit 2); LinAlgError,
        # SolverBlowupError, PicardError, non-finite JSON and anything else are exit 1
        if isinstance(exc, ValueError) and not isinstance(exc, np.linalg.LinAlgError):
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
