"""Workload definitions, seeded inputs and correctness gates.

A workload is a fixed list of CLI pipeline runs that one fresh worker
process executes in order, through the public ``fracwave.cli.main`` entry
point, with BLAS pinned to one thread.  The seed draws the true potential
(``qtrue.q0``, ``qtrue.qcos``) and the true nonlinearity amplitudes
(``invf.amps``); it is also passed to every pipeline as ``--seed``.

Why each workload exists.  Wall times are medians of ten 40-s runs on a
2-core Xeon VM, OpenBLAS 0.3.31, one thread; that host's speed drifted by
up to a quarter between sets of runs.  Shares come from traced runs.

desk
    All seven pipelines at the CLI defaults (n_int=48, n_t=256, s=0.7), in
    one process, 3.0-3.3 s.  This is an interactive session: fourteen
    small Jacobi eigensolves (six at n=48, eight more inside ``verify``)
    make up about 60%, the rest is many small calls and artifact writing
    (trajectory CSV, dn.json, spectra).  Per-call and fixed costs show
    here, no single heavy kernel does.  Changes to ``runge``, ``verify``,
    ``cli``, ``grid`` and ``fracop`` are judged on this workload.

invq
    ``invert-q`` at n_int=128, n_t=512, 6.8-8.5 s.  The modal/Picard
    forward solves with their projections take about 68% (96 Picard
    calls, 756 modal solves) and one 128x128 Jacobi eigensolve about 29%.  This is where a LAPACK
    eigensolver, exact shifted solves and a batched solve-and-pair kernel
    act.  The explicit march is not used, so a change to the march
    predicts no change here.

invf
    ``invert-f`` at n_int=48, n_t=8192 with the ladder 2^-3 .. 2^-11: nine
    rungs plus the linear response, ten marches of 8191 steps.  About
    3.0 s, peak RSS 322 MB against 91 MB (desk) and 116 MB (invq).  The
    march with its nonlinearity evaluations takes about 58% and the
    expansion fits (extrapolation, reactions, profiles) about 34%;
    spectral work is about 8%
    and there are no modal or Picard solves, so a faster eigensolver or
    Picard path predicts no change here.  A batched march shows here, and
    so does its memory cost.

Together they run the same modules in different ways: ``forward`` as
modal+Picard in invq and as an explicit march in invf, ``spectral`` as one
large eigensolve in invq and as many small ones in desk.
"""
from __future__ import annotations

import math
import random

# Gates, as in tests/test_acceptance.py (test_c09 and test_c11).
Q_GATE = 0.10
F_GATES = (0.05, 0.15)

# At invq size the recovery error is 0.053-0.072 on the corners of these
# ranges, worst at (q0=0.9, qcos=0.55), inside Q_GATE with margin; it is
# about 0.02-0.03 at desk size.  The amplitude ranges give per-term
# nonlinearity errors near 1e-4 on every corner, far inside F_GATES.
Q0_RANGE = (0.9, 1.1)
QCOS_RANGE = (0.45, 0.55)
AMP_RANGES = ((0.8, 1.2), (0.6, 1.0))

DEFAULT_N_INT = 48  # the CLI's domain.n_int

PIPELINES = ("eig", "solve", "dn", "runge", "invert-q", "invert-f", "verify")

# name -> (pipelines, config overrides per pipeline)
WORKLOADS = {
    "desk": (PIPELINES, {}),
    "invq": (("invert-q",), {"domain.n_int": 128, "time.n_t": 512}),
    "invf": (
        ("invert-f",),
        {"time.n_t": 8192, "invf.eps_pow_min": 3, "invf.eps_pow_max": 11},
    ),
}

# Tiny sizes for the harness self-check; the gates still hold at these.
SMOKE = {
    "desk": (PIPELINES, {"domain.n_int": 16, "time.n_t": 64}),
    "invq": (("invert-q",), {"domain.n_int": 24, "time.n_t": 64}),
    "invf": (("invert-f",), {"time.n_t": 512, "invf.eps_pow_max": 8}),
}
SMOKE_VERIFY_CHECKS = "weights,gram,duhamel"


# The seeded inputs each pipeline takes.
SEEDED_KEYS = {"invert-q": ("qtrue.q0", "qtrue.qcos"), "invert-f": ("invf.amps",)}


def draw_inputs(seed: int) -> dict:
    """Inputs of one run, drawn from the seed alone."""
    rng = random.Random(seed)
    return {
        "qtrue.q0": rng.uniform(*Q0_RANGE),
        "qtrue.qcos": rng.uniform(*QCOS_RANGE),
        "invf.amps": tuple(rng.uniform(lo, hi) for lo, hi in AMP_RANGES),
    }


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def plan(name: str, seed: int, smoke: bool = False) -> list[dict]:
    """The pipeline runs of one workload repetition.

    Each entry holds the subcommand and its resolved overrides; the worker
    turns it into a ``cli.main`` argument list.
    """
    pipelines, sizes = (SMOKE if smoke else WORKLOADS)[name]
    inputs = draw_inputs(seed)
    runs = []
    for cmd in pipelines:
        sets = {} if cmd == "verify" else dict(sizes)
        for key in SEEDED_KEYS.get(cmd, ()):
            sets[key] = inputs[key]
        if cmd == "verify" and smoke:
            sets["verify.checks"] = SMOKE_VERIFY_CHECKS
        runs.append({"cmd": cmd, "sets": sets})
    return runs


def cli_argv(run: dict, seed: int, outdir: str) -> list[str]:
    argv = [run["cmd"], "--threads", "1", "--seed", str(seed), "--out", outdir]
    for key, value in run["sets"].items():
        argv += ["--set", f"{key}={_text(value)}"]
    return argv


# ------------------------------------------------------------------ gates


def _unit_coords(n_int: int) -> list[float]:
    return [(j + 1) / (n_int + 1) for j in range(n_int)]


def _close(a: list[float], b: list[float]) -> bool:
    scale = max(max(abs(v) for v in b), 1e-300)
    return len(a) == len(b) and all(abs(x - y) <= 1e-12 * scale for x, y in zip(a, b))


def q_error(report: dict, sets: dict) -> float:
    """Relative L2 error of the recovered potential, against the truth this
    module draws, not the one the program reports."""
    q0, qcos = sets["qtrue.q0"], sets["qtrue.qcos"]
    xs = _unit_coords(sets.get("domain.n_int", DEFAULT_N_INT))
    truth = [q0 + qcos * math.cos(math.pi * x) for x in xs]
    if not _close(report["q_true"], truth):
        raise ValueError("invert-q ran on another potential than the drawn one")
    diff = math.sqrt(sum((e - t) ** 2 for e, t in zip(report["q_est"], truth)))
    return diff / math.sqrt(sum(t * t for t in truth))


def f_errors(report: dict, sets: dict) -> list[float]:
    """Per-term relative sup errors of the recovered nonlinearity profiles."""
    if not all(report["resolved"]):
        raise ValueError("invert-f left a term unresolved")
    xs = _unit_coords(sets.get("domain.n_int", DEFAULT_N_INT))
    errors = []
    for k, (amp, est) in enumerate(zip(sets["invf.amps"], report["coeff_est"])):
        truth = [amp * (1.0 + 0.3 * math.cos((k + 1) * math.pi * x)) for x in xs]
        if not _close(report["coeff_true"][k], truth):
            raise ValueError("invert-f ran on another nonlinearity than the drawn one")
        worst = max(abs(e - t) for e, t in zip(est, truth))
        errors.append(worst / max(abs(t) for t in truth))
    return errors
