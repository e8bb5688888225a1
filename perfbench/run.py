"""fracwave benchmark: end-to-end metrics of three pipeline workloads and a
traced per-module breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk|invq|invf [--seed N]
                             [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --smoke             # harness self-check, tiny sizes

The workloads and the reason for each are in ``workloads.py``.  Every
repetition of a workload runs in its own fresh worker process, one at a
time, with BLAS pinned to one thread; repetitions go on while the next one
is expected to end within ``--seconds``.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` count pipeline
runs and their correctness gates, ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-module metrics of a traced run (``--trace 1``).
Lines before it give the host record, each metric with its spread, the
recovery errors and the failure share.

End-to-end metrics (medians over the run's samples):

    wall_s       wall time of one workload repetition, imports excluded
    setup_s      fresh interpreter until fracwave.cli, every fracwave module,
                 numpy and scipy are imported; set-up probes plus every
                 worker of the run are samples, after one warm-up probe
    peak_rss_mb  peak resident memory of the worker process

With ``--trace 1`` untraced and traced repetitions alternate.  The
per-module metrics come from the traced repetition with the median wall
time, so they add up to its ``trace.wall_s``; ``trace.overhead_s`` is the
median, over pairs of consecutive untraced and traced repetitions, of the
traced minus the untraced wall time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 3
# Every worker must end by then, so a run exits well inside 180 s.
RUN_LIMIT_S = 165.0


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "inversion.pass_yield":
        return "ratio"
    if name == "cli.artifact_bytes":
        return "bytes"
    return "count"


def host_record(worker_host: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        **worker_host,
        "threads": {var: "1" for var in THREAD_VARS} | {"cli": "--threads 1"},
    }


class Runner:
    """Starts workers one at a time, inside the run's time limit."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env.update({var: "1" for var in THREAD_VARS})

    def spawn(self, spec: dict, workdir: Path) -> dict | None:
        """Run one worker; returns its result with spawn/exit clock readings,
        or None when it failed or ran out of time."""
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        spec = {
            **spec,
            "src": str(ROOT / "src"),
            "result": str(workdir / "result.json"),
            "spans": str(workdir / "spans.json"),
        }
        budget = RUN_LIMIT_S - (_clock() - self.started)
        if budget <= 0:
            return None
        spawn = _clock()
        with open(workdir / "worker.log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(WORKER), json.dumps(spec)],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=self.env,
                    timeout=budget,
                    cwd=ROOT,
                )
            except subprocess.TimeoutExpired:
                print(f"worker timed out after {budget:.0f} s ({workdir})", file=sys.stderr)
                return None
        ended = _clock()
        if proc.returncode != 0:
            print(f"worker exited {proc.returncode}; see {workdir / 'worker.log'}", file=sys.stderr)
            return None
        with open(workdir / "result.json") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawn
        result["duration_s"] = ended - spawn
        return result


def gate(run: dict, outdir: Path) -> tuple[str | None, dict]:
    """Correctness gate of one pipeline run: (failure or None, findings)."""
    found: dict = {"artifact_bytes": 0}
    manifest = json.loads((outdir / "manifest.json").read_text())
    for name, digest in manifest["artifacts"].items():
        data = (outdir / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            return f"{run['cmd']}: artifact {name} does not match its manifest digest", found
        found["artifact_bytes"] += len(data)
    if run["cmd"] == "invert-q":
        report = json.loads((outdir / "recovery_report.json").read_text())
        err = workloads.q_error(report, run["sets"])
        found["q_rel_l2_error"] = err
        if not err <= workloads.Q_GATE:
            return f"invert-q: relative L2 error {err:.4e} > {workloads.Q_GATE}", found
    elif run["cmd"] == "invert-f":
        report = json.loads((outdir / "recovery_report.json").read_text())
        errs = workloads.f_errors(report, run["sets"])
        found["f_rel_linf_error"] = max(errs)
        for k, (err, bound) in enumerate(zip(errs, workloads.F_GATES)):
            if not err <= bound:
                return f"invert-f: term {k + 1} error {err:.4e} > {bound}", found
    elif run["cmd"] == "verify":
        lines = (outdir / "verify_report.txt").read_text().splitlines()
        if not lines or lines[-1] != "result: ALL PASS":
            return "verify: not ALL PASS", found
    return None, found


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    runner = Runner(_clock())
    runs = workloads.plan(name, seed, smoke)
    cli_seed = seed % 2**63  # the CLI seeds numpy's PCG64, which needs seed >= 0
    base = OUT / name
    argvs = [
        workloads.cli_argv(run, cli_seed, str(base / "rep" / f"{i}-{run['cmd']}"))
        for i, run in enumerate(runs)
    ]

    setup: list[float] = []
    host: dict = {}
    probes = 1 if smoke else SETUP_PROBES
    for i in range(probes + 1):
        probe = runner.spawn({"probe": True}, base / "probe")
        if probe is None:
            raise RuntimeError("set-up probe failed")
        host = probe["host"]
        if i:  # the first probe fills the file cache and compiles bytecode
            setup.append(probe["setup_s"])

    reps: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    findings: dict = {}
    deadline = _clock() + seconds
    minimum = 2 if trace else 1
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = runner.spawn({"argvs": argvs, "trace": traced}, base / "rep")
        attempted += len(runs)
        if rep is None:
            failed += len(runs)
            problems.append("worker failed")
            break
        rep["traced"] = traced
        rep["artifact_bytes"] = 0
        for i, (run, code) in enumerate(zip(runs, rep["codes"])):
            outdir = base / "rep" / f"{i}-{run['cmd']}"
            if code != 0:
                failure = f"{run['cmd']}: exit {code}"
            else:
                try:
                    failure, found = gate(run, outdir)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    failure, found = f"{run['cmd']}: {type(exc).__name__}: {exc}", {}
                rep["artifact_bytes"] += found.pop("artifact_bytes", 0)
                findings.update(found)
            if failure is not None:
                failed += 1
                problems.append(failure)
        if traced:
            summary = rep["trace"]
            if abs(summary["self_sum_s"] - summary["wall_s"]) > 1e-6 * summary["wall_s"]:
                problems.append("span self times do not add up to the traced wall time")
        setup.append(rep["setup_s"])
        reps.append(rep)
        typical = statistics.median(r["duration_s"] for r in reps)
        if len(reps) >= minimum and _clock() + typical > deadline:
            break

    plain = [r for r in reps if not r["traced"]]
    if not plain or (trace and len(plain) == len(reps)):
        raise RuntimeError("no complete repetition: " + "; ".join(problems))
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if trace:
        traced_reps = sorted((r for r in reps if r["traced"]), key=lambda r: r["trace"]["wall_s"])
        chosen = traced_reps[(len(traced_reps) - 1) // 2]
        metrics = tracer.layer_metrics(chosen["trace"], chosen["artifact_bytes"])
        untraced = statistics.median(samples["wall_s"])
        metrics["trace.wall_s"] = chosen["trace"]["wall_s"]
        metrics["trace.untraced_wall_s"] = untraced
        # each traced repetition minus the untraced one just before it
        metrics["trace.overhead_s"] = statistics.median(
            reps[i]["wall_s"] - reps[i - 1]["wall_s"] for i in range(1, len(reps), 2)
        )
        metrics["trace.spans"] = chosen["trace"]["spans"]
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        units = END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "host": host_record(host),
        "reps": len(reps),
        "samples": samples,
        "findings": findings,
        "problems": problems,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"min {min(values):.4g} q1 {q1:.4g} q3 {q3:.4g} max {max(values):.4g} n={len(values)}"


def report(res: dict) -> None:
    print(f"host: {json.dumps(res['host'], sort_keys=True)}")
    print(f"workload {res['workload']} seed {res['seed']}: {res['reps']} repetitions")
    for name, m in res["metrics"].items():
        extra = _spread(res["samples"][name]) if name in res["samples"] else ""
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<6} {extra}")
    for name, value in sorted(res["findings"].items()):
        print(f"  {name:<32} {value:>14.6g} ratio")
    share = res["failed"] / res["attempted"]
    print(f"  {'fail_share':<32} {share:>14.6g} ratio  {res['failed']}/{res['attempted']} pipeline runs")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")


def self_check() -> int:
    """Smoke mode: every metric of BENCHMARK.json is emitted with its unit,
    and the per-module self times add up to the traced wall time."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            res = run_workload(name, 0, 0.0, trace, smoke=True)
            report(res)
            metrics = res["metrics"]
            if not res["correct"]:
                problems.append(f"{name}: incorrect run: {res['problems']}")
            if set(metrics) != {m["name"] for m in declared}:
                problems.append(
                    f"{name} trace={int(trace)}: emitted {sorted(metrics)} "
                    f"but BENCHMARK.json declares {sorted(m['name'] for m in declared)}"
                )
            for m in declared:
                if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{name}: unit of {m['name']} is not {m['unit']}")
            if trace:
                wall = metrics["trace.wall_s"]["value"]
                total = sum(
                    metrics[f"{mod}.self_s"]["value"] for mod in tracer.MODULES
                )
                if abs(total - wall) > 1e-6 * wall:
                    problems.append(f"{name}: module self times {total} != traced wall {wall}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="harness self-check at tiny sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracwave" / "cli.py").is_file():
        print(f"error: no fracwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(res)
        results[name] = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
