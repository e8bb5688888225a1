"""One workload repetition in a fresh interpreter.

Usage: ``python3 worker.py '<json spec>'``; ``run.py`` starts it.  The spec
holds the checkout's ``src`` directory, the ``cli.main`` argument lists to
run in order, whether to trace, and the files to write the result and the
spans to.  With ``"probe": true`` the worker only imports and reports when
it was ready.

The worker imports ``fracwave.cli``, every ``fracwave`` module, numpy and
scipy first and reads the monotonic clock when that is done; the parent
subtracts its own reading at spawn to get the set-up time.  Only then does
it time the pipelines, so ``wall_s`` excludes imports.
"""
import json
import os
import resource
import sys
import time


def _run_pipelines(cli, argvs: list) -> list:
    codes = []
    for argv in argvs:
        try:
            codes.append(cli.main(argv))
        except Exception as exc:  # noqa: BLE001 - a failed pipeline is counted, not fatal
            print(f"worker: {argv[0]} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            codes.append(1)
    return codes


def main() -> None:
    spec = json.loads(sys.argv[1])

    import numpy
    import scipy

    import fracwave
    import fracwave.cli
    from tracer import Tracer, fracwave_modules, install

    fracwave_modules(fracwave)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(fracwave.__file__).startswith(src + os.sep):
        raise SystemExit(f"worker: imported {fracwave.__file__}, expected it under {src}")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "ready": ready,
        "host": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if not spec.get("probe"):
        argvs = spec["argvs"]
        tracer = Tracer() if spec["trace"] else None
        if tracer is not None:
            install(tracer, fracwave)
        started = time.perf_counter()
        if tracer is None:
            codes = _run_pipelines(fracwave.cli, argvs)
        else:
            codes = tracer.run_root(lambda: _run_pipelines(fracwave.cli, argvs))
        result["wall_s"] = time.perf_counter() - started
        result["codes"] = codes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
