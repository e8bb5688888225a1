"""The package needs numpy alone at run time: no module imports SciPy."""

import subprocess
import sys


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def test_importing_every_module_loads_no_scipy():
    code = (
        "import importlib, pkgutil, sys\n"
        "import fracwave\n"
        "for info in pkgutil.iter_modules(fracwave.__path__):\n"
        "    if info.name != '__main__':\n"
        "        importlib.import_module(f'fracwave.{info.name}')\n"
        "assert 'fracwave.cli' in sys.modules\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr


def test_pipelines_run_with_scipy_blocked(tmp_path):
    # a None entry makes every `import scipy...` raise ImportError; verify
    # sizes its own checks, invert-q runs at n_int=16, n_t=64
    runs = [
        ["verify", "--out", str(tmp_path / "verify")],
        ["invert-q", "--out", str(tmp_path / "invq"),
         "--set", "domain.n_int=16", "--set", "time.n_t=64"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from fracwave import cli\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ALL PASS" in proc.stdout
