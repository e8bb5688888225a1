"""The package needs numpy alone at run time: no module imports SciPy, and
no pipeline loads `numpy.random` (drawn only by a noisy invert-q) or
`hashlib` (whose SHA-256 comes from OpenSSL)."""

import hashlib
import json
import subprocess
import sys

from fracwave import cli, dnmap

TINY = ["--set", "domain.n_int=12", "--set", "time.n_t=32"]
PIPELINES = ["eig", "solve", "dn", "runge", "invert-q", "invert-f"]


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def _argvs(out) -> list[list[str]]:
    """All seven pipelines, each at tiny sizes (verify sizes its own checks)
    and with the default noise.sigma = 0."""
    return [[cmd, "--out", str(out / cmd), *TINY] for cmd in PIPELINES] + [
        ["verify", "--out", str(out / "verify")]
    ]


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


def test_modules_and_pipelines_load_neither_numpy_random_nor_hashlib(tmp_path):
    code = (
        "import importlib, pkgutil, sys\n"
        "import fracwave\n"
        "def loaded():\n"
        "    return sorted(m for m in ('numpy.random', 'hashlib') if m in sys.modules)\n"
        "for info in pkgutil.iter_modules(fracwave.__path__):\n"
        "    if info.name != '__main__':\n"
        "        importlib.import_module(f'fracwave.{info.name}')\n"
        "assert not loaded(), ('after imports', loaded())\n"
        "from fracwave import cli\n"
        f"for argv in {_argvs(tmp_path)!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert not loaded(), (argv[0], loaded())\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pipelines_run_with_scipy_blocked(tmp_path):
    # a None entry makes every `import scipy...` raise ImportError; numpy.random
    # and hashlib are blocked the same way
    code = (
        "import sys\n"
        "sys.modules.update(dict.fromkeys(('scipy', 'numpy.random', 'hashlib')))\n"
        "from fracwave import cli\n"
        f"for argv in {_argvs(tmp_path)!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ALL PASS" in proc.stdout


def test_digests_equal_hashlib_sha256(tmp_path, monkeypatch):
    # the built-in SHA-256 must give hashlib's digests: of every artifact, of
    # the canonical config and of the grid text behind dn.json's grid_sig
    builtin_sha256, hashed = dnmap.sha256, []

    def recording_sha256(data):
        hashed.append(data)
        return builtin_sha256(data)

    monkeypatch.setattr(dnmap, "sha256", recording_sha256)
    for argv in _argvs(tmp_path):
        assert cli.main(argv) == 0, argv
        out = tmp_path / argv[0]
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["artifacts"].items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name
        cfg = cli.resolve_config(argv[0], None, [a for a in argv if "=" in a])
        canonical = cli._canonical_config(cfg).encode()
        assert manifest["config_sha256"] == hashlib.sha256(canonical).hexdigest()
    grid_sig = json.loads((tmp_path / "dn" / "dn.json").read_text())["grid_sig"]
    assert len(hashed) == 1
    assert grid_sig == hashlib.sha256(hashed[0]).hexdigest()
