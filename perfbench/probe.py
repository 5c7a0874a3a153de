"""Environment record and ``import dummyreg`` time breakdown.

Run as ``python3 perfbench/probe.py`` (with dummyreg on PYTHONPATH) it
imports the package, which also warms the bytecode and file caches
before anything is timed, and prints the environment as one JSON line.
``import_breakdown`` runs ``python -X importtime`` in fresh children.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# Symbols of the OpenBLAS builds that numpy and scipy wheels bundle.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_", "openblas_get_num_threads",
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line and ".so" in line}
    out = {}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                out[Path(path).name] = func()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads the BLAS the solver uses)

    import dummyreg

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or None,
        "dummyreg_file": dummyreg.__file__,
    }


def l3_bytes(text: str | None) -> int | None:
    """Parse a sysfs cache size such as ``107520K``."""
    if not text:
        return None
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


# Imports everything the CLI needs with dummyreg.oracle replaced by an
# empty module, and prints the module names that leaves loaded.
_WITHOUT_ORACLE = """
import importlib, json, sys, types
pkg = types.ModuleType("dummyreg")
pkg.__path__ = [sys.argv[1]]
sys.modules["dummyreg"] = pkg
pkg.oracle = sys.modules["dummyreg.oracle"] = types.ModuleType("dummyreg.oracle")
importlib.import_module("dummyreg.cli")
print(json.dumps(sorted(sys.modules)))
"""


def parse_importtime(stderr: str) -> dict[str, tuple[float, float]]:
    """Module -> (self, cumulative) seconds from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        out[fields[2].strip()] = (int(fields[0]) / 1e6, int(fields[1]) / 1e6)
    return out


def import_breakdown(src: Path, env: dict, repeats: int) -> dict[str, float]:
    """Medians over ``repeats`` fresh interpreters of the import costs.

    ``import.oracle_deps_s`` is the self time of dummyreg.oracle and of
    every module that nothing else the CLI imports needs.
    """
    needed = set(json.loads(subprocess.run(
        [sys.executable, "-c", _WITHOUT_ORACLE, str(src / "dummyreg")],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout))
    needed.discard("dummyreg.oracle")
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dummyreg"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        mods = parse_importtime(proc.stderr)
        row = {
            "import.s": mods["dummyreg"][1],
            "import.oracle_deps_s": sum(s for name, (s, _) in mods.items()
                                        if name not in needed),
            "import.scipy_integrate_s": mods.get("scipy.integrate", (0.0, 0.0))[1],
            "import.numpy_s": mods.get("numpy", (0.0, 0.0))[1],
            "import.scipy_linalg_s": mods.get("scipy.linalg", (0.0, 0.0))[1],
        }
        for key, value in row.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


if __name__ == "__main__":
    print(json.dumps(environment()))
