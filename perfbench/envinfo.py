"""Environment record written into every result file."""

from __future__ import annotations

import ctypes
import glob
import importlib.metadata
import os
import platform
from pathlib import Path

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Data/unified cache sizes by level, as the kernel reports them."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _blas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled with ``package``, if it has one."""
    libs_dir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs_dir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas(package) -> dict:
    deps = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "name": deps.get("name"),
        "version": deps.get("version"),
        "config": deps.get("openblas configuration"),
        "threads": _blas_threads(package),
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "blas_thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "loadavg_at_start": list(os.getloadavg()),
        "processes": "one: the workload runs in the benchmark's own process",
    }
