"""Run one scaleflow CLI invocation in this fresh interpreter and time it.

Usage: child.py --result FILE [--trace] -- <scaleflow CLI arguments>

Times ``import scaleflow.cli`` (set-up) and the ``main()`` call (verdict),
takes the process CPU time (user + sys, all threads) and peak RSS, and
writes them with the run context as JSON to FILE.  With ``--trace`` the
spans of ``spans.py`` are installed after the import and before ``main()``.
"""

# Only sys and time are loaded before the timed import, so every module that
# scaleflow, numpy or scipy shares with this harness counts in set-up; the rest
# is imported after it.
import sys
import time

_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _version(package: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _blas_threads():
    """Thread count of the OpenBLAS this process loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_seconds() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    result_path = options[options.index("--result") + 1]
    trace = "--trace" in options

    start = time.perf_counter()
    import scaleflow.cli

    setup_s = time.perf_counter() - start

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    try:
        code = scaleflow.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark counts a crash as a failed invocation
        import traceback

        traceback.print_exc()
        code = 99
    verdict_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0

    import json
    import os
    import platform
    import resource

    import scaleflow

    result = {
        "exit": code,
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": scaleflow.__file__,
        "context": {
            "backend": getattr(scaleflow, "BACKEND", "unknown"),
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": _blas_threads(),
        },
    }
    if recorder is not None:
        result["trace"] = {**recorder.merged(),
                           "envelope_distinct": len(recorder.envelope_keys)}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
