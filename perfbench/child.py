"""One CLI invocation, timed from inside the process.

Run as ``python3 perfbench/child.py <job.json>``.  The job names the source
tree, the CLI arguments, and whether to trace or to stop at the first engine
call (a set-up probe).  The result file records the monotonic time of
process start, first engine call and end of the CLI run, the exit code, peak
anonymous memory and the BLAS thread count; traced runs also write their
spans.
"""

import time

T_START = time.monotonic()

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: CLI-level names through which every benchmarked subcommand enters an engine
ENGINE_ENTRIES = ("run_ensemble", "simulate_mse")


class ProbeStop(BaseException):
    """Raised at the first engine call of a set-up probe (not an Exception,
    so no handler in the CLI swallows it)."""


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use (0 when it cannot be asked)."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def peak_anon_kb() -> int:
    """Peak resident set without the file-backed pages (shared libraries).

    How many library pages are resident depends on the page cache, which
    other processes on the machine change; the rest is the program's own
    memory.  Without /proc, the plain peak resident set.
    """
    status = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                status[key] = value.split()[0] if value.split() else ""
        return int(status["VmHWM"]) - int(status["RssFile"]) - int(status["RssShmem"])
    except (OSError, KeyError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def mark_engine_entry(cli, marks: dict, probe: bool) -> None:
    found = False
    for name in ENGINE_ENTRIES:
        fn = getattr(cli, name, None)
        if fn is None:
            continue
        found = True

        def entry(*args, _fn=fn, **kwargs):
            marks.setdefault("entry", time.monotonic())
            if probe:
                raise ProbeStop
            return _fn(*args, **kwargs)

        setattr(cli, name, entry)
    if not found:
        raise RuntimeError(f"the CLI binds none of the engine entries {ENGINE_ENTRIES}")


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from pauliscope import cli

    tracer = None
    if job["trace"]:
        from spans import Tracer, trace_points

        tracer = Tracer(job["run_id"])
        tracer.install(trace_points())
    marks: dict = {}
    mark_engine_entry(cli, marks, job["probe"])
    rc = 1
    try:
        if tracer is None:
            rc = cli.main(job["argv"])
        else:
            rc = tracer.wrap(cli.main, "cli.main")(job["argv"])
    except ProbeStop:
        rc = 0
    finally:
        t_end = time.monotonic()
        result = {
            "rc": rc,
            "t_start": T_START,
            "t_entry": marks.get("entry"),
            "t_end": t_end,
            "peak_anon_kb": peak_anon_kb(),
            "blas_threads": blas_threads(),
            "untraced": tracer.missing if tracer else [],
        }
        if tracer is not None:
            tracer.dump(job["spans"])
        with open(job["result"], "w") as fh:
            json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
