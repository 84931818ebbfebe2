"""One fresh benchmark process: import timcorr, warm up, then run jobs.

Usage (started by run.py, never by hand):

    python3 perfbench/child.py --root ROOT --mode setup|run|trace \
        --workload W --seed N --seconds S

Every result is one JSON line on stdout, written between jobs:

* ``setup``: the CLOCK_MONOTONIC time when import and warm-up finished, and
  the median time of the calibration kernel (calibration.py) right after;
* ``job``: argv, exit code, start, latency, the time of the calibration
  kernel run right after it, and the job's stdout;
* ``digest``: sha256 of the stdout of a job from the recorded digest set;
* ``probe``: argv, exit code and stdout of a far-pair ground-state probe;
* ``layers``: per-layer sums folded from the trace (trace mode);
* ``end``: the process's peak RSS.

``setup`` mode stops after the warm-up.  ``run`` mode runs the workload's
jobs until their summed latency reaches --seconds.  ``trace`` mode runs the
recorded digest jobs and the far-pair probes, then each job of a fixed
prefix twice, plain and traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time


# Run before timing starts, the same on every workload; touches every module.
WARMUP = (
    ["ground-state", "--lambda", "0.5", "--r", "1"],
    ["sweep-p", "--p-count", "2"],
    ["critical", "--lambda-grid", "0.5", "--channel", "amplitude-damping"],
)

SETUP_CALIBRATIONS = 5    # calibration kernels timed after the warm-up


def _emit(record: dict) -> None:
    sys.__stdout__.write(json.dumps(record) + "\n")


def run_job(main, argv: list[str]) -> tuple[int, float, str, str]:
    """Call ``main(argv)`` with captured output: (exit code, latency s, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        latency = time.perf_counter() - start
    return int(code or 0), latency, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import timcorr.cli

    if not os.path.abspath(timcorr.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"timcorr imported from {timcorr.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for argv in WARMUP:
        code, _, _, err = run_job(timcorr.cli.main, argv)
        if code != 0:
            print(f"warm-up job {argv} exited {code}: {err}", file=sys.stderr)
            return 2
    ready = time.monotonic()
    import calibration
    import workloads

    _emit({"type": "setup", "ready": ready,
           "cal": statistics.median(calibration.timed() for _ in range(SETUP_CALIBRATIONS))})
    if args.mode == "run":
        spent = 0.0
        for argv in workloads.jobs(args.workload, args.seed):
            at = time.perf_counter()
            code, latency, out, err = run_job(timcorr.cli.main, argv)
            spent += latency
            _emit({"type": "job", "argv": argv, "code": code, "latency": latency,
                   "at": at, "cal": calibration.timed(), "stdout": out, "stderr": err[-2000:]})
            if spent >= args.seconds:
                break
    elif args.mode == "trace":
        _trace(args, timcorr.cli.main, workloads)

    import resource

    _emit({"type": "end", "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


def digests(cli_main, workload: str) -> list[dict]:
    """argv and sha256 of the stdout of each of the workload's digest jobs."""
    import hashlib

    import workloads

    return [{"argv": argv, "sha256": hashlib.sha256(run_job(cli_main, argv)[2].encode()).hexdigest()}
            for argv in workloads.take(workload, workloads.DIGEST_SEED,
                                       workloads.DIGEST_JOBS[workload])]


def _trace(args, cli_main, workloads) -> None:
    import tracer

    for digest in digests(cli_main, args.workload):
        _emit({"type": "digest", **digest})
    for argv in workloads.FAR_PAIR_PROBES:
        code, _, out, _ = run_job(cli_main, argv)
        _emit({"type": "probe", "argv": argv, "code": code, "stdout": out})

    trace = tracer.Tracer()
    traced_main = trace.wrap(cli_main, "cli")
    batch = workloads.take(args.workload, args.seed,
                           workloads.trace_job_count(args.workload, args.seconds))
    for index, argv in enumerate(batch):
        # Each job runs plain and traced, in alternating order, so that drift
        # in machine speed cancels out of trace.overhead_frac.
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                trace.install()
                try:
                    code, latency, out, err = run_job(traced_main, argv)
                finally:
                    trace.uninstall()
            else:
                _, plain_latency, plain_out, _ = run_job(cli_main, argv)
        _emit({"type": "job", "argv": argv, "code": code, "latency": latency,
               "plain_latency": plain_latency, "same_as_plain": out == plain_out,
               "stdout": out, "stderr": err[-2000:]})
    _emit({"type": "layers", "layers": trace.fold()})


if __name__ == "__main__":
    sys.exit(main())
