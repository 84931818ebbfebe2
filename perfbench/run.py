"""timcorr benchmark: seeded CLI workloads with checked output.

    python3 perfbench/run.py --workload decay|critical|longrange \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every workload run starts fresh
single-threaded child processes (child.py) that import timcorr from
``src/`` and call ``timcorr.cli.main(argv)`` one job at a time: a closed
loop with one client.  After the child exits, every job's stdout is checked
against references computed here (checker.py), outside the timed region.

--trace 0 measures the end-to-end metrics for --seconds of summed job
latency, with every time scaled to a reference host speed by a calibration
kernel timed beside each job (calibration.py); --trace 1 runs each job of a fixed prefix plain and traced
(tracer.py) and reports the per-layer metrics.  Human-readable lines start
with '#'; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread, here and in the children.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5          # fresh processes that only set up, before and again after the run
TIME_LIMIT_S = 160        # for all the children of one benchmark run together
CAL_WINDOW_S = 2.0        # the host's speed is taken as steady over this long


class BenchError(RuntimeError):
    pass


def _spawn(mode: str, args: argparse.Namespace, deadline: float) -> tuple[list[dict], float]:
    """Run child.py to completion; returns its records and its spawn time."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child did not finish within the {TIME_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: {err.strip()[-2000:]}")
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    return records, spawned


def _of(records: list[dict], kind: str) -> list[dict]:
    return [r for r in records if r["type"] == kind]


def _setup_s(records: list[dict], spawned: float) -> float:
    """Spawn-to-ready time, scaled to the reference host speed."""
    import calibration

    setup = _of(records, "setup")[0]
    return (setup["ready"] - spawned) * calibration.REFERENCE_S / setup["cal"]


def _scaled_latencies(jobs: list[dict]):
    """Each job's latency scaled to the reference host speed (calibration.py).

    The host's speed around a job is the median calibration time of the jobs
    that started within CAL_WINDOW_S of it.
    """
    import numpy as np

    import calibration

    at, cal, latency = (np.array([job[k] for job in jobs]) for k in ("at", "cal", "latency"))
    local = np.array([np.median(cal[np.abs(at - t) <= CAL_WINDOW_S]) for t in at])
    return latency * calibration.REFERENCE_S / local


def _setup_probes(args: argparse.Namespace, deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        probe, spawned = _spawn("setup", args, deadline)
        samples.append(_setup_s(probe, spawned))
    return samples


def _check_jobs(jobs: list[dict]):
    import checker

    results = []
    for job in jobs:
        result = checker.check(job["argv"], job["code"], job["stdout"])
        if result.ok and not job.get("same_as_plain", True):
            result = checker.Result(False, "traced output differs from plain output")
        results.append(result)
    for job, result in zip(jobs, results):
        if not result.ok:
            print(f"failed: {' '.join(job['argv'])}: {result.reason}"
                  f"{' | ' + job['stderr'].strip() if job['code'] else ''}", file=sys.stderr)
    return results


def _environment() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"# env: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas_threads=1")


def _end_to_end(args, jobs, results, setups, maxrss_kb) -> dict:
    import numpy as np

    import checker
    import workloads

    raw = np.array([job["latency"] for job in jobs])
    latencies = _scaled_latencies(jobs)
    rows = sum(checker.expected_rows(job["argv"]) for job in jobs if job["code"] == 0)
    failed = sum(not r.ok for r in results)
    tail = workloads.TAIL_PERCENTILE[args.workload]
    beyond = int(np.sum(latencies > np.percentile(latencies, tail)))
    print(f"# {args.workload} seed={args.seed}: {len(jobs)} jobs, {rows} rows, "
          f"{raw.sum():.3f} s timed, fail_frac={failed / len(jobs):.4g}, "
          f"job_tail_ms is p{tail} ({beyond} jobs beyond it), "
          f"setup samples {[round(s, 4) for s in setups]}")
    print(f"# unscaled: rows_per_s={rows / raw.sum():.6g} job_p50_ms={np.median(raw) * 1e3:.6g} "
          f"job_tail_ms={np.percentile(raw, tail) * 1e3:.6g}; calibration median "
          f"{np.median([job['cal'] for job in jobs]) * 1e3:.4g} ms")
    if beyond < 10:
        print(f"# warning: only {beyond} jobs beyond p{tail}", file=sys.stderr)
    return {
        "setup_s": (float(np.median(setups)), "s"),
        "rows_per_s": (rows / latencies.sum(), "1/s"),
        "job_p50_ms": (float(np.median(latencies)) * 1e3, "ms"),
        "job_tail_ms": (float(np.percentile(latencies, tail)) * 1e3, "ms"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MiB"),
    }


def _per_layer(args, jobs, results, records) -> dict:
    import checker
    import tracer

    layers = _of(records, "layers")[0]["layers"]
    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = (layers[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
        metrics[f"{layer}.errors"] = (layers[layer]["errors"], "count")
    features = sum(r.features for r in results)
    rows = sum(checker.expected_rows(job["argv"]) for job in jobs)
    excess = [x for r in results for x in r.q_excess]
    traced = sum(job["latency"] for job in jobs)
    plain = sum(job["plain_latency"] for job in jobs)
    self_total = sum(entry["self_s"] for entry in layers.values())
    metrics.update({
        "criticality.channel_calls_per_feature":
            (layers["channels"]["calls"] / features if features else 0.0, "count"),
        "tim_ground_state.calls_per_row": (layers["tim_ground_state"]["calls"] / rows, "count"),
        "correlations.q_excess_max_bits": (max([0.0, *excess]), "bit"),
        "tim_ground_state.far_pair_err_max":
            (max(checker.state_error(p["argv"], p["code"], p["stdout"])
                 for p in _of(records, "probe")), "1"),
        "cli.bytes_changed": (_bytes_changed(args.workload, _of(records, "digest")), "count"),
        "trace.overhead_frac": (traced / plain - 1.0, "fraction"),
    })
    print(f"# {args.workload} seed={args.seed} traced: {len(jobs)} jobs, {rows} rows, "
          f"{features} features, plain {plain:.3f} s, traced {traced:.3f} s, "
          f"layer self times sum to {self_total:.3f} s")
    return metrics


def _bytes_changed(workload: str, digests: list[dict]) -> int:
    recorded = json.loads((HERE / "digests.json").read_text())[workload]
    if [d["argv"] for d in digests] != [r["argv"] for r in recorded]:
        raise BenchError("digest jobs differ from the recorded ones")
    return sum(d["sha256"] != r["sha256"] for d, r in zip(digests, recorded))


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        deadline = time.monotonic() + TIME_LIMIT_S
        if args.trace:
            records, _ = _spawn("trace", args, deadline)
            jobs = _of(records, "job")
            results = _check_jobs(jobs)
            metrics = _per_layer(args, jobs, results, records)
        else:
            setups = _setup_probes(args, deadline)
            records, spawned = _spawn("run", args, deadline)
            setups += [_setup_s(records, spawned), *_setup_probes(args, deadline)]
            jobs = _of(records, "job")
            results = _check_jobs(jobs)
            metrics = _end_to_end(args, jobs, results, setups,
                                  _of(records, "end")[0]["maxrss_kb"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(_environment())
    failed = sum(not r.ok for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
