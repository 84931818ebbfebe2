"""Seeded CLI job generators for the three benchmark workloads.

Each generator yields argv lists for ``timcorr.cli.main``.  The same
(workload, seed) always yields the same sequence, and no argv repeats within
a sequence, so a cache kept across ``main()`` calls cannot show a gain that
a fresh CLI process would not get.  The properties that set a job's cost
(grid size, distance to the critical coupling, pair separation) come from
seeded low-discrepancy sequences, so any long enough prefix has about the
same mix whatever the seed.

Only the flags the roadmap keeps are passed: --lambda, --channel, --r,
--p-start, --p-stop, --p-count, --lambda-grid and --format.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterator

import numpy as np

import reference

WORKLOADS = ("decay", "critical", "longrange")

# The tail latency percentile reported per workload: the highest of
# 50/60/75/90 that leaves at least ten jobs beyond it in one untraced run at
# the commit that defined the benchmark.  It stays fixed so that a faster
# program, which fits more jobs into a run, is compared on the same
# percentile.
TAIL_PERCENTILE = {"decay": 90, "critical": 60, "longrange": 90}

# Jobs per second of --seconds in a traced run.  A traced run executes each
# job of its fixed prefix twice (plain and traced), so these are about half
# the untraced job rate at the commit that defined the benchmark.
TRACE_JOBS_PER_S = {"decay": 3.3, "critical": 0.45, "longrange": 8.0}

# Largest pair separation in the longrange workload.  From r = 32 on the
# correlator matrices need G_32, which timcorr's adaptive Simpson rule gets
# wrong by up to 1e-2 near lambda = 1 (cos(32 phi) aliases onto its
# power-of-two grids, so successive levels agree falsely).  A workload job
# must not fail, so the timed jobs stay below that; FAR_PAIR_PROBES keep
# the defect measured.
LONGRANGE_R_MAX = 31

# Ground-state jobs past LONGRANGE_R_MAX, run once in every traced run.  The
# worst X-state element error among them is tim_ground_state.far_pair_err_max.
FAR_PAIR_PROBES = (
    ["ground-state", "--lambda", "0.999", "--r", "32", "--format", "csv"],
    ["ground-state", "--lambda", "0.99", "--r", "48", "--format", "json"],
    ["ground-state", "--lambda", "1.0", "--r", "64", "--format", "csv"],
    ["ground-state", "--lambda", "1.01", "--r", "40", "--format", "json"],
)

# Seed whose first jobs have recorded stdout digests (digests.json).
DIGEST_SEED = 0
DIGEST_JOBS = {"decay": 6, "critical": 3, "longrange": 8}

DECAY_CHANNELS = ("amplitude-damping", "bit-flip", "phase-flip", "bit-phase-flip",
                  "phase-damping")
_SWITCH_CHANNELS = ("phase-flip", "phase-damping", "bit-phase-flip")


def jobs(workload: str, seed: int) -> Iterator[list[str]]:
    """Endless, deterministic, repeat-free argv sequence of one workload.

    Two jobs that differ only in --format count as a repeat.
    """
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    for argv in _GENERATORS[workload](rng):
        key = tuple(argv[:argv.index("--format")] + argv[argv.index("--format") + 2:])
        if key not in seen:
            seen.add(key)
            yield argv


def take(workload: str, seed: int, count: int) -> list[list[str]]:
    return list(itertools.islice(jobs(workload, seed), count))


def trace_job_count(workload: str, seconds: float) -> int:
    return max(3, round(seconds * TRACE_JOBS_PER_S[workload]))


class _Sequence:
    """Van der Corput sequence in one base, rotated by a seeded offset.

    Any prefix of n points covers [0, 1) far more evenly than n random
    draws, so a run's mix of cheap and costly inputs, and with it every
    median and percentile, hardly depends on the seed.  Sequences in
    distinct prime bases, advanced together, form a Halton point set.
    """

    def __init__(self, base: int, rng: random.Random) -> None:
        self.base, self.shift, self.index = base, rng.random(), 0

    def __call__(self) -> float:
        self.index += 1
        i, f, value = self.index, 1.0, 0.0
        while i:
            f /= self.base
            value += f * (i % self.base)
            i //= self.base
        return (value + self.shift) % 1.0


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * math.log(hi / lo))


def switch_point(lam: float, r: int, channel: str) -> float | None:
    """Reference sudden-change point, to 1e-6, for zooming a sweep onto it."""
    rho0 = reference.x_matrix(reference.ground_state(lam, r))
    grid = np.linspace(0.0, 1.0, 201)
    gaps = reference.gap_values(rho0, channel, grid)
    for name in reference.GAPS["p_sc"]:
        cells = np.nonzero(np.sign(gaps[name][:-1]) * np.sign(gaps[name][1:]) < 0.0)[0]
        if cells.size:
            p0 = 0.5 * float(grid[cells[0]] + grid[cells[0] + 1])
            return reference.sign_change_near(rho0, channel, name, p0, 0.005, 1e-6)
    return None


def _decay(rng: random.Random) -> Iterator[list[str]]:
    """sweep-p with lambda in [0.05, 0.995] and 101 to 1001 points.

    Channels go round-robin, r cycles through 1, 2, 3 and the format
    alternates; every other switching-channel job zooms onto the window
    around the sudden-change point.
    """
    u_count, u_lam = _Sequence(2, rng), _Sequence(3, rng)
    for index in itertools.count():
        lam = f"{0.05 + 0.945 * u_lam():.6f}"
        count = 101 + int(901 * u_count())
        channel = DECAY_CHANNELS[index % 5]
        r = 1 + index % 3
        argv = ["sweep-p", "--lambda", lam, "--r", str(r), "--channel", channel,
                "--p-count", str(count), "--format", ("csv", "json")[index % 2]]
        if channel in _SWITCH_CHANNELS and (index // 5) % 2:
            p_sc = switch_point(float(lam), r, channel)
            if p_sc is not None:
                start = max(0.0, p_sc - rng.uniform(0.004, 0.02))
                stop = min(1.0, p_sc + rng.uniform(0.004, 0.02))
                argv += ["--p-start", f"{start:.6f}", "--p-stop", f"{stop:.6f}"]
        yield argv


# One block of critical jobs as (channel, number of couplings): mostly phase
# flip, some bit-phase flip, one amplitude damping.  The order is fixed and
# interleaves cheap and costly jobs, so that a run that ends inside a block
# has about the same mix whatever the seed.
_CRITICAL_BLOCK = (
    ("phase-flip", 2), ("phase-flip", 1), ("phase-flip", 2), ("bit-phase-flip", 2),
    ("phase-flip", 2), ("amplitude-damping", 1), ("phase-flip", 3), ("phase-flip", 2),
    ("bit-phase-flip", 1), ("phase-flip", 2), ("bit-phase-flip", 3), ("phase-flip", 2),
)


def _critical(rng: random.Random) -> Iterator[list[str]]:
    """critical on 1-3 couplings with 1 - lambda log-uniform on [5e-3, 0.5].

    A job's k couplings sit one in each of k equal slices of log(1 - lambda),
    at the same offset within each slice.
    """
    offsets = {cell: _Sequence(2, rng) for cell in dict.fromkeys(_CRITICAL_BLOCK)}
    for index in itertools.count():
        channel, size = cell = _CRITICAL_BLOCK[index % len(_CRITICAL_BLOCK)]
        u = offsets[cell]()
        grid = [f"{1.0 - _log_uniform((i + u) / size, 5e-3, 0.5):.6f}" for i in range(size)]
        yield ["critical", "--lambda-grid", ",".join(sorted(grid, key=float)),
               "--channel", channel, "--format", ("csv", "json")[index % 2]]


def _longrange(rng: random.Random) -> Iterator[list[str]]:
    """ground-state with r log-uniform on 1..LONGRANGE_R_MAX.

    Of every ten jobs, eight have 1 - lambda log-uniform on [1e-3, 0.5], one
    sits at lambda = 1 (with an r not yet used there) and one has
    lambda - 1 log-uniform on [1e-3, 0.5].
    """
    r_max = LONGRANGE_R_MAX
    below = (_Sequence(2, rng), _Sequence(3, rng))
    above = (_Sequence(5, rng), _Sequence(7, rng))
    critical_r = _Sequence(11, rng)
    used_at_one: set[int] = set()

    def separation(u: float) -> int:
        return min(r_max, int(math.exp(u * math.log(r_max + 1))))

    for index in itertools.count():
        slot = index % 10
        if slot == 4:
            r = separation(critical_r())
            while r in used_at_one and len(used_at_one) < r_max:
                r = separation(critical_r())
            used_at_one.add(r)
            lam = 1.0
        elif slot == 9:
            lam = 1.0 + _log_uniform(above[0](), 1e-3, 0.5)
            r = separation(above[1]())
        else:
            lam = 1.0 - _log_uniform(below[0](), 1e-3, 0.5)
            r = separation(below[1]())
        yield ["ground-state", "--lambda", f"{lam:.6f}", "--r", str(r),
               "--format", ("csv", "json")[index % 2]]


_GENERATORS: dict[str, Callable[[random.Random], Iterator[list[str]]]] = {
    "decay": _decay,
    "critical": _critical,
    "longrange": _longrange,
}
