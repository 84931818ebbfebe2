import itertools

import pytest

import workloads

KEPT_FLAGS = {"--lambda", "--channel", "--r", "--p-start", "--p-stop", "--p-count",
              "--lambda-grid", "--format"}
COUNTS = {"decay": 200, "critical": 120, "longrange": 400}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    count = COUNTS[workload]
    assert workloads.take(workload, 3, count) == workloads.take(workload, 3, count)
    assert workloads.take(workload, 3, 20) != workloads.take(workload, 4, 20)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_input_repeats(workload):
    jobs = [tuple(argv) for argv in workloads.take(workload, 5, COUNTS[workload])]
    assert len(set(jobs)) == len(jobs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_only_kept_flags(workload):
    for argv in workloads.take(workload, 6, 60):
        assert set(argv[1::2]) <= KEPT_FLAGS
        assert len(argv) % 2 == 1


def test_decay_covers_channels_formats_and_zoom():
    jobs = workloads.take("decay", 7, 50)
    assert {argv[argv.index("--channel") + 1] for argv in jobs} == set(workloads.DECAY_CHANNELS)
    assert {argv[argv.index("--format") + 1] for argv in jobs} == {"csv", "json"}
    counts = [int(argv[argv.index("--p-count") + 1]) for argv in jobs]
    assert 101 <= min(counts) and max(counts) <= 1001
    assert sum("--p-start" in argv for argv in jobs) >= 10


def test_longrange_includes_critical_and_ordered_couplings():
    lams = [float(argv[2]) for argv in workloads.take("longrange", 8, 100)]
    assert lams.count(1.0) >= 5
    assert sum(lam > 1.0 for lam in lams) >= 5
    assert min(lams) >= 0.5


def test_longrange_separations_stay_below_far_pair_probes():
    separations = {int(argv[4]) for argv in workloads.take("longrange", 8, 400)}
    assert min(separations) == 1 and max(separations) == workloads.LONGRANGE_R_MAX
    assert all(int(argv[4]) > workloads.LONGRANGE_R_MAX for argv in workloads.FAR_PAIR_PROBES)


def test_critical_grid_sizes_and_channels():
    jobs = workloads.take("critical", 9, 24)
    sizes = {len(argv[2].split(",")) for argv in jobs}
    assert sizes == {1, 2, 3}
    channels = [argv[4] for argv in jobs]
    assert channels.count("phase-flip") > channels.count("bit-phase-flip") > 0
    assert "amplitude-damping" in channels
    for value in itertools.chain.from_iterable(argv[2].split(",") for argv in jobs):
        assert 0.5 <= float(value) <= 0.995


def test_jobs_do_not_depend_on_hash_randomization():
    import subprocess
    import sys

    from conftest import BENCH

    code = ("import json, workloads; print(json.dumps({w: workloads.take(w, 1, 30) "
            "for w in workloads.WORKLOADS}))")
    outputs = {
        subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True,
                       env={"PYTHONHASHSEED": seed}, check=True).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outputs) == 1
