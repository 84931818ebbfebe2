import json
import shutil
import subprocess
import sys

import pytest
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def result_of(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_untraced_run_reports_every_end_to_end_metric():
    code, out = bench("--workload", "decay", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert code == 0
    result = result_of(out)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_traced_calls_repeat_exactly_across_runs():
    args = ("--workload", "decay", "--seed", "3", "--seconds", "1", "--trace", "1")
    results = [result_of(bench(*args)[1]) for _ in range(2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(results[0]["metrics"]) == names
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
             for r in results]
    assert calls[0] == calls[1]
    assert results[0]["metrics"]["cli.bytes_changed"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, out = bench("--workload", "decay", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in out.splitlines())


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--seconds", "0"]])
def test_rejects_bad_arguments(argv):
    base = {"--workload": "decay", "--seed": "1", "--seconds": "1", "--trace": "0"}
    base.update(dict(zip(argv[::2], argv[1::2])))
    code, out = bench(*[x for kv in base.items() for x in kv])
    assert code != 0 and "{" not in out


def test_latencies_scale_with_the_calibration_around_them():
    import calibration
    import run

    ref = calibration.REFERENCE_S
    jobs = [{"at": at, "latency": 0.1, "cal": cal}
            for at, cal in ((0.0, ref), (1.0, ref), (10.0, 2 * ref), (11.0, 2 * ref))]
    assert run._scaled_latencies(jobs) == pytest.approx([0.1, 0.1, 0.05, 0.05])
