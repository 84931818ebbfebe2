"""Record sha256 digests of the stdout of each workload's digest jobs.

    python3 perfbench/record_digests.py

Writes digests.json beside this file.  A traced benchmark run reruns the
same jobs and reports how many outputs differ as ``cli.bytes_changed``;
rerun this script only when an output change is deliberate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import timcorr.cli  # noqa: E402

import workloads  # noqa: E402
from child import digests  # noqa: E402


def main() -> int:
    recorded = {workload: digests(timcorr.cli.main, workload) for workload in workloads.WORKLOADS}
    (HERE / "digests.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
