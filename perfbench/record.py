"""Record the benchmark's reference digests or its baseline.

Usage, from the root of a checkout:

    python3 perfbench/record.py references   # writes perfbench/references.json
    python3 perfbench/record.py baseline     # writes perfbench/baseline.json

References are the output digests of every operation at the default
seed; record them only on a commit whose outputs are known good, since
every later run is judged against them. The baseline is one untraced
and one traced run of every workload at the default seed, with the
machine it ran on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from run import HERE, ROOT, judge, measured_pass
from workloads import DEFAULT_SEED, WORKLOADS


def run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def record_references() -> None:
    references = {}
    seconds = run_seconds()
    for workload in WORKLOADS:
        deadline = time.monotonic() + 170
        one = measured_pass(workload, DEFAULT_SEED, False, seconds, deadline)
        _, failures = judge(workload, DEFAULT_SEED, [one], {})
        if failures:
            raise SystemExit("refusing to record failed outputs:\n" + "\n".join(failures))
        references[workload] = {op["id"]: op["digest"] for op in one["ops"]}
    (HERE / "references.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def record_baseline() -> None:
    runs = {}
    seconds = run_seconds()
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(DEFAULT_SEED), "--seconds", str(seconds), "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs[f"{workload} trace={trace}"] = result
    baseline = {
        "git_revision": git_revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": DEFAULT_SEED,
        "seconds": seconds,
        "runs": runs,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    commands = {"references": record_references, "baseline": record_baseline}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        raise SystemExit(__doc__)
    commands[sys.argv[1]]()
