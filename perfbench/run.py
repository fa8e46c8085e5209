"""beliefcheck benchmark: time to verdict, query latency, per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in workloads.py.
Every measured pass runs in a fresh interpreter (child.py), so the
package's module-level caches start empty, as for a user. Load comes
from one closed loop: one operation at a time, jobs=1, except the one
jobs=2 audit of the sampled workload.

With --trace 0 the last line of stdout holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced pass plus
the overhead of tracing over an untraced pass of the same inputs.
Both lines carry the correctness gate. Every audit and query output is
compared with references.json at the default seed (at every seed for
the exhaustive sweeps, whose inputs do not depend on it). The pinned
counts and the claims' invariants hold at any seed, and a traced pass
must reproduce the untraced digests byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, by_layer
from workloads import (
    DEFAULT_SEED,
    PASSES,
    PINNED_INSTANCES,
    PINNED_WITNESSES,
    SEEDLESS,
    SWEEPS,
    WORKLOADS,
    sweep_calls,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
DEADLINE_S = 170  # each run must end within 180 s
CLAIMS = sorted({claim for w in SWEEPS for claim, _, _ in sweep_calls(w, DEFAULT_SEED)})


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a child interpreter in its own process group; return stdout.

    On timeout the whole group, audit workers included, is killed and
    reaped before the error propagates.
    """
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return out


def measured_pass(workload: str, seed: int, trace: bool, seconds: int, deadline: float) -> dict:
    out = run_child(
        [str(HERE / "child.py"), workload, str(seed), "1" if trace else "0", str(seconds)],
        deadline,
    )
    return json.loads(out.strip().splitlines()[-1])


def setup_seconds(deadline: float) -> float:
    """Median wall time from interpreter start through `import beliefcheck`."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        run_child(["-c", "import beliefcheck"], deadline)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def judge(workload: str, seed: int, passes: list[dict], references: dict) -> tuple[int, list[str]]:
    """Count the operations of all passes and list every failure."""
    attempted = 0
    failures = []
    first_digest: dict[str, str] = {}
    expected = references.get(workload, {}) if seed == DEFAULT_SEED or workload in SEEDLESS else {}
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            op_id = op["id"]
            problem = op["problem"]
            if problem is None and workload in SWEEPS:
                pinned = PINNED_INSTANCES.get((workload, op_id))
                witnesses = PINNED_WITNESSES.get((workload, op_id))
                if not op["passed"] or op["violated"]:
                    problem = f"claim failed with {op['violated']} violations"
                elif pinned is not None and op["instances"] != pinned:
                    problem = f"{op['instances']} instances, expected {pinned}"
                elif witnesses is not None and seed == DEFAULT_SEED and op["witnesses"] != witnesses:
                    problem = f"{op['witnesses']} witnesses, expected {witnesses}"
            if problem is None:
                # repeats of one operation, traced or not, must agree byte for byte
                seen = first_digest.setdefault(op_id, op["digest"])
                if op["digest"] != seen:
                    problem = "output differs from an earlier run of the same operation"
                elif expected and op["digest"] != expected.get(op_id):
                    problem = "output differs from the reference digest"
            if problem is not None:
                failures.append(f"{workload} {op_id}: {problem}")
    return attempted, failures


def end_to_end(passes: list[dict], workload: str, setup_s: float, rss_kb: int) -> dict:
    """Time to verdict is the median over the passes; on a sweep, so is each audit call's time."""
    if workload in SWEEPS:
        calls: dict[str, list[float]] = {}
        for p in passes:
            for op in p["ops"]:
                calls.setdefault(op["id"], []).append(op["s"])
        latencies = [statistics.median(v) for v in calls.values()]
    else:
        latencies = [op["s"] for p in passes for op in p["ops"] if op["query"]]
    return {
        "sweep_s": statistics.median(p["sweep_s"] for p in passes),
        "query_ms.p50": 1000 * percentile(latencies, 50),
        "query_ms.p90": 1000 * percentile(latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(plain: dict, traced: dict) -> dict:
    calls, self_s = traced["calls"], traced["self_s"]
    layer_calls, layer_self = by_layer(calls), by_layer(self_s)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = layer_calls[layer]
        m[f"{layer}.self_s"] = layer_self[layer]

    def total(names) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    m["core.from_table.calls"] = calls.get("core.from_table", 0)
    m["core.check_axiom.calls"] = calls.get("core.check_axiom", 0)
    m["core.common_operator.self_s"] = total(["core.common_operator"])
    m["signals.certain_of.self_s"] = total(["signals.certain_of"])
    m["signals.commonly_certain_of.self_s"] = total(["signals.commonly_certain_of"])
    m["qualitative.type_mapping_of.calls"] = calls.get("qualitative.type_mapping_of", 0)
    m["qualitative.access.self_s"] = total(["qualitative.positive_access", "qualitative.negative_access"])
    m["games.rationality_event.self_s"] = total(["games.rationality_event"])
    m["games.iesda.self_s"] = total(["games.iesda"])
    m["games.chain.self_s"] = total(n for n in self_s if n.startswith("games.") and n.endswith("_chain"))
    m["dsl.parse.self_s"] = total(["dsl.parse_model_spec", "dsl.parse_event_literal"])
    m["dsl.serialize.self_s"] = total(["dsl.serialize_model_spec", "dsl.serialize_model"])
    m["audit.wait_s"] = traced["wait_s"]
    for name, stats in traced["caches"].items():
        m[f"cache.{name}.hit_ratio"] = ratio(stats["hits"], stats["lookups"])
        m[f"cache.{name}.lookups"] = stats["lookups"]
    audits = [op for op in plain["ops"] if "tallied" in op]
    m["audit.live_ratio"] = ratio(sum(op["live"] for op in audits), sum(op["tallied"] for op in audits))
    for claim in CLAIMS:
        mine = [op for op in audits if op["id"] == claim]
        m[f"audit.{claim}.live_ratio"] = ratio(sum(op["live"] for op in mine), sum(op["tallied"] for op in mine))
        m[f"audit.{claim}.s"] = sum(op["s"] for op in mine)
    m["trace.overhead"] = traced["sweep_s"] / plain["sweep_s"] - 1
    m["trace.coverage"] = ratio(sum(self_s.values()) + traced["wait_s"], traced["timed_s"])
    return m


def report(values: dict, specs: list[dict]) -> dict:
    """Values in BENCHMARK.json order with their units; every metric present."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    extra = sorted(set(values) - {s["name"] for s in specs})
    if missing or extra:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: missing {missing}, extra {extra}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20, help="query window of model-files")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "beliefcheck" / "__init__.py").is_file():
        print(f"error: no beliefcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        plain = measured_pass(args.workload, args.seed, False, args.seconds, deadline)
        traced = measured_pass(args.workload, args.seed, True, args.seconds, deadline)
        passes = [plain, traced]
        metrics = report(per_layer(plain, traced), spec["per_layer"])
    else:
        passes = [
            measured_pass(args.workload, args.seed, False, args.seconds, deadline)
            for _ in range(PASSES.get(args.workload, 1))
        ]
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = end_to_end(passes, args.workload, setup_seconds(deadline), rss_kb)
        metrics = report(values, spec["end_to_end"])

    attempted, failures = judge(args.workload, args.seed, passes, references)
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} operations in {len(passes)} passes, "
          f"{len(failures)} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
