"""One measured pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE SECONDS

Run by ``run.py`` with ``src`` on ``PYTHONPATH``; a fresh interpreter
means every module-level cache starts empty, as it does for a user of
``beliefcheck audit``. Prints one JSON object: the wall time of the
pass, one record per operation (an audit call, a CLI query or a DSL
round trip) with its time and output digest, cache statistics and,
with TRACE=1, the per-name span counts and self times. Judging the
records is left to ``run.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Recorder, Tracer
from workloads import SWEEPS, queries, sweep_calls, write_model_files

ROOT = Path(__file__).resolve().parent.parent
# (name reported, module, attribute) of every module-level cache read
CACHES = (
    ("holds", "audit", "_holds"),
    ("type_signal", "audit", "_type_signal_of"),
    ("kripke_op", "audit", "_kripke_op_at"),
    ("pair_model", "audit", "_pair_model"),
    ("maximal_trace", "games", "maximal_trace"),
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def audit_record(result) -> dict:
    tallies = [(d.vacuous, d.confirmed, d.violated) for d in result.directions]
    return {
        "digest": digest(json.dumps(result.to_dict(), ensure_ascii=False, sort_keys=True)),
        "passed": result.passed,
        "violated": result.violated_total,
        "instances": result.instances,
        "witnesses": result.counterexamples_total,
        "live": sum(c + v for _, c, v in tallies),
        "tallied": sum(sum(t) for t in tallies),
    }


def run_sweep(workload: str, seed: int, tracer: Tracer | None) -> dict:
    audit = importlib.import_module("beliefcheck.audit")
    calls = [(claim, audit.ModelSource(**src), jobs) for claim, src, jobs in sweep_calls(workload, seed)]
    wait_s = 0.0
    outcomes = []
    if tracer:
        tracer.install()
    start = time.perf_counter()
    for claim, source, jobs in calls:
        # workers forked for jobs > 1 must run untraced, so that call is
        # traced only at its audit boundary: its self time is the
        # parent's CPU time and the rest is time blocked on workers
        parallel = tracer is not None and jobs > 1
        if parallel:
            tracer.uninstall()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = audit.audit(claim, source, jobs=jobs)
        except Exception as exc:  # a failed operation is reported, not fatal
            outcome = exc
        wall = time.perf_counter() - t0
        if parallel:
            blocked = max(0.0, wall - (time.process_time() - c0))
            tracer.recorder.fold("audit.audit", wall, blocked)
            wait_s += blocked
            tracer.install()
        outcomes.append((claim, wall, outcome))
    sweep_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    ops = []
    for claim, wall, outcome in outcomes:
        record = {"id": claim, "s": wall, "problem": None}
        if isinstance(outcome, Exception):
            record["problem"] = repr(outcome)
        else:
            record.update(audit_record(outcome))
        ops.append(record)
    return {"sweep_s": sweep_s, "timed_s": sweep_s, "ops": ops, "wait_s": wait_s}


def query_problem(args: list[str], code, text: str) -> str | None:
    """Structural check of one CLI report; None when it is well formed."""
    try:
        payload = json.loads(text)
    except ValueError:
        return f"exit {code}, output is not JSON"
    if payload.get("command") != args[2]:
        return f"report for command {payload.get('command')!r}"
    if code != (0 if payload.get("verdict") == "pass" else 1):
        return f"exit {code} with verdict {payload.get('verdict')!r}"
    return None


def run_queries(seed: int, seconds: float, tracer: Tracer | None) -> dict:
    bc = importlib.import_module("beliefcheck")
    cli = importlib.import_module("beliefcheck.cli")
    dsl = importlib.import_module("beliefcheck.dsl")
    work = ROOT / "perfbench" / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        names = write_model_files(bc, work, seed)
        texts = {name: (work / name).read_text(encoding="utf-8") for name in names}
        round_args = queries(names, seed)
        os.chdir(work)  # reports name files relative to here, so digests do not see the path
        ops = []
        first = {}  # op id -> (index in ops, args, exit code, output) of its first run

        def note(op_id, args, wall, code, text, problem):
            first.setdefault(op_id, (len(ops), args, code, text))
            ops.append({
                "id": op_id,
                "s": wall,
                "query": args is not None,
                "digest": digest(f"{code}\n{text}"),
                "problem": problem,
            })

        rounds = []
        if tracer:
            tracer.install()
        while not rounds or sum(rounds) < seconds:
            r0 = time.perf_counter()
            for args in round_args:
                out = io.StringIO()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out):
                        code = cli.run_cli(args)
                    problem = None
                except Exception as exc:  # a failed operation is reported, not fatal
                    code, problem = None, repr(exc)
                note(f"{args[2]} {args[3]}", args, time.perf_counter() - t0, code, out.getvalue(), problem)
            for name in names:
                t0 = time.perf_counter()
                try:
                    again = dsl.serialize_model_spec(dsl.parse_model_spec(texts[name]))
                    problem = None if again == texts[name] else "round trip changed the text"
                except Exception as exc:  # a failed operation is reported, not fatal
                    again, problem = "", repr(exc)
                note(f"round-trip {name}", None, time.perf_counter() - t0, 0, again, problem)
            rounds.append(time.perf_counter() - r0)
        if tracer:
            tracer.uninstall()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    # later runs of a query are held to the bytes of its first run by run.py
    for index, args, code, text in first.values():
        if ops[index]["problem"] is None and args is not None:
            ops[index]["problem"] = query_problem(args, code, text)
    # one round answers every query once: its mean time is the time to verdict
    return {"sweep_s": statistics.mean(rounds), "timed_s": sum(rounds), "ops": ops, "wait_s": 0.0}


def cache_stats() -> dict:
    out = {}
    for name, module, attr in CACHES:
        info = getattr(importlib.import_module(f"beliefcheck.{module}"), attr).cache_info()
        out[name] = {"hits": info.hits, "lookups": info.hits + info.misses}
    return out


def main(argv: list[str]) -> int:
    workload, seed, trace, seconds = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    recorder = Recorder() if trace else None
    tracer = Tracer(recorder) if trace else None
    if workload in SWEEPS:
        out = run_sweep(workload, seed, tracer)
    else:
        out = run_queries(seed, seconds, tracer)
    out["caches"] = cache_stats()
    if recorder:
        out["calls"] = recorder.calls
        out["self_s"] = recorder.self_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
